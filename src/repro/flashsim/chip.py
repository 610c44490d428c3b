"""NAND flash chip model.

Implements the flash state machine of Section 2.1 of the paper:

* the basic operations are **read**, **program** and **erase** (not read
  and write);
* pages can only be programmed when erased, and only **sequentially
  within their block** (to limit program-disturb errors on NAND);
* erase works at block granularity only;
* blocks endure a bounded number of erase cycles (1e5 MLC / 1e6 SLC),
  after which they must be retired as *bad blocks*;
* chips may have two planes (even/odd blocks) usable in parallel.

The chip does not store user data bytes.  Instead each programmed page
holds an opaque integer *token* supplied by the FTL; tokens let the
device layer verify read-your-writes in tests without the memory cost of
real page contents.  Timing is *not* the chip's concern — the FTL counts
operations in a :class:`~repro.flashsim.timing.CostAccumulator` and the
device converts counts to microseconds.

Besides the three scalar operations, run forms check once per run
instead of once per page: ``read_run``/``read_many``/``program_run``
for host IO runs, and :meth:`FlashChip.migrate` for merge copies.
``migrate`` reads a run of source pages and reprograms them, with a
filler token for gaps, into one destination block; it is the only copy
path of the hybrid (full and partial merges), block-map (gap copies and
finalisation) and FAST (reclamation) FTLs, and of page-map garbage
collection on its batch path.  Every run form leaves the same tokens
and counters as the scalar loop it stands for, and ``migrate`` replays
that loop whenever a fault injector is attached or a check fails, so
errors surface at the same page with the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from repro.errors import BadBlockError, EnduranceError, EraseError, ProgramError
from repro.flashsim.bitmap import pack_bits
from repro.flashsim.geometry import Geometry

#: token value of a page in the erased state
ERASED = -1

#: default endurance ratings (erase cycles per block), Section 2.1
SLC_ENDURANCE = 1_000_000
MLC_ENDURANCE = 100_000


class FaultInjector(Protocol):
    """Optional hook deciding whether a chip operation fails.

    Used by failure-injection tests; production profiles run without one.
    """

    def program_fails(self, block: int, page_offset: int) -> bool:
        """Return True to make this program operation fail."""
        ...

    def erase_fails(self, block: int) -> bool:
        """Return True to make this erase operation fail."""
        ...


@dataclass
class ChipStats:
    """Cumulative operation counters for one chip."""

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0
    program_failures: int = 0
    erase_failures: int = 0


class FlashChip:
    """One simulated NAND chip (or chip array) behind a controller.

    Parameters
    ----------
    geometry:
        Shared :class:`Geometry`; the chip provides ``geometry.physical_blocks``
        erase blocks.
    endurance:
        Erase cycles per block before the block wears out.
    fault_injector:
        Optional :class:`FaultInjector` for failure testing.
    """

    def __init__(
        self,
        geometry: Geometry,
        endurance: int = SLC_ENDURANCE,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if endurance <= 0:
            raise ValueError("endurance must be positive")
        self.geometry = geometry
        self.endurance = endurance
        self.fault_injector = fault_injector
        self.stats = ChipStats()
        nblocks = geometry.physical_blocks
        npages = geometry.physical_pages
        # token stored in each physical page; ERASED when erased
        self._tokens = np.full(npages, ERASED, dtype=np.int64)
        # next programmable page offset within each block (0..pages_per_block)
        self._write_point = np.zeros(nblocks, dtype=np.int32)
        self._erase_count = np.zeros(nblocks, dtype=np.int64)
        self._bad = np.zeros(nblocks, dtype=bool)

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.geometry.physical_blocks:
            raise EraseError(
                f"block {block} out of range 0..{self.geometry.physical_blocks - 1}"
            )

    def _check_page(self, block: int, page_offset: int) -> None:
        self._check_block(block)
        if not 0 <= page_offset < self.geometry.pages_per_block:
            raise ProgramError(
                f"page offset {page_offset} out of range "
                f"0..{self.geometry.pages_per_block - 1}"
            )

    def _page_index(self, block: int, page_offset: int) -> int:
        return block * self.geometry.pages_per_block + page_offset

    # ------------------------------------------------------------------
    # the three NAND operations
    # ------------------------------------------------------------------

    def read(self, block: int, page_offset: int) -> int:
        """Read the token of a physical page (ERASED if never programmed)."""
        self._check_page(block, page_offset)
        if self._bad[block]:
            raise BadBlockError(f"read from bad block {block}")
        self.stats.page_reads += 1
        return int(self._tokens[self._page_index(block, page_offset)])

    def program(self, block: int, page_offset: int, token: int) -> None:
        """Program one page with ``token``.

        Enforces NAND constraints: the page must be erased and must be
        the next page in program order within its block.
        """
        self._check_page(block, page_offset)
        if self._bad[block]:
            raise BadBlockError(f"program to bad block {block}")
        if token < 0:
            raise ProgramError("tokens must be non-negative")
        write_point = int(self._write_point[block])
        if page_offset != write_point:
            raise ProgramError(
                f"out-of-order program in block {block}: page {page_offset} "
                f"programmed while write point is {write_point} "
                "(NAND pages must be programmed sequentially within a block)"
            )
        if self.fault_injector is not None and self.fault_injector.program_fails(
            block, page_offset
        ):
            self.stats.program_failures += 1
            self.mark_bad(block)
            raise ProgramError(f"injected program failure in block {block}")
        self._tokens[self._page_index(block, page_offset)] = token
        self._write_point[block] = write_point + 1
        self.stats.page_programs += 1

    # ------------------------------------------------------------------
    # run (batch) operations — the vectorized hot path
    # ------------------------------------------------------------------

    def read_run(self, block: int, start: int, n: int) -> np.ndarray:
        """Read ``n`` consecutive pages of ``block`` starting at ``start``.

        One bounds/bad-block check for the whole run; returns a copy of
        the token slice (ERASED entries for never-programmed pages).
        Counts ``n`` page reads, exactly like ``n`` scalar :meth:`read`
        calls.
        """
        if n < 0:
            raise ProgramError(f"run length must be >= 0, got {n}")
        if n == 0:
            self._check_block(block)
            return np.empty(0, dtype=np.int64)
        self._check_page(block, start)
        self._check_page(block, start + n - 1)
        if self._bad[block]:
            raise BadBlockError(f"read from bad block {block}")
        self.stats.page_reads += n
        base = self._page_index(block, start)
        return self._tokens[base : base + n].copy()

    def read_many(self, ppages: np.ndarray) -> np.ndarray:
        """Gather-read arbitrary physical pages (one check per batch).

        ``ppages`` are global physical page indexes.  Equivalent to one
        scalar :meth:`read` per page: the same tokens come back and the
        same number of page reads is counted.
        """
        ppages = np.asarray(ppages, dtype=np.int64)
        if ppages.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(ppages.min()) < 0 or int(ppages.max()) >= self.geometry.physical_pages:
            raise ProgramError("physical page index out of range in read_many")
        blocks = ppages // self.geometry.pages_per_block
        if self._bad[blocks].any():
            bad = int(blocks[self._bad[blocks]][0])
            raise BadBlockError(f"read from bad block {bad}")
        self.stats.page_reads += int(ppages.size)
        return self._tokens[ppages]

    def program_run(self, block: int, start: int, tokens: np.ndarray) -> None:
        """Program consecutive pages of ``block`` with a token array.

        Enforces the same NAND constraints as scalar :meth:`program`
        (erased pages, strictly sequential program order) with one check
        per run.  Under a fault injector the run decays to scalar
        programs so injected failures keep their exact semantics.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        n = int(tokens.size)
        if n == 0:
            self._check_block(block)
            return
        if self.fault_injector is not None:
            for i in range(n):
                self.program(block, start + i, int(tokens[i]))
            return
        if not 0 <= block < self.geometry.physical_blocks:
            raise EraseError(
                f"block {block} out of range 0..{self.geometry.physical_blocks - 1}"
            )
        if start < 0 or start + n > self.geometry.pages_per_block:
            raise ProgramError(
                f"run [{start}, +{n}) exceeds block {block}'s "
                f"{self.geometry.pages_per_block} pages"
            )
        if self._bad[block]:
            raise BadBlockError(f"program to bad block {block}")
        # token validity (>= 0) is the caller's contract: every FTL run
        # entry point validates its token array once before programming
        write_point = int(self._write_point[block])
        if start != write_point:
            raise ProgramError(
                f"out-of-order program in block {block}: run starts at {start} "
                f"while write point is {write_point} "
                "(NAND pages must be programmed sequentially within a block)"
            )
        base = block * self.geometry.pages_per_block + start
        self._tokens[base : base + n] = tokens
        self._write_point[block] = write_point + n
        self.stats.page_programs += n

    def migrate(
        self, src_ppages: np.ndarray, dst_block: int, start: int, filler: int
    ) -> int:
        """Copy a run of pages into ``dst_block`` from offset ``start`` on.

        Entry ``i`` of ``src_ppages`` fills page ``start + i``: a global
        physical page (>= 0) is read and its token reprogrammed
        (``filler`` if that page is erased); -1 programs ``filler``
        without a read.  Returns the number of pages read.

        Equivalent to one scalar :meth:`read` per source followed by one
        :meth:`program` per page, with one check per run.  A run that
        cannot pass the checks whole (fault injector attached, bad or
        out-of-range block or page, out-of-order ``start``, negative
        ``filler``, a source inside ``dst_block``) replays exactly that
        scalar interleave, so it raises the same exception at the same
        page and leaves the same tokens and counters behind.
        """
        src = np.asarray(src_ppages, dtype=np.int64)
        n = int(src.size)
        ppb = self.geometry.pages_per_block
        reads = src >= 0
        sources = src[reads]
        blocks = sources // ppb
        if (
            self.fault_injector is None
            and filler >= 0
            and 0 <= dst_block < self.geometry.physical_blocks
            and 0 <= start
            and start + n <= ppb
            and not self._bad[dst_block]
            and self._write_point[dst_block] == start
            and (sources.size == n or bool((src >= -1).all()))
            and (
                sources.size == 0
                or (
                    int(sources.max()) < self.geometry.physical_pages
                    and not self._bad[blocks].any()
                    and not (blocks == dst_block).any()
                )
            )
        ):
            tokens = np.full(n, filler, dtype=np.int64)
            copied = self._tokens[sources]
            tokens[reads] = np.where(copied == ERASED, filler, copied)
            base = dst_block * ppb + start
            self._tokens[base : base + n] = tokens
            self._write_point[dst_block] = start + n
            self.stats.page_reads += int(sources.size)
            self.stats.page_programs += n
            return int(sources.size)
        count = 0
        for i, page in enumerate(src.tolist()):
            token = filler
            if page != -1:
                token = self.read(*divmod(page, ppb))
                count += 1
                if token == ERASED:
                    token = filler
            self.program(dst_block, start + i, token)
        return count

    def erase(self, block: int) -> None:
        """Erase a whole block, resetting all its pages to ERASED."""
        self._check_block(block)
        if self._bad[block]:
            raise BadBlockError(f"erase of bad block {block}")
        if self._erase_count[block] >= self.endurance:
            self.mark_bad(block)
            raise EnduranceError(
                f"block {block} exceeded endurance of {self.endurance} erase cycles"
            )
        if self.fault_injector is not None and self.fault_injector.erase_fails(block):
            self.stats.erase_failures += 1
            self.mark_bad(block)
            raise EraseError(f"injected erase failure in block {block}")
        start = self._page_index(block, 0)
        self._tokens[start : start + self.geometry.pages_per_block] = ERASED
        self._write_point[block] = 0
        self._erase_count[block] += 1
        self.stats.block_erases += 1

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of all mutable chip state (tokens, write points, wear
        counters, bad blocks, operation counters).

        Part of the device snapshot/restore protocol: the returned
        object is independent of the live chip, so one snapshot
        supports any number of restores.  The bad-block mask is held as
        :class:`~repro.flashsim.bitmap.PackedBits` — one bit per block
        instead of one byte.
        """
        return {
            "tokens": self._tokens.copy(),
            "write_point": self._write_point.copy(),
            "erase_count": self._erase_count.copy(),
            "bad": pack_bits(self._bad),
            "stats": replace(self.stats),
        }

    def restore(self, state: dict) -> None:
        """Reset the chip to a :meth:`snapshot`, copying the state so
        the snapshot stays reusable."""
        self._tokens = state["tokens"].copy()
        self._write_point = state["write_point"].copy()
        self._erase_count = state["erase_count"].copy()
        self._bad = state["bad"].unpack()
        self.stats = replace(state["stats"])

    def update_digest(self, hasher) -> None:
        """Feed the chip's physical state into a hash (state fingerprints)."""
        for array in (self._tokens, self._write_point, self._erase_count, self._bad):
            hasher.update(array.tobytes())

    # ------------------------------------------------------------------
    # block health and introspection
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Cumulative operation counters as a flat ``chip.*`` map.

        Sampled by :meth:`FlashDevice.metrics` at run and cell
        boundaries; every value is a monotonic counter, so two samples
        subtract into the physical work done between them.
        """
        return {
            "chip.page_reads": float(self.stats.page_reads),
            "chip.page_programs": float(self.stats.page_programs),
            "chip.block_erases": float(self.stats.block_erases),
            "chip.program_failures": float(self.stats.program_failures),
            "chip.erase_failures": float(self.stats.erase_failures),
        }

    def mark_bad(self, block: int) -> None:
        """Retire a block; it will reject all further operations."""
        self._check_block(block)
        self._bad[block] = True

    def is_bad(self, block: int) -> bool:
        """Whether a block has been retired."""
        self._check_block(block)
        return bool(self._bad[block])

    def is_erased(self, block: int) -> bool:
        """Whether the whole block is in the erased state."""
        self._check_block(block)
        return int(self._write_point[block]) == 0

    def write_point(self, block: int) -> int:
        """Next programmable page offset within ``block``."""
        self._check_block(block)
        return int(self._write_point[block])

    def erase_count(self, block: int) -> int:
        """Erase cycles this block has endured so far."""
        self._check_block(block)
        return int(self._erase_count[block])

    def erase_counts(self) -> np.ndarray:
        """Copy of the per-block erase counters (for wear statistics)."""
        return self._erase_count.copy()

    def erased_mask(self) -> np.ndarray:
        """Boolean bitmap of fully-erased blocks (write point at 0) —
        the dense form of :meth:`is_erased` for whole-pool invariant
        checks."""
        return self._write_point == 0

    def plane_of(self, block: int) -> int:
        """Plane a block belongs to (even blocks plane 0, odd plane 1)."""
        self._check_block(block)
        return block % self.geometry.planes if self.geometry.planes > 1 else 0

    def good_blocks(self) -> int:
        """Number of blocks not (yet) retired."""
        return int((~self._bad).sum())

    def wear_summary(self) -> dict[str, float]:
        """Wear-levelling quality indicators across good blocks."""
        counts = self._erase_count[~self._bad]
        if counts.size == 0:
            return {"min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}
        return {
            "min": float(counts.min()),
            "max": float(counts.max()),
            "mean": float(counts.mean()),
            "std": float(counts.std()),
        }


class ChannelSet:
    """Per-channel busy horizons for dispatch decisions.

    The controller reaches the flash array over ``count`` independent
    channels; each tracks until when it is occupied.  Dispatch always
    picks the channel that frees earliest (lowest index on ties — a
    deterministic total order, like the hosts' process scan).  One IO
    still occupies exactly one channel: the *within*-IO overlap across
    channels and planes is already folded into the
    :class:`~repro.flashsim.timing.TimingSpec` cost divisor, so the
    channel set only decides which *queued* IOs overlap each other.
    """

    __slots__ = ("_busy",)

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("a channel set needs at least one channel")
        self._busy = [0.0] * count

    def __len__(self) -> int:
        return len(self._busy)

    def pick(self) -> int:
        """The channel that frees earliest (lowest index on ties)."""
        busy = self._busy
        best = 0
        best_time = busy[0]
        for channel in range(1, len(busy)):
            if busy[channel] < best_time:
                best_time = busy[channel]
                best = channel
        return best

    def free_at(self, channel: int) -> float:
        """Until when ``channel`` is occupied."""
        return self._busy[channel]

    def occupy(self, channel: int, until: float) -> None:
        """Mark ``channel`` busy up to simulated time ``until``."""
        if until > self._busy[channel]:
            self._busy[channel] = until

    def earliest_free(self) -> float:
        """When the least-loaded channel frees."""
        return min(self._busy)

    def reset(self) -> None:
        """Clear all occupancy (fresh device / full drain)."""
        self._busy = [0.0] * len(self._busy)

    def snapshot(self) -> tuple[float, ...]:
        """Opaque copy of the per-channel horizons."""
        return tuple(self._busy)

    def restore(self, state: tuple[float, ...]) -> None:
        """Reset the horizons to a :meth:`snapshot`."""
        if len(state) != len(self._busy):
            raise ValueError(
                f"channel snapshot has {len(state)} channels, device has "
                f"{len(self._busy)}"
            )
        self._busy = list(state)
