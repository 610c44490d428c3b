"""Fully page-mapped FTL with greedy garbage collection.

This is the "modern SSD" end of the design space (and the design most
2008-era papers *assumed*): a direct map at page granularity, writes
appended to an active block, and a garbage collector that reclaims the
block with the fewest valid pages.  Section 2.2 of the paper describes
exactly this map (direct + inverse) and its RAM cost.

Performance shape: sequential overwrites leave fully-invalid victims
(GC = erase only, cheap); random writes over a wide area leave uniformly
half-valid victims (GC copies most of a block per reclaim, expensive);
random writes confined to an area no bigger than the spare pool converge
to cheap GC — the *Locality* effect, emerging mechanically.

The FTL also implements threshold-based **static wear levelling**:
when the erase-count spread exceeds a threshold, the coldest data block
is relocated so its low-wear block re-enters the rotation.

State representation: the direct map ``_l2p`` is the single
authoritative structure (plus the free deque, whose order is the wear
rotation).  Everything else — the inverse map ``_p2l``, the per-page
``_valid_map`` and per-block ``_free_map`` bitmaps, per-block valid
counts, block states and the min-valid GC buckets — is derived,
maintained incrementally on the hot path, excluded from snapshots and
rebuilt wholesale by :meth:`PageMapFTL.restore`.  GC victim scans and
the analytic write kernel operate directly on the bitmaps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, FTLError, OutOfSpaceError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.base import BaseFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator

# block states
_FREE, _ACTIVE, _DATA = 0, 1, 2


@dataclass(frozen=True)
class PageMapConfig:
    """Tuning of a :class:`PageMapFTL`.

    ``gc_low_blocks`` is the free-pool level at which foreground GC
    kicks in; ``bg_target_blocks`` (> ``gc_low_blocks``) is what the
    background collector restores during idle time when ``bg_enabled``.
    ``wear_threshold`` (0 = disabled) triggers static wear levelling
    when the erase-count spread exceeds it.

    ``gc_policy`` selects the victim: ``"greedy"`` (fewest valid pages
    — best immediate yield) or ``"cost-benefit"`` (the classic
    LFS/flash policy weighing yield against the block's age, which
    avoids repeatedly collecting hot, soon-to-be-invalidated blocks).
    """

    gc_low_blocks: int = 2
    bg_enabled: bool = False
    bg_target_blocks: int = 0
    wear_threshold: int = 0
    gc_policy: str = "greedy"

    def __post_init__(self) -> None:
        if self.gc_low_blocks < 1:
            raise FTLError("gc_low_blocks must be >= 1")
        if self.bg_enabled and self.bg_target_blocks <= self.gc_low_blocks:
            raise FTLError("bg_target_blocks must exceed gc_low_blocks")
        if self.wear_threshold < 0:
            raise FTLError("wear_threshold must be >= 0")
        if self.gc_policy not in ("greedy", "cost-benefit"):
            raise FTLError(f"unknown gc_policy {self.gc_policy!r}")


class PageMapFTL(BaseFTL):
    """Direct page map + append log + greedy garbage collection."""

    batch_read_capable = True
    batch_write_capable = True

    #: Snapshot core: the direct map, the free queue (its order is the
    #: allocation order) and the scalars.  Everything else — the inverse
    #: map, the per-block valid counters, the block states, the valid
    #: and free bitmaps and the GC buckets — is a pure function of this
    #: core and is rebuilt by :meth:`restore`, which keeps snapshots at
    #: roughly half the size of the full working state.
    _STATE_ATTRS = (
        "_l2p",
        "_free",
        "_host_active",
        "_gc_active",
        "_retired_at",
        "_sequence",
        "gc_collections",
        "wear_relocations",
        "gc_copy_reads",
        "gc_copy_programs",
    )

    def __init__(
        self,
        geometry: Geometry,
        chip: FlashChip,
        config: PageMapConfig | None = None,
    ) -> None:
        super().__init__(geometry, chip)
        self.config = config or PageMapConfig()
        min_spare = self.config.gc_low_blocks + 3  # host active + GC active + reserve
        if geometry.spare_blocks < min_spare:
            raise FTLError(
                f"geometry provides {geometry.spare_blocks} spare blocks but "
                f"the page-map FTL needs at least {min_spare}"
            )
        if self.config.bg_enabled and self.config.bg_target_blocks > geometry.spare_blocks - 3:
            raise FTLError("bg_target_blocks exceeds the spare area")
        npages = geometry.physical_pages
        self._l2p = np.full(geometry.logical_pages, -1, dtype=np.int64)
        self._p2l = np.full(npages, -1, dtype=np.int64)
        self._valid = np.zeros(geometry.physical_blocks, dtype=np.int64)
        self._state = np.full(geometry.physical_blocks, _FREE, dtype=np.int8)
        self._free: deque[int] = deque(range(geometry.physical_blocks))
        # dense bitmaps mirroring the maps above: one bit per physical
        # page (does it hold a live logical page?) and one per block
        # (is it in the free pool?) — the buffers GC victim scans and
        # invariant checks operate on
        self._valid_map = np.zeros(npages, dtype=bool)
        self._free_map = np.ones(geometry.physical_blocks, dtype=bool)
        self._host_active = self._allocate_active()
        self._gc_active = self._allocate_active()
        # logical sequence number at which each block was retired to
        # data state — the "age" input of the cost-benefit policy
        self._retired_at = np.zeros(geometry.physical_blocks, dtype=np.int64)
        self._sequence = 0
        self.gc_collections = 0
        self.wear_relocations = 0
        self.gc_copy_reads = 0
        self.gc_copy_programs = 0
        # Greedy victim selection in O(1): data blocks bucketed by valid
        # count, with a floor pointer that only advances on pops.  Derived
        # from (_state, _valid), so it is rebuilt on restore rather than
        # snapshotted.
        self._use_buckets = self.config.gc_policy == "greedy"
        self._rebuild_buckets()

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _allocate_active(self) -> int:
        if not self._free:
            raise OutOfSpaceError("page-map FTL exhausted all free blocks")
        block = self._free.popleft()
        self._state[block] = _ACTIVE
        self._free_map[block] = False
        return block

    def _retire_active(self, block: int) -> None:
        self._state[block] = _DATA
        self._sequence += 1
        self._retired_at[block] = self._sequence
        if self._use_buckets:
            self._bucket_add(block)

    # ------------------------------------------------------------------
    # min-valid buckets (greedy victim selection in O(1))
    # ------------------------------------------------------------------

    def _rebuild_buckets(self) -> None:
        """Derive the bucket structure from ``_state``/``_valid``."""
        ppb = self.geometry.pages_per_block
        self._bucket_of = np.full(self.geometry.physical_blocks, -1, dtype=np.int32)
        self._buckets: list[set[int]] = [set() for _ in range(ppb + 1)]
        self._min_bucket = ppb + 1
        if not self._use_buckets:
            return
        for block in np.flatnonzero(self._state == _DATA):
            self._bucket_add(int(block))

    def _bucket_add(self, block: int) -> None:
        valid = int(self._valid[block])
        self._buckets[valid].add(block)
        self._bucket_of[block] = valid
        if valid < self._min_bucket:
            self._min_bucket = valid

    def _bucket_remove(self, block: int) -> None:
        valid = int(self._bucket_of[block])
        if valid >= 0:
            self._buckets[valid].discard(block)
            self._bucket_of[block] = -1

    def _bucket_dec(self, block: int, by: int = 1) -> None:
        """Move a bucketed data block down after invalidations."""
        valid = int(self._bucket_of[block])
        if valid < 0:
            return
        self._buckets[valid].discard(block)
        valid -= by
        self._buckets[valid].add(block)
        self._bucket_of[block] = valid
        if valid < self._min_bucket:
            self._min_bucket = valid

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_page(self, lpage: int, cost: CostAccumulator) -> int:
        """See :meth:`BaseFTL.read_page`: one direct-map lookup."""
        self._check_lpage(lpage)
        ppage = int(self._l2p[lpage])
        if ppage < 0:
            return ERASED
        cost.page_reads += 1
        block, offset = divmod(ppage, self.geometry.pages_per_block)
        return self.chip.read(block, offset)

    def read_pages(
        self,
        lpages: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> np.ndarray:
        """See :meth:`BaseFTL.read_pages`: one fancy-indexed map lookup
        plus one gather read for every mapped page."""
        if not self.batch_enabled:
            return super().read_pages(lpages, cost)
        lpages = np.asarray(lpages, dtype=np.int64)
        if lpages.size == 0:
            return np.empty(0, dtype=np.int64)
        if ascending:
            lo, hi = int(lpages[0]), int(lpages[-1])
        else:
            lo, hi = int(lpages.min()), int(lpages.max())
        if lo < 0 or hi >= self.geometry.logical_pages:
            raise AddressError(
                f"logical page out of range 0..{self.geometry.logical_pages - 1}"
            )
        ppages = self._l2p[lpages]
        mapped = ppages >= 0
        tokens = np.full(lpages.size, ERASED, dtype=np.int64)
        count = int(mapped.sum())
        if count:
            tokens[mapped] = self.chip.read_many(ppages[mapped])
            cost.page_reads += count
        return tokens

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write_page(self, lpage: int, token: int, cost: CostAccumulator) -> None:
        """See :meth:`BaseFTL.write_page`: invalidate, append, maybe GC."""
        self._check_lpage(lpage)
        if token < 0:
            raise FTLError("host tokens must be non-negative")
        self._invalidate(lpage)
        self._append(lpage, token, host=True, cost=cost)
        cost.page_programs += 1
        # Foreground GC once the pool is at the low watermark — this is
        # the oscillation of the running phase (Figures 3/4).
        while len(self._free) <= self.config.gc_low_blocks:
            if not self._collect_one(cost):
                break
        if self.config.wear_threshold:
            self._maybe_wear_level(cost)

    def write_pages(self, items, cost: CostAccumulator) -> None:
        """Route batches (host IOs, cache destage groups) through the
        vectorized run kernel."""
        if not items:
            return
        lpages = np.fromiter((pair[0] for pair in items), dtype=np.int64, count=len(items))
        tokens = np.fromiter((pair[1] for pair in items), dtype=np.int64, count=len(items))
        self.write_run(lpages, tokens, cost)

    def write_run(
        self,
        lpages: np.ndarray,
        tokens: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> None:
        """Vectorized write path: invalidate with fancy indexing, append
        whole runs into the host active block.

        Behaviourally identical to the scalar :meth:`write_page` loop:
        a run is split into chunks within which the scalar path's
        per-page GC and wear-levelling checks are provably no-ops (the
        free pool and erase counters cannot change during a pure
        append), and decays to single scalar writes at the points where
        GC or wear levelling would actually fire.

        The GC-epoch kernel
        (:func:`repro.flashsim.analytic._pagemap_epoch_window`) mirrors
        this same slow-loop structure over a whole window's flattened
        page stream — closed-form ``_append_run`` chunks between
        collections, the real :meth:`write_page` at each free-pool
        watermark — so changes to the chunking or the GC trigger here
        must be reflected there to preserve bit-identity.
        """
        if not self.batch_enabled:
            for lpage, token in zip(lpages, tokens):
                self.write_page(int(lpage), int(token), cost)
            return
        lpages = np.asarray(lpages, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64)
        n = int(lpages.size)
        if n == 0:
            return
        # Controller runs are strictly ascending, which gives distinctness
        # and min/max for free; arbitrary batches pay the full checks.
        if ascending or n == 1 or bool((np.diff(lpages) > 0).all()):
            lo, hi = int(lpages[0]), int(lpages[-1])
        else:
            lo, hi = int(lpages.min()), int(lpages.max())
            if np.unique(lpages).size != n:
                # a duplicate lpage inside one run would fold two updates
                # into one fancy-indexed store; take the reference path
                for lpage, token in zip(lpages, tokens):
                    self.write_page(int(lpage), int(token), cost)
                return
        if lo < 0 or hi >= self.geometry.logical_pages:
            raise AddressError(
                f"logical page out of range 0..{self.geometry.logical_pages - 1}"
            )
        if not ascending and bool((tokens < 0).any()):
            # ascending certifies a controller-built run, whose tokens are
            # fresh mints or RMW reads — non-negative by construction
            raise FTLError("host tokens must be non-negative")
        ppb = self.geometry.pages_per_block
        wear = self.config.wear_threshold
        gc_low = self.config.gc_low_blocks
        # Fast path: during pure appends the free pool only shrinks at
        # block-crossing allocate events (at most 1 + n // ppb of them)
        # and erase counts never change, so if the pool clears the GC
        # watermark by that margin — and no wear move is already due —
        # neither GC nor wear levelling can fire anywhere in the run.
        # The whole run can then be invalidated in one pass and appended
        # chunk by chunk with no per-chunk checks.  (Invalidating early
        # is safe exactly because nothing in between reads _valid/_p2l:
        # those are only consulted by the GC/wear machinery.)
        if len(self._free) > gc_low + 1 + n // ppb and not (
            wear and self._wear_pending()
        ):
            self._invalidate_run(lpages)
            i = 0
            while i < n:
                active = self._host_active
                write_point = self.chip.write_point(active)
                if write_point == ppb:
                    self._retire_active(active)
                    active = self._allocate_active()
                    self._host_active = active
                    write_point = 0
                take = min(ppb - write_point, n - i)
                self._program_run(
                    active, write_point, lpages[i : i + take], tokens[i : i + take]
                )
                i += take
            cost.page_programs += n
            return
        i = 0
        while i < n:
            active = self._host_active
            write_point = self.chip.write_point(active)
            if write_point == ppb:
                self._retire_active(active)
                active = self._allocate_active()
                self._host_active = active
                write_point = 0
            if len(self._free) <= gc_low or (wear and self._wear_pending()):
                # GC (or a wear move) would run after this page in the
                # scalar path — replay it exactly.
                self.write_page(int(lpages[i]), int(tokens[i]), cost)
                i += 1
                continue
            take = min(ppb - write_point, n - i)
            self._append_run(
                active, write_point, lpages[i : i + take], tokens[i : i + take]
            )
            cost.page_programs += take
            i += take

    def _append_run(
        self, active: int, offset: int, lpages: np.ndarray, tokens: np.ndarray
    ) -> None:
        """Invalidate + append one chunk that fits the active block
        (``offset`` is the block's current write point)."""
        self._invalidate_run(lpages)
        self._program_run(active, offset, lpages, tokens)

    def _invalidate_run(self, lpages: np.ndarray) -> None:
        """Vectorized :meth:`_invalidate` over a batch of distinct lpages."""
        old = self._l2p[lpages]
        remap = old >= 0
        # steady state rewrites whole runs of mapped pages — skip the
        # boolean compress when nothing in the run is fresh
        mapped = old if bool(remap.all()) else old[remap]
        if mapped.size:
            self._p2l[mapped] = -1
            self._valid_map[mapped] = False
            dec = np.bincount(
                mapped // self.geometry.pages_per_block, minlength=self._valid.size
            )
            self._valid -= dec
            if self._use_buckets:
                for block in np.flatnonzero(dec).tolist():
                    if self._bucket_of[block] >= 0:
                        self._bucket_dec(block, int(dec[block]))

    def _program_run(
        self, active: int, offset: int, lpages: np.ndarray, tokens: np.ndarray
    ) -> None:
        """Program one already-invalidated chunk and update both maps."""
        self.chip.program_run(active, offset, tokens)
        base = active * self.geometry.pages_per_block + offset
        self._l2p[lpages] = np.arange(base, base + lpages.size, dtype=np.int64)
        self._p2l[base : base + lpages.size] = lpages
        self._valid_map[base : base + lpages.size] = True
        self._valid[active] += lpages.size

    def _invalidate(self, lpage: int) -> None:
        old = int(self._l2p[lpage])
        if old >= 0:
            block = old // self.geometry.pages_per_block
            self._p2l[old] = -1
            self._valid_map[old] = False
            self._valid[block] -= 1
            self._l2p[lpage] = -1
            if self._use_buckets and self._bucket_of[block] >= 0:
                self._bucket_dec(block)

    def _append(self, lpage: int, token: int, host: bool, cost: CostAccumulator) -> None:
        """Program one page at the relevant active block's write point."""
        ppb = self.geometry.pages_per_block
        active = self._host_active if host else self._gc_active
        if self.chip.write_point(active) == ppb:
            self._retire_active(active)
            active = self._allocate_active()
            if host:
                self._host_active = active
            else:
                self._gc_active = active
        offset = self.chip.write_point(active)
        self.chip.program(active, offset, token)
        ppage = active * ppb + offset
        self._l2p[lpage] = ppage
        self._p2l[ppage] = lpage
        self._valid_map[ppage] = True
        self._valid[active] += 1

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def _pick_victim(self) -> int | None:
        """Select a GC victim under the configured policy.

        A fully-valid victim would be relocated for zero net gain (it
        frees one block while its copies consume one), so GC refuses it —
        there is simply no reclaimable space right now.
        """
        if self._use_buckets and self.batch_enabled:
            return self._pick_greedy_bucketed()
        candidates = self._state == _DATA
        if not candidates.any():
            return None
        if self.config.gc_policy == "greedy":
            # reference path: the full argmin scan (argmin returns the
            # lowest index among ties, matching the bucketed pick)
            masked = np.where(candidates, self._valid, np.iinfo(np.int32).max)
            victim = int(masked.argmin())
        else:
            victim = self._pick_cost_benefit(candidates)
            if victim is None:
                return None
        if int(self._valid[victim]) >= self.geometry.pages_per_block:
            return None
        return victim

    def _pick_greedy_bucketed(self) -> int | None:
        """O(1) greedy pick: advance the min-valid floor to the first
        non-empty bucket and take its lowest block index (the same
        tie-break the old full ``argmin`` scan used)."""
        ppb = self.geometry.pages_per_block
        floor = self._min_bucket
        while floor <= ppb and not self._buckets[floor]:
            floor += 1
        self._min_bucket = floor
        if floor >= ppb:
            # no data blocks at all, or only fully-valid ones — nothing
            # reclaimable (relocating a full block has zero net gain)
            return None
        return min(self._buckets[floor])

    def _pick_cost_benefit(self, candidates: np.ndarray) -> int | None:
        """The LFS cost-benefit score: ``(1 - u) * age / (1 + u)`` with
        utilisation ``u`` = valid fraction and age = time since the
        block was retired.  Old cold blocks win even at moderate
        utilisation; freshly written hot blocks are left to decay."""
        ppb = self.geometry.pages_per_block
        utilisation = self._valid.astype(np.float64) / ppb
        age = (self._sequence - self._retired_at).astype(np.float64) + 1.0
        score = (1.0 - utilisation) * age / (1.0 + utilisation)
        score = np.where(candidates, score, -1.0)
        victim = int(score.argmax())
        if score[victim] <= 0.0:
            return None
        return victim

    def _collect_one(self, cost: CostAccumulator) -> bool:
        victim = self._pick_victim()
        if victim is None:
            return False
        sub = cost.begin_scope()
        self._relocate_block(victim, sub)
        self.gc_collections += 1
        sub.note("gc")
        cost.end_scope("gc", sub)
        return True

    def _relocate_block(self, victim: int, cost: CostAccumulator) -> None:
        """Copy a block's valid pages to the GC active block, then erase."""
        if self._use_buckets:
            self._bucket_remove(victim)
        if not self.batch_enabled:
            self._relocate_block_scalar(victim, cost)
            return
        ppb = self.geometry.pages_per_block
        base = victim * ppb
        write_point = self.chip.write_point(victim)
        # the valid bitmap is the victim scan: one dense slice holds
        # exactly the offsets whose newest logical copy still lives here
        live_offsets = np.flatnonzero(self._valid_map[base : base + write_point])
        count = int(live_offsets.size)
        if count:
            live_pages = base + live_offsets
            live_lpages = self._p2l[live_pages].copy()
            self._p2l[live_pages] = -1
            self._valid_map[live_pages] = False
            self._valid[victim] -= count
            moved = 0
            while moved < count:
                active = self._gc_active
                if self.chip.write_point(active) == ppb:
                    self._retire_active(active)
                    active = self._allocate_active()
                    self._gc_active = active
                offset = self.chip.write_point(active)
                take = min(ppb - offset, count - moved)
                chunk_lpages = live_lpages[moved : moved + take]
                self._migrate(live_pages[moved : moved + take], active, offset, cost)
                start = active * ppb + offset
                self._l2p[chunk_lpages] = np.arange(
                    start, start + take, dtype=np.int64
                )
                self._p2l[start : start + take] = chunk_lpages
                self._valid_map[start : start + take] = True
                self._valid[active] += take
                moved += take
            self.gc_copy_reads += count
            self.gc_copy_programs += count
        self.chip.erase(victim)
        cost.block_erases += 1
        self._valid[victim] = 0
        self._state[victim] = _FREE
        self._free_map[victim] = True
        self._free.append(victim)

    def _relocate_block_scalar(self, victim: int, cost: CostAccumulator) -> None:
        """Per-page reference implementation of :meth:`_relocate_block`."""
        ppb = self.geometry.pages_per_block
        base = victim * ppb
        for offset in range(self.chip.write_point(victim)):
            lpage = int(self._p2l[base + offset])
            if lpage < 0:
                continue
            token = self.chip.read(victim, offset)
            cost.copy_reads += 1
            self.gc_copy_reads += 1
            self._invalidate(lpage)
            self._append(lpage, token, host=False, cost=cost)
            cost.copy_programs += 1
            self.gc_copy_programs += 1
        self.chip.erase(victim)
        cost.block_erases += 1
        self._valid[victim] = 0
        self._state[victim] = _FREE
        self._free_map[victim] = True
        self._free.append(victim)

    # ------------------------------------------------------------------
    # wear levelling
    # ------------------------------------------------------------------

    def _wear_cold_block(self) -> int | None:
        """The data block a wear move would relocate, or None when the
        erase-count spread is within the threshold."""
        counts = self.chip.erase_counts()
        data_mask = self._state == _DATA
        if not data_mask.any():
            return None
        coldest = int(np.where(data_mask, counts, np.iinfo(np.int64).max).argmin())
        spread = float(counts.max() - counts[coldest])
        if spread > self.config.wear_threshold:
            return coldest
        return None

    def _wear_pending(self) -> bool:
        """Whether :meth:`_maybe_wear_level` would act right now."""
        return self._wear_cold_block() is not None

    def _maybe_wear_level(self, cost: CostAccumulator) -> None:
        coldest = self._wear_cold_block()
        if coldest is not None:
            sub = cost.begin_scope()
            self._relocate_block(coldest, sub)
            self.wear_relocations += 1
            sub.note("wear-level")
            cost.end_scope("wear", sub)

    # ------------------------------------------------------------------
    # background GC
    # ------------------------------------------------------------------

    def background_work_pending(self) -> bool:
        """Whether the free pool sits below the background target."""
        if not self.config.bg_enabled:
            return False
        if len(self._free) >= self.config.bg_target_blocks:
            return False
        return bool((self._state == _DATA).any())

    def do_background_unit(self) -> CostAccumulator | None:
        """Collect one victim in the background; None when satisfied."""
        if not self.background_work_pending():
            return None
        cost = CostAccumulator()
        self._collect_one(cost)
        return cost

    # ------------------------------------------------------------------
    # introspection & invariants
    # ------------------------------------------------------------------

    def restore(self, state: dict) -> None:
        """See :meth:`BaseFTL.restore`; rebuilds all derived state."""
        super().restore(state)
        self._rebuild_derived()

    def _rebuild_derived(self) -> None:
        """Recompute everything the snapshot core determines.

        The core is ``_l2p`` + the free queue + the two active blocks
        (plus scalars); from it the inverse map, the valid bitmap, the
        per-block valid counters, the block states, the free bitmap and
        the GC buckets are all derived with a handful of vectorized
        scatter/bincount operations — so snapshots need not carry them.
        """
        geometry = self.geometry
        mapped_lpages = np.flatnonzero(self._l2p >= 0)
        mapped = self._l2p[mapped_lpages]
        self._p2l = np.full(geometry.physical_pages, -1, dtype=np.int64)
        self._p2l[mapped] = mapped_lpages
        self._valid_map = self._p2l >= 0
        self._valid = np.bincount(
            mapped // geometry.pages_per_block,
            minlength=geometry.physical_blocks,
        ).astype(np.int64)
        self._free_map = np.zeros(geometry.physical_blocks, dtype=bool)
        if self._free:
            self._free_map[
                np.fromiter(self._free, dtype=np.int64, count=len(self._free))
            ] = True
        self._state = np.full(geometry.physical_blocks, _DATA, dtype=np.int8)
        self._state[self._free_map] = _FREE
        self._state[self._host_active] = _ACTIVE
        self._state[self._gc_active] = _ACTIVE
        self._rebuild_buckets()

    def metrics(self) -> dict[str, float]:
        """See :meth:`BaseFTL.metrics`: GC victims, wear moves, copy volume."""
        return {
            "gc_collections": float(self.gc_collections),
            "gc_copy_reads": float(self.gc_copy_reads),
            "gc_copy_programs": float(self.gc_copy_programs),
            "wear_relocations": float(self.wear_relocations),
        }

    def free_blocks(self) -> int:
        """Number of erased, unassigned physical blocks."""
        return len(self._free)

    def check_invariants(self) -> None:
        """Verify map/inverse-map agreement, valid counters, bitmaps and
        block states — all on dense buffers."""
        ppb = self.geometry.pages_per_block
        if not np.array_equal(self._free_map, self._state == _FREE):
            raise FTLError("free bitmap out of sync with block states")
        if not np.array_equal(self._valid_map, self._p2l >= 0):
            raise FTLError("valid bitmap out of sync with the inverse map")
        free_sorted = np.sort(
            np.fromiter(self._free, dtype=np.int64, count=len(self._free))
        )
        if not np.array_equal(free_sorted, np.flatnonzero(self._free_map)):
            raise FTLError("free queue out of sync with the free bitmap")
        mapped_lpages = np.flatnonzero(self._l2p >= 0)
        mapped = self._l2p[mapped_lpages]
        if len(np.unique(mapped)) != len(mapped):
            raise FTLError("two logical pages map to one physical page")
        agree = self._p2l[mapped] == mapped_lpages
        if not agree.all():
            lpage = int(mapped_lpages[np.flatnonzero(~agree)[0]])
            raise FTLError(f"direct/inverse map mismatch at lpage {lpage}")
        valid_recount = np.bincount(
            (mapped // ppb).astype(np.int64),
            minlength=self.geometry.physical_blocks,
        )
        if not np.array_equal(valid_recount, self._valid.astype(np.int64)):
            raise FTLError("per-block valid counters out of sync with the map")
        total = self.geometry.physical_blocks
        nfree = int((self._state == _FREE).sum())
        nactive = int((self._state == _ACTIVE).sum())
        ndata = int((self._state == _DATA).sum())
        if nfree + nactive + ndata != total:
            raise FTLError("block state partition violated")
        if nactive != 2:
            raise FTLError(f"expected 2 active blocks (host + GC), found {nactive}")
        if self._use_buckets:
            bucketed: set[int] = set()
            for valid, bucket in enumerate(self._buckets):
                for block in bucket:
                    if int(self._bucket_of[block]) != valid:
                        raise FTLError(f"block {block} in the wrong GC bucket")
                    if int(self._valid[block]) != valid:
                        raise FTLError(
                            f"GC bucket for block {block} out of sync with "
                            "its valid counter"
                        )
                    if self._state[block] != _DATA:
                        raise FTLError(f"non-data block {block} in a GC bucket")
                bucketed.update(bucket)
            data_blocks = set(np.flatnonzero(self._state == _DATA).tolist())
            if bucketed != data_blocks:
                raise FTLError("GC buckets do not cover exactly the data blocks")
