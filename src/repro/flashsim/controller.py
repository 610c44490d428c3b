"""Device controller: the layer between the block interface and the FTL.

Responsibilities:

* split host byte extents into logical pages;
* expand writes to the device's internal **mapping unit** and perform
  read-modify-write of partially covered pages/units — the physical root
  of the Alignment micro-benchmark's penalty (Section 5.2: Samsung's
  random writes go from 18 ms aligned to 32 ms unaligned);
* route pages through the RAM :class:`~repro.flashsim.cache.WriteBackCache`
  when the device has one;
* charge the direct-map lookup penalty for non-contiguous access
  (Section 2.2: the map may not fit in controller RAM);
* maintain the *verification shadow* — the expected token of every
  logical page — so every read checks read-your-writes for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, FTLError, SnapshotError
from repro.flashsim.cache import WriteBackCache
from repro.flashsim.chip import ERASED
from repro.flashsim.ftl.base import BaseFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator


@dataclass(frozen=True)
class ControllerConfig:
    """Controller tuning.

    ``mapping_unit`` (bytes, 0 = one page) is the granularity at which
    the FTL's map is maintained: writes are expanded to whole units.
    ``cache_bytes`` (0 = none) enables the RAM write-back cache.
    ``verify`` keeps the read-your-writes shadow check on (cheap; only
    benchmarks chasing raw simulator speed would disable it).
    """

    mapping_unit: int = 0
    cache_bytes: int = 0
    cache_low_watermark: float = 0.75
    verify: bool = True

    def __post_init__(self) -> None:
        if self.mapping_unit < 0 or self.cache_bytes < 0:
            raise FTLError("mapping_unit and cache_bytes must be >= 0")


class Controller:
    """Splits, expands and verifies host IOs on their way to the FTL."""

    def __init__(
        self,
        geometry: Geometry,
        ftl: BaseFTL,
        config: ControllerConfig | None = None,
    ) -> None:
        self.geometry = geometry
        self.ftl = ftl
        self.config = config or ControllerConfig()
        unit = self.config.mapping_unit or geometry.page_size
        if unit % geometry.page_size != 0:
            raise FTLError(
                f"mapping_unit ({unit}) must be a multiple of the page size "
                f"({geometry.page_size})"
            )
        self.mapping_unit = unit
        self.cache: WriteBackCache | None = None
        if self.config.cache_bytes:
            self.cache = WriteBackCache(
                geometry, self.config.cache_bytes, self.config.cache_low_watermark
            )
        self._shadow = np.full(geometry.logical_pages, ERASED, dtype=np.int64)
        self._next_token = 1
        self._last_end_page: int | None = None
        #: when False, reads and writes take the scalar per-page reference
        #: path regardless of the FTL's batch capability (equivalence suite).
        self.batch_enabled = True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_extent(self, lba: int, size: int) -> None:
        if size <= 0:
            raise AddressError(f"IO size must be positive, got {size}")
        if not self.geometry.contains(lba, size):
            raise AddressError(
                f"extent [{lba}, +{size}) exceeds logical capacity "
                f"{self.geometry.logical_bytes}"
            )

    def _charge_map_lookup(self, first_page: int, last_page: int, cost: CostAccumulator) -> None:
        """Sequentially-contiguous access hits the cached map segment;
        a jump needs a map segment swap (Section 2.2)."""
        if self._last_end_page is not None and first_page != self._last_end_page:
            cost.map_misses += 1
        self._last_end_page = last_page + 1

    def _fresh_token(self) -> int:
        token = self._next_token
        self._next_token += 1
        return token

    def _read_page_token(self, lpage: int, cost: CostAccumulator) -> int:
        if self.cache is not None:
            cached = self.cache.read(lpage)
            if cached is not None:
                return cached
        return self.ftl.read_page(lpage, cost)

    def _rmw_token(self, lpage: int, cost: CostAccumulator) -> int:
        """Read-modify-write token for a partially covered page: keep the
        current content, minting a fresh token only for never-written pages."""
        token = self._read_page_token(lpage, cost)
        if token == ERASED:
            token = self._fresh_token()
            self._shadow[lpage] = token
        return token

    # ------------------------------------------------------------------
    # host operations
    # ------------------------------------------------------------------

    def read(self, lba: int, size: int, cost: CostAccumulator) -> None:
        """Service a host read, verifying every page against the shadow."""
        self._check_extent(lba, size)
        span = self.geometry.page_span(lba, size)
        self._charge_map_lookup(span.start, span.stop - 1, cost)
        if (
            self.batch_enabled
            and self.ftl.batch_read_capable
            and span.stop - span.start >= self.ftl.batch_read_min_pages
        ):
            lpages = np.arange(span.start, span.stop, dtype=np.int64)
            cached = (
                self.cache.read_run(span.start, lpages.size)
                if self.cache is not None
                else None
            )
            if cached:
                # dirty pages come from RAM; only the misses reach flash
                tokens = np.empty(lpages.size, dtype=np.int64)
                hit = np.zeros(lpages.size, dtype=bool)
                hit[list(cached)] = True
                tokens[hit] = list(cached.values())
                if not hit.all():
                    tokens[~hit] = self.ftl.read_pages(
                        lpages[~hit], cost, ascending=True
                    )
            else:
                tokens = self.ftl.read_pages(lpages, cost, ascending=True)
            if self.config.verify:
                expected = self._shadow[span.start : span.stop]
                if not np.array_equal(tokens, expected):
                    bad = int(np.flatnonzero(tokens != expected)[0])
                    raise FTLError(
                        f"read-your-writes violation at logical page {span.start + bad}: "
                        f"device returned token {int(tokens[bad])}, "
                        f"expected {int(expected[bad])}"
                    )
        else:
            for lpage in span:
                token = self._read_page_token(lpage, cost)
                if self.config.verify and token != int(self._shadow[lpage]):
                    raise FTLError(
                        f"read-your-writes violation at logical page {lpage}: "
                        f"device returned token {token}, expected {int(self._shadow[lpage])}"
                    )
        cost.bytes_transferred += size

    def write(self, lba: int, size: int, cost: CostAccumulator) -> None:
        """Service a host write.

        The extent is expanded to mapping-unit boundaries.  Pages fully
        covered by the host data get fresh tokens; padding and partially
        covered pages are read-modify-written, preserving their token
        (i.e. their logical content).
        """
        self._check_extent(lba, size)
        unit = self.mapping_unit
        expanded_start = (lba // unit) * unit
        expanded_end = -(-(lba + size) // unit) * unit
        expanded_end = min(expanded_end, self.geometry.logical_bytes)
        span = self.geometry.page_span(expanded_start, expanded_end - expanded_start)
        self._charge_map_lookup(span.start, span.stop - 1, cost)
        page_size = self.geometry.page_size
        if (
            self.batch_enabled
            and self.ftl.batch_write_capable
            and span.stop - span.start > 1
        ):
            # Fully covered pages form one contiguous middle run: coverage
            # (lba <= page_start and page_end <= lba + size) is monotone in
            # lpage from both ends.  Partial edges keep the scalar RMW path;
            # the middle takes fresh tokens in one arange, preserving the
            # exact token-allocation order of the reference loop.
            cov_lo = max(span.start, -(-lba // page_size))
            cov_hi = min(span.stop, (lba + size) // page_size)
            if cov_lo >= cov_hi:
                cov_lo = cov_hi = span.start
            n = span.stop - span.start
            if cov_lo == span.start and cov_hi == span.stop:
                # aligned whole-page extent: the fresh tokens ARE the run
                tokens = np.arange(
                    self._next_token, self._next_token + n, dtype=np.int64
                )
                self._next_token += n
                self._shadow[span.start : span.stop] = tokens
            else:
                tokens = np.empty(n, dtype=np.int64)
                for lpage in range(span.start, cov_lo):
                    tokens[lpage - span.start] = self._rmw_token(lpage, cost)
                count = cov_hi - cov_lo
                if count > 0:
                    fresh = np.arange(
                        self._next_token, self._next_token + count, dtype=np.int64
                    )
                    self._next_token += count
                    self._shadow[cov_lo:cov_hi] = fresh
                    tokens[cov_lo - span.start : cov_hi - span.start] = fresh
                for lpage in range(cov_hi, span.stop):
                    tokens[lpage - span.start] = self._rmw_token(lpage, cost)
            if self.cache is not None:
                self.cache.write_run(span.start, tokens)
                self.cache.destage_if_needed(self.ftl, cost)
            else:
                lpages = np.arange(span.start, span.stop, dtype=np.int64)
                self.ftl.write_run(lpages, tokens, cost, ascending=True)
        else:
            items: list[tuple[int, int]] = []
            for lpage in span:
                page_start = lpage * page_size
                fully_covered = (
                    lba <= page_start and page_start + page_size <= lba + size
                )
                if fully_covered:
                    token = self._fresh_token()
                    self._shadow[lpage] = token
                else:
                    # Read-modify-write: fetch the current content (a real
                    # physical read unless cached or never written).
                    token = self._read_page_token(lpage, cost)
                    if token == ERASED:
                        token = self._fresh_token()
                        self._shadow[lpage] = token
                items.append((lpage, token))
            if self.cache is not None:
                for lpage, token in items:
                    self.cache.write(lpage, token)
                self.cache.destage_if_needed(self.ftl, cost)
            else:
                self.ftl.write_pages(items, cost)
        self.ftl.note_io_boundary(lba + size, cost)
        cost.bytes_transferred += size

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the shadow, token counter, access history and cache."""
        return {
            "shadow": self._shadow.copy(),
            "next_token": self._next_token,
            "last_end_page": self._last_end_page,
            "cache": self.cache.snapshot() if self.cache is not None else None,
        }

    def restore(self, state: dict) -> None:
        """Reset the controller to a :meth:`snapshot`."""
        if (self.cache is None) != (state["cache"] is None):
            raise SnapshotError(
                "snapshot cache configuration does not match this controller"
            )
        self._shadow = state["shadow"].copy()
        self._next_token = state["next_token"]
        self._last_end_page = state["last_end_page"]
        if self.cache is not None:
            self.cache.restore(state["cache"])

    def update_digest(self, hasher) -> None:
        """Feed the logical-content shadow into a hash (fingerprints)."""
        hasher.update(self._shadow.tobytes())
        hasher.update(str(self._next_token).encode())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Cumulative controller-layer counters (the RAM cache's, today).

        Controllers without a write-back cache contribute nothing.
        """
        if self.cache is None:
            return {}
        return self.cache.metrics()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def flush_cache(self, cost: CostAccumulator) -> int:
        """Destage all dirty cache contents to flash."""
        if self.cache is None:
            return 0
        return self.cache.flush(self.ftl, cost)

    def reset_access_history(self) -> None:
        """Forget sequential-detection state (between runs)."""
        self._last_end_page = None

    def expected_token(self, lpage: int) -> int:
        """Shadow token of a logical page (test helper)."""
        return int(self._shadow[lpage])
