"""Closed-form whole-run kernels (the analytic fast path).

When a run of host IOs provably cannot trigger an FTL state transition —
no garbage collection, no wear move, no background unit, no
read-your-writes failure — every per-IO quantity is a *closed-form*
function of the device state at the start of the run: programs land at
consecutive write points of a known block sequence, RMW edge reads count
mapped pages, service times follow the
:meth:`~repro.flashsim.timing.CostAccumulator.total` formula, and the
completion chain is a prefix sum.  The kernels in this module evaluate
that closed form on numpy columns — one vectorized pass for a whole
window of IOs — then write chip / FTL / controller / device state to
exactly the values the per-IO reference path would have produced.

Discipline (the same provably-equivalent-or-fallback contract as the
page-map GC-headroom fast path in
:meth:`~repro.flashsim.ftl.pagemap.PageMapFTL.write_run`):

* a kernel either proves, *before touching any state*, that the window
  is transition-free and then reproduces the per-IO path **bit for
  bit** — same maps, same counters, same floats in the same operation
  order — or it declines and the caller falls back to the reference
  per-IO loop;
* every decline is counted with a reason in :data:`STATS`, which is
  what the equivalence tests assert on ("the fast path bails out
  exactly when a state transition could occur").

Current coverage:

* **page-map FTL** (the "modern SSD" profile family) — reads of any
  mix, GC-free write windows in fully closed form, and **GC-epoch
  write windows**: a write window that crosses garbage collection
  decomposes into epochs — a run of appends up to free-pool
  exhaustion, then one GC step, repeated.  Tokens, RMW reads, costs
  and the completion chain are still resolved on columns; only the
  block-lifecycle/GC events themselves replay through the real FTL
  methods (the same ``write_page`` / ``_append_run`` calls the
  reference slow loop makes, merged into maximal chunks), so the
  steady-state write regime runs at analytic speed without leaving
  the prove-or-decline contract.
* **block-map FTL** (USB/SD/IDE profile family) — whole-block reads in
  closed form; writes as a per-IO loop whose sequential in-order
  appends collapse to one vectorized program run (finalisation /
  merge boundaries are the epoch edges, replayed through the real
  ``_finalize`` path) and whose irregular IOs replay the reference
  controller write exactly.
* **queued hosts** — homogeneous zero-gap read programs at any queue
  depth evaluate as a vectorized event schedule
  (:func:`run_program_queued`): per-IO services come from the closed
  form, and the depth-d completion chain (channel pick, queue
  occupancy integrals, completion pops) runs as a tight scalar event
  loop instead of the full per-IO dispatch machinery.

Everything else (hybrid/FAST FTL families, caches, fault injectors,
wear levelling, measurement noise) declines up front and runs the
reference path unchanged.

An attached flight recorder does not change which path runs: every
kernel emits its window's attribution inputs
(:func:`repro.flashsim.recorder.window_inputs` — the channel each IO
dispatched on, its host counters, its copy and erase work as the scoped
``gc`` / ``merge`` service) into the trace, and feeds the recorder's
ring the window's rows, exactly as the per-IO path would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from repro.flashsim.chip import ERASED
from repro.flashsim.ftl.blockmap import BlockMapFTL
from repro.flashsim.ftl.hybrid import FILLER_TOKEN
from repro.flashsim.ftl.pagemap import _ACTIVE, _DATA, PageMapFTL
from repro.flashsim.recorder import window_inputs
from repro.flashsim.timing import CostAccumulator

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.generator import IOProgram
    from repro.flashsim.device import FlashDevice
    from repro.flashsim.trace import IOTrace

#: master switch; tests flip it off to force the reference path
ENABLED = True


@dataclass
class KernelStats:
    """Hit/decline counters for the analytic kernels (introspection).

    ``declines`` maps a ``"op:reason"`` string (e.g.
    ``"write:gc-headroom"``) to the number of times a kernel refused a
    window for that reason.  The counters are process-global
    observability, not device state: they never affect simulation
    results and are excluded from snapshots and fingerprints.
    """

    write_windows: int = 0
    write_ios: int = 0
    read_windows: int = 0
    read_ios: int = 0
    #: GC-epoch write windows (a subset of ``write_windows``) and the
    #: IOs / garbage collections they absorbed
    epoch_windows: int = 0
    epoch_ios: int = 0
    epoch_collections: int = 0
    #: whole queued programs taken by :func:`run_program_queued`
    queued_windows: int = 0
    queued_ios: int = 0
    declines: dict[str, int] = field(default_factory=dict)

    def decline(self, reason: str) -> None:
        """Count one refused window under ``reason`` (``"op:why"``)."""
        self.declines[reason] = self.declines.get(reason, 0) + 1

    def reset(self) -> None:
        """Zero all counters (test isolation)."""
        self.write_windows = 0
        self.write_ios = 0
        self.read_windows = 0
        self.read_ios = 0
        self.epoch_windows = 0
        self.epoch_ios = 0
        self.epoch_collections = 0
        self.queued_windows = 0
        self.queued_ios = 0
        self.declines = {}

    def counters(self) -> dict[str, int]:
        """Flat ``core.analytic.*`` counter sample (obs mirroring).

        Cumulative process totals, shaped like the per-layer
        ``metrics()`` samplers: hit counters plus one
        ``core.analytic.decline.<op:reason>`` counter per decline
        reason, sorted for a stable layout.
        """
        out = {
            "core.analytic.write_windows": self.write_windows,
            "core.analytic.write_ios": self.write_ios,
            "core.analytic.read_windows": self.read_windows,
            "core.analytic.read_ios": self.read_ios,
            "core.analytic.epoch_windows": self.epoch_windows,
            "core.analytic.epoch_ios": self.epoch_ios,
            "core.analytic.epoch_collections": self.epoch_collections,
            "core.analytic.queued_windows": self.queued_windows,
            "core.analytic.queued_ios": self.queued_ios,
        }
        for reason in sorted(self.declines):
            out[f"core.analytic.decline.{reason}"] = self.declines[reason]
        return out


#: module-global counters (reset freely from tests)
STATS = KernelStats()


def publish_stats(registry, baseline: dict[str, int] | None = None) -> dict[str, int]:
    """Mirror :data:`STATS` into an obs metrics registry.

    :data:`STATS` is process-global and would otherwise be silently
    lost in subprocess dispatch; callers that run kernels under an
    installed registry (cell execution, worker-side state enforcement)
    publish the counters as ``core.analytic.*`` so campaign
    ``--metrics`` aggregates kernel hit rates across all workers.

    ``baseline`` is a previous :meth:`KernelStats.counters` sample (or
    a previous return value of this function); only the delta since it
    is added, so repeated calls never double-count.  Returns the new
    baseline.
    """
    current = STATS.counters()
    for name, value in current.items():
        delta = value - (baseline.get(name, 0) if baseline else 0)
        if delta > 0:
            registry.counter(name).inc(delta)
    return current


def device_decline_reason(device: "FlashDevice") -> str | None:
    """Why this device cannot take the analytic kernels (None = it can).

    These are *configuration* preconditions — properties that cannot
    change mid-run: the FTL family and its batch mode, the RAM cache,
    measurement noise, fault injection, wear levelling and block
    health.  A flight recorder is not one: the kernels emit attribution
    for their windows.

    Covered families: the page-map FTL (whose kernels reproduce the
    controller *batch* write path, hence the batch-mode requirement)
    and the block-map FTL (whose write kernel replays the scalar
    controller path — the only one that family ever takes — so it
    works in either batch mode).
    """
    ftl = device.ftl
    if isinstance(ftl, PageMapFTL):
        if not (ftl.batch_enabled and device.controller.batch_enabled):
            return "batch-disabled"
    elif not isinstance(ftl, BlockMapFTL):
        return "ftl-family"
    if device.controller.cache is not None:
        return "cache"
    if device.noise.jitter:
        return "noise"
    if device.chip.fault_injector is not None:
        return "fault-injector"
    if getattr(ftl.config, "wear_threshold", 0):
        return "wear-levelling"
    if device.chip.good_blocks() != device.geometry.physical_blocks:
        return "bad-blocks"
    return None


def _decline(op: str, reason: str, now: float) -> tuple[int, float]:
    STATS.decline(f"{op}:{reason}")
    return 0, now


def _expand_spans(device, lbas, sizes, expand):
    """Per-IO page spans ``[s_pg, e_pg)``: controller expansion math.

    ``expand`` applies the write path's mapping-unit expansion; reads
    span exactly the touched pages.
    """
    geometry = device.geometry
    page = geometry.page_size
    if expand:
        unit = device.controller.mapping_unit
        exp_start = (lbas // unit) * unit
        exp_end = np.minimum(
            -(-(lbas + sizes) // unit) * unit, geometry.logical_bytes
        )
        s_pg = exp_start // page
        e_pg = -(-exp_end // page)
    else:
        s_pg = lbas // page
        e_pg = (lbas + sizes - 1) // page + 1
    return s_pg, e_pg


def _valid_prefix(device, lbas, sizes):
    """Length of the leading run of in-bounds IOs (the rest would raise
    ``AddressError`` in the reference path, so the kernel stops before
    them and lets the fallback raise)."""
    ok = (sizes > 0) & (lbas >= 0) & (lbas + sizes <= device.geometry.logical_bytes)
    if bool(ok.all()):
        return int(lbas.size)
    return int(np.argmin(ok))


def _map_misses(device, s_pg, e_pg):
    """Per-IO map-miss counts: the controller charges one miss whenever
    an IO's first page is not the previous IO's ``span.stop``."""
    miss = np.empty(s_pg.size, dtype=np.int64)
    last_end = device.controller._last_end_page
    miss[0] = 1 if (last_end is not None and int(s_pg[0]) != last_end) else 0
    if s_pg.size > 1:
        miss[1:] = s_pg[1:] != e_pg[:-1]
    return miss


def _service_times(device, flash, sizes, miss):
    """Per-IO service times in the reference float operation order:
    ``(flash + transfer) + miss*map_miss`` then ``+ controller_overhead``."""
    timing = device.timing
    service = flash + timing.transfer_per_kib * (sizes / 1024.0)
    service = service + miss * timing.map_miss
    service = service + timing.controller_overhead
    return service


def _chain(now, service):
    """Back-to-back completion chain from per-IO services.

    np.add.accumulate is a strict left fold (verified), bit-identical
    to the scalar ``completion = start + service`` chain.
    """
    chain = np.empty(service.size + 1, dtype=np.float64)
    chain[0] = now
    chain[1:] = service
    return np.add.accumulate(chain)[1:]


def _finish_services(device, flash, sizes, miss, now):
    """Service times and the completion chain for one sync window."""
    service = _service_times(device, flash, sizes, miss)
    return service, _chain(now, service)


def _occupy_channels(device, completions):
    """Round-robin channel assignment, matching per-IO ``pick()``.

    At window start every channel horizon is <= ``busy_until`` < every
    window completion, so pick() visits channels in ascending initial
    horizon (lowest index on ties — stable argsort) and then cycles:
    IO *i* lands on ``perm[i % C]``.  Each channel's final horizon is
    the completion of the last IO it served.  Returns ``perm``.
    """
    channels = device._channels
    busys = channels._busy
    n_ch = len(busys)
    perm = np.argsort(np.asarray(busys), kind="stable")
    n = completions.size
    for j in range(min(n_ch, n)):
        last = (n - 1) - ((n - 1 - j) % n_ch)
        channels.occupy(int(perm[j]), float(completions[last]))
    return perm


def _record_window(
    device, trace, row0, sched0, now, lbas, sizes, write, completions,
    service, perm, *, notes=None, scope=None, **cost_columns,
):
    """Record a synchronous kernel window as trace rows.

    Timing columns are the synchronous host's zero-gap program: IO 0 is
    scheduled at ``sched0`` and submitted at ``now``, every later IO is
    scheduled, submitted and started at the previous completion.  With
    a flight recorder attached the rows also get their attribution
    inputs (IO *i* dispatched on ``perm[i % C]``; ``scope`` names the
    tag of the window's copy and erase work) and the ring gets the rows.
    """
    n = int(lbas.size)
    scheduled = np.empty(n, dtype=np.float64)
    scheduled[0] = now if sched0 is None else sched0
    scheduled[1:] = completions[:-1]
    submitted = scheduled.copy()
    submitted[0] = now
    recorder = device.recorder
    attribution = None
    if recorder is not None:
        channel = perm[np.arange(n) % perm.size]
        attribution = (
            device.timing,
            window_inputs(
                device.timing, channel, service, scope=scope, **cost_columns
            ),
        )
    trace.record_run(
        row0, lbas, sizes, write, scheduled, submitted, submitted,
        completions, notes=notes, attribution=attribution, **cost_columns,
    )
    if recorder is not None:
        recorder.record_rows(trace, row0, row0 + n)


def _accumulate_busy(device, service):
    """Left-fold the per-IO services into ``stats.busy_usec`` exactly
    as the per-IO ``_account`` calls would."""
    busy = device.stats.busy_usec
    for usec in service.tolist():
        busy += usec
    device.stats.busy_usec = busy


class _WindowTokens:
    """Closed-form token/coverage resolution of one write window.

    Everything here is a pure function of the *pre-window* device state
    — garbage collection preserves both the logical content and the
    mapped-ness of every page, so the resolution holds across GC epochs
    too.  Shared between the GC-free prefix kernel (which also commits
    the maps from these arrays) and the GC-epoch kernel (which replays
    map mutations through the real FTL methods and only needs the
    tokens, per-IO RMW reads and the controller commit)."""

    __slots__ = (
        "offsets", "total_pages", "lpage_flat", "token_flat", "order",
        "lp_sorted", "first_in_group", "last_in_group",
        "init_ppage_sorted", "token_sorted", "use_mint", "total_mints",
        "next0", "group_lpages", "reads_per_io", "prev_occ",
    )


def _resolve_write_tokens(device, lbas, sizes, s_pg, e_pg, n_pg):
    """Flatten a write window into per-page columns and resolve every
    programmed token, RMW edge read and shadow mint in closed form."""
    ftl = device.ftl
    chip = device.chip
    geometry = device.geometry
    n_ios = int(lbas.size)

    # -- flatten the window into per-page columns ---------------------
    page = geometry.page_size
    cov_lo = np.maximum(s_pg, -(-lbas // page))
    cov_hi = np.minimum(e_pg, (lbas + sizes) // page)
    degenerate = cov_lo >= cov_hi
    cov_lo = np.where(degenerate, s_pg, cov_lo)
    cov_hi = np.where(degenerate, s_pg, cov_hi)

    offsets = np.empty(n_ios + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(n_pg, out=offsets[1:])
    total_pages = int(offsets[-1])
    starts_rep = np.repeat(s_pg, n_pg)
    lpage_flat = np.arange(total_pages, dtype=np.int64)
    lpage_flat -= np.repeat(offsets[:-1], n_pg)
    lpage_flat += starts_rep
    covered_flat = (lpage_flat >= np.repeat(cov_lo, n_pg)) & (
        lpage_flat < np.repeat(cov_hi, n_pg)
    )

    # -- resolve tokens: group repeated lpages in flat (= mint) order --
    order = np.argsort(lpage_flat, kind="stable")
    lp_sorted = lpage_flat[order]
    first_in_group = np.empty(total_pages, dtype=bool)
    first_in_group[0] = True
    first_in_group[1:] = lp_sorted[1:] != lp_sorted[:-1]
    last_in_group = np.empty(total_pages, dtype=bool)
    last_in_group[-1] = True
    last_in_group[:-1] = first_in_group[1:]

    init_ppage_sorted = ftl._l2p[lp_sorted]
    init_mapped_sorted = init_ppage_sorted >= 0
    covered_sorted = covered_flat[order]
    seen_before_sorted = ~first_in_group
    # an uncovered (RMW) edge reads the page's current content and
    # mints only when that content is ERASED — i.e. the lpage is
    # neither initially mapped nor written earlier in the window
    mapped_now_sorted = seen_before_sorted | init_mapped_sorted
    mint_sorted = covered_sorted | ~mapped_now_sorted

    mint_flat = np.empty(total_pages, dtype=bool)
    mint_flat[order] = mint_sorted
    mint_rank = np.cumsum(mint_flat)  # 1-based rank at mint positions
    total_mints = int(mint_rank[-1])
    next0 = device.controller._next_token
    fresh_flat = mint_rank + (next0 - 1)  # token value at mint positions

    # within each group, a non-mint occurrence rereads the token of the
    # group's latest mint (or the chip's pre-window token before any)
    positions = np.arange(total_pages, dtype=np.int64)
    fresh_sorted = fresh_flat[order]
    last_mint_pos = np.maximum.accumulate(np.where(mint_sorted, positions, -1))
    group_start_pos = np.maximum.accumulate(np.where(first_in_group, positions, -1))
    use_mint = last_mint_pos >= group_start_pos
    init_token_sorted = chip._tokens[np.where(init_mapped_sorted, init_ppage_sorted, 0)]
    init_token_sorted = np.where(init_mapped_sorted, init_token_sorted, ERASED)
    token_sorted = np.where(
        use_mint, fresh_sorted[np.maximum(last_mint_pos, 0)], init_token_sorted
    )
    token_flat = np.empty(total_pages, dtype=np.int64)
    token_flat[order] = token_sorted

    # -- per-IO RMW edge reads ----------------------------------------
    mapped_now_flat = np.empty(total_pages, dtype=bool)
    mapped_now_flat[order] = mapped_now_sorted
    rmw_read_flat = ~covered_flat & mapped_now_flat
    reads_per_io = np.add.reduceat(rmw_read_flat.astype(np.int64), offsets[:-1])

    # -- previous flat occurrence of each repeated lpage (-1 = first);
    #    the epoch kernel's chunks must keep lpages distinct ----------
    prev_sorted = np.empty(total_pages, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = order[:-1]
    prev_sorted[first_in_group] = -1
    prev_occ = np.empty(total_pages, dtype=np.int64)
    prev_occ[order] = prev_sorted

    R = _WindowTokens()
    R.offsets = offsets
    R.total_pages = total_pages
    R.lpage_flat = lpage_flat
    R.token_flat = token_flat
    R.order = order
    R.lp_sorted = lp_sorted
    R.first_in_group = first_in_group
    R.last_in_group = last_in_group
    R.init_ppage_sorted = init_ppage_sorted
    R.token_sorted = token_sorted
    R.use_mint = use_mint
    R.total_mints = total_mints
    R.next0 = next0
    R.group_lpages = lp_sorted[first_in_group]
    R.reads_per_io = reads_per_io
    R.prev_occ = prev_occ
    return R


def _commit_minted_shadow(controller, R: _WindowTokens) -> None:
    """Controller commit shared by the write kernels: shadow tokens of
    every minted lpage and the fresh-token counter."""
    group_has_mint = R.use_mint[R.last_in_group]
    minted_groups = R.group_lpages[group_has_mint]
    controller._shadow[minted_groups] = R.token_sorted[R.last_in_group][group_has_mint]
    controller._next_token = R.next0 + R.total_mints


def write_window(
    device: "FlashDevice",
    lbas: np.ndarray,
    sizes: np.ndarray,
    now: float,
    trace: "IOTrace | None" = None,
    row0: int = 0,
    sched0: float | None = None,
) -> tuple[int, float]:
    """Simulate a window of back-to-back synchronous writes.

    ``lbas``/``sizes`` are int64 columns, the first IO submitted at
    ``now``.  Returns ``(count, end)``: ``count`` IOs were simulated
    analytically (0 = declined, state untouched) and the device fell
    idle at ``end``.

    Page-map devices take the fully closed-form kernel for the longest
    provably-GC-free prefix (bounded by the same GC-headroom condition
    as the page-map write fast path, evaluated per IO against the free
    pool after the allocations of all preceding IOs); once the window
    reaches the free-pool watermark the remainder runs through the
    GC-epoch kernel, which absorbs garbage collection itself.
    Block-map devices take :func:`the block-map kernel
    <_blockmap_write_window>` for the whole window.

    When ``trace`` is given, rows ``row0..row0+count-1`` are recorded
    with the synchronous host's timing columns (``sched0`` is the first
    IO's scheduled time; later IOs are scheduled at the previous
    completion, i.e. a zero-gap program).
    """
    if not ENABLED:
        return _decline("write", "disabled", now)
    reason = device_decline_reason(device)
    if reason is not None:
        return _decline("write", reason, now)
    if now != device._busy_until:
        return _decline("write", "start-misaligned", now)

    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    limit = _valid_prefix(device, lbas, sizes)
    if limit == 0:
        return _decline("write", "address", now)
    lbas = lbas[:limit]
    sizes = sizes[:limit]

    if isinstance(device.ftl, BlockMapFTL):
        return _blockmap_write_window(device, lbas, sizes, now, trace, row0, sched0)

    geometry = device.geometry
    ftl = device.ftl
    chip = device.chip
    controller = device.controller
    ppb = geometry.pages_per_block

    s_pg, e_pg = _expand_spans(device, lbas, sizes, expand=True)
    n_pg = e_pg - s_pg

    # -- GC headroom per IO: free pool after the preceding IOs' block
    #    allocations must clear the write fast path's margin -----------
    wp0 = int(chip._write_point[ftl._host_active])
    free0 = len(ftl._free)
    gc_low = ftl.config.gc_low_blocks
    first_pos = np.empty(limit, dtype=np.int64)  # append position of IO i's first page
    first_pos[0] = wp0
    np.cumsum(n_pg[:-1], out=first_pos[1:])
    first_pos[1:] += wp0
    pre = (wp0 - 1) // ppb if wp0 >= 1 else 0
    allocs_before = np.maximum((first_pos - 1) // ppb - pre, 0)
    headroom_ok = (free0 - allocs_before) > gc_low + 1 + n_pg // ppb
    n_ios = limit if bool(headroom_ok.all()) else int(np.argmin(headroom_ok))
    if n_ios == 0:
        # steady state: garbage collection could fire inside the very
        # first IO — the GC-epoch kernel absorbs the whole window
        return _pagemap_epoch_window(
            device, lbas, sizes, s_pg, e_pg, n_pg, now, trace, row0, sched0
        )
    lbas = lbas[:n_ios]
    sizes = sizes[:n_ios]
    s_pg = s_pg[:n_ios]
    e_pg = e_pg[:n_ios]
    n_pg = n_pg[:n_ios]

    R = _resolve_write_tokens(device, lbas, sizes, s_pg, e_pg, n_pg)
    total_pages = R.total_pages
    lpage_flat = R.lpage_flat
    token_flat = R.token_flat
    order = R.order
    lp_sorted = R.lp_sorted
    first_in_group = R.first_in_group
    last_in_group = R.last_in_group
    init_ppage_sorted = R.init_ppage_sorted
    reads_per_io = R.reads_per_io

    # -- physical placement: consecutive append positions -------------
    abs_pos = np.arange(wp0, wp0 + total_pages, dtype=np.int64)
    block_seq = abs_pos // ppb
    last_seq = int(block_seq[-1])  # number of block allocations in the window
    blocks = np.empty(last_seq + 1, dtype=np.int64)
    blocks[0] = ftl._host_active
    if last_seq:
        blocks[1:] = list(islice(ftl._free, last_seq))
    ppage_flat = blocks[block_seq] * ppb + (abs_pos - block_seq * ppb)

    # -- per-IO costs and service times --------------------------------
    miss = _map_misses(device, s_pg, e_pg)
    timing = device.timing
    flash = (timing.read_page * reads_per_io.astype(np.float64)) / timing.parallelism
    flash = flash + (timing.program_page * n_pg.astype(np.float64)) / timing.parallelism
    service, completions = _finish_services(device, flash, sizes, miss, now)
    end = float(completions[-1])

    # ==================================================================
    # commit: from here on, state is written to the exact final values
    # the reference per-IO path would have produced
    # ==================================================================

    # chip: programmed tokens, write points, operation counters
    chip._tokens[ppage_flat] = token_flat
    if last_seq == 0:
        chip._write_point[int(blocks[0])] = wp0 + total_pages
    else:
        chip._write_point[blocks[:-1]] = ppb
        chip._write_point[int(blocks[-1])] = wp0 + total_pages - last_seq * ppb
    total_rmw_reads = int(reads_per_io.sum())
    chip.stats.page_programs += total_pages
    chip.stats.page_reads += total_rmw_reads

    # FTL maps: invalidate pre-window mappings of rewritten lpages,
    # then map each lpage to its final (last) window occurrence
    group_lpages = lp_sorted[first_in_group]
    old_ppages = init_ppage_sorted[first_in_group]
    old_ppages = old_ppages[old_ppages >= 0]
    nblocks = geometry.physical_blocks
    dec = np.bincount(old_ppages // ppb, minlength=nblocks)
    dec_blocks = np.flatnonzero(dec)
    dec_data_blocks = dec_blocks[ftl._state[dec_blocks] == _DATA]
    ftl._p2l[old_ppages] = -1
    ftl._valid_map[old_ppages] = False
    is_final_flat = np.empty(total_pages, dtype=bool)
    is_final_flat[order] = last_in_group
    ftl._p2l[ppage_flat] = np.where(is_final_flat, lpage_flat, -1)
    ftl._valid_map[ppage_flat] = is_final_flat
    ppage_sorted = ppage_flat[order]
    ftl._l2p[group_lpages] = ppage_sorted[last_in_group]
    inc = np.bincount(ppage_flat[is_final_flat] // ppb, minlength=nblocks)
    ftl._valid += inc
    ftl._valid -= dec

    # block lifecycle: retire filled blocks, allocate from the free pool
    if last_seq:
        retired = blocks[:-1]
        ftl._state[retired] = _DATA
        seq0 = ftl._sequence
        ftl._retired_at[retired] = np.arange(seq0 + 1, seq0 + 1 + last_seq)
        ftl._sequence = seq0 + last_seq
        new_active = int(blocks[-1])
        ftl._state[new_active] = _ACTIVE
        ftl._host_active = new_active
        ftl._free_map[blocks[1:]] = False
        for _ in range(last_seq):
            ftl._free.popleft()

    # greedy-GC buckets: contents are a pure function of (_state,
    # _valid); the floor replays the scalar event sequence in closed
    # form — every touched block's minimum bucket equals its *final*
    # valid count (adds use the retire-time count, decs only lower it)
    if ftl._use_buckets:
        old_floor = ftl._min_bucket
        ftl._rebuild_buckets()
        touched = (
            np.concatenate((blocks[:-1], dec_data_blocks))
            if last_seq
            else dec_data_blocks
        )
        floor = old_floor
        if touched.size:
            floor = min(floor, int(ftl._valid[touched].min()))
        ftl._min_bucket = floor

    # controller: shadow tokens of every minted lpage, token counter,
    # sequential-access detector
    _commit_minted_shadow(controller, R)
    controller._last_end_page = int(e_pg[-1])

    # device accounting: busy horizon, channels, aggregate counters
    perm = _occupy_channels(device, completions)
    device._busy_until = end
    _accumulate_busy(device, service)
    device.stats.writes += n_ios
    device.stats.bytes_written += int(sizes.sum())

    if trace is not None:
        _record_window(
            device, trace, row0, sched0, now, lbas, sizes, True,
            completions, service, perm,
            page_reads=reads_per_io,
            page_programs=n_pg,
            bytes_transferred=sizes,
            map_misses=miss,
        )

    STATS.write_windows += 1
    STATS.write_ios += n_ios
    return n_ios, end


def _pagemap_epoch_window(
    device, lbas, sizes, s_pg, e_pg, n_pg, now, trace, row0, sched0
):
    """GC-epoch kernel: a page-map write window in free-pool steady state.

    Token resolution, RMW edge reads and the controller commit use the
    same closed forms as the GC-free prefix kernel — they depend only on
    pre-window state, which garbage collection preserves (a relocation
    moves a page without changing its logical content or mapped-ness).
    Placement and reclamation replay the reference slow loop of
    :meth:`~repro.flashsim.ftl.pagemap.PageMapFTL.write_run` over the
    *flattened* window: a closed-form ``_append_run`` per block epoch,
    one real ``write_page`` (which runs GC through ``_collect_one`` /
    ``_relocate_block``) at each free-pool watermark — so maps, buckets,
    counters and costs are bit-identical to the per-IO reference by
    construction.  Chunks merge across IO boundaries (the free pool
    changes only at block allocations, never mid-chunk, and distinct
    lpages' invalidations commute with appends) and split where a later
    IO rewrites an lpage from the same chunk, since ``_append_run``
    requires distinct lpages.  Reclamation costs are attributed to the
    IO whose page triggered them, exactly as the reference's per-IO
    accumulators would.

    Like the reference, an exhausted free pool raises
    ``OutOfSpaceError`` mid-window with state torn at the failing page.
    """
    geometry = device.geometry
    ftl = device.ftl
    chip = device.chip
    controller = device.controller
    ppb = geometry.pages_per_block
    n_ios = int(lbas.size)

    R = _resolve_write_tokens(device, lbas, sizes, s_pg, e_pg, n_pg)
    offsets = R.offsets
    total_pages = R.total_pages
    lpage_flat = R.lpage_flat
    token_flat = R.token_flat
    reads_per_io = R.reads_per_io
    prev_occ = R.prev_occ
    dup_positions = np.flatnonzero(prev_occ >= 0)

    gc_low = ftl.config.gc_low_blocks
    free = ftl._free
    scratch = CostAccumulator()
    copy_reads = np.zeros(n_ios, dtype=np.int64)
    copy_programs = np.zeros(n_ios, dtype=np.int64)
    block_erases = np.zeros(n_ios, dtype=np.int64)
    notes: "dict[int, list[str]]" = {}
    collections0 = ftl.gc_collections
    ends = offsets[1:].tolist()
    lp_list = lpage_flat.tolist()
    tok_list = token_flat.tolist()

    i = 0
    io_j = 0
    dk = 0
    n_dups = int(dup_positions.size)
    while i < total_pages:
        while i >= ends[io_j]:
            io_j += 1
        active = ftl._host_active
        wp = int(chip._write_point[active])
        if wp == ppb:
            ftl._retire_active(active)
            active = ftl._allocate_active()
            ftl._host_active = active
            wp = 0
        if len(free) <= gc_low:
            # free-pool watermark: the reference writes this page the
            # scalar way and collects until the pool recovers
            cr0 = scratch.copy_reads
            cp0 = scratch.copy_programs
            be0 = scratch.block_erases
            nn0 = len(scratch.notes)
            ftl.write_page(lp_list[i], tok_list[i], scratch)
            copy_reads[io_j] += scratch.copy_reads - cr0
            copy_programs[io_j] += scratch.copy_programs - cp0
            block_erases[io_j] += scratch.block_erases - be0
            if len(scratch.notes) > nn0:
                notes.setdefault(io_j, []).extend(scratch.notes[nn0:])
            i += 1
            continue
        take = ppb - wp
        if take > total_pages - i:
            take = total_pages - i
        while dk < n_dups and dup_positions[dk] < i:
            dk += 1
        k = dk
        while k < n_dups:
            pos = int(dup_positions[k])
            if pos >= i + take:
                break
            if prev_occ[pos] >= i:
                take = pos - i
                break
            k += 1
        ftl._append_run(
            active, wp, lpage_flat[i : i + take], token_flat[i : i + take]
        )
        i += take

    # per-IO service times: the reference sums each IO's accumulator
    # with CostAccumulator.total(); these elementwise ops replay its
    # float additions in the same left-to-right order, so the vector is
    # bit-identical to the per-IO loop (extra_usec is always 0 here,
    # and x + 0.0 is exact)
    miss = _map_misses(device, s_pg, e_pg)
    timing = device.timing
    par = timing.parallelism
    cpar = timing.copy_parallelism
    flash = timing.read_page * reads_per_io / par
    flash = flash + timing.program_page * n_pg / par
    flash = flash + (
        timing.read_page * copy_reads
        + (timing.program_page + timing.copy_page_extra) * copy_programs
    ) / cpar
    flash = flash + timing.erase_block * block_erases / cpar
    service = flash + timing.transfer_per_kib * (sizes / 1024.0)
    service = service + miss * timing.map_miss
    service = service + timing.controller_overhead
    completions = _chain(now, service)
    end = float(completions[-1])

    # commit: host programs and reclamation already went through the
    # real chip/FTL above; RMW edge reads were resolved analytically
    chip.stats.page_reads += int(reads_per_io.sum())
    _commit_minted_shadow(controller, R)
    controller._last_end_page = int(e_pg[-1])

    perm = _occupy_channels(device, completions)
    device._busy_until = end
    _accumulate_busy(device, service)
    device.stats.writes += n_ios
    device.stats.bytes_written += int(sizes.sum())

    if trace is not None:
        # every copy and erase here ran inside a garbage collection
        _record_window(
            device, trace, row0, sched0, now, lbas, sizes, True,
            completions, service, perm, notes=notes or None, scope="gc",
            page_reads=reads_per_io,
            page_programs=n_pg,
            copy_reads=copy_reads,
            copy_programs=copy_programs,
            block_erases=block_erases,
            bytes_transferred=sizes,
            map_misses=miss,
        )

    STATS.write_windows += 1
    STATS.write_ios += n_ios
    STATS.epoch_windows += 1
    STATS.epoch_ios += n_ios
    STATS.epoch_collections += ftl.gc_collections - collections0
    return n_ios, end


def _blockmap_write_window(device, lbas, sizes, now, trace, row0, sched0):
    """Block-map kernel: a whole window of synchronous writes.

    A page-aligned write that continues the open replacement of a
    single logical block is a pure sequential append — the map, the
    open-slot LRU and the token mints evolve in closed form and the
    pages land in one ``program_run``.  Every other IO (RMW edges,
    out-of-order offsets, gap fills, mapping-unit expansion) replays
    the reference ``Controller.write`` verbatim, so finalisation and
    merge boundaries act as epoch edges rather than declines: the
    window always completes, with per-IO costs taken from the same
    accumulators the reference dispatch would have filled.

    Like the reference, an exhausted free pool raises
    ``OutOfSpaceError`` mid-window with state torn at the failing IO.
    """
    ftl = device.ftl
    chip = device.chip
    controller = device.controller
    geometry = device.geometry
    ppb = geometry.pages_per_block
    page = geometry.page_size
    timing = device.timing
    n_ios = int(lbas.size)

    s_pg, e_pg = _expand_spans(device, lbas, sizes, expand=True)
    costs: list[CostAccumulator] = []
    service = np.empty(n_ios, dtype=np.float64)
    lba_list = lbas.tolist()
    size_list = sizes.tolist()
    s_list = s_pg.tolist()
    e_list = e_pg.tolist()
    for j in range(n_ios):
        cost = CostAccumulator()
        lba = lba_list[j]
        size = size_list[j]
        s = s_list[j]
        e = e_list[j]
        rep = None
        simple = (
            s * page == lba
            and e * page == lba + size
            and s // ppb == (e - 1) // ppb
        )
        if simple:
            lblock, off = divmod(s, ppb)
            rep = ftl._open.get(lblock)
            simple = (off == rep.next_offset) if rep is not None else (off == 0)
        if simple:
            n = e - s
            controller._charge_map_lookup(s, e - 1, cost)
            if rep is None:
                rep = ftl._open_replacement(lblock, cost)
            next0 = controller._next_token
            tokens = np.arange(next0, next0 + n, dtype=np.int64)
            controller._next_token = next0 + n
            controller._shadow[s:e] = tokens
            chip.program_run(rep.pblock, off, tokens)
            cost.page_programs += n
            rep.next_offset = off + n
            ftl._open.move_to_end(lblock)
            if rep.next_offset == ppb:
                ftl._finalize(lblock, cost)
            ftl.note_io_boundary(lba + size, cost)
            cost.bytes_transferred += size
        else:
            controller.write(lba, size, cost)
        costs.append(cost)
        service[j] = cost.total(timing)

    completions = _chain(now, service)
    end = float(completions[-1])

    perm = _occupy_channels(device, completions)
    device._busy_until = end
    _accumulate_busy(device, service)
    device.stats.writes += n_ios
    device.stats.bytes_written += int(sizes.sum())

    if trace is not None:
        count = n_ios
        notes = {
            j: list(costs[j].notes) for j in range(count) if costs[j].notes
        }

        def column(name):
            return np.fromiter(
                (getattr(c, name) for c in costs), dtype=np.int64, count=count
            )

        # block-map copies and erases all run inside merge scopes
        # (replacement-range copies and finalisation)
        _record_window(
            device, trace, row0, sched0, now, lbas, sizes, True,
            completions, service, perm, notes=notes or None, scope="merge",
            page_reads=column("page_reads"),
            page_programs=column("page_programs"),
            copy_reads=column("copy_reads"),
            copy_programs=column("copy_programs"),
            block_erases=column("block_erases"),
            bytes_transferred=sizes,
            map_misses=column("map_misses"),
        )

    STATS.write_windows += 1
    STATS.write_ios += n_ios
    return n_ios, end


def _resolve_reads(device, lpage_flat):
    """Resolve a flat column of logical page reads against the current
    mapping: ``(tokens, charged)``.

    ``charged`` marks pages that cost a flash read in the reference
    path — mapped pages for the page-map family; replacement-prefix or
    below-write-point data pages for the block-map family, where a
    FILLER read decodes to ERASED but still charges, exactly like
    :meth:`~repro.flashsim.ftl.blockmap.BlockMapFTL.read_page`.
    """
    ftl = device.ftl
    chip = device.chip
    if isinstance(ftl, BlockMapFTL):
        ppb = device.geometry.pages_per_block
        lb = lpage_flat // ppb
        off = lpage_flat - lb * ppb
        nblocks = ftl._data_map.size
        rep_p = np.full(nblocks, -1, dtype=np.int64)
        rep_n = np.zeros(nblocks, dtype=np.int64)
        for lblock, rep in ftl._open.items():
            rep_p[lblock] = rep.pblock
            rep_n[lblock] = rep.next_offset
        in_rep = off < rep_n[lb]
        data = ftl._data_map[lb]
        has_data = data >= 0
        wp = chip._write_point[np.where(has_data, data, 0)]
        in_data = ~in_rep & has_data & (off < wp)
        charged = in_rep | in_data
        src = np.where(in_rep, rep_p[lb], data) * ppb + off
        raw = chip._tokens[np.where(charged, src, 0)]
        tokens = np.where(charged & (raw != FILLER_TOKEN), raw, ERASED)
        return tokens, charged
    ppages = ftl._l2p[lpage_flat]
    mapped = ppages >= 0
    tokens = np.where(mapped, chip._tokens[np.where(mapped, ppages, 0)], ERASED)
    return tokens, mapped


def read_window(
    device: "FlashDevice",
    lbas: np.ndarray,
    sizes: np.ndarray,
    now: float,
    trace: "IOTrace | None" = None,
    row0: int = 0,
    sched0: float | None = None,
) -> tuple[int, float]:
    """Simulate a run of back-to-back synchronous reads in closed form.

    Reads never change FTL state, so the whole remaining run qualifies
    at once — *unless* background work is pending (each read would then
    suffer interference and feed credit grants that advance GC: a real
    state transition per IO) or a page would fail read-your-writes
    verification (the reference path raises mid-run).  The window is
    truncated before the first verification failure so the fallback
    raises exactly where the reference would.

    Returns ``(count, end)`` like :func:`write_window`.
    """
    if not ENABLED:
        return _decline("read", "disabled", now)
    reason = device_decline_reason(device)
    if reason is not None:
        return _decline("read", reason, now)
    if now != device._busy_until:
        return _decline("read", "start-misaligned", now)
    ftl = device.ftl
    if ftl.background_work_pending():
        return _decline("read", "background-pending", now)

    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_ios = _valid_prefix(device, lbas, sizes)
    if n_ios == 0:
        return _decline("read", "address", now)
    lbas = lbas[:n_ios]
    sizes = sizes[:n_ios]

    s_pg, e_pg = _expand_spans(device, lbas, sizes, expand=False)
    n_pg = e_pg - s_pg
    offsets = np.empty(n_ios + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(n_pg, out=offsets[1:])
    total_pages = int(offsets[-1])
    lpage_flat = np.arange(total_pages, dtype=np.int64)
    lpage_flat -= np.repeat(offsets[:-1], n_pg)
    lpage_flat += np.repeat(s_pg, n_pg)

    chip = device.chip
    tokens, mapped = _resolve_reads(device, lpage_flat)
    if device.controller.config.verify:
        expected = device.controller._shadow[lpage_flat]
        bad = tokens != expected
        if bool(bad.any()):
            # truncate before the IO whose verification fails; the
            # fallback replays it and raises the reference FTLError
            first_bad_page = int(np.argmax(bad))
            bad_io = int(np.searchsorted(offsets, first_bad_page, side="right")) - 1
            if bad_io == 0:
                return _decline("read", "verify", now)
            n_ios = bad_io
            lbas = lbas[:n_ios]
            sizes = sizes[:n_ios]
            s_pg = s_pg[:n_ios]
            e_pg = e_pg[:n_ios]
            n_pg = n_pg[:n_ios]
            total_pages = int(offsets[n_ios])
            offsets = offsets[: n_ios + 1]
            mapped = mapped[:total_pages]

    reads_per_io = np.add.reduceat(mapped.astype(np.int64), offsets[:-1])
    miss = _map_misses(device, s_pg, e_pg)
    timing = device.timing
    flash = (timing.read_page * reads_per_io.astype(np.float64)) / timing.parallelism
    service, completions = _finish_services(device, flash, sizes, miss, now)
    end = float(completions[-1])

    # commit ----------------------------------------------------------
    chip.stats.page_reads += int(reads_per_io.sum())
    device.controller._last_end_page = int(e_pg[-1])

    # background credit: each read grants service * read_concurrency,
    # clamped to the leftover maximum; with no work pending the grants
    # only move the credit account (exact scalar fold, including the
    # clamp ordering)
    concurrency = device.background.read_concurrency
    if concurrency > 0.0:
        cap = device.background.max_leftover_credit_usec
        credit = device._bg_credit
        for usec in service.tolist():
            credit += usec * concurrency
            credit = min(credit, cap)
        device._bg_credit = credit

    perm = _occupy_channels(device, completions)
    device._busy_until = end
    _accumulate_busy(device, service)
    device.stats.reads += n_ios
    device.stats.bytes_read += int(sizes.sum())

    if trace is not None:
        _record_window(
            device, trace, row0, sched0, now, lbas, sizes, False,
            completions, service, perm,
            page_reads=reads_per_io,
            bytes_transferred=sizes,
            map_misses=miss,
        )

    STATS.read_windows += 1
    STATS.read_ios += n_ios
    return n_ios, end


def run_program_into(
    device: "FlashDevice",
    program: "IOProgram",
    trace: "IOTrace",
    start_at: float,
    os_overhead: float,
) -> bool:
    """Run a whole :class:`~repro.core.generator.IOProgram` through the
    kernels, falling back per IO where a window declines.

    Returns False — with *no* state touched — when the program shape
    itself disqualifies (paced gaps, host overhead, queue-misaligned
    start, or a device-level decline); the synchronous host then runs
    its reference loop.  Returns True when the program completed: every
    IO was simulated either inside a closed-form window or, at window
    boundaries (GC about to fire, verification about to fail), through
    the ordinary :meth:`~repro.flashsim.device.FlashDevice.submit_into`
    path — which also re-raises exactly the reference errors.
    """
    if not ENABLED:
        STATS.decline("program:disabled")
        return False
    if os_overhead != 0.0:
        STATS.decline("program:os-overhead")
        return False
    gaps = program.gaps
    if gaps.size and bool((gaps != 0.0).any()):
        STATS.decline("program:paced")
        return False
    if device._busy_until != start_at:
        STATS.decline("program:start-misaligned")
        return False
    if device_decline_reason(device) is not None:
        STATS.decline(f"program:{device_decline_reason(device)}")
        return False

    lbas = program.lbas
    sizes = program.sizes
    writes = np.asarray(program.writes, dtype=bool)
    count = len(program)
    # homogeneous stretches: a window never crosses a read/write flip
    flips = np.flatnonzero(writes[1:] != writes[:-1]) + 1
    bounds = np.empty(flips.size + 1, dtype=np.int64)
    bounds[: flips.size] = flips
    bounds[-1] = count

    clock = start_at
    i = 0
    end_i = 0
    while i < count:
        if i >= end_i:
            end_i = int(bounds[np.searchsorted(bounds, i, side="right")])
        kernel = write_window if writes[i] else read_window
        sched0 = start_at if i == 0 else clock
        done, clock_after = kernel(
            device, lbas[i:end_i], sizes[i:end_i], clock,
            trace=trace, row0=i, sched0=sched0,
        )
        if done:
            i += done
            clock = clock_after
        else:
            # reference path for the one IO the kernel refused (GC
            # fires, verification raises, ...) — then try again
            clock = device.submit_into(
                trace, i, int(lbas[i]), int(sizes[i]), bool(writes[i]),
                sched0, sched0,
            )
            i += 1
    return True


def run_program_queued(
    device: "FlashDevice",
    program: "IOProgram",
    trace: "IOTrace",
    start_at: float,
    os_overhead: float,
    depth: int,
) -> bool:
    """Evaluate :class:`~repro.flashsim.host.AsyncHost`'s depth-``d``
    completion chain for a homogeneous read program as one vectorized
    event schedule.

    Reads never mutate FTL state, so every per-IO service time is a
    pure function of the pre-program mapping — resolved in closed form
    by :func:`_resolve_reads` — and the only sequential part left is
    the submit/pop event schedule itself: channel horizons, queue
    waits, occupancy integrals and background credit.  Those fold in a
    tight scalar loop (~15 operations per IO) that replays the host
    loop, ``_dispatch`` and :class:`~repro.flashsim.device.CommandQueue`
    bookkeeping exactly, instead of the reference's full per-IO
    controller/FTL/chip traversal.

    Returns False — with *no* state touched — when the program shape
    disqualifies it (writes, paced gaps, host overhead, pending
    background work, a possible verification failure, or a device-level
    decline); the async host then runs its reference loop.  Trace rows
    land in submission order with final timings, identical to the
    reference's tag-sorted ``record_at`` rows.
    """
    if not ENABLED:
        STATS.decline("queued:disabled")
        return False
    if os_overhead != 0.0:
        STATS.decline("queued:os-overhead")
        return False
    count = len(program)
    if count == 0:
        STATS.decline("queued:empty")
        return False
    writes = np.asarray(program.writes, dtype=bool)
    if bool(writes.any()):
        STATS.decline("queued:writes")
        return False
    gaps = program.gaps
    if gaps.size and bool((gaps != 0.0).any()):
        STATS.decline("queued:paced")
        return False
    reason = device_decline_reason(device)
    if reason is not None:
        STATS.decline(f"queued:{reason}")
        return False
    if device._queue.in_flight:
        STATS.decline("queued:in-flight")
        return False
    if device._busy_until != start_at:
        STATS.decline("queued:start-misaligned")
        return False
    if device.ftl.background_work_pending():
        # each read would suffer interference and feed credit grants
        # that execute background units: real state transitions per IO
        STATS.decline("queued:background-pending")
        return False

    lbas = np.asarray(program.lbas, dtype=np.int64)
    sizes = np.asarray(program.sizes, dtype=np.int64)
    if _valid_prefix(device, lbas, sizes) != count:
        # the reference raises AddressError mid-program; leave the
        # whole program to it so the error surfaces at the exact IO
        STATS.decline("queued:address")
        return False

    s_pg, e_pg = _expand_spans(device, lbas, sizes, expand=False)
    n_pg = e_pg - s_pg
    offsets = np.empty(count + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(n_pg, out=offsets[1:])
    total_pages = int(offsets[-1])
    lpage_flat = np.arange(total_pages, dtype=np.int64)
    lpage_flat -= np.repeat(offsets[:-1], n_pg)
    lpage_flat += np.repeat(s_pg, n_pg)

    tokens, charged = _resolve_reads(device, lpage_flat)
    if device.controller.config.verify:
        expected = device.controller._shadow[lpage_flat]
        if bool((tokens != expected).any()):
            STATS.decline("queued:verify")
            return False

    reads_per_io = np.add.reduceat(charged.astype(np.int64), offsets[:-1])
    miss = _map_misses(device, s_pg, e_pg)
    timing = device.timing
    flash = (timing.read_page * reads_per_io.astype(np.float64)) / timing.parallelism
    service = _service_times(device, flash, sizes, miss)

    # -- the event schedule: replay the host's submit/pop loop ---------
    svc = service.tolist()
    channels = device._channels
    busys = list(channels._busy)
    nch = len(busys)
    queue = device._queue
    stats = device.stats
    concurrency = device.background.read_concurrency
    cap = device.background.max_leftover_credit_usec
    credit = device._bg_credit
    busy_until = device._busy_until
    busy_usec = stats.busy_usec
    queue_wait = stats.queue_wait_usec
    queued_ios = 0
    last_event = queue._last_event
    depth_time = queue._depth_time
    active_time = queue._active_time
    depth_seq: list[int] = []
    channel_seq: list[int] = []
    submitted = np.empty(count, dtype=np.float64)
    started = np.empty(count, dtype=np.float64)
    completed = np.empty(count, dtype=np.float64)
    heap: list[tuple[float, int]] = []
    clock = start_at
    i = 0
    in_flight = 0
    while i < count or in_flight:
        if i < count and in_flight < depth:
            now_i = clock
            # ChannelSet.pick(): earliest-free channel, lowest index wins
            ch = 0
            floor = busys[0]
            for c in range(1, nch):
                if busys[c] < floor:
                    floor = busys[c]
                    ch = c
            start = floor if floor > now_i else now_i
            if start > now_i:
                queued_ios += 1
                queue_wait += start - now_i
            # the idle grant max(0, start - busy_until) is provably <= 0
            # here (now_i <= busy_until by induction); the service grant
            # only moves the credit account while no work is pending
            usec = svc[i] * concurrency
            if usec > 0.0:
                credit += usec
                if credit > cap:
                    credit = cap
            completion = start + svc[i]
            if completion > busys[ch]:
                busys[ch] = completion
            if completion > busy_until:
                busy_until = completion
            busy_usec += svc[i]
            # CommandQueue.push: _advance(submitted_at) before counting
            if now_i > last_event:
                if in_flight:
                    elapsed = now_i - last_event
                    depth_time += in_flight * elapsed
                    active_time += elapsed
                last_event = now_i
            heappush(heap, (completion, i))
            in_flight += 1
            depth_seq.append(in_flight)
            channel_seq.append(ch)
            submitted[i] = now_i
            started[i] = start
            completed[i] = completion
            i += 1
        else:
            # CommandQueue.pop: _advance(peek) with the entry counted
            when, _tag = heappop(heap)
            if when > last_event:
                elapsed = when - last_event
                depth_time += in_flight * elapsed
                active_time += elapsed
                last_event = when
            in_flight -= 1
            if when > clock:
                clock = when

    # -- commit --------------------------------------------------------
    device.chip.stats.page_reads += int(reads_per_io.sum())
    device.controller._last_end_page = int(e_pg[-1])
    device._bg_credit = credit
    device._busy_until = busy_until
    for c in range(nch):
        channels.occupy(c, busys[c])
    stats.busy_usec = busy_usec
    stats.reads += count
    stats.bytes_read += int(sizes.sum())
    stats.queued_ios += queued_ios
    stats.queue_wait_usec = queue_wait
    queue._last_event = last_event
    queue._depth_time = depth_time
    queue._active_time = active_time
    at_depth = queue._at_depth
    for d in depth_seq:
        at_depth[d] = at_depth.get(d, 0) + 1
    queue._submitted += count
    queue.timeline._seq += count
    queue.timeline.clock.advance_to(last_event)

    recorder = device.recorder
    attribution = None
    if recorder is not None:
        attribution = (
            timing,
            window_inputs(
                timing, np.asarray(channel_seq), service,
                page_reads=reads_per_io, bytes_transferred=sizes,
                map_misses=miss,
            ),
        )
    trace.record_run(
        0,
        lbas,
        sizes,
        False,
        submitted,
        submitted,
        started,
        completed,
        page_reads=reads_per_io,
        bytes_transferred=sizes,
        map_misses=miss,
        attribution=attribution,
    )
    if recorder is not None:
        recorder.record_rows(trace, 0, count)

    STATS.queued_windows += 1
    STATS.queued_ios += count
    return True
