"""Parallel campaign execution with snapshot restore and memoization.

A campaign decomposes into independent *cells* — one (device profile,
experiment) pair each.  Cells share nothing but the enforced initial
state, which the executor builds **once per profile**, snapshots, and
hands to every cell; each cell restores the snapshot onto its own
device and runs with its own target-space allocator.  Because the
simulator is deterministic, the same cell always produces the same
measurements — which buys two things:

* **parallelism** — cells fan out across worker processes
  (``jobs > 1``) and the results are bit-identical to running them
  sequentially (``jobs == 1`` uses the identical per-cell code path,
  inline);
* **memoization** — a :class:`RunCache` stores finished cells on disk
  keyed by (profile, state fingerprint, spec); a repeated campaign
  re-runs zero already-measured cells.

Cells are described by picklable primitives only: experiments hold
pattern-builder closures that cannot cross a process boundary, so
workers rebuild them from the micro-benchmark registry
(:func:`~repro.core.microbench.build_microbenchmark`).  Results travel
as the archive's JSON payloads, which round-trip floats exactly.

Campaign throughput (see DESIGN.md §14)
---------------------------------------

uFLIP makes device state the dominant campaign cost, and a naive
parallel dispatch re-pays it constantly: the parent enforces state
serially before any cell runs, every submitted cell ships a full
pickled snapshot through the pool pipe, and every worker rebuilds a
device from scratch and restores cold.  The parallel dispatch (the
only one besides the inline ``jobs=1`` reference) removes that serial
tax with three mechanisms while keeping results bit-identical to
``jobs=1``:

* **zero-copy snapshot distribution** — enforced snapshots are packed
  once into a content-addressed shared-memory
  :class:`~repro.flashsim.snapshot.SnapshotStore` keyed by the state
  fingerprint; cells carry a segment *name* instead of a snapshot, and
  workers attach and restore from read-only views (per-cell snapshot
  bytes through the pipe drop to ~0; platforms without shared memory
  fall back to shipping the snapshot inline);
* **warm-worker scheduling** — each worker keeps a small LRU of
  resident built devices per ``(profile, capacity)`` plus the base
  fingerprint the resident is known to sit at; the executor dispatches
  a group's cells contiguously so consecutive cells on a worker reuse
  the resident (no rebuild), and a worker whose resident still sits at
  the cell's base state skips the restore outright;
* **pipelined state preparation** — with more than one profile in
  flight, enforcement itself moves into the workers: independent
  profiles enforce concurrently (publishing into the snapshot store)
  while cells of already-prepared profiles execute.

Scheduling effects are visible in :attr:`CampaignExecutor.sched`
(a :class:`SchedulerStats`) and, when metrics are installed, as
``core.executor.warm_hits`` / ``cold_builds`` / ``restores_skipped`` /
``snapshot_bytes_shipped`` / ``snapshot_bytes_saved`` counters.
``tools/bench_campaign.py`` measures the end-to-end effect against the
sequential executor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import pickle
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.archive import (
    payload_has_attribution,
    payload_has_traces,
    result_from_payload,
    result_to_payload,
)
from repro.core.experiment import Experiment, ExperimentResult, run_experiment
from repro.core.methodology import StatePool, enforce_random_state
from repro.core.microbench import BenchContext, build_microbenchmark
from repro.core.plan import TargetAllocator
from repro.errors import ExperimentError, PlanError
from repro.flashsim import analytic
from repro.flashsim.profiles import build_device, get_profile
from repro.flashsim.snapshot import (
    DeviceSnapshot,
    SnapshotStore,
    attach_segment,
    publish_from_worker,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsSnapshot, diff_counts
from repro.units import SEC

CACHE_VERSION = 1


@dataclass(frozen=True)
class Observe:
    """Which observability channels worker processes should record.

    The executor derives this from the globals installed in the parent
    process; it must travel explicitly because a ``fork``-started worker
    *inherits* the parent's installed tracer/registry objects — recording
    into those copies would silently lose everything, so workers shadow
    them with fresh instances (or ``None``) based on these flags.

    ``traces`` asks the cell to keep and return its per-IO traces
    (columnar payloads inside the result) rather than statistics only.
    ``attribution`` additionally attaches a flight recorder to the cell
    device so every trace carries per-IO latency-attribution columns
    (implies ``traces``).
    """

    metrics: bool = False
    tracing: bool = False
    traces: bool = False
    attribution: bool = False


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignCell:
    """One independent unit of campaign work, in picklable primitives."""

    profile: str
    capacity: int | None
    benchmark: str
    experiment: str
    io_size: int
    io_count: int
    io_ignore: int = 0
    seed: int = 42
    repetitions: int = 1
    pause_usec: float = 1.0 * SEC


@dataclass
class CellOutcome:
    """One executed (or cache-served) cell."""

    cell: CampaignCell
    payload: dict
    cached: bool = False
    #: per-cell device-counter delta (``None`` when metrics were off both
    #: when the cell ran and when its cache entry was written)
    metrics: dict | None = None
    #: host wall-clock time the cell took to execute (0 for cache hits)
    wall_usec: float = 0.0

    def result(self) -> ExperimentResult:
        """The cell's measurements as an :class:`ExperimentResult`."""
        return result_from_payload(self.cell.experiment, self.payload)


def plan_cells(
    profile: str,
    capacity: int | None,
    benchmarks: Sequence[str],
    *,
    io_size: int,
    io_count: int,
    io_ignore: int = 0,
    seed: int = 42,
    repetitions: int = 1,
    pause_usec: float = 1.0 * SEC,
) -> list[CampaignCell]:
    """Enumerate one profile's campaign as cells, one per experiment."""
    resolved = capacity if capacity is not None else get_profile(profile).sim_logical_bytes
    context = BenchContext(
        capacity=resolved,
        io_size=io_size,
        io_count=io_count,
        io_ignore=io_ignore,
        seed=seed,
    )
    cells = []
    for name in benchmarks:
        for experiment in build_microbenchmark(name, context).experiments:
            cells.append(
                CampaignCell(
                    profile=profile,
                    capacity=capacity,
                    benchmark=name,
                    experiment=experiment.name,
                    io_size=io_size,
                    io_count=io_count,
                    io_ignore=io_ignore,
                    seed=seed,
                    repetitions=repetitions,
                    pause_usec=pause_usec,
                )
            )
    return cells


def _cell_experiment(cell: CampaignCell, capacity: int) -> Experiment:
    """Rebuild a cell's experiment from the micro-benchmark registry."""
    context = BenchContext(
        capacity=capacity,
        io_size=cell.io_size,
        io_count=cell.io_count,
        io_ignore=cell.io_ignore,
        seed=cell.seed,
    )
    for experiment in build_microbenchmark(cell.benchmark, context).experiments:
        if experiment.name == cell.experiment:
            return experiment
    raise ExperimentError(
        f"micro-benchmark {cell.benchmark!r} has no experiment {cell.experiment!r}"
    )


def _run_cell_body(
    cell: CampaignCell,
    snapshot: DeviceSnapshot,
    keep_traces: bool = False,
    attribution: bool = False,
    *,
    device=None,
    skip_restore: bool = False,
) -> dict:
    """Execute one cell; returns an envelope of payload + observability.

    The single per-cell code path: the sequential executor calls it
    inline (under the parent's installed tracer/registry, if any),
    worker processes call it via :func:`_execute_cell_fast` under their
    own.  Determinism makes all executions bit-identical.

    ``device`` lets a warm worker pass its resident built device instead
    of paying a rebuild; ``skip_restore`` additionally skips the initial
    snapshot restore when the caller *knows* the device already sits
    exactly at the snapshot state (enforce just ran, or the previous
    dispatch restored and did not run).  The snapshot must still be
    supplied — the allocator-overflow guard restores from it.  Any
    attached flight recorder is detached up front (device restores do
    not clear recorders), so a recycled device records if and only if
    this cell asks for attribution.

    The envelope maps ``payload`` (the measurements, with columnar
    per-IO traces included when ``keep_traces``), ``metrics`` (the
    cell's device-counter delta, ``None`` when metrics are off) and
    ``wall_usec`` (host wall-clock execution time).
    """
    registry = obs_metrics.current()
    analytic_baseline = (
        analytic.STATS.counters() if registry is not None else None
    )
    wall_start = time.perf_counter()
    with obs_tracing.span(
        "cell", cat="executor", profile=cell.profile, experiment=cell.experiment
    ):
        if device is None:
            device = build_device(cell.profile, logical_bytes=cell.capacity)
        if not skip_restore:
            device.restore(snapshot)
        device.detach_recorder()
        if attribution:
            from repro.flashsim.recorder import FlightRecorder

            device.attach_recorder(FlightRecorder())
        before = device.metrics() if registry is not None else None
        experiment = _cell_experiment(cell, device.capacity)
        allocator = TargetAllocator(device.capacity, device.geometry.block_size)

        def allocate(spec):
            placed = allocator.place(spec)
            if placed is None:
                # runtime guard, mirroring BenchmarkPlan.execute: restore
                # the enforced state and restart the target space
                device.restore(snapshot)
                allocator.reset()
                placed = allocator.place(spec)
                if placed is None:
                    raise PlanError("spec does not fit even on a fresh device")
            return placed

        result = run_experiment(
            device,
            experiment,
            pause_usec=cell.pause_usec,
            repetitions=cell.repetitions,
            allocate=allocate,
            keep_traces=keep_traces,
        )
    envelope = {
        "payload": result_to_payload(result, include_traces=keep_traces),
        "metrics": None,
        "wall_usec": (time.perf_counter() - wall_start) * 1e6,
    }
    if registry is not None:
        envelope["metrics"] = diff_counts(device.metrics(), before)
        registry.counter("core.executor.cells_executed").inc()
        analytic.publish_stats(registry, analytic_baseline)
    return envelope


def run_cell(cell: CampaignCell, snapshot: DeviceSnapshot) -> dict:
    """Execute one cell from a restored snapshot; returns the payload.

    Compatibility front over :func:`_run_cell_body` for callers that
    only want the measurements.
    """
    return _run_cell_body(cell, snapshot)["payload"]


# ----------------------------------------------------------------------
# warm workers: resident devices + shared-memory snapshot views
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _CellTask:
    """One dispatched cell plus how its worker reaches the base state.

    Exactly one of ``segment`` (a shared-memory name the worker attaches
    and restores from, zero bytes through the pipe) and ``snapshot``
    (a full pickled snapshot, the fallback when shared memory is
    unavailable) is set.  ``fingerprint`` identifies the base state, so
    a warm worker whose resident device already sits there can skip the
    restore.
    """

    cell: CampaignCell
    fingerprint: str
    segment: str | None = None
    snapshot: DeviceSnapshot | None = None


@dataclass(frozen=True)
class _PrepareTask:
    """One profile's state enforcement, moved into a worker process.

    ``token`` names the parent's :class:`SnapshotStore`; when set, the
    worker publishes the enforced snapshot into shared memory and the
    envelope carries only the segment name.  The freshly enforced
    device becomes the worker's resident for the group — sitting
    exactly at the published state, so the first cell dispatched to
    this worker skips its restore.
    """

    profile: str
    capacity: int | None
    enforce: bool
    seed: int
    token: str | None = None


#: resident built devices per (profile, capacity), newest last
_WORKER_RESIDENT: "OrderedDict[tuple, object]" = OrderedDict()
#: base fingerprint each resident is known to sit at (None = dirty)
_WORKER_AT: dict = {}
#: shared-memory segments this worker has attached: name -> (shm, snapshot)
_WORKER_ATTACHED: dict = {}
#: residents kept per worker; devices beyond this are rebuilt on demand
_RESIDENT_CAP = 4


def _worker_device(cell: CampaignCell):
    """The worker's resident device for a cell's group, building on miss.

    Returns ``(device, warm)`` — ``warm`` is True when the resident
    existed (build skipped).  The resident table is a small LRU; evicted
    groups simply rebuild when they come back.
    """
    key = (cell.profile, cell.capacity)
    device = _WORKER_RESIDENT.get(key)
    if device is not None:
        _WORKER_RESIDENT.move_to_end(key)
        return device, True
    device = build_device(cell.profile, logical_bytes=cell.capacity)
    _install_resident(key, device, None)
    return device, False


def _install_resident(key: tuple, device, fingerprint: str | None) -> None:
    """Insert/refresh one resident device, evicting past the LRU cap."""
    _WORKER_RESIDENT[key] = device
    _WORKER_RESIDENT.move_to_end(key)
    _WORKER_AT[key] = fingerprint
    while len(_WORKER_RESIDENT) > _RESIDENT_CAP:
        evicted, _ = _WORKER_RESIDENT.popitem(last=False)
        _WORKER_AT.pop(evicted, None)


def _task_snapshot(task: _CellTask) -> DeviceSnapshot:
    """The base-state snapshot a cell task restores from.

    Segment-backed tasks attach to shared memory once per worker and
    reuse the zero-copy view snapshot for every later cell of the same
    state; inline tasks carry the snapshot themselves.
    """
    if task.segment is not None:
        cached = _WORKER_ATTACHED.get(task.segment)
        if cached is None:
            cached = attach_segment(task.segment)
            _WORKER_ATTACHED[task.segment] = cached
        return cached[1]
    if task.snapshot is None:  # defensive: dispatcher always sets one
        raise ExperimentError(
            f"cell task for {task.cell.experiment!r} carries neither a "
            "segment nor a snapshot"
        )
    return task.snapshot


def _execute_cell_fast(task: _CellTask, observe: Observe) -> dict:
    """Worker-process entry point for one cell.

    Always shadows the process-global tracer/registry: under the
    ``fork`` start method the worker inherits the parent's installed
    objects, and spans or counts recorded into those copies would be
    lost.  Fresh instances are installed when the parent observes the
    matching channel; their contents travel home in the envelope
    (``spans`` as picklable payload tuples, ``registry`` as a
    :class:`MetricsSnapshot`) for the parent to absorb.

    The device comes from the worker's resident LRU (rebuilt only on a
    cold miss), the snapshot from the shared-memory store (zero-copy
    views), and the restore is skipped when the resident is known to
    sit at the cell's base fingerprint (i.e. enforcement just ran
    here).  Running a cell dirties the resident, so the skip is claimed
    at most once per enforcement.  The envelope's ``sched`` entry
    reports what happened.
    """
    tracer = obs_tracing.Tracer() if observe.tracing else None
    registry = obs_metrics.MetricsRegistry() if observe.metrics else None
    with obs_tracing.installed(tracer), obs_metrics.installed(registry):
        key = (task.cell.profile, task.cell.capacity)
        device, warm = _worker_device(task.cell)
        skip = warm and _WORKER_AT.get(key) == task.fingerprint
        _WORKER_AT[key] = None  # the run below dirties the device
        snapshot = _task_snapshot(task)
        envelope = _run_cell_body(
            task.cell,
            snapshot,
            keep_traces=observe.traces,
            attribution=observe.attribution,
            device=device,
            skip_restore=skip,
        )
    envelope["spans"] = (
        [span.to_payload() for span in tracer.spans] if tracer is not None else []
    )
    envelope["registry"] = registry.snapshot() if registry is not None else None
    envelope["sched"] = {"warm": warm, "skipped_restore": skip}
    return envelope


def _prepare_remote(task: _PrepareTask, observe: Observe) -> dict:
    """Worker-process entry point for one profile's state enforcement.

    Builds the device, enforces the random state, publishes the snapshot
    into the parent's shared-memory store (when a ``token`` names one)
    and installs the device — sitting exactly at the enforced state — as
    this worker's resident.  The envelope ships the segment name plus
    bookkeeping sizes home; only when publishing was impossible does it
    carry the full snapshot.
    """
    tracer = obs_tracing.Tracer() if observe.tracing else None
    registry = obs_metrics.MetricsRegistry() if observe.metrics else None
    wall_start = time.perf_counter()
    with obs_tracing.installed(tracer), obs_metrics.installed(registry):
        analytic_baseline = (
            analytic.STATS.counters() if registry is not None else None
        )
        with obs_tracing.span("prepare", cat="executor", profile=task.profile):
            device = build_device(task.profile, logical_bytes=task.capacity)
            if task.enforce:
                enforce_random_state(device, seed=task.seed)
            snapshot = device.snapshot()
            fingerprint = device.fingerprint()
        if registry is not None:
            analytic.publish_stats(registry, analytic_baseline)
        segment = None
        packed_bytes = 0
        if task.token is not None:
            try:
                shm, snapshot, segment, packed_bytes = publish_from_worker(
                    task.token, fingerprint, snapshot
                )
                _WORKER_ATTACHED[segment] = (shm, snapshot)
            except (OSError, ValueError):  # no shared memory: ship inline
                segment = None
        _install_resident((task.profile, task.capacity), device, fingerprint)
    envelope = {
        "profile": task.profile,
        "capacity": device.capacity,
        "fingerprint": fingerprint,
        "segment": segment,
        "snapshot": None if segment is not None else snapshot,
        "packed_bytes": packed_bytes,
        "pickled_bytes": len(pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)),
        "wall_usec": (time.perf_counter() - wall_start) * 1e6,
    }
    envelope["spans"] = (
        [span.to_payload() for span in tracer.spans] if tracer is not None else []
    )
    envelope["registry"] = registry.snapshot() if registry is not None else None
    return envelope


# ----------------------------------------------------------------------
# run cache
# ----------------------------------------------------------------------

class RunCache:
    """On-disk memo of executed cells.

    Keys combine the cell description, the *spec digest* (the reprs of
    the actual pattern specs the experiment will run — so a code change
    that alters patterns invalidates entries) and the device-state
    fingerprint.  Entries are JSON files; floats round-trip exactly, so
    a cache hit returns the same numbers the run produced.

    Besides the global ``hits`` / ``misses`` / ``bytes_saved`` accounts
    the cache keeps a per-profile breakdown in :attr:`profiles` (hits,
    misses, simulated bytes saved, stored payload bytes), which the CLI
    renders as the per-profile cache table under ``--metrics``.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: simulated IO volume the hits avoided re-measuring
        self.bytes_saved = 0
        #: serialized payload bytes written by :meth:`put` this session
        self.payload_bytes = 0
        #: per-profile account: hits, misses, bytes_saved, payload_bytes
        self.profiles: dict[str, dict[str, int]] = {}

    def _profile_stats(self, profile: str) -> dict[str, int]:
        """The mutable per-profile account row, created on first use."""
        return self.profiles.setdefault(
            profile,
            {"hits": 0, "misses": 0, "bytes_saved": 0, "payload_bytes": 0},
        )

    @staticmethod
    def key(cell: CampaignCell, fingerprint: str, spec_digest: str) -> str:
        """Cache key of one cell under one device state."""
        blob = json.dumps(
            {
                "version": CACHE_VERSION,
                "cell": dataclasses.asdict(cell),
                "fingerprint": fingerprint,
                "specs": spec_digest,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:40]

    @staticmethod
    def spec_digest(cell: CampaignCell, capacity: int) -> str:
        """Hash of every spec the cell will execute."""
        experiment = _cell_experiment(cell, capacity)
        hasher = hashlib.sha256()
        hasher.update(experiment.name.encode())
        hasher.update(experiment.parameter.encode())
        for value in experiment.values:
            hasher.update(repr(value).encode())
            hasher.update(repr(experiment.spec_for(value)).encode())
        return hasher.hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _miss(self, cell: CampaignCell | None) -> None:
        """Account one miss, globally and per profile when known."""
        self.misses += 1
        if cell is not None:
            self._profile_stats(cell.profile)["misses"] += 1

    def get_entry(
        self,
        key: str,
        cell: CampaignCell | None = None,
        require_traces: bool = False,
        require_attribution: bool = False,
    ) -> dict | None:
        """The whole memoized entry for ``key``, or None on a miss.

        Passing the ``cell`` lets the cache credit its bytes-saved
        account on a hit: every hit avoids re-simulating the cell's IO
        volume (io_count x io_size per repetition).  With
        ``require_traces``, an entry stored without per-IO traces does
        not satisfy a trace-keeping campaign and counts as a miss;
        ``require_attribution`` further requires the traces to carry
        latency-attribution columns.
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self._miss(cell)
            return None
        if entry.get("version") != CACHE_VERSION:
            self._miss(cell)
            return None
        if require_traces and not payload_has_traces(entry.get("payload", {})):
            self._miss(cell)
            return None
        if require_attribution and not payload_has_attribution(
            entry.get("payload", {})
        ):
            self._miss(cell)
            return None
        self.hits += 1
        if cell is not None:
            saved = cell.io_count * cell.io_size * max(1, cell.repetitions)
            self.bytes_saved += saved
            stats = self._profile_stats(cell.profile)
            stats["hits"] += 1
            stats["bytes_saved"] += saved
        return entry

    def get(self, key: str) -> dict | None:
        """The memoized payload for ``key``, or None on a miss."""
        entry = self.get_entry(key)
        return entry["payload"] if entry is not None else None

    def put(
        self,
        key: str,
        cell: CampaignCell,
        payload: dict,
        metrics: dict | None = None,
        wall_usec: float = 0.0,
    ) -> Path:
        """Store one executed cell's payload (and observability) under ``key``.

        The entry records its serialized payload size (``payload_bytes``
        — what a future hit reads instead of re-simulating), accumulated
        globally in :attr:`payload_bytes` and per profile.
        """
        payload_size = len(json.dumps(payload))
        entry = {
            "version": CACHE_VERSION,
            "cell": dataclasses.asdict(cell),
            "payload": payload,
            "payload_bytes": payload_size,
            "metrics": metrics,
            "wall_usec": wall_usec,
        }
        self.payload_bytes += payload_size
        self._profile_stats(cell.profile)["payload_bytes"] += payload_size
        path = self._path(key)
        path.write_text(json.dumps(entry, indent=2))
        return path


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

def _pool_context():
    """Prefer fork on platforms that have it: child processes inherit
    ``sys.path``, so the pool works under test runners that injected
    the package path at runtime."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class SchedulerStats:
    """What the campaign dispatcher did, accumulated per executor.

    ``warm_hits`` / ``cold_builds`` split executed cells by whether the
    worker reused a resident device; ``restores_skipped`` counts cells
    that ran without even a restore (resident sat at the base state).
    ``bytes_shipped`` is pickled snapshot volume sent through the pool
    pipe; ``bytes_saved`` the volume segment-backed dispatches avoided
    (one pickled-snapshot's worth per cell).  Mirrored into
    ``core.executor.*`` counters when metrics are installed.
    """

    warm_hits: int = 0
    cold_builds: int = 0
    restores_skipped: int = 0
    segments_published: int = 0
    bytes_shipped: int = 0
    bytes_saved: int = 0

    def as_dict(self) -> dict[str, int]:
        """The stats as a plain dict (benchmark/report serialization)."""
        return dataclasses.asdict(self)


#: SchedulerStats field -> obs counter mirroring it
_SCHED_COUNTERS = {
    "warm_hits": "core.executor.warm_hits",
    "cold_builds": "core.executor.cold_builds",
    "restores_skipped": "core.executor.restores_skipped",
    "segments_published": "core.executor.snapshot_segments",
    "bytes_shipped": "core.executor.snapshot_bytes_shipped",
    "bytes_saved": "core.executor.snapshot_bytes_saved",
}


@dataclass
class _PreparedGroup:
    """One (profile, capacity) group's enforced base state, as the
    parent tracks it: the fingerprint always, plus whichever
    distribution forms exist — a shared-memory ``segment`` and/or an
    in-process ``snapshot`` (lazily fetched from the store when the
    sequential path needs one)."""

    capacity: int
    fingerprint: str
    snapshot: DeviceSnapshot | None = None
    segment: str | None = None
    packed_bytes: int = 0
    pickled_bytes: int = 0


class CampaignExecutor:
    """Executes campaign cells, optionally in parallel and memoized.

    ``jobs == 1`` runs cells inline; ``jobs > 1`` fans cache misses out
    across a process pool.  Either way every cell starts from the same
    restored snapshot and runs the same code path, so the two modes
    produce identical results.

    The parallel dispatch is the throughput architecture of DESIGN.md
    §14: zero-copy shared-memory snapshot distribution, warm workers
    (resident devices + restore skipping) and, with
    ``pipeline_prepare``, state enforcement in the workers, concurrent
    across profiles (``pipeline_prepare=False`` enforces in the parent
    instead).  :attr:`sched` reports what the dispatcher did.  Parallel
    executors own shared-memory segments — release them with
    :meth:`close` (or use the executor as a context manager); a
    finalizer and the resource tracker back the explicit cleanup up.

    ``keep_traces`` makes cells keep and return their per-IO traces
    (columnar payloads); cache entries stored without traces then no
    longer satisfy a hit and are re-run.  ``attribution`` attaches a
    flight recorder to every cell device so the traces carry exact
    per-IO latency-attribution columns (implies ``keep_traces``; cache
    entries without attribution are likewise re-run).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | str | Path | None = None,
        enforce: bool = True,
        enforce_seed: int = 97,
        state_pool: StatePool | None = None,
        keep_traces: bool = False,
        attribution: bool = False,
        pipeline_prepare: bool = True,
    ) -> None:
        if jobs < 1:
            raise ExperimentError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = RunCache(cache) if isinstance(cache, (str, Path)) else cache
        self.enforce = enforce
        self.enforce_seed = enforce_seed
        self.attribution = attribution
        self.keep_traces = keep_traces or attribution
        self.pipeline_prepare = pipeline_prepare
        self._pool = state_pool if state_pool is not None else StatePool()
        self._store: SnapshotStore | None = None
        self._prepared: dict[tuple, _PreparedGroup] = {}
        #: what the dispatcher did, accumulated across execute() calls
        self.sched = SchedulerStats()

    # ------------------------------------------------------------------
    # state preparation (parent side)
    # ------------------------------------------------------------------

    def prepare(self, profile: str, capacity: int | None):
        """Build one profile's device in the enforced state.

        Returns ``(capacity, snapshot, fingerprint)``; the enforcement
        itself is memoized in the executor's :class:`StatePool`, so a
        profile is only ever filled once per executor.
        """
        device = build_device(profile, logical_bytes=capacity)
        if self.enforce:
            state = self._pool.ensure(device, seed=self.enforce_seed)
            return device.capacity, state.snapshot, state.fingerprint
        return device.capacity, device.snapshot(), device.fingerprint()

    def _prepared_group(self, cell: CampaignCell, report) -> _PreparedGroup:
        """The cell's group with an in-process snapshot, preparing on miss.

        Serves the sequential path and parent-side preparation, which
        need a parent-held snapshot: a memoized segment-only group (left
        by a previous pipelined execute) fetches a copy out of the store
        rather than re-enforcing.
        """
        group = (cell.profile, cell.capacity)
        prep = self._prepared.get(group)
        if prep is not None:
            if prep.snapshot is None and self._store is not None:
                prep.snapshot = self._store.fetch(prep.fingerprint)
            if prep.snapshot is None:
                prep = None  # segment gone (store closed): re-prepare
        if prep is None:
            report(f"preparing enforced state for {cell.profile} ...")
            with obs_tracing.span("prepare", cat="executor", profile=cell.profile):
                capacity, snapshot, fingerprint = self.prepare(
                    cell.profile, cell.capacity
                )
            prep = _PreparedGroup(
                capacity=capacity, fingerprint=fingerprint, snapshot=snapshot
            )
            self._prepared[group] = prep
        return prep

    def _publish_group(self, prep: _PreparedGroup) -> None:
        """Publish a parent-prepared group into the shared-memory store.

        Failure (no shared memory on this platform) is not an error —
        the group's cells fall back to inline snapshots.
        """
        if prep.segment is not None:
            return
        if self._store is None:
            self._store = SnapshotStore()
        try:
            name, nbytes = self._store.publish(prep.fingerprint, prep.snapshot)
        except (OSError, ValueError):
            return
        prep.segment = name
        prep.packed_bytes = nbytes
        self.sched.segments_published += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        cells: Sequence[CampaignCell],
        status: Callable[[str], None] | None = None,
        progress: Callable[[CellOutcome, int, int], None] | None = None,
    ) -> list[CellOutcome]:
        """Run every cell; outcomes come back in the order given.

        ``progress`` fires once per cell *as it lands* — cache hits as
        soon as their group's state (hence cache key) is known, executed
        cells in completion order (the parallel path consumes futures as
        they complete, so one slow cell cannot block reporting of the
        others).  The returned list always follows the input order
        regardless.
        """
        report = status or (lambda message: None)
        registry = obs_metrics.current()
        tracer = obs_tracing.current()
        observe = Observe(
            metrics=registry is not None,
            tracing=tracer is not None,
            traces=self.keep_traces,
            attribution=self.attribution,
        )
        total = len(cells)
        done = 0
        outcomes: list[CellOutcome | None] = [None] * total

        def notify(outcome: CellOutcome) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(outcome, done, total)

        def serve_cached(index: int, cell: CampaignCell, entry: dict) -> None:
            outcome = CellOutcome(
                cell=cell,
                payload=entry["payload"],
                cached=True,
                metrics=entry.get("metrics"),
                wall_usec=0.0,
            )
            outcomes[index] = outcome
            if registry is not None:
                registry.counter("core.executor.cells_cached").inc()
            notify(outcome)

        def finish(index: int, cell: CampaignCell, key: str | None, envelope: dict):
            outcome = CellOutcome(
                cell=cell,
                payload=envelope["payload"],
                cached=False,
                metrics=envelope["metrics"],
                wall_usec=envelope["wall_usec"],
            )
            outcomes[index] = outcome
            if self.cache is not None and key is not None:
                self.cache.put(
                    key,
                    cell,
                    envelope["payload"],
                    metrics=envelope["metrics"],
                    wall_usec=envelope["wall_usec"],
                )
            if registry is not None:
                registry.histogram("core.executor.cell_wall_usec").observe(
                    envelope["wall_usec"]
                )
            notify(outcome)

        def absorb(envelope: dict) -> None:
            if tracer is not None and envelope.get("spans"):
                tracer.absorb(envelope["spans"])
            if registry is not None and envelope.get("registry") is not None:
                registry.absorb(envelope["registry"])

        def try_cache(cell: CampaignCell, prep: _PreparedGroup):
            if self.cache is None:
                return None, None
            digest = self.cache.spec_digest(cell, prep.capacity)
            key = self.cache.key(cell, prep.fingerprint, digest)
            entry = self.cache.get_entry(
                key,
                cell,
                require_traces=self.keep_traces,
                require_attribution=self.attribution,
            )
            return key, entry

        sched_before = dataclasses.replace(self.sched)
        with obs_tracing.span("campaign", cat="executor", cells=total):
            if self.jobs == 1 or total <= 1:
                self._run_sequential(cells, report, try_cache, serve_cached, finish)
            else:
                self._run_warm(
                    cells, observe, report, try_cache, serve_cached, finish, absorb
                )
            if registry is not None:
                registry.counter("core.executor.cells_total").inc(total)
                for field_name, counter in _SCHED_COUNTERS.items():
                    delta = getattr(self.sched, field_name) - getattr(
                        sched_before, field_name
                    )
                    if delta:
                        registry.counter(counter).inc(delta)
        return [outcome for outcome in outcomes if outcome is not None]

    def _run_sequential(self, cells, report, try_cache, serve_cached, finish) -> None:
        """Inline execution: prepare, cache-check and run cell by cell."""
        pending = 0
        for index, cell in enumerate(cells):
            prep = self._prepared_group(cell, report)
            key, entry = try_cache(cell, prep)
            if entry is not None:
                serve_cached(index, cell, entry)
                continue
            if pending == 0:
                report(f"running {len(cells) - index} cell(s) with jobs={self.jobs}")
            pending += 1
            finish(
                index,
                cell,
                key,
                _run_cell_body(
                    cell,
                    prep.snapshot,
                    keep_traces=self.keep_traces,
                    attribution=self.attribution,
                ),
            )

    def _run_warm(
        self, cells, observe, report, try_cache, serve_cached, finish, absorb
    ) -> None:
        """The throughput dispatch (DESIGN.md §14).

        Groups cells by (profile, capacity) and, for groups without a
        prepared state, enforces in the workers (``pipeline_prepare``)
        or serially in the parent — publishing into the shared-memory
        store either way.  As each group's state lands, its cells are
        cache-checked and dispatched *contiguously*: the pool's FIFO
        task queue then keeps consecutive same-group cells on the same
        workers, which is what makes resident devices hit.  A single
        wait-loop interleaves prepare completions and cell completions,
        so early-prepared profiles execute while later ones still
        enforce.
        """
        groups: "OrderedDict[tuple, list]" = OrderedDict()
        for index, cell in enumerate(cells):
            groups.setdefault((cell.profile, cell.capacity), []).append((index, cell))
        if self._store is None:
            self._store = SnapshotStore()
        token = self._store.token
        workers = min(self.jobs, len(cells))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            prepare_futures: dict = {}
            cell_futures: dict = {}

            def dispatch_group(group) -> None:
                prep = self._prepared[group]
                dispatched = 0
                for index, cell in groups[group]:
                    key, entry = try_cache(cell, prep)
                    if entry is not None:
                        serve_cached(index, cell, entry)
                        continue
                    if prep.pickled_bytes == 0 and prep.snapshot is not None:
                        prep.pickled_bytes = len(
                            pickle.dumps(prep.snapshot, pickle.HIGHEST_PROTOCOL)
                        )
                    if prep.segment is not None:
                        self.sched.bytes_saved += prep.pickled_bytes
                    else:
                        self.sched.bytes_shipped += prep.pickled_bytes
                    task = _CellTask(
                        cell=cell,
                        fingerprint=prep.fingerprint,
                        segment=prep.segment,
                        snapshot=None if prep.segment is not None else prep.snapshot,
                    )
                    cell_futures[pool.submit(_execute_cell_fast, task, observe)] = (
                        index,
                        cell,
                        key,
                    )
                    dispatched += 1
                if dispatched:
                    report(
                        f"running {dispatched} cell(s) for {group[0]} "
                        f"with jobs={self.jobs}"
                    )

            for group, members in groups.items():
                prep = self._prepared.get(group)
                if prep is not None and (
                    prep.segment is not None or prep.snapshot is not None
                ):
                    self._publish_group(prep)
                    dispatch_group(group)
                elif self.pipeline_prepare:
                    report(f"preparing enforced state for {group[0]} ...")
                    task = _PrepareTask(
                        profile=group[0],
                        capacity=group[1],
                        enforce=self.enforce,
                        seed=self.enforce_seed,
                        token=token,
                    )
                    prepare_futures[pool.submit(_prepare_remote, task, observe)] = group
                else:
                    prep = self._prepared_group(members[0][1], report)
                    self._publish_group(prep)
                    dispatch_group(group)

            while prepare_futures or cell_futures:
                ready, _ = wait(
                    set(prepare_futures) | set(cell_futures),
                    return_when=FIRST_COMPLETED,
                )
                for future in ready:
                    if future in prepare_futures:
                        group = prepare_futures.pop(future)
                        envelope = future.result()
                        absorb(envelope)
                        prep = _PreparedGroup(
                            capacity=envelope["capacity"],
                            fingerprint=envelope["fingerprint"],
                            snapshot=envelope["snapshot"],
                            segment=envelope["segment"],
                            packed_bytes=envelope["packed_bytes"],
                            pickled_bytes=envelope["pickled_bytes"],
                        )
                        if prep.segment is not None and self._store is not None:
                            self._store.adopt(
                                prep.fingerprint, prep.segment, prep.packed_bytes
                            )
                            self.sched.segments_published += 1
                        self._prepared[group] = prep
                        dispatch_group(group)
                    else:
                        index, cell, key = cell_futures.pop(future)
                        envelope = future.result()
                        absorb(envelope)
                        sched = envelope.get("sched") or {}
                        if sched.get("warm"):
                            self.sched.warm_hits += 1
                        else:
                            self.sched.cold_builds += 1
                        if sched.get("skipped_restore"):
                            self.sched.restores_skipped += 1
                        finish(index, cell, key, envelope)

    # ------------------------------------------------------------------
    # resource management
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release campaign resources: unlink every shared-memory
        snapshot segment this executor published or adopted.

        Idempotent; the executor stays usable (a later ``execute``
        re-publishes what it needs).  Prepared groups that only existed
        as segments are forgotten; those with in-process snapshots keep
        them for sequential reuse.
        """
        if self._store is not None:
            self._store.close()
            self._store = None
        for group in [g for g, p in self._prepared.items() if p.snapshot is None]:
            del self._prepared[group]
        for prep in self._prepared.values():
            prep.segment = None
            prep.packed_bytes = 0

    def __enter__(self) -> "CampaignExecutor":
        """Context-manager support: segments are released on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release shared-memory segments when the ``with`` block ends."""
        self.close()


def results_by_experiment(outcomes: Sequence[CellOutcome]) -> dict[str, ExperimentResult]:
    """Assemble executor outcomes into a campaign's results mapping."""
    return {outcome.cell.experiment: outcome.result() for outcome in outcomes}


def merge_outcome_metrics(outcomes: Sequence[CellOutcome]) -> dict[str, float]:
    """Campaign-wide metrics: the sum of every cell's counter delta.

    Cells without metrics (observability was off when they ran and when
    they were cached) contribute nothing.
    """
    from repro.obs.metrics import merge_counts

    return merge_counts(*(outcome.metrics for outcome in outcomes))


__all__ = [
    "CampaignCell",
    "CampaignExecutor",
    "CellOutcome",
    "Observe",
    "RunCache",
    "SchedulerStats",
    "merge_outcome_metrics",
    "plan_cells",
    "results_by_experiment",
    "run_cell",
]
