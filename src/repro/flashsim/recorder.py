"""The device flight recorder: per-IO latency attribution.

uFLIP *infers* FTL mechanics — startup phases, merge costs, pause
absorption — from black-box response-time curves (Sections 3-5).  The
simulator knows the ground truth and, until now, threw it away: only
sparse note strings survived into the trace.  This module keeps it.

A :class:`FlightRecorder` is an opt-in, bounded ring of IO events
attached to a :class:`~repro.flashsim.device.FlashDevice`.  While
attached, every dispatched IO is decomposed into named latency
components:

========================  ============================================
``wait``                  queue wait (start − submission): device or
                          channel contention
``controller``            fixed controller overhead + map-miss
                          penalties + miscellaneous extra charges
``transfer``              bus transfer of the host payload
``read``                  chip page reads serving host data
``program``               chip page programs serving host data
``gc``                    garbage-collection relocation (victim copies
                          + erases), plus any unscoped internal copies
``merge``                 log-block management: switch/partial/full
                          merges, replacement-block finalisation,
                          log reclamation, map flushes
``wear``                  wear-levelling relocations
``cache``                 write-back cache destage/flush work (net of
                          the nested FTL scopes it triggers)
``interference``          read slowdown while background reclamation
                          is pending (Figure 5's lingering effect)
``noise``                 measurement-jitter delta (can be negative)
========================  ============================================

The components are computed in float microseconds mirroring the
device's dispatch arithmetic — their sum differs from the recorded
response time only by float associativity — and then quantised to
integer microseconds by largest-remainder apportionment against
``round(response)``, so the hard invariant holds exactly:

    ``sum(components) == round(completed_at - submitted_at)``

for every IO, in every pipeline (sync/async, analytic kernel/per-IO,
scalar/batch).  Provenance comes from the
:meth:`~repro.flashsim.timing.CostAccumulator.begin_scope` ledger the
FTLs, controller and cache populate; work no scope claims falls into
the host-level components, so the invariant is structural — mislabeled
work can never unbalance it.

Attribution is a column computation: :func:`attribute_rows` turns the
per-IO inputs (:data:`INPUT_COLUMNS`: channel, host-exclusive counters,
per-tag scoped service, the three service floats) into the integer
matrix.  The analytic kernels emit those inputs for whole windows (their
copy and erase columns are already the scoped ``gc`` / ``merge`` work);
the per-IO dispatch path stores one input row per IO in the trace.  The
trace applies :func:`attribute_rows` once, to all its pending rows, when
the host's run ends (:meth:`~repro.flashsim.trace.IOTrace.attribute`), so
the recorder never decides which code path simulates an IO.
:func:`attribute_io` is the scalar oracle the tests compare against.

The recorder itself is observability, not device state: it is excluded
from snapshots and fingerprints, and a device with a recorder attached
evolves bit-identically to one without.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.flashsim.timing import CostAccumulator, TimingSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.flashsim.trace import IOTrace

#: attribution component names, in column order
COMPONENTS = (
    "wait",
    "controller",
    "transfer",
    "read",
    "program",
    "gc",
    "merge",
    "wear",
    "cache",
    "interference",
    "noise",
)

#: components fed by scope tags (everything else derives from host work),
#: in the column order of the attribution inputs
SCOPE_ORDER = ("gc", "merge", "wear", "cache")
SCOPE_COMPONENTS = frozenset(SCOPE_ORDER)

_COMPONENT_INDEX = {name: i for i, name in enumerate(COMPONENTS)}

# counter vector layout used by the partition walk
_COUNTERS = (
    "page_reads",
    "page_programs",
    "copy_reads",
    "copy_programs",
    "block_erases",
    "bytes_transferred",
    "map_misses",
    "extra_usec",
)


#: one IO's attribution inputs, in column order: the dispatch channel,
#: the host-exclusive counters, the scoped service per tag and the
#: service floats before interference, after it and after noise
INPUT_COLUMNS = (
    "channel",
    *(f"host_{name}" for name in _COUNTERS),
    *(f"scoped_{tag}_usec" for tag in SCOPE_ORDER),
    "service_base",
    "service_scaled",
    "service_final",
)

_HOST = slice(1, 1 + len(_COUNTERS))
_SCOPED = slice(_HOST.stop, _HOST.stop + len(SCOPE_ORDER))
_BASE = _SCOPED.stop


def _counter_vector(cost: CostAccumulator) -> list[float]:
    return [
        cost.page_reads,
        cost.page_programs,
        cost.copy_reads,
        cost.copy_programs,
        cost.block_erases,
        cost.bytes_transferred,
        cost.map_misses,
        cost.extra_usec,
    ]


def _vector_cost(timing: TimingSpec, vec: list[float]) -> float:
    """Service time of one exclusive counter partition."""
    reads, programs, c_reads, c_programs, erases, nbytes, misses, extra = vec
    return (
        timing.read_pages(reads)
        + timing.program_pages(programs)
        + timing.copy_pages(c_reads, c_programs)
        + timing.erase_blocks(erases)
        + timing.transfer(nbytes)
        + misses * timing.map_miss
        + extra
    )


def _partition(cost: CostAccumulator) -> tuple[list[float], dict[str, list[float]]]:
    """Split ``cost``'s counters into host-exclusive + per-tag scoped.

    A scope's counters include everything its nested scopes tallied
    (``end_scope`` folds children in), so each node's *exclusive* share
    is its vector minus its direct children's totals — every physical
    count is attributed exactly once.  Unknown tags conservatively land
    in ``gc`` rather than breaking the balance.
    """
    by_tag: dict[str, list[float]] = {
        name: [0.0] * len(_COUNTERS) for name in SCOPE_COMPONENTS
    }

    def walk(node: CostAccumulator) -> list[float]:
        exclusive = _counter_vector(node)
        for tag, sub in node.scopes or ():
            sub_total = _counter_vector(sub)
            sub_exclusive = walk(sub)
            bucket = by_tag[tag if tag in SCOPE_COMPONENTS else "gc"]
            for i in range(len(_COUNTERS)):
                bucket[i] += sub_exclusive[i]
                exclusive[i] -= sub_total[i]
        return exclusive

    host = walk(cost)
    return host, by_tag


def attribute_io(
    timing: TimingSpec,
    cost: CostAccumulator,
    *,
    wait: float,
    service_base: float,
    service_scaled: float,
    service_final: float,
    response: float,
    channel: int,
) -> tuple[int, ...]:
    """Decompose one IO's response time; returns ``(channel, *usec)``.

    ``service_base`` is the unscaled cost total, ``service_scaled`` the
    value after read interference, ``service_final`` after noise — the
    exact floats the device dispatched with, so the interference and
    noise deltas are reconstruction-free.  The integer components are
    apportioned (largest remainder) against ``round(response)`` and sum
    to it exactly.
    """
    host, by_tag = _partition(cost)
    components = [0.0] * len(COMPONENTS)
    components[_COMPONENT_INDEX["wait"]] = wait
    # host-level split of service_base
    reads, programs, c_reads, c_programs, erases, nbytes, misses, extra = host
    components[_COMPONENT_INDEX["controller"]] = (
        timing.controller_overhead + misses * timing.map_miss + extra
    )
    components[_COMPONENT_INDEX["transfer"]] = timing.transfer(nbytes)
    components[_COMPONENT_INDEX["read"]] = timing.read_pages(reads)
    components[_COMPONENT_INDEX["program"]] = timing.program_pages(programs)
    # unscoped internal copies/erases are reclamation work by definition
    components[_COMPONENT_INDEX["gc"]] = timing.copy_pages(
        c_reads, c_programs
    ) + timing.erase_blocks(erases)
    for tag, vec in by_tag.items():
        components[_COMPONENT_INDEX[tag]] += _vector_cost(timing, vec)
    components[_COMPONENT_INDEX["interference"]] = service_scaled - service_base
    components[_COMPONENT_INDEX["noise"]] = service_final - service_scaled
    return (channel, *_apportion(components, round(response)))


def unattributed_usec(
    timing: TimingSpec,
    cost: CostAccumulator,
    *,
    wait: float,
    service_base: float,
    service_scaled: float,
    service_final: float,
    response: float,
) -> float:
    """Float residual of the decomposition before quantisation.

    The true exactness oracle: anything beyond float associativity here
    means a cost path escaped the component model.  Exposed for the
    attribution test suite; ~0 (sub-nanosecond) by construction.
    """
    host, by_tag = _partition(cost)
    total = wait + _vector_cost(timing, host) + timing.controller_overhead
    for vec in by_tag.values():
        total += _vector_cost(timing, vec)
    total += (service_scaled - service_base) + (service_final - service_scaled)
    return response - total


def _apportion(components: list[float], target: int) -> tuple[int, ...]:
    """Integer µs per component, summing exactly to ``target``.

    Largest-remainder: floor everything, then hand the deficit out one
    µs at a time to the largest fractional remainders (ties to the
    lower component index, so the result is deterministic).  Negative
    components (the noise delta) floor like any other.  A deficit
    outside ``[0, n]`` — impossible unless a float residual exceeds the
    component count — is dumped on the largest-magnitude component so
    the invariant still holds.
    """
    floors = [math.floor(c) for c in components]
    deficit = target - sum(floors)
    n = len(components)
    if 0 <= deficit <= n:
        order = sorted(
            range(n), key=lambda i: (floors[i] - components[i], i)
        )
        for i in order[:deficit]:
            floors[i] += 1
    else:  # pragma: no cover - defensive only
        bulk = max(range(n), key=lambda i: abs(components[i]))
        floors[bulk] += deficit
    return tuple(floors)


def attribution_inputs(
    timing: TimingSpec,
    cost: CostAccumulator,
    channel: int,
    service_base: float,
    service_scaled: float,
    service_final: float,
) -> tuple:
    """One dispatched IO's :data:`INPUT_COLUMNS` row.

    The per-IO dispatch path's share of the work: the provenance walk
    over ``cost``'s scope tree (skipped when no scope opened), reduced
    to the host-exclusive counters and one service float per scope tag.
    :func:`attribute_rows` does the rest, for many rows at once.
    """
    if cost.scopes:
        host, by_tag = _partition(cost)
        scoped = [_vector_cost(timing, by_tag[tag]) for tag in SCOPE_ORDER]
    else:
        host = _counter_vector(cost)
        scoped = [0.0] * len(SCOPE_ORDER)
    return (
        channel, *host, *scoped, service_base, service_scaled, service_final
    )


def window_inputs(
    timing: TimingSpec,
    channel: np.ndarray,
    service: np.ndarray,
    *,
    page_reads: np.ndarray,
    page_programs: np.ndarray | int = 0,
    bytes_transferred: np.ndarray,
    map_misses: np.ndarray,
    scope: str | None = None,
    copy_reads: np.ndarray | int = 0,
    copy_programs: np.ndarray | int = 0,
    block_erases: np.ndarray | int = 0,
) -> np.ndarray:
    """:data:`INPUT_COLUMNS` rows for a window of analytic-kernel IOs.

    A kernel's copy and erase columns are one scope's work (``gc`` for
    the page-map epochs, ``merge`` for the block-map window), so they
    become that tag's scoped service; everything else is host work.
    Kernels run only where no interference or noise applies, so the
    three service floats are all ``service``.
    """
    n = int(service.size)
    inputs = np.zeros((n, len(INPUT_COLUMNS)), dtype=np.float64)
    inputs[:, 0] = channel
    inputs[:, _HOST.start + _COUNTERS.index("page_reads")] = page_reads
    inputs[:, _HOST.start + _COUNTERS.index("page_programs")] = page_programs
    inputs[:, _HOST.start + _COUNTERS.index("bytes_transferred")] = bytes_transferred
    inputs[:, _HOST.start + _COUNTERS.index("map_misses")] = map_misses
    if scope is not None:
        zeros = np.zeros(n, dtype=np.float64)
        vec = [zeros] * len(_COUNTERS)
        vec[_COUNTERS.index("copy_reads")] = copy_reads
        vec[_COUNTERS.index("copy_programs")] = copy_programs
        vec[_COUNTERS.index("block_erases")] = block_erases
        inputs[:, _SCOPED.start + SCOPE_ORDER.index(scope)] = _vector_cost(
            timing, vec
        )
    inputs[:, _BASE : _BASE + 3] = service[:, None]
    return inputs


def attribute_rows(
    timing: TimingSpec,
    inputs: np.ndarray,
    wait: np.ndarray,
    response: np.ndarray,
) -> np.ndarray:
    """Decompose many IOs' response times at once.

    ``inputs`` holds one :data:`INPUT_COLUMNS` row per IO — its channel,
    host-exclusive counters, scoped service per :data:`SCOPE_ORDER` tag
    and base/scaled/final service floats — and ``wait`` / ``response``
    are its start − submission and completion − submission.  Returns
    the ``(n, 12)`` int64 matrix ``[channel, *usec]`` in
    :data:`COMPONENTS` order: row for row what :func:`attribute_io`
    returns, because every component is built with the same float
    operations in the same order and the apportionment ranks
    remainders the same way (ties to the lower component index).
    """
    reads, programs, c_reads, c_programs, erases, nbytes, misses, extra = (
        inputs[:, _HOST].T
    )
    scoped = inputs[:, _SCOPED]
    base, scaled, final = inputs[:, _BASE : _BASE + 3].T
    components = np.empty((len(inputs), len(COMPONENTS)), dtype=np.float64)
    components[:, 0] = wait
    components[:, 1] = timing.controller_overhead + misses * timing.map_miss + extra
    components[:, 2] = timing.transfer(nbytes)
    components[:, 3] = timing.read_pages(reads)
    components[:, 4] = timing.program_pages(programs)
    # unscoped internal copies/erases are reclamation work by definition
    components[:, 5] = (
        timing.copy_pages(c_reads, c_programs) + timing.erase_blocks(erases)
    ) + scoped[:, 0]
    components[:, 6:9] = scoped[:, 1:]
    components[:, 9] = scaled - base
    components[:, 10] = final - scaled
    out = np.empty((len(inputs), 1 + len(COMPONENTS)), dtype=np.int64)
    out[:, 0] = inputs[:, 0]
    out[:, 1:] = _apportion_rows(components, np.rint(response))
    return out


def _apportion_rows(components: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_apportion`: integer µs summing to ``target``.

    Each row's deficit goes one µs at a time to its largest fractional
    remainders, ties to the lower component index (a stable sort of
    ``floor - component``); a deficit outside ``[0, width]`` lands on
    the row's largest-magnitude component.
    """
    floors = np.floor(components)
    shares = floors.astype(np.int64)
    deficit = target.astype(np.int64) - shares.sum(axis=1)
    n, width = components.shape
    order = np.argsort(floors - components, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(width), (n, width)), axis=1
    )
    normal = (deficit >= 0) & (deficit <= width)
    shares += (rank < np.where(normal, deficit, 0)[:, None])
    if not normal.all():  # pragma: no cover - defensive only
        rows = np.flatnonzero(~normal)
        bulk = np.abs(components[rows]).argmax(axis=1)
        shares[rows, bulk] += deficit[rows]
    return shares


@dataclass(slots=True, frozen=True)
class IOEvent:
    """One decomposed IO in the flight-recorder ring."""

    lba: int
    size: int
    write: bool
    submitted_at: float
    started_at: float
    completed_at: float
    channel: int
    #: integer µs per :data:`COMPONENTS` entry; sums to the response time
    components: tuple[int, ...]

    @property
    def response_usec(self) -> float:
        """Response time (completion − submission) in microseconds."""
        return self.completed_at - self.submitted_at

    def component(self, name: str) -> int:
        """One named component's share in integer microseconds."""
        return self.components[_COMPONENT_INDEX[name]]

    def as_dict(self) -> dict:
        """JSON-friendly form (Chrome trace args, reports)."""
        payload = {
            "lba": self.lba,
            "size": self.size,
            "mode": "write" if self.write else "read",
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "channel": self.channel,
        }
        payload.update(zip(COMPONENTS, self.components))
        return payload


class FlightRecorder:
    """A bounded ring of decomposed IO events.

    Attach with :meth:`FlashDevice.attach_recorder`; while attached the
    device stores every IO's attribution inputs in the trace it records
    into and feeds this ring, in dispatch order, with references to
    those trace rows (:meth:`record_rows`) — events are built from the
    trace's attribution columns only when the ring is read.  An IO
    submitted outside any trace arrives as a ready :class:`IOEvent`
    (:meth:`record`).  The ring is bounded (``capacity`` events; the
    oldest drop first) so long campaigns cannot grow it without limit —
    the per-IO trace columns are the unbounded channel.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        #: ``(source, lo, hi)`` chunks, oldest first: rows ``lo..hi-1``
        #: of an :class:`~repro.flashsim.trace.IOTrace`, or one
        #: :class:`IOEvent` as ``(event, 0, 1)``
        self._chunks: deque[tuple] = deque()
        self._held = 0
        self.recorded = 0

    def record(self, event: IOEvent) -> None:
        """Push one decomposed IO (oldest event drops when full)."""
        self._chunks.append((event, 0, 1))
        self._push(1)

    def record_rows(self, trace: IOTrace, lo: int, hi: int) -> None:
        """Push trace rows ``lo..hi-1`` as the next events.

        The rows may still be unrecorded (a queued IO lands in its row
        when its completion pops); they are read when the ring is.
        """
        chunks = self._chunks
        if chunks and chunks[-1][0] is trace and chunks[-1][2] == lo:
            chunks[-1] = (trace, chunks[-1][1], hi)  # extend the last run
        else:
            chunks.append((trace, lo, hi))
        self._push(hi - lo)

    def _push(self, count: int) -> None:
        """Count ``count`` new events and drop the oldest beyond capacity."""
        self.recorded += count
        self._held += count
        excess = self._held - self.capacity
        if excess <= 0:
            return
        self._held = self.capacity
        chunks = self._chunks
        while excess:
            source, lo, hi = chunks[0]
            if hi - lo <= excess:
                chunks.popleft()
                excess -= hi - lo
            else:
                chunks[0] = (source, lo + excess, hi)
                excess = 0

    def __len__(self) -> int:
        return self._held

    def __iter__(self):
        return iter(self.events())

    def events(self) -> list[IOEvent]:
        """The retained events, oldest first."""
        events: list[IOEvent] = []
        for source, lo, hi in self._chunks:
            if isinstance(source, IOEvent):
                events.append(source)
            else:
                events.extend(_row_events(source, lo, hi))
        return events

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded - self._held

    def clear(self) -> None:
        """Empty the ring (counters keep accumulating)."""
        self._chunks.clear()
        self._held = 0


def _row_events(trace: IOTrace, lo: int, hi: int) -> list[IOEvent]:
    """Events for trace rows ``lo..hi-1`` from its attribution columns."""
    matrix = trace.attribution_matrix()[lo:hi].tolist()
    return [
        IOEvent(
            lba=lba,
            size=size,
            write=write,
            submitted_at=submitted,
            started_at=started,
            completed_at=completed,
            channel=row[0],
            components=tuple(row[1:]),
        )
        for lba, size, write, submitted, started, completed, row in zip(
            trace.column("lba")[lo:hi].tolist(),
            trace.column("size")[lo:hi].tolist(),
            trace.column("write")[lo:hi].tolist(),
            trace.column("submitted_at")[lo:hi].tolist(),
            trace.column("started_at")[lo:hi].tolist(),
            trace.column("completed_at")[lo:hi].tolist(),
            matrix,
        )
    ]


def event_from_inputs(
    timing: TimingSpec,
    inputs: tuple,
    lba: int,
    size: int,
    write: bool,
    submitted_at: float,
    started_at: float,
    completed_at: float,
) -> IOEvent:
    """One IO's event from its :func:`attribution_inputs` row (a
    one-row :func:`attribute_rows` call)."""
    row = attribute_rows(
        timing,
        np.array([inputs], dtype=np.float64),
        np.array([started_at - submitted_at]),
        np.array([completed_at - submitted_at]),
    )[0].tolist()
    return IOEvent(
        lba=lba,
        size=size,
        write=write,
        submitted_at=submitted_at,
        started_at=started_at,
        completed_at=completed_at,
        channel=row[0],
        components=tuple(row[1:]),
    )


def events_from_trace(trace: IOTrace) -> list[IOEvent]:
    """Rebuild flight-recorder events from an attributed trace.

    The trace's attribution columns carry the same decomposition the
    ring held, without the bound — this is how campaign tooling (Chrome
    device lanes, the attribution report) consumes worker-produced
    traces that never shipped a recorder across the process boundary.
    Raises :class:`ValueError` when the trace has no attribution.
    """
    if not trace.has_attribution:
        raise ValueError("trace carries no attribution columns")
    return _row_events(trace, 0, len(trace))


def summarize_components(events: Iterable[IOEvent]) -> dict[str, int]:
    """Total integer µs per component across ``events``."""
    totals = dict.fromkeys(COMPONENTS, 0)
    for event in events:
        for name, value in zip(COMPONENTS, event.components):
            totals[name] += value
    return totals


__all__ = [
    "COMPONENTS",
    "INPUT_COLUMNS",
    "SCOPE_COMPONENTS",
    "SCOPE_ORDER",
    "FlightRecorder",
    "IOEvent",
    "attribute_io",
    "attribute_rows",
    "attribution_inputs",
    "event_from_inputs",
    "events_from_trace",
    "summarize_components",
    "unattributed_usec",
    "window_inputs",
]
