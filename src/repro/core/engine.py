"""Unified spec-polymorphic execution engine.

A *run* is one execution of a reference pattern against a device
(Section 3.2, design principle 1).  The engine keeps two registries
keyed by spec type: an *executor* (how to drive the spec against a
device) and a *reseeder* (how to shift its random seeds for a
repetition).  ``Engine.run(spec)`` and :func:`reseed` look handlers up
through the spec's MRO, so a new spec kind — even one defined outside
this package — registers itself once with :meth:`Engine.executor` /
:meth:`Engine.reseeder` and every caller (experiments, plans, the
campaign executor, the CLI) picks it up unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.generator import IOProgram, MixGenerator, PatternGenerator
from repro.core.patterns import MixSpec, ParallelMixSpec, ParallelSpec, PatternSpec
from repro.core.stats import RunStats, summarize
from repro.errors import ExperimentError
from repro.flashsim.device import FlashDevice
from repro.flashsim.host import AsyncHost, ParallelHost, SyncHost
from repro.flashsim.trace import IOTrace
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import diff_counts


# ----------------------------------------------------------------------
# run results
# ----------------------------------------------------------------------

class BaseRun:
    """Shared surface of every run result: the spec and its label."""

    spec: Any

    #: per-run device-counter delta (flat ``name -> value`` map), set by
    #: :meth:`Engine.run` when a metrics registry is installed; ``None``
    #: when observability is off.  A plain class attribute rather than a
    #: dataclass field so subclasses with mandatory fields stay valid.
    metrics: dict[str, float] | None = None

    @property
    def label(self) -> str:
        """Human-readable pattern label (e.g. ``SW``, ``2 SR / 1 RW``)."""
        return self.spec.label


@dataclass
class Run(BaseRun):
    """One executed pattern: the spec, the per-IO trace and its summary."""

    spec: PatternSpec
    trace: IOTrace
    stats: RunStats

    def restat(self, io_ignore: int) -> RunStats:
        """Re-summarise with a different warm-up cut (phase analysis)."""
        return summarize(self.trace.response_times(), io_ignore)


@dataclass
class MixRun(Run):
    """One executed mix: overall plus per-component summaries.

    A component summary is ``None`` when that component has no IOs past
    the warm-up cut (``io_ignore``) — e.g. a high Ratio with a short
    run.  It is *not* silently substituted with the overall stats;
    reports render such components as "n/a".
    """

    spec: MixSpec
    primary_stats: RunStats | None
    secondary_stats: RunStats | None


@dataclass
class ParallelRun(BaseRun):
    """One executed parallel pattern: per-process runs plus the merged view."""

    spec: ParallelSpec
    runs: list[Run] = field(default_factory=list)
    stats: RunStats | None = None


@dataclass
class ParallelMixRun(ParallelRun):
    """One executed heterogeneous parallel pattern."""

    spec: "ParallelMixSpec"


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

ExecutorFn = Callable[["Engine", Any, float], BaseRun]
ReseederFn = Callable[[Any, int], Any]


class Engine:
    """Executes any registered pattern-spec kind against one device.

    One engine wraps one :class:`~repro.flashsim.device.FlashDevice`
    plus the per-IO OS overhead; :meth:`run` dispatches on the spec's
    type through the executor registry.  Every spec kind records
    through the hosts' program runners, straight into columnar traces.
    """

    _executors: dict[type, ExecutorFn] = {}
    _reseeders: dict[type, ReseederFn] = {}

    def __init__(self, device: FlashDevice, os_overhead_usec: float = 0.0) -> None:
        self.device = device
        self.os_overhead_usec = os_overhead_usec

    # -- registry ------------------------------------------------------

    @classmethod
    def executor(cls, spec_type: type) -> Callable[[ExecutorFn], ExecutorFn]:
        """Decorator registering the executor for ``spec_type``."""

        def decorate(fn: ExecutorFn) -> ExecutorFn:
            cls._executors[spec_type] = fn
            return fn

        return decorate

    @classmethod
    def reseeder(cls, spec_type: type) -> Callable[[ReseederFn], ReseederFn]:
        """Decorator registering the repetition reseeder for ``spec_type``."""

        def decorate(fn: ReseederFn) -> ReseederFn:
            cls._reseeders[spec_type] = fn
            return fn

        return decorate

    @staticmethod
    def _lookup(registry: dict[type, Callable], spec_type: type, what: str):
        for klass in spec_type.__mro__:
            if klass in registry:
                return registry[klass]
        raise ExperimentError(
            f"no {what} registered for spec type {spec_type.__name__}"
        )

    # -- execution -----------------------------------------------------

    def run(self, spec: Any, start_at: float | None = None) -> BaseRun:
        """Execute ``spec``; returns the matching run object.

        ``start_at`` defaults to the device's current busy horizon so
        successive runs follow each other in simulated time (use
        :func:`rest_device` to model the methodology's inter-run pause).
        """
        handler = self._lookup(self._executors, type(spec), "executor")
        at = self.device.busy_until if start_at is None else start_at
        registry = obs_metrics.current()
        if registry is None and obs_tracing.current() is None:
            return handler(self, spec, at)
        with obs_tracing.span("run", cat="engine", label=spec.label):
            before = self.device.metrics() if registry is not None else None
            result = handler(self, spec, at)
        if registry is not None:
            delta = diff_counts(self.device.metrics(), before)
            result.metrics = delta
            registry.counter("core.engine.runs").inc()
            _sample_queue_metrics(registry, delta)
        return result

    # -- shared plumbing for the built-in executors --------------------

    def _trace(self, program: IOProgram, at: float) -> IOTrace:
        """Drive one program through a host.

        Programs with ``queue_depth > 1`` run through the async queued
        host; everything else takes the synchronous reference host.
        """
        if program.queue_depth > 1:
            host = AsyncHost(self.device, os_overhead_usec=self.os_overhead_usec)
            return host.run_program(
                program, start_at=at, queue_depth=program.queue_depth
            )
        host = SyncHost(self.device, os_overhead_usec=self.os_overhead_usec)
        return host.run_program(program, start_at=at)

    def _merge_processes(self, result: ParallelRun, process_specs, at: float):
        """Drive one program per process and merge the per-process
        traces into ``result`` (stats cover every process past its own
        warm-up — the measurement a synchronous host thread observes)."""
        host = ParallelHost(self.device, os_overhead_usec=self.os_overhead_usec)
        traces = host.run_programs(
            [PatternGenerator(spec).program() for spec in process_specs],
            start_at=at,
        )
        measured_chunks = []
        for process_spec, trace in zip(process_specs, traces):
            responses = trace.response_times()
            stats = summarize(responses, process_spec.io_ignore)
            result.runs.append(Run(spec=process_spec, trace=trace, stats=stats))
            measured_chunks.append(np.asarray(responses)[process_spec.io_ignore:])
        result.stats = summarize(np.concatenate(measured_chunks))
        return result


#: bucket bounds of the in-flight-depth histogram (depths, not usec)
QUEUE_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _sample_queue_metrics(registry, delta: dict[str, float]) -> None:
    """Fold a run's queue-counter delta into registry instruments.

    The occupancy gauge is the run's mean in-flight depth while the
    queue was active; the depth histogram counts submissions by the
    depth they observed.  Both derive from the device's monotone
    ``device.queue.*`` samplers, so the per-IO hot path carries no
    instrumentation and a disabled registry costs nothing.
    """
    active = delta.get("device.queue.active_usec", 0.0)
    if active > 0.0:
        depth_time = delta.get("device.queue.depth_time_usec", 0.0)
        registry.gauge("device.queue.occupancy").set(depth_time / active)
    histogram = None
    for name, value in delta.items():
        if not name.startswith("device.queue.at_depth_"):
            continue
        if histogram is None:
            histogram = registry.histogram(
                "device.queue.inflight_depth", QUEUE_DEPTH_BUCKETS
            )
        histogram.observe_many(float(name.rsplit("_", 1)[1]), int(value))


def reseed(spec: Any, bump: int) -> Any:
    """A copy of ``spec`` with random seeds shifted by ``bump``.

    Repetition ``n`` of an experiment runs ``reseed(spec, n)``: the
    simulator is deterministic per seed, so repetitions re-seed the
    random patterns (the paper instead ran everything three times).
    """
    if bump == 0:
        return spec
    handler = Engine._lookup(Engine._reseeders, type(spec), "reseeder")
    return handler(spec, bump)


# ----------------------------------------------------------------------
# built-in executors
# ----------------------------------------------------------------------

@Engine.executor(PatternSpec)
def _execute_pattern(engine: Engine, spec: PatternSpec, at: float) -> Run:
    trace = engine._trace(PatternGenerator(spec).program(), at)
    stats = summarize(trace.response_times(), spec.io_ignore)
    return Run(spec=spec, trace=trace, stats=stats)


@Engine.executor(MixSpec)
def _execute_mix(engine: Engine, spec: MixSpec, at: float) -> MixRun:
    # the warm-up cut (io_ignore) is applied on the mix-level index, as
    # the FlashIO tool scales it for mixed workloads (Section 5.1)
    program = MixGenerator(spec).program()
    trace = engine._trace(program, at)
    responses = np.asarray(trace.response_times())
    stats = summarize(responses, spec.io_ignore)
    # boolean-mask the component schedule instead of a Python loop; a
    # component with no IOs past the warm-up cut reports None (it must
    # not silently inherit the overall stats)
    which = program.components
    measured = np.arange(len(which)) >= spec.io_ignore
    primary = responses[measured & (which == 0)]
    secondary = responses[measured & (which == 1)]
    return MixRun(
        spec=spec,
        trace=trace,
        stats=stats,
        primary_stats=summarize(primary) if primary.size else None,
        secondary_stats=summarize(secondary) if secondary.size else None,
    )


@Engine.executor(ParallelSpec)
def _execute_parallel(engine: Engine, spec: ParallelSpec, at: float) -> ParallelRun:
    return engine._merge_processes(ParallelRun(spec=spec), spec.process_specs(), at)


@Engine.executor(ParallelMixSpec)
def _execute_parallel_mix(
    engine: Engine, spec: ParallelMixSpec, at: float
) -> ParallelMixRun:
    # Section 3.1's second form of parallel pattern: one process per
    # (heterogeneous) component
    return engine._merge_processes(ParallelMixRun(spec=spec), spec.components, at)


# ----------------------------------------------------------------------
# built-in reseeders
# ----------------------------------------------------------------------

@Engine.reseeder(PatternSpec)
def _reseed_pattern(spec: PatternSpec, bump: int) -> PatternSpec:
    return spec.with_(seed=spec.seed + bump)


@Engine.reseeder(MixSpec)
def _reseed_mix(spec: MixSpec, bump: int) -> MixSpec:
    return MixSpec(
        primary=spec.primary.with_(seed=spec.primary.seed + bump),
        secondary=spec.secondary.with_(seed=spec.secondary.seed + bump),
        ratio=spec.ratio,
        io_count=spec.io_count,
        io_ignore=spec.io_ignore,
        queue_depth=spec.queue_depth,
    )


@Engine.reseeder(ParallelSpec)
def _reseed_parallel(spec: ParallelSpec, bump: int) -> ParallelSpec:
    return ParallelSpec(
        base=spec.base.with_(seed=spec.base.seed + bump),
        parallel_degree=spec.parallel_degree,
    )


@Engine.reseeder(ParallelMixSpec)
def _reseed_parallel_mix(spec: ParallelMixSpec, bump: int) -> ParallelMixSpec:
    return ParallelMixSpec(
        components=tuple(
            component.with_(seed=component.seed + bump)
            for component in spec.components
        )
    )


# ----------------------------------------------------------------------
# inter-run pause
# ----------------------------------------------------------------------

def rest_device(device: FlashDevice, pause_usec: float) -> None:
    """Model the methodology's pause between runs (Section 4.3).

    The device is idle for ``pause_usec`` (background reclamation uses
    the gap), and its volatile RAM cache destages — a multi-second pause
    is ample for the couple of megabytes such caches hold, and a real
    write-back cache must destage promptly for durability anyway.
    Deferred FTL merges beyond what the idle credit covers survive the
    pause, exactly like on the paper's Mtron (Figure 5).
    """
    from repro.flashsim.timing import CostAccumulator

    # destage first: the deferred merges the flush creates are then
    # serviced by the idle grant below, like on a resting real device
    scratch = CostAccumulator()
    device.controller.flush_cache(scratch)
    device.idle(device.busy_until + pause_usec)


__all__ = [
    "BaseRun",
    "Engine",
    "MixRun",
    "ParallelMixRun",
    "ParallelRun",
    "QUEUE_DEPTH_BUCKETS",
    "Run",
    "reseed",
    "rest_device",
]
