"""Experiments: collections of runs with a single varying parameter.

Design principle 1 (Section 3.2): *to enable sound analysis, each
experiment is designed around a single varying parameter.*  An
:class:`Experiment` names that parameter, lists its values and knows how
to build the pattern for each value.  Running it yields one
:class:`ExperimentRow` per value, optionally averaged over repetitions
(the paper ran everything three times and found differences within 5%;
the simulator is deterministic per seed, so repetitions re-seed the
random patterns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Union

from repro.core.engine import Engine, reseed, rest_device
from repro.core.patterns import MixSpec, ParallelMixSpec, ParallelSpec, PatternSpec
from repro.core.stats import RunStats, relative_difference
from repro.errors import ExperimentError
from repro.flashsim.device import FlashDevice
from repro.flashsim.trace import IOTrace
from repro.units import SEC

SpecLike = Union[PatternSpec, MixSpec, ParallelSpec, ParallelMixSpec]
SpecBuilder = Callable[[Any], SpecLike]


@dataclass(frozen=True)
class Experiment:
    """One varying parameter over one reference pattern."""

    name: str
    parameter: str
    values: tuple
    build: SpecBuilder

    def __post_init__(self) -> None:
        if not self.values:
            raise ExperimentError(f"experiment {self.name!r} has no parameter values")

    def spec_for(self, value: Any) -> SpecLike:
        """The pattern spec this experiment runs for ``value``."""
        return self.build(value)


@dataclass
class ExperimentRow:
    """Result for one parameter value: per-repetition stats + average.

    ``traces`` holds the per-repetition IO traces when the experiment
    was run with ``keep_traces=True`` (empty otherwise — traces are
    large, so keeping them is opt-in).
    """

    value: Any
    label: str
    stats: list[RunStats] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    traces: list[IOTrace] = field(default_factory=list)

    def _require_stats(self) -> None:
        if not self.stats:
            raise ExperimentError(
                f"experiment row for value {self.value!r} ({self.label or 'no label'}) "
                "has no recorded runs"
            )

    @property
    def mean_usec(self) -> float:
        """Mean response time averaged over the repetitions (us)."""
        self._require_stats()
        return sum(s.mean_usec for s in self.stats) / len(self.stats)

    @property
    def mean_msec(self) -> float:
        """Mean response time in milliseconds (the figures' unit)."""
        return self.mean_usec / 1000.0

    @property
    def max_usec(self) -> float:
        """Worst response time seen across the repetitions (us)."""
        self._require_stats()
        return max(s.max_usec for s in self.stats)

    def repeatable_within(self, tolerance: float = 0.05) -> bool:
        """Whether repetitions agree within ``tolerance`` (paper: 5%)."""
        means = [s.mean_usec for s in self.stats]
        return all(
            relative_difference(means[0], other) <= tolerance for other in means[1:]
        )


@dataclass
class ExperimentResult:
    """All rows of one executed experiment."""

    experiment: Experiment
    rows: list[ExperimentRow] = field(default_factory=list)

    def series(self) -> tuple[list, list[float]]:
        """(values, mean response times in ms) — a figure's data series."""
        return (
            [row.value for row in self.rows],
            [row.mean_msec for row in self.rows],
        )

    def row_for(self, value: Any) -> ExperimentRow:
        """The result row for one parameter value."""
        for row in self.rows:
            if row.value == value:
                return row
        raise ExperimentError(
            f"experiment {self.experiment.name!r} has no row for value {value!r}"
        )


def _reseed(spec: SpecLike, bump: int) -> SpecLike:
    """A copy of the spec with shifted random seeds for a repetition.

    Delegates to the engine's reseeder registry, which covers every
    registered spec kind (including :class:`ParallelMixSpec`, which the
    former isinstance ladder mishandled).
    """
    return reseed(spec, bump)


def _trace_iops(trace: IOTrace) -> float:
    """Simulated IOPS of one run: IO count over the trace makespan.

    The makespan runs from the first submission to the last completion,
    so overlapped (queued) IOs raise the rate while a synchronous run
    reproduces ``1e6 / mean_response`` exactly.
    """
    n = len(trace)
    if n == 0:
        return 0.0
    submitted = trace.column("submitted_at")
    completed = trace.column("completed_at")
    makespan = float(completed.max() - submitted.min())
    if makespan <= 0.0:
        return 0.0
    return n / makespan * 1e6


def run_experiment(
    device: FlashDevice,
    experiment: Experiment,
    pause_usec: float = 1.0 * SEC,
    repetitions: int = 1,
    allocate: Callable[[SpecLike], SpecLike] | None = None,
    keep_traces: bool = False,
) -> ExperimentResult:
    """Run every value of an experiment against a live device.

    ``pause_usec`` is the methodology's inter-run pause (Section 4.3) so
    one run's deferred reclamation cannot pollute the next run's
    measurements.  ``allocate`` optionally rewrites target offsets (a
    :class:`~repro.core.plan.TargetAllocator` bound method) so
    sequential-write runs land on fresh space.  ``keep_traces`` stores
    each repetition's per-IO trace on its :class:`ExperimentRow`
    (Section 4.2's dense traces, needed for phase re-analysis).
    """
    if repetitions < 1:
        raise ExperimentError("repetitions must be >= 1")
    result = ExperimentResult(experiment=experiment)
    engine = Engine(device)
    for value in experiment.values:
        base_spec = experiment.spec_for(value)
        row = ExperimentRow(value=value, label=getattr(base_spec, "label", ""))
        iops_samples: list[float] = []
        for repetition in range(repetitions):
            spec = _reseed(base_spec, repetition)
            if allocate is not None:
                spec = allocate(spec)
            run = engine.run(spec)
            row.stats.append(run.stats)
            trace = getattr(run, "trace", None)
            if trace is not None:
                iops_samples.append(_trace_iops(trace))
                if keep_traces:
                    row.traces.append(trace)
            rest_device(device, pause_usec)
        if iops_samples:
            row.extra["sim_iops"] = sum(iops_samples) / len(iops_samples)
        result.rows.append(row)
    return result
