"""``repro.core`` — the uFLIP benchmark (the paper's contribution).

IO pattern algebra (:mod:`~repro.core.patterns`), execution
(:mod:`~repro.core.engine`), the nine micro-benchmarks
(:mod:`~repro.core.microbench`), and the benchmarking methodology:
state enforcement (:mod:`~repro.core.methodology`), two-phase analysis
(:mod:`~repro.core.phases`), interference probing
(:mod:`~repro.core.interference`) and benchmark planning
(:mod:`~repro.core.plan`).
"""

from repro.core.archive import (
    Campaign,
    compare_campaigns,
    list_campaigns,
    load_campaigns,
    payload_has_traces,
    render_comparison,
    result_from_payload,
    result_to_payload,
)
from repro.core.engine import (
    Engine,
    MixRun,
    ParallelMixRun,
    ParallelRun,
    Run,
    reseed,
    rest_device,
)
from repro.core.autotune import AutotuneResult, autotune_run, confidence_halfwidth
from repro.core.experiment import (
    Experiment,
    ExperimentResult,
    ExperimentRow,
    run_experiment,
)
from repro.core.executor import (
    CampaignCell,
    CampaignExecutor,
    CellOutcome,
    RunCache,
    SchedulerStats,
    plan_cells,
    results_by_experiment,
)
from repro.core.generator import IOProgram, MixGenerator, PatternGenerator
from repro.core.interference import PauseDetermination, determine_pause
from repro.core.methodology import (
    EnforcedState,
    StatePool,
    StateReport,
    enforce_random_state,
    enforce_sequential_state,
    recommended_io_count,
    recommended_io_ignore,
    run_control_for,
)
from repro.core.microbench import (
    BASELINE_LABELS,
    MICROBENCHMARKS,
    MIX_COMBOS,
    BenchContext,
    MicroBenchmark,
    build_microbenchmark,
    table1_values,
)
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelMixSpec,
    ParallelSpec,
    PatternSpec,
    TimingKind,
    baselines,
)
from repro.core.phases import PhaseAnalysis, PhaseProfile, detect_phases, measure_phases
from repro.core.plan import BenchmarkPlan, StateReset, TargetAllocator
from repro.core.report import render_mix_run
from repro.core.replay import ReplayMode, ReplayResult, remap_rows, replay, replay_csv
from repro.core.stats import RunStats, converged, running_average, summarize
from repro.core.workloads import (
    WorkloadReport,
    btree_inserts,
    evaluate_workload,
    external_sort_merge,
    log_structured_writer,
    oltp_mix,
    wal_commit,
)

__all__ = [
    "AutotuneResult",
    "BASELINE_LABELS",
    "BenchContext",
    "BenchmarkPlan",
    "Campaign",
    "CampaignCell",
    "CampaignExecutor",
    "CellOutcome",
    "EnforcedState",
    "Engine",
    "Experiment",
    "ExperimentResult",
    "ExperimentRow",
    "IOProgram",
    "LocationKind",
    "MICROBENCHMARKS",
    "MIX_COMBOS",
    "MicroBenchmark",
    "MixGenerator",
    "MixRun",
    "MixSpec",
    "ParallelMixRun",
    "ParallelMixSpec",
    "ParallelRun",
    "ParallelSpec",
    "PatternGenerator",
    "PatternSpec",
    "PauseDetermination",
    "PhaseAnalysis",
    "PhaseProfile",
    "ReplayMode",
    "ReplayResult",
    "Run",
    "RunCache",
    "SchedulerStats",
    "RunStats",
    "StatePool",
    "StateReport",
    "StateReset",
    "TargetAllocator",
    "TimingKind",
    "WorkloadReport",
    "autotune_run",
    "baselines",
    "btree_inserts",
    "build_microbenchmark",
    "compare_campaigns",
    "confidence_halfwidth",
    "converged",
    "detect_phases",
    "determine_pause",
    "enforce_random_state",
    "enforce_sequential_state",
    "evaluate_workload",
    "external_sort_merge",
    "list_campaigns",
    "log_structured_writer",
    "load_campaigns",
    "measure_phases",
    "oltp_mix",
    "payload_has_traces",
    "plan_cells",
    "recommended_io_count",
    "recommended_io_ignore",
    "remap_rows",
    "render_comparison",
    "render_mix_run",
    "replay",
    "replay_csv",
    "reseed",
    "rest_device",
    "result_from_payload",
    "result_to_payload",
    "results_by_experiment",
    "run_control_for",
    "run_experiment",
    "running_average",
    "summarize",
    "wal_commit",
]
