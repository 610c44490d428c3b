"""End-to-end paper-campaign benchmark: workloads, passes, checks.

One *pass* runs a workload's whole campaign — every microbenchmark cell
on every profile, then its Table-3 rows — through the program's public
API, closed-loop (the next cell starts when a worker is free).  A run
sets up several times, keeps the last set-up, then makes whole passes
until ``--seconds`` is used up and reports medians over them.  See
README.md for the metrics, the layer table and the workload rationale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import analysis, core, flashsim
from repro.core.microbench import MICROBENCHMARKS
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.units import KIB, SEC

from layers import LayerTracer
from steady import SteadyClock

#: the seed a run uses unless ``--seed`` says otherwise: cell seed 42
#: and enforcement seed 97, the CLI's defaults
DEFAULT_SEED = 42
#: a second seed, kept out of tuning, for checking claims on held-out data
HELD_OUT_SEED = 7
#: enforcement seed = cell seed + this offset
ENFORCE_SEED_OFFSET = 55
#: set-ups per run; ``setup_s`` is their median
SETUP_ROUNDS = 5
#: CLI ``campaign`` defaults
IO_SIZE = 32 * KIB
IO_COUNT = 128
PAUSE_USEC = 1.0 * SEC
BENCHMARKS = tuple(MICROBENCHMARKS)


@dataclass(frozen=True)
class Workload:
    """One campaign shape: profiles, Table-3 rows and dispatch."""

    name: str
    profiles: tuple[str, ...]
    table3: tuple[str, ...]
    jobs: int = 1
    #: metrics registry, span tracer and latency attribution on
    observed: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "hybrid_campaign",
            profiles=("memoright", "mtron", "samsung"),
            table3=("memoright", "mtron", "samsung"),
        ),
        Workload(
            "blockmap_pagemap_campaign",
            profiles=("kingston_dti", "kingston_sd", "ideal_pagemap"),
            table3=("kingston_dti",),
        ),
        Workload(
            "observed_warm_campaign",
            profiles=("memoright", "kingston_dti", "ideal_pagemap"),
            table3=(),
            jobs=2,
            observed=True,
        ),
    )
}


@dataclass
class Setup:
    executor: object
    #: profile -> (capacity, enforced snapshot, fingerprint)
    states: dict
    seconds: float


@dataclass
class Pass:
    #: (profile, experiment) -> host ms, +inf for a failed cell
    cell_ms: dict
    #: (profile, experiment) -> "ExceptionClass: message"
    failures: dict
    ios: int
    #: segment label -> seconds at reference speed
    segments: dict
    #: the whole pass as the wall clock read it
    raw_s: float
    digest: str

    @property
    def seconds(self) -> float:
        """The whole pass at reference speed."""
        return sum(self.segments.values())


def set_up(workload: Workload, seed: int, clock: SteadyClock) -> Setup:
    """Build and random-state-enforce every profile of the workload."""
    executor = core.CampaignExecutor(
        jobs=workload.jobs,
        enforce_seed=seed + ENFORCE_SEED_OFFSET,
        attribution=workload.observed,
        # enforce in the parent, inside set-up, not in the first pass
        pipeline_prepare=False,
    )
    states = {}
    start = clock.seconds
    for profile in workload.profiles:
        with clock.segment():
            states[profile] = executor.prepare(profile, None)
    return Setup(executor, states, clock.seconds - start)


def plan(workload: Workload, seed: int) -> list:
    """The workload's cells, in execution order, one batch per list."""
    cells = {
        profile: core.plan_cells(
            profile,
            None,
            BENCHMARKS,
            io_size=IO_SIZE,
            io_count=IO_COUNT,
            seed=seed,
            pause_usec=PAUSE_USEC,
        )
        for profile in workload.profiles
    }
    if workload.jobs == 1:
        return [[cell] for profile in workload.profiles for cell in cells[profile]]
    # warm dispatch needs multi-cell batches; one batch per benchmark
    # keeps a failing cell from taking down more than its benchmark
    return [
        [cell for profile in workload.profiles for cell in cells[profile]
         if cell.benchmark == benchmark]
        for benchmark in BENCHMARKS
    ]


def _cell_key(cell) -> tuple[str, str]:
    return (cell.profile, cell.experiment)


def run_batch(executor, batch: list, outcomes: dict, failures: dict) -> None:
    """Execute one batch; a batch that raises is re-run cell by cell so
    that each failure loses only its own cell."""
    try:
        landed = executor.execute(batch)
    except Exception as exc:  # the campaign must go on past a failed cell
        if len(batch) > 1:
            for cell in batch:
                run_batch(executor, [cell], outcomes, failures)
        else:
            failures[_cell_key(batch[0])] = f"{type(exc).__name__}: {exc}"
        return
    for outcome in landed:
        outcomes[_cell_key(outcome.cell)] = outcome


def table3_row(name: str, state: tuple, seed: int, tracer: LayerTracer | None):
    """Measure one Table-3 row on a device restored to the enforced state.

    Returns ``(summary, simulated IOs)``.
    """
    device = flashsim.build_device(name)
    device.restore(state[1])
    before = device.metrics()
    if tracer is None:
        summary = analysis.summarize_device(device, name, seed=seed)
    else:
        with tracer.device_delta(device):
            summary = analysis.summarize_device(device, name, seed=seed)
    after = device.metrics()
    ios = sum(after[k] - before[k] for k in ("device.reads", "device.writes"))
    return summary, int(ios)


def run_pass(
    workload: Workload,
    setup: Setup,
    seed: int,
    clock: SteadyClock,
    tracer: LayerTracer | None = None,
) -> tuple[Pass, dict, dict]:
    """One whole campaign plus Table-3 rows, timed at reference speed.

    Returns the pass record, the successful outcomes and the Table-3
    summaries.
    """
    outcomes: dict = {}
    failures: dict = {}
    rows: dict = {}
    cell_ms: dict = {}
    segments: dict = {}
    ios = 0
    raw_start = clock.raw_s

    @contextmanager
    def timed(label: str):
        with clock.segment() as segment:
            yield segment
        segments[label] = segment.seconds

    if workload.observed:
        obs_metrics.install()
        obs_tracing.install()
    try:
        with timed("plan"):
            batches = plan(workload, seed)
        for index, batch in enumerate(batches):
            with timed(f"batch {index}") as segment:
                run_batch(setup.executor, batch, outcomes, failures)
            for key in map(_cell_key, batch):
                outcome = outcomes.get(key)
                if outcome is None:
                    cell_ms[key] = math.inf
                else:
                    cell_ms[key] = outcome.wall_usec / 1000.0 * segment.scale
                    ios += payload_ios(outcome.payload)
            if tracer is not None and workload.jobs > 1:
                tracer.collect_workers()
        if workload.observed:
            with timed("attribution report"):
                analysis.render_attribution_report(list(outcomes.values()))
        for name in workload.table3:
            with timed(f"table3 {name}"):
                rows[name], row_ios = table3_row(name, setup.states[name], seed, tracer)
            ios += row_ios
    finally:
        if workload.observed:
            obs_tracing.uninstall()
            obs_metrics.uninstall()
    record = Pass(
        cell_ms,
        failures,
        ios,
        segments,
        clock.raw_s - raw_start,
        result_digest(list(cell_ms), outcomes, rows),
    )
    return record, outcomes, rows


def payload_ios(payload: dict) -> int:
    """Simulated host IOs a cell completed, from its result payload."""
    return sum(
        stats["count"] + stats["ignored"]
        for row in payload["rows"]
        for stats in row["stats"]
    )


def result_digest(order: list, outcomes: dict, rows: dict) -> str:
    """SHA-256 over successful cell payloads and Table-3 rows."""
    digest = hashlib.sha256()
    for key in order:
        outcome = outcomes.get(key)
        if outcome is not None:
            digest.update(json.dumps([key, outcome.payload], sort_keys=True).encode())
    for name in sorted(rows):
        digest.update(
            json.dumps([name, dataclasses.asdict(rows[name])], sort_keys=True).encode()
        )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# paper orderings (tests/integration/test_paper_shapes.py)
# ----------------------------------------------------------------------

def _granularity_ms(outcomes: dict, profile: str, pattern: str) -> float:
    result = outcomes[(profile, f"granularity/{pattern}")].result()
    return result.row_for(IO_SIZE).mean_msec


def paper_orderings(outcomes: dict, rows: dict) -> list[tuple[str, bool]]:
    """The paper shapes this run's own results cover, each with its verdict."""
    checks = []
    mtron = rows.get("mtron")
    if mtron is not None:
        checks.append(("mtron SW < 2.5x SR", mtron.sw < 2.5 * mtron.sr))
        checks.append(("mtron RW > 8x SW", mtron.rw > 8 * mtron.sw))
    dti = rows.get("kingston_dti")
    if dti is not None:
        checks.append(("kingston_dti in-place > 20x SW", dti.in_place > 20))
        checks.append((
            "kingston_dti pause does not help RW",
            dti.pause_rw is None or dti.pause_rw > 0.7 * dti.rw,
        ))
    high, low = "memoright", "kingston_dti"
    patterns = ("SR", "RR", "SW", "RW")
    if all((p, f"granularity/{x}") in outcomes for p in (high, low) for x in patterns):
        for pattern in patterns:
            checks.append((
                f"memoright {pattern} < kingston_dti {pattern}",
                _granularity_ms(outcomes, high, pattern)
                < _granularity_ms(outcomes, low, pattern),
            ))
        checks.append((
            "kingston_dti RW > 20x memoright RW",
            _granularity_ms(outcomes, low, "RW")
            > 20 * _granularity_ms(outcomes, high, "RW"),
        ))
    return checks


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (an inf sorts last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def median_pass_seconds(passes: list[Pass]) -> float:
    """A pass's duration, composed of each segment's median over passes."""
    return sum(
        statistics.median(p.segments[label] for p in passes)
        for label in passes[0].segments
    )


def end_to_end(passes: list[Pass], setup_seconds: list[float]) -> dict:
    """The end-to-end metrics: medians over passes and set-ups."""
    keys = list(passes[0].cell_ms)
    per_cell = [statistics.median(p.cell_ms[key] for p in passes) for key in keys]
    attempted = len(keys) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "sim_ios_per_s": (passes[0].ios / median_pass_seconds(passes), "1/s"),
        "cell_ms_p50": (nearest_rank(per_cell, 0.5), "ms"),
        "cell_ms_p90": (nearest_rank(per_cell, 0.9), "ms"),
        "cells_failed_frac": (failed / attempted, "frac"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


# ----------------------------------------------------------------------
# cross-run record: the same invocation must give the same results
# ----------------------------------------------------------------------

def source_digest(root: Path) -> str:
    """SHA-256 of the program and benchmark sources (the "same code")."""
    digest = hashlib.sha256()
    for base in (root / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_record(path: Path, key: str, fields: dict) -> list[str]:
    """Compare ``fields`` with an earlier run of the same invocation
    (recording them if this is the first); returns the mismatches."""
    record = json.loads(path.read_text()) if path.exists() else {}
    earlier = record.setdefault(key, {})
    mismatches = [
        name for name, value in fields.items()
        if name in earlier and earlier[name] != value
    ]
    for name, value in fields.items():
        earlier.setdefault(name, value)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatches
