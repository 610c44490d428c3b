"""Run one workload of the end-to-end paper-campaign benchmark.

    python3 perfbench/run.py --workload hybrid_campaign --seed 42 \
        --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 42; held-out check seed 7)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measure whole passes until this is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, per-layer metrics")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src``, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def measure(workload, seed: int, seconds: float):
    """Set up several times, then make whole passes for ``seconds``."""
    import harness
    from steady import SteadyClock

    clock = SteadyClock()
    setups = []
    for _ in range(harness.SETUP_ROUNDS):
        if setups:
            setups[-1].executor.close()
        setups.append(harness.set_up(workload, seed, clock))
    setup = setups[-1]
    passes, outcomes, rows = [], {}, {}
    start = time.perf_counter()
    try:
        while True:
            began = time.perf_counter()
            record, outcomes, rows = harness.run_pass(workload, setup, seed, clock)
            passes.append(record)
            # whole passes only: another one if its end is nearer to
            # ``seconds`` than stopping now
            now = time.perf_counter()
            if now - start + (now - began) / 2 > seconds:
                break
    finally:
        setup.executor.close()
    metrics = harness.end_to_end(passes, [s.seconds for s in setups])
    return passes, outcomes, rows, metrics


def measure_layers(workload, seed: int):
    """One untraced and one traced set-up + pass; per-layer metrics."""
    import harness
    from layers import LayerTracer
    from steady import SteadyClock

    clock = SteadyClock()
    harness.set_up(workload, seed, clock).executor.close()  # warm the imports
    durations, passes = [], []
    tracer = LayerTracer(STATE_DIR)
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            setup = harness.set_up(workload, seed, clock)
            try:
                with tracer.analytic_delta() if traced else nullcontext():
                    record, outcomes, rows = harness.run_pass(
                        workload, setup, seed, clock, tracer if traced else None
                    )
            finally:
                setup.executor.close()
        finally:
            if traced:
                tracer.uninstall()
        durations.append(setup.seconds + record.seconds)
        passes.append(record)
    sched = setup.executor.sched.as_dict()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (durations[1] - durations[0], "s")
    for field in ("warm_hits", "cold_builds", "restores_skipped", "bytes_shipped"):
        unit = "bytes" if field.startswith("bytes") else "count"
        metrics[f"executor.{field}"] = (sched[field], unit)
    # read through the executor: CampaignExecutor(state_pool=StatePool())
    # would swap the empty pool (falsy, it has __len__) for a fresh one
    metrics["state_pool.misses"] = (setup.executor._pool.misses, "count")
    exact = {
        name: value for name, (value, unit) in metrics.items()
        if name.startswith(("chip.", "ftl.", "cache.", "device.", "analytic."))
    }
    return passes, outcomes, rows, metrics, exact


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(harness.WORKLOADS)}"
        )
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    STATE_DIR.mkdir(exist_ok=True)
    exact = {}
    try:
        if args.trace:
            passes, outcomes, rows, metrics, exact = measure_layers(workload, seed)
        else:
            passes, outcomes, rows, metrics = measure(workload, seed, args.seconds)
    finally:
        _stop_resource_tracker()

    digests = {p.digest for p in passes}
    orderings = harness.paper_orderings(outcomes, rows)
    fields = {"digest": passes[0].digest}
    if exact:
        fields["exact_counts"] = exact
    key = f"{workload.name} seed={seed} source={harness.source_digest(ROOT)[:16]}"
    mismatched = harness.check_record(STATE_DIR / "records.json", key, fields)
    correct = len(digests) == 1 and not mismatched and all(ok for _, ok in orderings)

    print(
        f"workload {workload.name}: seed {seed} (enforcement seed "
        f"{seed + harness.ENFORCE_SEED_OFFSET}), "
        f"{'one untraced and one traced pass' if args.trace else f'{len(passes)} pass(es)'} of "
        f"{len(passes[0].cell_ms)} cells + {len(workload.table3)} Table-3 row(s), "
        f"jobs {workload.jobs}"
    )
    print(f"result digest {passes[0].digest}"
          + ("" if len(digests) == 1 else f" DIFFERS between passes: {sorted(digests)}"))
    for index, record in enumerate(passes):
        print(
            f"pass {index}: {record.seconds:.3f} s at reference speed "
            f"({record.raw_s:.3f} s wall), {record.ios} simulated IOs"
        )
    for name in mismatched:
        print(f"MISMATCH with an earlier run of the same invocation: {name}")
    for (profile, experiment), error in sorted(passes[0].failures.items()):
        print(f"failed cell {profile} {experiment}: {error}")
    for label, ok in orderings:
        print(f"paper ordering {label}: {'ok' if ok else 'VIOLATED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    attempted = sum(len(p.cell_ms) + len(workload.table3) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
