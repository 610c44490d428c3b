"""What-if analysis: replay one workload's trace across devices.

Capture the IO trace of an OLTP-style workload once, then replay it
(closed loop, like the original synchronous host) against the other
devices of Table 2 — the purchase decision the paper's Section 5.3
says must be made by measurement, answered without re-running the
application.

Run:  python examples/workload_whatif.py
"""

from repro import Engine, build_device, enforce_random_state, rest_device
from repro.core.replay import ReplayMode, replay
from repro.core.report import format_table
from repro.core.workloads import evaluate_workload, oltp_mix
from repro.flashsim.trace import IOTrace
from repro.units import KIB, MIB, SEC

SOURCE = "kingston_dti"
TARGETS = ("kingston_dti", "transcend_module", "samsung", "memoright")
CAPACITY = 32 * MIB


def prepare(name):
    device = build_device(name, logical_bytes=CAPACITY)
    enforce_random_state(device)
    rest_device(device, 60 * SEC)
    return device


def main() -> None:
    print(f"capturing the workload on {SOURCE} ...")
    source = prepare(SOURCE)
    workload = oltp_mix(
        source.capacity,
        page_size=32 * KIB,
        io_count=384,
        reads_per_write=3,
        working_set=8 * MIB,
    )
    report = evaluate_workload(source, "oltp 3:1", workload)
    print(f"  {report.summary()}")

    # serialise the captured trace exactly as the paper publishes runs
    run = Engine(source).run(workload)
    trace = IOTrace.from_csv(run.trace.to_csv())
    original_span = trace[-1].completed_at - trace[0].submitted_at

    table = []
    for name in TARGETS:
        device = prepare(name)
        result = replay(device, trace, mode=ReplayMode.CLOSED_LOOP)
        table.append(
            (
                name,
                f"{result.stats.mean_usec / 1000:.2f}",
                f"{result.replay_span_usec / SEC:.2f}",
                f"x{original_span / result.replay_span_usec:.1f}",
            )
        )

    print()
    print(
        format_table(
            ("device", "mean rt (ms)", "workload time (s)", "speedup vs source"),
            table,
        )
    )
    print(
        "\nthe same trace, four devices: the high-end SSDs absorb the "
        "random page updates that dominate the stick's running time "
        "(Table 3's RW column, applied to a real workload)"
    )


if __name__ == "__main__":
    main()
