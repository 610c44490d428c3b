"""Parallelism micro-benchmark (Section 5.2).

Paper observations: *we did not observe any performance improvements
from submitting IOs in parallel* — and a high degree of parallel
sequential writes degenerates to partitioned write patterns, with the
corresponding cost increase.
"""

from repro.core import BenchContext, Engine, build_microbenchmark, rest_device
from repro.core.report import format_table
from repro.units import KIB, SEC

from conftest import ready_device, report

DEGREES = (1, 2, 4, 8, 16)


def throughput(parallel_run):
    """Total bytes over total simulated span (MB/s equivalent)."""
    start = min(run.trace[0].submitted_at for run in parallel_run.runs)
    end = max(run.trace[-1].completed_at for run in parallel_run.runs)
    total_bytes = sum(
        completed.request.size for run in parallel_run.runs for completed in run.trace
    )
    return total_bytes / (end - start)  # bytes/usec


def test_parallelism_no_gain_and_sw_degeneration(once):
    device = ready_device("mtron")
    # long runs: each process must outlast the background free-pool
    # head-room, or the degeneration hides in the start-up phase
    ctx = BenchContext(
        capacity=device.capacity, io_size=32 * KIB, io_count=2048,
        io_ignore=640,
    )
    bench = build_microbenchmark("parallelism", ctx, degrees=DEGREES)

    def run_all():
        table = {}
        for label in ("SR", "RR", "SW"):
            experiment = bench.experiment(label)
            rows = []
            for degree in DEGREES:
                result = Engine(device).run(experiment.spec_for(degree))
                rest_device(device, 30 * SEC)
                rows.append(
                    (degree, throughput(result), result.stats.mean_usec / 1000.0)
                )
            table[label] = rows
        return table

    table = once(run_all)
    rows = []
    for label, entries in table.items():
        for degree, tput, mean in entries:
            rows.append((label, degree, f"{tput:.3f}", f"{mean:.2f}"))
    text = format_table(
        ("pattern", "degree", "throughput (B/us)", "mean rt (ms)"), rows
    )
    text += (
        "\npaper: no improvement from parallel IO; parallel sequential "
        "writes degenerate to partitioned patterns"
    )
    report("Parallelism micro-benchmark (Mtron)", text)

    for label in ("SR", "RR"):
        base = table[label][0][1]
        for degree, tput, __ in table[label]:
            # no speedup at any degree (single queue, no seek to hide)
            assert tput <= base * 1.10, (label, degree)
    # sequential writes degenerate: degree 16 >> 4 streams the device
    # can coalesce, so throughput drops well below the solo stream
    sw = {degree: tput for degree, tput, __ in table["SW"]}
    assert sw[16] < 0.6 * sw[1]
    assert sw[2] > 0.5 * sw[1]  # a couple of streams are still fine
