"""Figure 6: Granularity micro-benchmark on the Memoright SSD.

Paper observations to reproduce:
1. reads and sequential writes are efficient — response time linear in
   IOSize with a small per-IO latency (~70 us SR/SW, ~115 us RR);
2. large random writes are much more expensive (>= 5 ms);
3. small random writes are absorbed by caching: four 4 KiB writes cost
   about as much as one 16 KiB write.
"""

import numpy as np

from repro.analysis import plot_series
from repro.core import BenchContext, build_microbenchmark, run_experiment
from repro.core.report import render_series
from repro.paperdata import FIG6_MEMORIGHT
from repro.units import KIB, SEC

from repro.analysis.svg import svg_series

from conftest import ready_device, report, save_svg

SIZES = (2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB,
         128 * KIB, 256 * KIB, 512 * KIB)


def test_fig6_granularity_memoright(once):
    device = ready_device("memoright")
    ctx = BenchContext(
        capacity=device.capacity, io_count=160, io_ignore=32, seed=42
    )
    bench = build_microbenchmark("granularity", ctx, sizes=SIZES)

    def run_all():
        from repro.core import Engine

        series = {}
        for label in ("SR", "RR", "SW"):
            result = run_experiment(
                device, bench.experiment(label), pause_usec=30 * SEC
            )
            values, means = result.series()
            series[label] = ([v / KIB for v in values], means)
        # RW rows run back to back (ascending size, no inter-run pause):
        # resting would replenish the free pool and every row would
        # measure only its start-up phase (the Section 4.2 pitfall).
        # The small rows still show the cache absorption — that effect
        # is state-independent.
        experiment = bench.experiment("RW")
        means = []
        for value in experiment.values:
            run = Engine(device).run(experiment.spec_for(value))
            means.append(run.stats.mean_usec / 1000.0)
        series["RW"] = ([v / KIB for v in experiment.values], means)
        return series

    series = once(run_all)
    text = render_series(
        "response time (ms) vs IOSize (KiB)", "IOSize", series
    )
    text += "\n\n" + plot_series(
        series, x_label="IOSize (KiB)", log_y=True, title="(log-scale view)"
    )
    report("Figure 6: granularity, Memoright", text)
    save_svg(
        "figure6_memoright_granularity",
        svg_series,
        series=series,
        title="Figure 6: granularity, Memoright",
        x_label="IOSize (KiB)",
        log_y=True,
    )

    sr_sizes, sr_means = series["SR"]
    rr_means = series["RR"][1]
    sw_means = series["SW"][1]
    rw_means = series["RW"][1]

    # (1) reads/SW linear with small latency: cost(64K) < 2.5 x cost(32K)
    index32, index64 = SIZES.index(32 * KIB), SIZES.index(64 * KIB)
    for means in (sr_means, rr_means, sw_means):
        assert means[index64] < 2.5 * means[index32]
    # per-IO latency exists: 2K read far above the linear extrapolation
    assert sr_means[0] > sr_means[index32] / 8
    # RR pays the map-lookup latency over SR (paper: 115 vs 70 us)
    assert rr_means[0] > sr_means[0]

    # (2) large random writes at least 5 ms-class and >> SW
    assert rw_means[-1] >= FIG6_MEMORIGHT["large_rw_min_msec"] * 0.5
    assert rw_means[index32] > 4 * sw_means[index32]

    # (3) small random writes absorbed by caching: they cost about as
    # much as small random *reads* (no reclamation penalty at all),
    # while 32 KiB random writes pay the full merge cost
    index4 = SIZES.index(4 * KIB)
    assert rw_means[index4] < 1.5 * rr_means[index4]
    assert rw_means[index32] > 5 * rw_means[index4]
