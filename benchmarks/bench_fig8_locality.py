"""Figure 8: Locality — random writes relative to sequential writes as
the target area grows, for the Samsung, Memoright and Mtron SSDs.

Paper observations to reproduce: random writes within a small area cost
nearly the same as sequential writes; the beneficial area and the
factor vary per device (Table 3: Memoright 8 MB, Mtron 8 MB,
Samsung 16 MB); beyond the area the relative cost climbs steeply.
"""

import numpy as np

from repro.analysis import plot_series
from repro.core import (
    BenchContext,
    Engine,
    baselines,
    build_microbenchmark,
    detect_phases,
    rest_device,
    run_experiment,
)
from repro.core.report import render_series
from repro.paperdata import TABLE3
from repro.units import KIB, MIB, SEC

from repro.analysis.svg import svg_series

from conftest import ready_device, report, save_svg

MULTIPLIERS = (32, 64, 128, 256, 512, 1024, 2048, 4064)  # x32 KiB -> 1..127 MiB


def sw_steady(device):
    spec = baselines(
        io_size=32 * KIB,
        io_count=256,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )["SW"]
    run = Engine(device).run(spec)
    rest_device(device, 30 * SEC)
    responses = np.array(run.trace.response_times())
    return float(responses.mean()) / 1000.0


def test_fig8_locality_three_ssds(once):
    def run_all():
        series = {}
        for name in ("samsung", "memoright", "mtron"):
            device = ready_device(name)
            sw = sw_steady(device)
            # exclude each run's start-up so the running phase is compared
            run = Engine(device).run(
                baselines(
                    io_size=32 * KIB,
                    io_count=512,
                    random_target_size=device.capacity,
                )["RW"],
            )
            startup = detect_phases(run.trace.response_times()).startup
            rest_device(device, 60 * SEC)
            ctx = BenchContext(
                capacity=device.capacity,
                io_count=startup + 192,
                io_ignore=startup + 16,
            )
            multipliers = [
                m for m in MULTIPLIERS if m * 32 * KIB <= device.capacity
            ]
            bench = build_microbenchmark(
                "locality", ctx, multipliers_random=multipliers
            )
            result = run_experiment(
                device, bench.experiment("RW"), pause_usec=10 * SEC
            )
            values, means = result.series()
            series[name] = (
                [v * 32 * KIB / MIB for v in values],
                [mean / sw for mean in means],
            )
        return series

    series = once(run_all)
    text = render_series(
        "RW response time relative to SW, vs TargetSize (MiB)",
        "TargetSize",
        series,
    )
    text += "\n\n" + plot_series(
        series, x_label="TargetSize (MiB)", log_x=True,
        y_label="x SW", title="(log-x view)",
    )
    text += "\npaper Table 3 locality areas: " + ", ".join(
        f"{name}: {TABLE3[name].locality_mb:.0f} MB (x{TABLE3[name].locality_factor:.1f})"
        for name in ("samsung", "memoright", "mtron")
    )
    report("Figure 8: locality, Samsung + Memoright + Mtron", text)
    save_svg(
        "figure8_locality",
        svg_series,
        series=series,
        title="Figure 8: RW cost relative to SW vs TargetSize",
        x_label="TargetSize (MiB)",
        y_label="x SW",
        log_x=True,
    )

    for name, (areas, ratios) in series.items():
        small = ratios[0]  # 1 MiB area
        large = ratios[-1]  # whole device
        # random writes in a small area approach sequential cost ...
        assert small < 4.5, f"{name}: small-area ratio {small}"
        # ... and the benefit erodes as the area grows
        assert large > 2.2 * small, f"{name}: {large} vs {small}"
        # the curve is (weakly) monotone: no area is worse than the max
        assert max(ratios) <= large * 1.35
