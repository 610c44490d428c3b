"""Automatic experiment-length tuning (the paper's Section 6 future
work, implemented): compare the adaptive runner against the paper's
fixed IOCount rule on accuracy and IO budget.
"""

import numpy as np

from repro.core import Engine, baselines, detect_phases, rest_device
from repro.core.autotune import autotune_run
from repro.core.methodology import recommended_io_count
from repro.core.report import format_table
from repro.units import KIB, SEC

from conftest import ready_device, report


def test_autotune_vs_fixed_iocount(once):
    device = ready_device("mtron")
    specs = baselines(
        io_size=32 * KIB,
        io_count=1,
        random_target_size=device.capacity,
    )

    # ground truth: a long run, start-up excluded
    truth = {}
    for label in ("SR", "RR", "SW", "RW"):
        long_run = Engine(device).run(specs[label].with_(io_count=2048))
        responses = np.array(long_run.trace.response_times())
        cut = detect_phases(responses).startup
        truth[label] = float(responses[cut:].mean())
        rest_device(device, 60 * SEC)

    def tune_all():
        results = {}
        for label in ("SR", "RR", "SW", "RW"):
            results[label] = autotune_run(
                device, specs[label], relative_ci=0.10
            )
            rest_device(device, 60 * SEC)
        return results

    results = once(tune_all)
    rows = []
    for label, result in results.items():
        fixed = recommended_io_count("SSD", label, scale=1.0)
        error = abs(result.stats.mean_usec - truth[label]) / truth[label]
        rows.append(
            (
                label,
                result.io_count,
                fixed,
                result.io_ignore,
                f"{result.stats.mean_usec / 1000:.3f}",
                f"{truth[label] / 1000:.3f}",
                f"{100 * error:.1f}%",
                "yes" if result.converged else "no",
            )
        )
    text = format_table(
        (
            "pattern",
            "tuned IOCount",
            "paper's fixed",
            "tuned IOIgnore",
            "tuned mean (ms)",
            "true mean (ms)",
            "error",
            "converged",
        ),
        rows,
    )
    text += (
        "\npaper Section 6: '(semi-)automatic tuning of experiment length"
        " ... while minimizing the IOs issued' — implemented here"
    )
    report("Autotune: adaptive IOCount vs the fixed Section 5.1 rule", text)

    for label, result in results.items():
        assert result.converged, label
        error = abs(result.stats.mean_usec - truth[label]) / truth[label]
        assert error < 0.25, (label, error)
    # reads need far fewer IOs than the fixed rule spends
    assert results["SR"].io_count < recommended_io_count("SSD", "SR", scale=1.0)
    assert results["RR"].io_count < recommended_io_count("SSD", "RR", scale=1.0)
    # the random-write run still skips its start-up phase
    assert results["RW"].io_ignore > 0
    # and the adaptive budget undercuts the fixed 5,120-IO rule
    assert results["RW"].io_count < recommended_io_count("SSD", "RW", scale=1.0)
