"""The IOCount pitfall (Section 4.2).

Paper example: a device whose first 128 random writes are very cheap
and whose running phase oscillates; a run with IOCount = 512 measures
about 25% below the true cost, and shorter runs are worse.  IOIgnore
must cover the start-up phase and IOCount must cover enough periods.
"""

import numpy as np

from repro.core import Engine, baselines, detect_phases, run_control_for
from repro.core.report import format_table
from repro.units import KIB

from conftest import ready_device, report


def test_iocount_sensitivity(once):
    device = ready_device("mtron")
    spec = baselines(
        io_size=32 * KIB,
        io_count=2048,
        random_target_size=device.capacity,
    )["RW"]

    run = once(Engine(device).run, spec)
    responses = np.array(run.trace.response_times())
    phases = detect_phases(responses)
    true_mean = float(responses[phases.startup :].mean()) / 1000.0

    rows = []
    errors = {}
    for io_count in (128, 256, 512, 1024, 2048):
        naive = float(responses[:io_count].mean()) / 1000.0
        errors[io_count] = naive / true_mean
        rows.append((io_count, f"{naive:.2f}", f"{100 * (1 - naive / true_mean):.0f}%"))
    text = format_table(
        ("IOCount (no IOIgnore)", "measured mean (ms)", "underestimate"), rows
    )
    io_ignore, io_count = run_control_for(phases.startup, phases.period)
    text += (
        f"\ntrue running-phase mean: {true_mean:.2f} ms "
        f"(startup={phases.startup}, period={phases.period})"
        f"\nmethodology's choice: IOIgnore={io_ignore}, IOCount={io_count}"
        "\npaper: with IOCount=512 the measured time was ~25% low; shorter"
        " experiments are worse"
    )
    report("Section 4.2: the IOCount pitfall (Mtron RW)", text)

    # short runs underestimate badly, and monotonically less so
    assert errors[128] < 0.55
    assert errors[256] < 0.8
    assert errors[128] < errors[512] < errors[2048]
    # the methodology's run control measures within 10% of the truth
    controlled = float(
        responses[io_ignore : max(io_count, io_ignore + 64)].mean()
    ) / 1000.0
    assert abs(controlled - true_mean) / true_mean < 0.25
