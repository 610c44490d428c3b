"""Figure 3: start-up and running phase for the Mtron SSD (RW).

The paper's trace shows ~125 cheap random writes (the start-up phase),
then oscillation between cheap writes and expensive reclamation, and
two running-average overlays: including vs excluding the start-up
measurements.
"""

import numpy as np

from repro.analysis import plot_trace
from repro.core import Engine, baselines, detect_phases, running_average
from repro.paperdata import PHASES
from repro.units import KIB

from repro.analysis.svg import svg_trace

from conftest import once, ready_device, report, save_svg


def test_fig3_mtron_rw_phases(once):
    device = ready_device("mtron")
    spec = baselines(
        io_size=32 * KIB,
        io_count=320,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )["RW"]

    run = once(Engine(device).run, spec)
    responses = run.trace.response_times()
    phases = detect_phases(responses)
    incl = running_average(responses)
    excl = running_average(responses, skip=phases.startup)

    text = plot_trace(responses, title="rt(IOi), Mtron RW, 32 KiB", height=14)
    text += (
        f"\n\nmeasured: startup={phases.startup} IOs, period={phases.period}, "
        f"cheap={phases.cheap_level_usec / 1000:.2f} ms, "
        f"expensive={phases.expensive_level_usec / 1000:.2f} ms"
        f"\npaper:    startup~=125 IOs (IOIgnore=128), period of tens of IOs"
        f"\nAvg(rt) incl. startup at IO 300: {incl[-1] / 1000:.2f} ms"
        f"\nAvg(rt) excl. startup at IO 300: {excl[-1] / 1000:.2f} ms"
    )
    report("Figure 3: start-up and running phase, Mtron RW", text)
    save_svg(
        "figure3_mtron_rw",
        svg_trace,
        response_usec=responses,
        title="Figure 3: Mtron RW, start-up and running phase",
    )

    paper_ignore, paper_has_startup = PHASES["mtron"]
    assert phases.has_startup == paper_has_startup
    # within a factor of two of the paper's IOIgnore choice
    assert paper_ignore / 2 <= phases.startup <= paper_ignore * 2.5
    assert phases.oscillates
    # excluding the start-up gives the faster, more accurate estimate
    assert excl[-1] > incl[-1]
    # the startup phase is uniformly cheap
    assert float(np.mean(responses[: phases.startup])) < 0.2 * float(
        np.mean(responses[phases.startup :])
    )
