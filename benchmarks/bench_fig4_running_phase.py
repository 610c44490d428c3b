"""Figure 4: running phase for the Kingston DTI (SW).

The paper's trace shows *no* start-up phase and a periodic oscillation
(about 128 operations on the real device) for sequential writes.
"""

from repro.analysis import plot_trace
from repro.core import Engine, baselines, detect_phases
from repro.paperdata import PHASES
from repro.units import KIB

from repro.analysis.svg import svg_trace

from conftest import ready_device, report, save_svg


def test_fig4_dti_sw_running_phase(once):
    device = ready_device("kingston_dti")
    spec = baselines(
        io_size=32 * KIB,
        io_count=320,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )["SW"]

    run = once(Engine(device).run, spec)
    responses = run.trace.response_times()
    phases = detect_phases(responses)

    text = plot_trace(responses, title="rt(IOi), Kingston DTI SW, 32 KiB", height=14)
    text += (
        f"\n\nmeasured: startup={phases.startup}, period={phases.period}, "
        f"levels {phases.cheap_level_usec / 1000:.2f} / "
        f"{phases.expensive_level_usec / 1000:.2f} ms"
        "\npaper:    no start-up phase, period about 128 operations"
        "\n(the simulated period reflects one erase block per "
        f"{device.geometry.block_size // (32 * KIB)} IOs)"
    )
    report("Figure 4: running phase, Kingston DTI SW", text)
    save_svg(
        "figure4_dti_sw",
        svg_trace,
        response_usec=responses,
        title="Figure 4: Kingston DTI SW, running phase",
    )

    paper_ignore, paper_has_startup = PHASES["kingston_dti"]
    assert phases.has_startup == paper_has_startup
    assert paper_ignore == 0
    # the oscillation exists and is periodic
    assert phases.oscillates
    assert phases.period is not None and phases.period >= 2
