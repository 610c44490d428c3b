"""Figure 5: pause determination for the Mtron SSD.

Sequential reads, a batch of random writes, sequential reads again:
on the Mtron the lingering effect of the writes slows roughly 3,000
subsequent reads (~2.5 s), so the paper overestimates its inter-run
pause to 5 s; every other device shows no lingering and gets 1 s.
"""

import numpy as np

from repro.analysis import plot_trace
from repro.core import determine_pause
from repro.paperdata import FIG5_MTRON
from repro.units import KIB, SEC

from repro.analysis.svg import svg_trace

from conftest import ready_device, report, save_svg


def test_fig5_mtron_lingering(once):
    device = ready_device("mtron")
    result = once(
        determine_pause,
        device,
        io_size=32 * KIB,
        reads_before=512,
        write_count=512,
        reads_after=8192,
    )
    combined = np.concatenate(
        (result.reads_before, result.writes, result.reads_after[:2048])
    )
    text = plot_trace(
        combined,
        title="SR (512) | RW (512) | SR: response times",
        height=14,
    )
    text += (
        f"\n\nmeasured: {result.affected_reads} reads affected, lingering "
        f"{result.lingering_usec / SEC:.2f} s, recommended pause "
        f"{result.recommended_pause_usec / SEC:.1f} s"
        f"\npaper:    ~{FIG5_MTRON['affected_reads']} reads affected, "
        f"~{FIG5_MTRON['lingering_sec']} s, pause set to "
        f"{FIG5_MTRON['recommended_pause_sec']:.0f} s"
    )
    report("Figure 5: pause determination, Mtron", text)
    save_svg(
        "figure5_mtron_probe",
        svg_trace,
        response_usec=combined,
        title="Figure 5: SR | RW | SR probe, Mtron",
    )

    assert result.interferes
    # same order of magnitude as the paper's 3,000 reads / 2.5 s
    assert 300 <= result.affected_reads <= 8000
    assert 0.1 * SEC <= result.lingering_usec <= 10 * SEC
    assert result.recommended_pause_usec >= 2 * result.lingering_usec


def test_fig5_other_devices_do_not_linger(once):
    device = ready_device("kingston_dti")
    result = once(
        determine_pause,
        device,
        io_size=32 * KIB,
        reads_before=128,
        write_count=128,
        reads_after=512,
    )
    text = (
        f"Kingston DTI: {result.affected_reads} reads affected -> pause "
        f"{result.recommended_pause_usec / SEC:.1f} s\n"
        f"paper: no lingering on the other ten devices; pause set to 1 s"
    )
    report("Figure 5 (control): no lingering without async reclamation", text)
    assert result.affected_reads <= 1
    assert result.recommended_pause_usec == 1.0 * SEC
