"""Alignment micro-benchmark (Section 5.2).

Paper observation: unaligned IO requests cost significantly more on
some devices — on the Samsung SSD, random writes not aligned to its
16 KiB unit go from 18 ms to 32 ms; and Hint 3 says the penalty for
misaligned *sequential* writes on cheap devices is severe.
"""

from repro.core import (
    BenchContext,
    baselines,
    build_microbenchmark,
    detect_phases,
    rest_device,
    run_experiment,
)
from repro.core.report import render_series
from repro.paperdata import ALIGNMENT_SAMSUNG
from repro.units import KIB, SEC

from conftest import ready_device, report

SHIFTS = (0, 512, 4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB)


def test_alignment_samsung(once):
    """Samsung (16 KiB mapping unit): unaligned IOs pay read-modify-
    write of the partially covered units.

    Known deviation (EXPERIMENTS.md): the paper's 18->32 ms penalty on
    *random* writes implies the real FTL's merge count scales with the
    units touched; in this model merges are per-erase-block, so the
    random-write penalty is only the extra program/RMW volume (a few
    percent).  The reads and sequential writes show the mechanism
    cleanly, so those are asserted.
    """
    # a dedicated instance: the shift comparison needs a fixed state,
    # not one inherited from whichever benchmark ran before
    from repro.units import MIB

    device = ready_device("samsung", capacity=64 * MIB)
    ctx = BenchContext(capacity=device.capacity, io_count=128, io_ignore=16)
    bench = build_microbenchmark("alignment", ctx, shifts=SHIFTS)

    def run_both():
        series = {}
        for label in ("SR", "SW"):
            result = run_experiment(
                device, bench.experiment(label), pause_usec=5 * SEC
            )
            values, means = result.series()
            series[label] = (list(values), means)
        return series

    series = once(run_both)
    text = render_series(
        "response time (ms) vs IOShift (bytes)", "IOShift", series
    )
    text += (
        f"\npaper (Samsung, random writes): aligned "
        f"{ALIGNMENT_SAMSUNG['aligned_msec']:.0f} ms -> unaligned "
        f"{ALIGNMENT_SAMSUNG['unaligned_msec']:.0f} ms (x1.8; this model "
        "reproduces the direction, not the magnitude — see EXPERIMENTS.md)"
    )
    report("Alignment: Samsung (16 KiB unit)", text)

    sr = dict(zip(*series["SR"]))
    sw = dict(zip(*series["SW"]))
    # a sub-page shift adds one page read per IO
    assert sr[512] > 1.15 * sr[0]
    # realigning at a unit multiple restores the aligned read cost
    assert sr[16 * KIB] < 1.05 * sr[0]
    # shifted sequential writes pay the RMW volume on every IO
    assert sw[512] > 1.08 * sw[0]


def test_alignment_dti_sequential_writes(once):
    device = ready_device("kingston_dti")
    ctx = BenchContext(capacity=device.capacity, io_count=64)
    bench = build_microbenchmark("alignment", ctx, shifts=(0, 512))

    def run_sw():
        result = run_experiment(device, bench.experiment("SW"), pause_usec=5 * SEC)
        return result.series()

    values, means = once(run_sw)
    by_shift = dict(zip(values, means))
    text = (
        f"SW aligned {by_shift[0]:.2f} ms vs shifted {by_shift[512]:.2f} ms "
        f"(x{by_shift[512] / by_shift[0]:.1f})\n"
        "paper (Hint 3): the penalty paid for lack of alignment is quite severe"
    )
    report("Alignment: Kingston DTI sequential writes", text)
    # off the commit boundary, every IO forces a block copy
    assert by_shift[512] > 5 * by_shift[0]
