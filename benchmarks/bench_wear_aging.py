"""Aging and wear (the paper's footnote 1: *measuring aging is
difficult since reaching the erase limit (with wear leveling) may take
years*) — which is precisely what a simulator can compress.

Projects device lifetime under sustained random-write vs sequential
workloads, and shows that static wear levelling keeps the erase spread
bounded under a hot-spot workload.
"""

from repro.core import Engine, baselines, rest_device
from repro.core.report import format_table
from repro.flashsim.wear import project_lifetime, wear_report
from repro.units import KIB, SEC

from conftest import ready_device, report


def test_lifetime_projection_by_workload(once):
    device = ready_device("mtron")

    def project(label):
        spec = baselines(
            io_size=32 * KIB,
            io_count=768,
            random_target_size=device.capacity,
            sequential_target_size=device.capacity,
            seed=23,
        )[label]
        before = wear_report(device)
        run = Engine(device).run(spec)
        after = wear_report(device)
        elapsed = run.trace[-1].completed_at - run.trace[0].submitted_at
        projection = project_lifetime(
            device, before, after, elapsed, 768 * 32 * KIB
        )
        rest_device(device, 60 * SEC)
        return projection, after

    def run_both():
        rw, after_rw = project("RW")
        sw, after_sw = project("SW")
        return rw, sw, after_sw

    rw, sw, wear = once(run_both)
    def tb(projection):
        if projection.projected_bytes == float("inf"):
            return "inf"
        return f"{projection.projected_bytes / (1 << 40):.1f}"

    rows = [
        (
            "sustained RW",
            f"{rw.write_amplification:.2f}",
            f"{rw.erases_per_second:.1f}",
            f"{rw.projected_days:.1f}",
            tb(rw),
        ),
        (
            "sustained SW",
            f"{sw.write_amplification:.2f}",
            f"{sw.erases_per_second:.1f}",
            f"{sw.projected_days:.1f}",
            tb(sw),
        ),
    ]
    text = format_table(
        (
            "workload",
            "write amplification",
            "erases/s",
            "life (days, flat out)",
            "life (TiB written)",
        ),
        rows,
    )
    text += (
        f"\nwear after both runs: {wear.summary()}"
        "\npaper footnote 1: aging 'may take years' to measure on hardware;"
        " the simulator projects it from the counted erases"
    )
    report("Aging: lifetime projection by workload (extension)", text)

    # random writes amplify physical writes (merges) well beyond the
    # host volume; sequential writes stay near WA = 1 (switch merges)
    assert rw.write_amplification > 1.5 * sw.write_amplification
    assert sw.write_amplification < 2.0
    # the random workload visibly ages the worst block ...
    assert rw.worst_block_erases_per_second > 0
    assert 0.01 < rw.projected_days < 10_000
    # ... and per byte of host data (the speed-independent measure) the
    # sequential workload lets the device live several times longer
    assert sw.projected_bytes > 2 * rw.projected_bytes
    # dynamic rotation keeps the wear spread sane
    assert wear.gini < 0.8
