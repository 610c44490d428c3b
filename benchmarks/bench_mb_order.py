"""Order micro-benchmark (Table 3's last three columns).

Reverse (Incr = −1), in-place (Incr = 0) and large-increment patterns,
relative to sequential/random writes — per device class:

* high-end SSDs absorb reverse and in-place ("=" in Table 3);
* mid-range devices pay x2-x3;
* the block-mapped Kingston DTI pays x8 (reverse) to x40 (in-place).
"""

from repro.analysis.summarize import _allocate_fn, _measure_order
from repro.core import BenchContext, Engine, baselines, detect_phases, rest_device
from repro.core.plan import TargetAllocator
from repro.core.report import format_table
from repro.paperdata import TABLE3
from repro.units import KIB, SEC

import numpy as np

from conftest import ready_device, report

DEVICES = ("memoright", "samsung", "transcend_module", "kingston_dti")


def test_order_factors_across_device_classes(once):
    def run_all():
        rows = {}
        for name in DEVICES:
            device = ready_device(name)
            specs = baselines(
                io_size=32 * KIB,
                io_count=512,
                random_target_size=device.capacity,
                sequential_target_size=device.capacity,
            )
            sw_run = Engine(device).run(specs["SW"])
            sw = float(np.mean(sw_run.trace.response_times())) / 1000.0
            rest_device(device, 30 * SEC)
            rw_run = Engine(device).run(specs["RW"])
            responses = np.array(rw_run.trace.response_times())
            startup = detect_phases(responses).startup
            rw = float(responses[startup:].mean()) / 1000.0
            rest_device(device, 30 * SEC)
            ctx = BenchContext(
                capacity=device.capacity,
                io_size=32 * KIB,
                io_count=startup + 208,
                io_ignore=startup + 16,
            )
            allocator = TargetAllocator(device.capacity, device.geometry.block_size)
            rows[name] = _measure_order(device, ctx, allocator, sw, rw)
        return rows

    measured = once(run_all)
    table = []
    for name, (reverse, in_place, large) in measured.items():
        paper = TABLE3[name]
        table.append(
            (
                name,
                f"x{reverse:.1f} (paper x{paper.reverse:.1f})",
                f"x{in_place:.1f} (paper x{paper.in_place:.1f})",
                f"x{large:.1f} (paper x{paper.large_incr:.1f})",
            )
        )
    text = format_table(
        ("device", "reverse vs SW", "in-place vs SW", "large Incr vs RW"), table
    )
    report("Order micro-benchmark: reverse / in-place / large increments", text)

    # high-end absorbs both unusual patterns
    reverse, in_place, __ = measured["memoright"]
    assert reverse < 2.5 and in_place < 2.0
    # Samsung's write cache makes in-place writes cheaper than SW
    assert measured["samsung"][1] < 1.0
    # the IDE module pays a moderate penalty
    assert 1.5 < measured["transcend_module"][0] < 8
    # the block-mapped stick is pathological, in-place worst of all
    dti_reverse, dti_in_place, dti_large = measured["kingston_dti"]
    assert dti_in_place > 20
    assert dti_reverse > 5
    # large increments behave like random writes on low-end devices
    assert 0.5 < dti_large < 2.0
