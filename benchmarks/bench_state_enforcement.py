"""Device-state methodology (Section 4.1).

Paper observations:
1. out-of-the-box, the Samsung SSD wrote 16 KiB random IOs in ~1 ms;
   after the whole device had been written once, random writes slowed
   by almost an order of magnitude — measuring a fresh device is
   meaningless;
2. random-state enforcement is slow but stable; sequential-state
   enforcement is faster per pass but deteriorates, so the total
   benchmarking time ends up longer (Memoright: 17 h sequential vs one
   5 h random format).
"""

import numpy as np

from repro.core import (
    Engine,
    detect_phases,
    enforce_random_state,
    enforce_sequential_state,
    rest_device,
)
from repro.core.patterns import LocationKind, PatternSpec
from repro.flashsim import build_device
from repro.iotypes import Mode
from repro.paperdata import STATE_SAMSUNG
from repro.units import KIB, MIB, SEC

from conftest import report


def rw16(capacity, io_count=512, seed=42):
    return PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=io_count,
        target_size=(capacity // (16 * KIB)) * 16 * KIB,
        seed=seed,
    )


def test_out_of_box_measurements_are_meaningless(once):
    def run():
        device = build_device("samsung", logical_bytes=64 * MIB)
        fresh = Engine(device).run(rw16(device.capacity, io_count=256))
        out_of_box = fresh.stats.mean_usec / 1000.0
        enforce_random_state(device)
        rest_device(device, 30 * SEC)
        run2 = Engine(device).run(rw16(device.capacity, seed=7))
        responses = np.array(run2.trace.response_times())
        cut = detect_phases(responses).startup
        enforced = float(responses[cut:].mean()) / 1000.0
        return out_of_box, enforced

    out_of_box, enforced = once(run)
    text = (
        f"Samsung, 16 KiB random writes:\n"
        f"  out of the box:        {out_of_box:.2f} ms\n"
        f"  after random state:    {enforced:.2f} ms  "
        f"(x{enforced / out_of_box:.1f})\n"
        f"paper: ~{STATE_SAMSUNG['out_of_box_msec']:.0f} ms out of the box, "
        "almost an order of magnitude slower after writing the whole device"
    )
    report("Section 4.1: the device-state pitfall (Samsung)", text)
    assert enforced > STATE_SAMSUNG["enforced_slowdown_min"] * out_of_box


def test_random_state_repeatable_and_enforcement_costs(once):
    """The random state yields repeatable measurements (the paper's
    "well-defined state" assumption: repeat runs agreed within 5%), and
    sequential enforcement is far faster per pass (the paper's Memoright
    took 5 h for a random format vs 17 h of accumulated sequential
    formats) while converging to an equivalent steady behaviour."""

    def measure(method):
        device = build_device("mtron", logical_bytes=32 * MIB)
        if method == "random":
            state = enforce_random_state(device)
        else:
            state = enforce_sequential_state(device)
        rest_device(device, 60 * SEC)

        def steady_rw(seed):
            run = Engine(device).run(
                rw16(device.capacity, io_count=768, seed=seed).with_(
                    io_size=32 * KIB
                ),
            )
            responses = np.array(run.trace.response_times())
            cut = detect_phases(responses).startup
            rest_device(device, 60 * SEC)
            return float(responses[cut:].mean()) / 1000.0

        return state.elapsed_usec, steady_rw(seed=1), steady_rw(seed=2)

    random_cost, random_first, random_second = once(lambda: measure("random"))
    seq_cost, seq_first, __ = measure("sequential")
    text = (
        f"Mtron, 32 MiB scaled device:\n"
        f"  random enforcement:     {random_cost / SEC:.1f} s simulated; "
        f"steady RW {random_first:.2f} -> {random_second:.2f} ms across runs\n"
        f"  sequential enforcement: {seq_cost / SEC:.1f} s simulated; "
        f"steady RW {seq_first:.2f} ms\n"
        "paper: random-state formatting took 5 h (Memoright) up to 35 days\n"
        "(Corsair); a single sequential format is faster but the state is\n"
        "less stable, costing more over a whole campaign"
    )
    report("Section 4.1: state enforcement cost and repeatability", text)
    # measurements from the random state repeat (paper: within ~5%)
    assert abs(random_second - random_first) / random_first < 0.25
    # sequential enforcement is much faster per pass ...
    assert seq_cost < random_cost / 2
    # ... and both states converge to the same steady random-write cost
    assert abs(seq_first - random_first) / random_first < 0.25
