"""Quickstart: benchmark one simulated flash device with uFLIP.

Builds the Mtron SSD profile, enforces the random initial state
(Section 4.1 of the paper), runs the four baseline patterns, analyses
the two-phase behaviour of random writes, and prints a summary.

Run:  python examples/quickstart.py
"""

from repro import (
    Engine,
    baselines,
    build_device,
    detect_phases,
    enforce_random_state,
    rest_device,
)
from repro.analysis import plot_trace
from repro.units import KIB, SEC


def main() -> None:
    # 1. build a device (capacities are scaled; behaviour is calibrated
    #    to the paper's Table 3)
    device = build_device("mtron")
    print(f"device: {device.describe()}")

    # 2. enforce the well-defined random state: write the whole device
    #    with random IOs of random size (on the real 16 GB Mtron this
    #    took hours; the simulator does it in simulated time)
    report = enforce_random_state(device)
    print(
        f"state enforced: {report.io_count} IOs, "
        f"{report.elapsed_usec / SEC:.0f} s simulated"
    )
    rest_device(device, 60 * SEC)

    # 3. run the four baseline patterns at the paper's 32 KiB
    specs = baselines(
        io_size=32 * KIB,
        io_count=512,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )
    print("\nbaseline patterns (32 KiB):")
    rw_run = None
    for label in ("SR", "RR", "SW", "RW"):
        run = Engine(device).run(specs[label])
        print(f"  {label}: {run.stats.summary()}")
        if label == "RW":
            rw_run = run
        rest_device(device, 30 * SEC)

    # 4. the two-phase model: random writes start cheap (the start-up
    #    phase) and then oscillate — mean response time is only
    #    meaningful past the start-up (Section 4.2)
    responses = rw_run.trace.response_times()
    phases = detect_phases(responses)
    print(f"\nrandom-write phases: {phases.summary()}")
    steady = rw_run.restat(io_ignore=phases.startup)
    print(f"running-phase statistics: {steady.summary()}")
    print()
    print(plot_trace(responses[:320], title="random-write trace (Figure 3 shape)"))


if __name__ == "__main__":
    main()
