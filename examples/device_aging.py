"""Device aging: how long will a flash device last under your workload?

The paper rules aging out of the benchmark (footnote 1: reaching the
erase limit "may take years"); the simulator compresses those years.
This example runs three workload profiles against one device, projects
the lifetime each one allows, and shows how the FTL's write
amplification — not the raw write volume — decides who kills the
device first.

The second half ages a page-map device for real: a duty-cycled update
workload (a burst of random writes, then an hour of idle) driven
entirely by the closed-form GC-epoch kernel, with periodic snapshot
checkpoints along the way.  The kernel is what makes the compression
practical — every burst sits in free-pool steady state, where the
per-IO reference path would spend most of its time — and each packed
checkpoint is a restorable wear regime for later experiments.

Run:  python examples/device_aging.py
"""

import time

from repro import Engine, build_device, enforce_random_state, rest_device
from repro.core.patterns import LocationKind, PatternSpec
from repro.core.report import format_table
from repro.flashsim import analytic
from repro.flashsim.ftl.pagemap import PageMapConfig
from repro.flashsim.profiles import scaled_profile
from repro.flashsim.snapshot import pack_snapshot
from repro.flashsim.wear import project_lifetime, wear_report
from repro.iotypes import Mode
from repro.units import KIB, MIB, SEC

DEVICE = "mtron"
IO_COUNT = 768

#: aging loop shape: ``AGING_ROUNDS`` bursts of ``AGING_IOS`` random
#: 16 KiB updates, an hour of simulated idle after each burst, and a
#: packed snapshot checkpoint every ``CHECKPOINT_EVERY`` rounds
AGING_ROUNDS = 12
AGING_IOS = 2048
CHECKPOINT_EVERY = 4


def workload(name: str, capacity: int) -> PatternSpec:
    area = (capacity // (32 * KIB)) * 32 * KIB
    if name == "log appends (sequential)":
        return PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=IO_COUNT,
            target_size=area,
        )
    if name == "OLTP page updates (wide random)":
        return PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.RANDOM,
            io_size=32 * KIB,
            io_count=IO_COUNT,
            target_size=area,
        )
    # a flash-aware design: random updates confined to a focused area
    return PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=32 * KIB,
        io_count=IO_COUNT,
        target_size=min(4 * MIB, area),
    )


def aging_loop() -> None:
    """Age a page-map device through GC steady state, analytically.

    The tight-spare, foreground-GC variant keeps the free pool at the
    collection watermark, so every burst runs through the GC-epoch
    kernel: closed-form appends between collections, the real
    relocation step at each one.  Wear, collections and the simulated
    clock all advance exactly as the per-IO reference would move them —
    just at a fraction of the wall cost.
    """
    profile = scaled_profile(
        "ideal_pagemap",
        name="ideal_pagemap-aging",
        spare_blocks=8,
        pagemap=PageMapConfig(gc_low_blocks=4, bg_enabled=False),
    )
    device = profile.build(16 * MIB)
    print(f"\naging {device.describe()}")
    enforce_random_state(device)

    burst = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=AGING_IOS,
        target_size=device.capacity,
    )
    before = wear_report(device)
    gc_before = device.ftl.gc_collections
    sim_start = device.busy_until
    analytic.STATS.reset()
    checkpoints = []
    wall_start = time.perf_counter()
    for round_no in range(1, AGING_ROUNDS + 1):
        Engine(device).run(burst)
        rest_device(device, 3600 * SEC)
        if round_no % CHECKPOINT_EVERY == 0:
            packed = pack_snapshot(device.snapshot())
            checkpoints.append((round_no, packed.nbytes))
    wall_sec = max(time.perf_counter() - wall_start, 1e-9)

    after = wear_report(device)
    counters = analytic.STATS.counters()
    sim_hours = (device.busy_until - sim_start) / SEC / 3600
    print(
        f"aged {sim_hours:.1f} simulated hours in {wall_sec:.2f} s of "
        f"wall time — {sim_hours / wall_sec:.1f} sim-hours per "
        f"wall-second"
    )
    print(
        f"  {AGING_ROUNDS * AGING_IOS} random 16 KiB updates in "
        f"{counters['core.analytic.epoch_windows']} GC-epoch windows, "
        f"{device.ftl.gc_collections - gc_before} collections, "
        f"{after.total_erases - before.total_erases} block erases"
    )
    marks = ", ".join(f"round {r}" for r, _ in checkpoints)
    kib = checkpoints[-1][1] // 1024 if checkpoints else 0
    print(
        f"  checkpoints at {marks} ({kib} KiB packed each) — restore "
        f"any of them to replay a wear regime"
    )


def main() -> None:
    device = build_device(DEVICE, logical_bytes=64 * MIB)
    print(f"preparing {device.describe()}")
    enforce_random_state(device)
    rest_device(device, 60 * SEC)

    rows = []
    names = (
        "log appends (sequential)",
        "OLTP page updates (wide random)",
        "OLTP updates, focused area (flash-aware)",
    )
    for name in names:
        before = wear_report(device)
        run = Engine(device).run(workload(name, device.capacity))
        after = wear_report(device)
        elapsed = run.trace[-1].completed_at - run.trace[0].submitted_at
        projection = project_lifetime(
            device, before, after, elapsed, IO_COUNT * 32 * KIB
        )
        rest_device(device, 60 * SEC)
        volume = (
            "inf"
            if projection.projected_bytes == float("inf")
            else f"{projection.projected_bytes / (1 << 40):.1f}"
        )
        rows.append(
            (
                name,
                f"{run.stats.mean_usec / 1000:.2f}",
                f"{projection.write_amplification:.2f}",
                volume,
            )
        )

    print()
    print(
        format_table(
            (
                "workload",
                "mean rt (ms)",
                "write amplification",
                "host TiB until wear-out",
            ),
            rows,
        )
    )
    final = wear_report(device)
    print(f"\nwear after the session: {final.summary()}")
    print(
        "\ntakeaway: the flash-aware layout (Hint 4) extends device life "
        "for the same host write volume — write amplification is the "
        "lifetime lever, and it is an FTL-behaviour property the uFLIP "
        "patterns expose"
    )
    aging_loop()


if __name__ == "__main__":
    main()
