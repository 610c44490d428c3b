"""Programmatic checks of the paper's seven design hints (Section 5.3).

Each hint is evaluated against a live device with a small targeted
experiment; the result records whether the hint holds and the measured
evidence, so the hints bench can print a verdict table per device.

Hint 1  Flash devices do incur latency (per-IO software overhead).
Hint 2  Block size should (currently) be 32 KiB.
Hint 3  Blocks should be aligned to flash pages.
Hint 4  Random writes should be limited to a focused area.
Hint 5  Sequential writes should be limited to a few partitions.
Hint 6  Combining a limited number of patterns is acceptable.
Hint 7  Neither concurrent nor delayed IOs improve performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import Engine, rest_device
from repro.core.patterns import (
    LocationKind,
    ParallelSpec,
    PatternSpec,
    baselines,
)
from repro.flashsim.device import FlashDevice
from repro.iotypes import Mode
from repro.units import KIB, MIB, SEC


@dataclass(frozen=True)
class HintResult:
    """Verdict for one design hint on one device."""

    hint: int
    statement: str
    holds: bool
    evidence: str


def _mean(device: FlashDevice, spec: PatternSpec) -> float:
    """Mean response time (us) of a run, followed by a rest."""
    run = Engine(device).run(spec)
    rest_device(device, 5 * SEC)
    return run.stats.mean_usec


def check_hint1_latency(device: FlashDevice, io_count: int = 128) -> HintResult:
    """Per-IO latency exists: halving the IO size must not halve the
    response time (there is a fixed software cost per operation)."""
    big = _mean(
        device,
        PatternSpec(
            mode=Mode.READ,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=io_count,
        ),
    )
    small = _mean(
        device,
        PatternSpec(
            mode=Mode.READ,
            location=LocationKind.SEQUENTIAL,
            io_size=2 * KIB,
            io_count=io_count,
        ),
    )
    # with zero latency, rt(2K) would be rt(32K)/16
    latency_free = big / 16.0
    holds = small > 1.5 * latency_free
    return HintResult(
        1,
        "Flash devices do incur latency",
        holds,
        f"2K read {small / 1000:.3f} ms vs latency-free extrapolation "
        f"{latency_free / 1000:.3f} ms",
    )


def check_hint2_blocksize(device: FlashDevice, io_count: int = 64) -> HintResult:
    """32 KiB is a good block-size trade-off: write cost per KiB keeps
    improving up to 32 KiB and flattens beyond."""
    costs = {}
    for size in (4 * KIB, 32 * KIB, 128 * KIB):
        mean = _mean(
            device,
            PatternSpec(
                mode=Mode.WRITE,
                location=LocationKind.SEQUENTIAL,
                io_size=size,
                io_count=io_count,
            ),
        )
        costs[size] = mean / (size / KIB)  # usec per KiB
    gain_to_32 = costs[4 * KIB] / costs[32 * KIB]
    gain_beyond = costs[32 * KIB] / costs[128 * KIB]
    holds = gain_to_32 > 1.5 and gain_beyond < gain_to_32
    return HintResult(
        2,
        "Block size should (currently) be 32KB",
        holds,
        f"us/KiB: 4K={costs[4 * KIB]:.1f}, 32K={costs[32 * KIB]:.1f}, "
        f"128K={costs[128 * KIB]:.1f}",
    )


def check_hint3_alignment(device: FlashDevice, io_count: int = 96) -> HintResult:
    """Unaligned IOs cost more than aligned ones.

    Probed with sequential writes (the pattern a DBMS laying out pages
    actually issues): a shifted stream pays read-modify-writes of the
    partially covered pages on every IO, and on commit-boundary devices
    (cheap USB sticks) each IO additionally forces a block copy.
    """
    aligned = _mean(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=io_count,
        ),
    )
    shifted = _mean(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=io_count,
            target_offset=(device.capacity // 2 // (32 * KIB)) * 32 * KIB,
            target_size=(io_count - 1) * 32 * KIB,
            io_shift=512,
        ),
    )
    holds = shifted > aligned * 1.05
    return HintResult(
        3,
        "Blocks should be aligned to flash pages",
        holds,
        f"aligned {aligned / 1000:.2f} ms vs shifted {shifted / 1000:.2f} ms",
    )


def check_hint4_focused_random_writes(
    device: FlashDevice, io_count: int = 512
) -> HintResult:
    """Random writes inside a focused (4-16 MiB) area approach
    sequential cost; wide random writes do not.

    Both runs exclude their first third: random writes have a start-up
    phase while background head-room and caches absorb them
    (Section 4.2), and comparing start-ups would tell us nothing.
    """
    small_area = min(4 * MIB, device.capacity // 4)
    wide_area = (device.capacity // (32 * KIB)) * 32 * KIB
    io_ignore = io_count // 3
    focused = _mean(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.RANDOM,
            io_size=32 * KIB,
            io_count=io_count,
            io_ignore=io_ignore,
            target_size=small_area,
        ),
    )
    wide = _mean(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.RANDOM,
            io_size=32 * KIB,
            io_count=io_count,
            io_ignore=io_ignore,
            target_size=wide_area,
        ),
    )
    holds = focused < wide / 2.0
    return HintResult(
        4,
        "Random writes should be limited to a focused area",
        holds,
        f"focused ({small_area // MIB} MiB) {focused / 1000:.2f} ms vs "
        f"wide {wide / 1000:.2f} ms",
    )


def check_hint5_partitions(device: FlashDevice, io_count: int = 640) -> HintResult:
    """A few (4-8) concurrent sequential-write partitions are fine;
    many degrade towards random writes.

    Each partition must span several erase blocks, and the run must
    outlast any background free-pool head-room that would otherwise
    hide the degradation (Section 4.2's start-up lesson applies here).
    """
    block = device.geometry.block_size
    io_ignore = io_count // 3

    def partitioned(partitions: int) -> float:
        target = partitions * 4 * block
        if target > device.capacity:
            target = (device.capacity // (partitions * block)) * partitions * block
        return _mean(
            device,
            PatternSpec(
                mode=Mode.WRITE,
                location=LocationKind.PARTITIONED,
                io_size=32 * KIB,
                io_count=io_count,
                io_ignore=io_ignore,
                target_size=target,
                partitions=partitions,
            ),
        )

    few = partitioned(4)
    many = partitioned(32)
    holds = many > few * 1.5
    return HintResult(
        5,
        "Sequential writes should be limited to a few partitions",
        holds,
        f"4 partitions {few / 1000:.2f} ms vs 32 partitions {many / 1000:.2f} ms",
    )


def check_hint6_mix(device: FlashDevice, io_count: int = 192) -> HintResult:
    """Mixing two patterns costs about the weighted sum of the parts
    (unlike disks, where mixing is catastrophic)."""
    half = (device.capacity // 2 // (32 * KIB)) * 32 * KIB
    specs = baselines(
        io_size=32 * KIB, io_count=io_count, random_target_size=half,
        sequential_target_size=half,
    )
    sr = _mean(device, specs["SR"])
    rr = _mean(device, specs["RR"].with_(target_offset=half))
    from repro.core.patterns import MixSpec

    mixed = Engine(device).run(
        MixSpec(
            primary=specs["SR"],
            secondary=specs["RR"].with_(target_offset=half),
            ratio=1,
            io_count=io_count,
        )
    )
    rest_device(device, 5 * SEC)
    expected = (sr + rr) / 2.0
    measured = mixed.stats.mean_usec
    holds = abs(measured - expected) <= 0.25 * expected
    return HintResult(
        6,
        "Combining a limited number of patterns is acceptable",
        holds,
        f"SR+RR mix {measured / 1000:.2f} ms vs weighted parts "
        f"{expected / 1000:.2f} ms",
    )


def check_hint7_concurrency(device: FlashDevice, io_count: int = 128) -> HintResult:
    """Neither parallel submission nor inserted pauses reduce the total
    workload time."""
    area = (device.capacity // (32 * KIB) // 16) * 16 * 32 * KIB
    base = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=32 * KIB,
        io_count=io_count,
        target_size=area,
    )
    solo = Engine(device).run(base)
    solo_total = solo.stats.total_usec
    rest_device(device, 5 * SEC)
    par = Engine(device).run(ParallelSpec(base=base, parallel_degree=4))
    par_total = max(run.trace[-1].completed_at for run in par.runs) - min(
        run.trace[0].submitted_at for run in par.runs
    )
    rest_device(device, 5 * SEC)
    holds = par_total >= solo_total * 0.9
    return HintResult(
        7,
        "Neither concurrent nor delayed IOs improve the performance",
        holds,
        f"solo total {solo_total / 1000:.1f} ms vs 4-way parallel "
        f"{par_total / 1000:.1f} ms",
    )


ALL_HINTS = (
    check_hint1_latency,
    check_hint2_blocksize,
    check_hint3_alignment,
    check_hint4_focused_random_writes,
    check_hint5_partitions,
    check_hint6_mix,
    check_hint7_concurrency,
)


def evaluate_hints(device: FlashDevice) -> list[HintResult]:
    """Run all seven hint checks against a (state-enforced) device."""
    return [check(device) for check in ALL_HINTS]
