"""External sort on flash: how many runs can the merge phase write?

The paper motivates its Partitioning micro-benchmark with exactly this
workload (Section 3.2): *this pattern represents, for instance, a merge
operation of several buckets during external sort.*  Hint 5 concludes
that concurrent sequential writes to 4-8 partitions are acceptable and
beyond that performance degrades to random writes.

This example sizes the fan-out of an external sort's partition phase on
two devices by measuring the partitioned-write cost directly.

Run:  python examples/external_sort_partitioning.py
"""

from repro import Engine, build_device, enforce_random_state, rest_device
from repro.core.patterns import LocationKind, PatternSpec
from repro.core.report import format_table
from repro.iotypes import Mode
from repro.units import KIB, MIB, SEC

IO_SIZE = 32 * KIB  # Hint 2's block size
FAN_OUTS = (1, 2, 4, 8, 16, 32)


def measure_partition_cost(device, partitions: int) -> float:
    """Mean cost (ms) of round-robin sequential writes to N partitions,
    long enough to out-run any background free-pool head-room."""
    span = 4 * device.geometry.block_size
    target = partitions * span
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.PARTITIONED,
        io_size=IO_SIZE,
        io_count=640,
        io_ignore=200,
        target_size=target,
        partitions=partitions,
    )
    run = Engine(device).run(spec)
    rest_device(device, 10 * SEC)
    return run.stats.mean_usec / 1000.0


def pick_fan_out(costs: dict[int, float], tolerance: float = 2.0) -> int:
    """Largest fan-out whose per-IO cost stays within ``tolerance`` of
    the single-stream cost."""
    single = costs[1]
    best = 1
    for partitions, cost in costs.items():
        if cost <= tolerance * single and partitions > best:
            best = partitions
    return best


def main() -> None:
    rows = []
    recommendations = {}
    for name in ("mtron", "kingston_dthx"):
        device = build_device(name, logical_bytes=64 * MIB)
        print(f"preparing {name} ...")
        enforce_random_state(device)
        rest_device(device, 60 * SEC)
        costs = {p: measure_partition_cost(device, p) for p in FAN_OUTS}
        recommendations[name] = pick_fan_out(costs)
        for partitions, cost in costs.items():
            rows.append((name, partitions, f"{cost:.2f}",
                         f"x{cost / costs[1]:.1f}"))

    print()
    print(format_table(
        ("device", "merge fan-out", "cost per 32K write (ms)", "vs 1 stream"),
        rows,
    ))
    print()
    for name, fan_out in recommendations.items():
        print(
            f"{name}: an external sort should merge at most {fan_out} runs "
            f"at a time (writing more buckets degenerates to random writes)"
        )
        print(
            f"  -> sorting N pages needs ceil(log_{fan_out}(N / memory)) "
            "merge passes; a wider fan-out would LOSE time per pass"
        )


if __name__ == "__main__":
    main()
