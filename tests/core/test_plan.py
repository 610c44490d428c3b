"""Benchmark plans: target allocation, ordering, state resets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.experiment import Experiment
from repro.core.microbench import BenchContext, build_microbenchmark
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelMixSpec,
    ParallelSpec,
    PatternSpec,
)
from repro.core.plan import (
    BenchmarkPlan,
    StateReset,
    TargetAllocator,
    needs_fresh_space,
    spec_footprint,
)
from repro.errors import PlanError
from repro.flashsim import build_device
from repro.iotypes import Mode
from repro.units import KIB, MIB

from tests.conftest import make_device


def spec(mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, **kwargs):
    defaults = dict(io_size=32 * KIB, io_count=8)
    defaults.update(kwargs)
    return PatternSpec(mode=mode, location=location, **defaults)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_sequential_writes_need_fresh_space():
    assert needs_fresh_space(spec())
    assert needs_fresh_space(spec(location=LocationKind.ORDERED, incr=0))
    assert needs_fresh_space(
        spec(location=LocationKind.PARTITIONED, partitions=2,
             target_size=8 * 32 * KIB)
    )


def test_reads_and_random_writes_preserve_state():
    assert not needs_fresh_space(spec(mode=Mode.READ))
    assert not needs_fresh_space(spec(location=LocationKind.RANDOM))
    assert not needs_fresh_space(
        spec(mode=Mode.READ, location=LocationKind.RANDOM)
    )


def test_mix_and_parallel_inherit_classification():
    seq_write = spec()
    random_read = spec(mode=Mode.READ, location=LocationKind.RANDOM,
                       target_offset=1 * MIB)
    assert needs_fresh_space(MixSpec(primary=random_read, secondary=seq_write))
    assert needs_fresh_space(ParallelSpec(base=spec(io_count=8), parallel_degree=2))
    assert not needs_fresh_space(
        ParallelSpec(base=spec(location=LocationKind.RANDOM, io_count=8),
                     parallel_degree=2)
    )


def test_spec_footprint():
    assert spec_footprint(spec(io_count=8)) == 8 * 32 * KIB
    assert spec_footprint(spec(io_count=8, io_shift=512)) == 8 * 32 * KIB + 512


# ----------------------------------------------------------------------
# allocator
# ----------------------------------------------------------------------

def test_allocator_bumps_aligned_offsets():
    allocator = TargetAllocator(capacity=1 * MIB, align=128 * KIB)
    first = allocator.try_allocate(100 * KIB)
    second = allocator.try_allocate(100 * KIB)
    assert first == 0
    assert second == 128 * KIB  # aligned up


def test_allocator_exhaustion_returns_none():
    allocator = TargetAllocator(capacity=256 * KIB, align=128 * KIB)
    assert allocator.try_allocate(128 * KIB) == 0
    assert allocator.try_allocate(128 * KIB) == 128 * KIB
    assert allocator.try_allocate(128 * KIB) is None
    allocator.reset()
    assert allocator.resets == 1
    assert allocator.try_allocate(128 * KIB) == 0


def test_allocator_rejects_oversized_requests():
    allocator = TargetAllocator(capacity=256 * KIB, align=128 * KIB)
    with pytest.raises(PlanError):
        allocator.try_allocate(1 * MIB)


def test_place_rewrites_only_disturbing_specs():
    allocator = TargetAllocator(capacity=1 * MIB, align=128 * KIB)
    random_spec = spec(location=LocationKind.RANDOM)
    assert allocator.place(random_spec) is random_spec
    placed = allocator.place(spec())
    assert placed.target_offset == 0
    placed2 = allocator.place(spec())
    assert placed2.target_offset > 0


def test_place_parallel_and_mix():
    allocator = TargetAllocator(capacity=2 * MIB, align=128 * KIB)
    parallel = ParallelSpec(base=spec(io_count=8), parallel_degree=2)
    placed = allocator.place(parallel)
    assert isinstance(placed, ParallelSpec)
    seq_write = spec()
    random_read = spec(mode=Mode.READ, location=LocationKind.RANDOM,
                       target_offset=1536 * KIB)
    mix = MixSpec(primary=random_read, secondary=seq_write)
    placed_mix = allocator.place(mix)
    assert isinstance(placed_mix, MixSpec)
    # the sequential-write component moved onto fresh space
    assert placed_mix.secondary.target_offset >= 256 * KIB


def _extents(spec):
    """The byte extents a placed spec's components may touch."""
    if isinstance(spec, MixSpec):
        return [spec.primary.footprint, spec.secondary.footprint]
    if isinstance(spec, ParallelMixSpec):
        return [component.footprint for component in spec.components]
    if isinstance(spec, ParallelSpec):
        return [spec.base.footprint]
    return [spec.footprint]


@pytest.mark.parametrize("combo", ["SR+SW", "RR+SW", "SW+RW"])
def test_place_mix_microbenchmark_components_stay_disjoint(combo):
    """Regression: placing only the component that needs fresh space at
    the cursor landed it on the other's fixed range (``PatternError:
    mixed patterns must use disjoint target spaces``)."""
    ctx = BenchContext(capacity=4 * MIB, io_size=32 * KIB, io_count=16)
    experiment = next(
        e for e in build_microbenchmark("mix", ctx).experiments
        if e.name == f"mix/{combo}"
    )
    device = build_device("kingston_dti", logical_bytes=4 * MIB)
    allocator = TargetAllocator(capacity=4 * MIB, align=128 * KIB)
    for value in experiment.values:
        placed = allocator.place(experiment.spec_for(value))
        if placed is None:
            allocator.reset()
            placed = allocator.place(experiment.spec_for(value))
        (a_start, a_end), (b_start, b_end) = _extents(placed)
        assert a_end <= b_start or b_end <= a_start
        assert max(a_end, b_end) <= 4 * MIB
        assert Engine(device).run(placed).stats.count == 16


def test_place_mix_keeps_queue_depth_and_label():
    seq_write = spec()
    random_read = spec(mode=Mode.READ, location=LocationKind.RANDOM,
                       target_offset=1 * MIB)
    mix = MixSpec(primary=random_read, secondary=seq_write, ratio=3,
                  io_count=8, io_ignore=2, queue_depth=4, label="oltp")
    placed = TargetAllocator(capacity=4 * MIB, align=128 * KIB).place(mix)
    assert (placed.ratio, placed.io_count, placed.io_ignore) == (3, 8, 2)
    assert (placed.queue_depth, placed.label) == (4, "oltp")
    # one footprint, components back to back inside it
    assert placed.primary.target_offset == 0
    assert placed.secondary.target_offset == spec_footprint(random_read)
    device = build_device("memoright", logical_bytes=4 * MIB)
    assert Engine(device).run(placed).stats.count == 8 - 2  # io_ignore


def test_place_parallel_mix():
    components = (
        spec(mode=Mode.READ, location=LocationKind.RANDOM),
        spec(target_offset=1 * MIB),
        spec(target_offset=2 * MIB, io_shift=512),
    )
    allocator = TargetAllocator(capacity=4 * MIB, align=128 * KIB)
    allocator.try_allocate(100 * KIB)
    placed = allocator.place(ParallelMixSpec(components=components))
    assert isinstance(placed, ParallelMixSpec)
    offsets = [component.target_offset for component in placed.components]
    assert offsets == [
        128 * KIB,
        128 * KIB + spec_footprint(components[0]),
        128 * KIB + spec_footprint(components[0]) + spec_footprint(components[1]),
    ]
    assert allocator.used == 1 * MIB  # 128 KiB + (768 KiB + 512) aligned up
    device = build_device("ideal_pagemap", logical_bytes=4 * MIB)
    assert Engine(device).run(placed).stats.count == 24


_CAPACITY = 4 * MIB


@st.composite
def _pattern(draw, offset):
    io_size = draw(st.sampled_from([4 * KIB, 32 * KIB]))
    return PatternSpec(
        mode=draw(st.sampled_from([Mode.READ, Mode.WRITE])),
        location=draw(st.sampled_from(
            [LocationKind.SEQUENTIAL, LocationKind.RANDOM]
        )),
        io_size=io_size,
        io_count=draw(st.integers(min_value=1, max_value=12)),
        io_shift=draw(st.sampled_from([0, 512])),
        target_offset=offset,
    )


@st.composite
def _spec_like(draw):
    kind = draw(st.sampled_from(["pattern", "parallel", "mix", "parallel-mix"]))
    offset = draw(st.integers(min_value=0, max_value=32)) * 32 * KIB
    first = draw(_pattern(offset))
    if kind == "pattern":
        return first
    if kind == "parallel":
        return ParallelSpec(
            base=first.with_(io_count=4, target_size=4 * first.io_size),
            parallel_degree=draw(st.sampled_from([1, 2, 4])),
        )
    components = [first]
    for _ in range(1 if kind == "mix" else draw(st.integers(1, 2))):
        # the unplaced spec is valid: components start out disjoint
        components.append(draw(_pattern(components[-1].footprint[1])))
    if kind == "mix":
        return MixSpec(
            primary=components[0], secondary=components[1],
            ratio=draw(st.integers(min_value=1, max_value=4)),
        )
    return ParallelMixSpec(components=tuple(components))


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(_spec_like(), min_size=1, max_size=12))
def test_fresh_placements_are_disjoint_and_in_capacity(specs):
    allocator = TargetAllocator(capacity=_CAPACITY, align=128 * KIB)
    fresh = []
    for original in specs:
        placed = allocator.place(original)
        if placed is None:
            continue  # a state reset would come first
        if not needs_fresh_space(original):
            assert placed is original
            continue
        fresh.extend(_extents(placed))
    fresh.sort()
    for start, end in fresh:
        assert 0 <= start < end <= _CAPACITY
    for (_, end_a), (start_b, _) in zip(fresh, fresh[1:]):
        assert end_a <= start_b


# ----------------------------------------------------------------------
# plan building & execution
# ----------------------------------------------------------------------

def experiment(name, build, values=(1, 2)):
    return Experiment(name=name, parameter="p", values=values, build=build)


def test_plan_orders_preserving_experiments_first():
    reads = experiment("reads", lambda v: spec(mode=Mode.READ))
    writes = experiment("writes", lambda v: spec())
    plan = BenchmarkPlan.build(
        [writes, reads], capacity=4 * MIB, align=128 * KIB
    )
    assert plan.steps[0].name == "reads"
    assert plan.steps[1].name == "writes"
    assert plan.reset_count == 0


def test_plan_inserts_reset_when_space_exhausted():
    big = experiment(
        "big-writes", lambda v: spec(io_count=32), values=tuple(range(8))
    )
    more = experiment(
        "more-writes", lambda v: spec(io_count=32), values=tuple(range(8))
    )
    # each experiment needs 8 x 1 MiB = 8 MiB of fresh space
    plan = BenchmarkPlan.build([big, more], capacity=8 * MIB, align=128 * KIB)
    assert plan.reset_count == 1
    reset_index = next(
        i for i, step in enumerate(plan.steps) if isinstance(step, StateReset)
    )
    assert reset_index == 1  # between the two write experiments


def test_plan_executes_with_state_enforcement():
    device = make_device()
    enforcements = []

    def enforce(dev):
        enforcements.append(dev)

    reads = experiment("reads", lambda v: spec(mode=Mode.READ, io_count=4))
    writes = experiment("writes", lambda v: spec(io_count=4))
    plan = BenchmarkPlan.build([reads, writes], capacity=1 * MIB, align=128 * KIB)
    results = plan.execute(device, enforce, pause_usec=1000.0)
    assert set(results) == {"reads", "writes"}
    assert len(enforcements) >= 1  # the up-front enforcement
    assert all(len(result.rows) == 2 for result in results.values())


def test_plan_runtime_guard_restores_on_exhaustion():
    device = make_device()  # 1 MiB capacity
    enforcements = []

    def enforce(dev):
        enforcements.append(dev)

    # 2 values x 16 IOs x 32 KiB = two 512 KiB target spaces per run; the
    # second experiment cannot fit without a reset
    writes_a = experiment("a", lambda v: spec(io_count=16), values=(1, 2))
    writes_b = experiment("b", lambda v: spec(io_count=16), values=(1, 2))
    plan = BenchmarkPlan.build([writes_a, writes_b], capacity=1 * MIB,
                               align=128 * KIB)
    results = plan.execute(device, enforce, pause_usec=1000.0)
    assert len(results) == 2
    # the state is enforced exactly once; resets restore the snapshot
    # instead of re-paying for a whole-device fill
    assert len(enforcements) == 1


def test_plan_estimate():
    reads = experiment("reads", lambda v: spec(mode=Mode.READ, io_count=8))
    writes = experiment("writes", lambda v: spec(io_count=8))
    plan = BenchmarkPlan.build([reads, writes], capacity=4 * MIB,
                               align=128 * KIB)
    estimate = plan.estimate(per_io_usec=1000.0, pause_usec=0.0)
    assert estimate.experiments == 2
    assert estimate.runs == 4  # 2 experiments x 2 values
    assert estimate.ios == 4 * 8
    # only the write experiment consumes fresh target space
    assert estimate.fresh_target_bytes == 2 * 8 * 32 * KIB
    assert estimate.simulated_usec == 32 * 1000.0
    assert "experiments" in estimate.summary()


def test_plan_estimate_counts_repetitions_and_resets():
    big = experiment("big", lambda v: spec(io_count=32), values=tuple(range(8)))
    more = experiment("more", lambda v: spec(io_count=32), values=tuple(range(8)))
    plan = BenchmarkPlan.build([big, more], capacity=8 * MIB, align=128 * KIB)
    estimate = plan.estimate(
        per_io_usec=100.0, reset_usec=1_000_000.0, repetitions=2,
        pause_usec=500.0,
    )
    assert estimate.resets == 1
    assert estimate.runs == 32  # 16 values x 2 repetitions
    assert estimate.ios == 32 * 32
    expected = 32 * 32 * 100.0 + 1 * 1_000_000.0 + 32 * 500.0
    assert estimate.simulated_usec == expected


def test_plan_estimate_parallel_and_mix_sizes():
    from repro.core.plan import _spec_io_count

    base = spec(io_count=16, target_size=16 * 32 * KIB)
    assert _spec_io_count(ParallelSpec(base=base, parallel_degree=4)) == 16
    random_read = spec(mode=Mode.READ, location=LocationKind.RANDOM,
                       target_offset=1 * MIB)
    assert _spec_io_count(MixSpec(primary=random_read, secondary=base,
                                  io_count=24)) == 24
