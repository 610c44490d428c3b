"""The unified engine: registry dispatch, reseeding, extensibility."""

import pytest

from repro.core.engine import (
    Engine,
    MixRun,
    ParallelMixRun,
    ParallelRun,
    Run,
    reseed,
)
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelMixSpec,
    ParallelSpec,
    PatternSpec,
)
from repro.errors import ExperimentError
from repro.iotypes import Mode
from repro.units import KIB

from tests.conftest import make_device


def sw_spec(io_count=12, **kwargs):
    defaults = dict(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=io_count,
    )
    defaults.update(kwargs)
    return PatternSpec(**defaults)


def sr_spec(io_count=12, **kwargs):
    return sw_spec(io_count=io_count, mode=Mode.READ, **kwargs)


def mix_spec():
    return MixSpec(
        primary=sr_spec(),
        secondary=sw_spec(target_offset=512 * KIB),
        ratio=2,
        io_count=12,
    )


def parallel_mix_spec():
    return ParallelMixSpec((sr_spec(), sw_spec(target_offset=512 * KIB)))


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def test_engine_dispatches_every_spec_kind():
    device = make_device()
    engine = Engine(device)
    assert type(engine.run(sw_spec())) is Run
    assert type(engine.run(mix_spec())) is MixRun
    assert type(
        engine.run(ParallelSpec(base=sw_spec(target_size=12 * 16 * KIB),
                                parallel_degree=2))
    ) is ParallelRun
    assert type(engine.run(parallel_mix_spec())) is ParallelMixRun
    device.check_invariants()


def test_engine_dispatches_parallel_mix():
    # regression: the old isinstance ladder never reached ParallelMixSpec
    device = make_device()
    result = Engine(device).run(parallel_mix_spec())
    assert isinstance(result, ParallelMixRun)
    assert len(result.runs) == 2
    assert result.stats.count == 24


def test_engine_rejects_unknown_spec_kind():
    class Alien:
        pass

    with pytest.raises(ExperimentError, match="no executor registered"):
        Engine(make_device()).run(Alien())


# ----------------------------------------------------------------------
# reseeding
# ----------------------------------------------------------------------

def test_reseed_bump_zero_returns_the_spec():
    spec = sw_spec()
    assert reseed(spec, 0) is spec


def test_reseed_shifts_every_component_seed():
    assert reseed(sw_spec(seed=7), 3).seed == 10

    mixed = reseed(mix_spec(), 2)
    assert mixed.primary.seed == mix_spec().primary.seed + 2
    assert mixed.secondary.seed == mix_spec().secondary.seed + 2

    parallel = reseed(ParallelSpec(base=sw_spec(seed=5), parallel_degree=2), 4)
    assert parallel.base.seed == 9
    assert parallel.parallel_degree == 2

    pmix = reseed(parallel_mix_spec(), 1)
    originals = parallel_mix_spec().components
    assert all(
        bumped.seed == original.seed + 1
        for bumped, original in zip(pmix.components, originals)
    )


def test_reseed_rejects_unknown_spec_kind():
    class Alien:
        pass

    with pytest.raises(ExperimentError, match="no reseeder registered"):
        reseed(Alien(), 1)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_spec_subclasses_inherit_their_executor():
    class TaggedSpec(PatternSpec):
        """A spec subclass with no handler of its own."""

    device = make_device()
    run = Engine(device).run(
        TaggedSpec(
            mode=Mode.WRITE, location=LocationKind.SEQUENTIAL,
            io_size=16 * KIB, io_count=8,
        )
    )
    assert run.stats.count == 8


def test_new_spec_kinds_register_once_for_every_caller():
    class NullSpec:
        label = "null"
        seed = 0

    class NullRun:
        def __init__(self, spec):
            self.spec = spec

    try:
        @Engine.executor(NullSpec)
        def run_null(engine, spec, at):
            return NullRun(spec)

        @Engine.reseeder(NullSpec)
        def reseed_null(spec, bump):
            fresh = NullSpec()
            fresh.seed = spec.seed + bump
            return fresh

        spec = NullSpec()
        assert isinstance(Engine(make_device()).run(spec), NullRun)
        assert Engine(make_device()).run(spec).spec is spec
        assert reseed(spec, 5).seed == 5
    finally:
        Engine._executors.pop(NullSpec)
        Engine._reseeders.pop(NullSpec)
