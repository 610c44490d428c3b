"""Generators: program columns under Table 1's schedule, determinism,
mix interleave."""

from repro.core.generator import MixGenerator, PatternGenerator
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    PatternSpec,
    TimingKind,
)
from repro.iotypes import IORequest, Mode
from repro.units import KIB, MIB


def drive(generator, service_usec=100.0, start_at=0.0):
    """Schedule a generator's program with a fixed simulated service
    time: the first IO at ``start_at``, IO *i* at IO *i-1*'s completion
    plus its gap (Table 1)."""
    program = generator.program()
    out = []
    completion = start_at
    for index, (lba, size, write, gap) in enumerate(
        zip(
            program.lbas.tolist(),
            program.sizes.tolist(),
            program.writes.tolist(),
            program.gaps.tolist(),
        )
    ):
        scheduled = start_at if index == 0 else completion + gap
        mode = Mode.WRITE if write else Mode.READ
        out.append(IORequest(index, lba, size, mode, scheduled))
        completion = scheduled + service_usec
    return out


def test_generator_produces_io_count_requests():
    spec = PatternSpec(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, io_count=7, io_size=32 * KIB
    )
    requests = drive(PatternGenerator(spec))
    assert len(requests) == 7
    assert [r.index for r in requests] == list(range(7))


def test_consecutive_schedules_at_previous_completion():
    spec = PatternSpec(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, io_count=4, io_size=32 * KIB
    )
    requests = drive(PatternGenerator(spec), service_usec=100.0, start_at=50.0)
    assert [r.scheduled_at for r in requests] == [50.0, 150.0, 250.0, 350.0]


def test_pause_adds_gap():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=3,
        io_size=32 * KIB,
        timing=TimingKind.PAUSE,
        pause_usec=40.0,
    )
    requests = drive(PatternGenerator(spec), service_usec=100.0)
    assert [r.scheduled_at for r in requests] == [0.0, 140.0, 280.0]


def test_burst_gaps_between_groups():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=5,
        io_size=32 * KIB,
        timing=TimingKind.BURST,
        pause_usec=1000.0,
        burst=2,
    )
    requests = drive(PatternGenerator(spec), service_usec=100.0)
    gaps = [
        later.scheduled_at - (earlier.scheduled_at + 100.0)
        for earlier, later in zip(requests, requests[1:])
    ]
    assert gaps == [0.0, 1000.0, 0.0, 1000.0]


def test_random_location_deterministic_per_seed():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_count=20,
        io_size=32 * KIB,
        target_size=2 * MIB,
        seed=7,
    )
    first = [r.lba for r in drive(PatternGenerator(spec))]
    second = [r.lba for r in drive(PatternGenerator(spec))]
    assert first == second
    different = [r.lba for r in drive(PatternGenerator(spec.with_(seed=8)))]
    assert first != different


def test_random_lbas_inside_target_and_aligned():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_count=50,
        io_size=32 * KIB,
        target_size=2 * MIB,
    )
    for request in drive(PatternGenerator(spec)):
        assert 0 <= request.lba < 2 * MIB
        assert request.lba % (32 * KIB) == 0


def test_mix_generator_interleaves_by_ratio():
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_count=32, io_size=32 * KIB
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=32,
        io_size=32 * KIB,
        target_offset=4 * MIB,
    )
    spec = MixSpec(primary=primary, secondary=secondary, ratio=3, io_count=12)
    program = MixGenerator(spec).program()
    assert len(program) == 12
    assert program.writes.tolist() == [False, False, False, True] * 3
    assert program.components.tolist() == [0, 0, 0, 1] * 3
    # the mix's timing is consecutive
    assert program.gaps.tolist() == [0.0] * 12


def test_mix_components_advance_independently():
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_count=32, io_size=32 * KIB
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=32,
        io_size=32 * KIB,
        target_offset=4 * MIB,
    )
    spec = MixSpec(primary=primary, secondary=secondary, ratio=1, io_count=8)
    program = MixGenerator(spec).program()
    reads = program.lbas[~program.writes].tolist()
    writes = program.lbas[program.writes].tolist()
    assert reads == [0, 32 * KIB, 64 * KIB, 96 * KIB]
    assert writes == [4 * MIB + i * 32 * KIB for i in range(4)]

