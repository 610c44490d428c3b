"""Host-loop oracle: columnar recording must equal the per-IO reference.

The engine records every run through the hosts' program runners, which
write scalars straight into column-backed
:class:`~repro.flashsim.trace.IOTrace` storage (and hand back-to-back
programs to the closed-form kernels first).  This suite pins that
pipeline against a *legacy* reference written out here in a few lines:
one :class:`IORequest` per IO through the per-IO oracle
:meth:`FlashDevice.submit`, submit times from the Table-1 recurrence
``t(IOi) = t(IOi-1) + rt(IOi-1) + gap`` (Section 4.3), and for parallel
specs the earliest-submission scan with lowest-index tie-break.

For every spec kind, :meth:`Engine.run` must produce bit-identical run
statistics, byte-identical trace CSV, identical per-row views and
identical final device state (``fingerprint``) on every profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.core.generator import MixGenerator, PatternGenerator
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelMixSpec,
    ParallelSpec,
    PatternSpec,
    TimingKind,
    baselines,
)
from repro.core.stats import summarize
from repro.flashsim.profiles import build_device
from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest, Mode
from repro.units import KIB, MIB

PROFILES = ("memoright", "kingston_dti")

BASELINE_KINDS = ("SR", "RR", "SW", "RW")


def _request(program, i: int, scheduled: float) -> IORequest:
    mode = Mode.WRITE if program.writes[i] else Mode.READ
    return IORequest(
        i, int(program.lbas[i]), int(program.sizes[i]), mode, scheduled
    )


def _reference_sync(device, program, start_at: float) -> IOTrace:
    """One synchronous process: each IO waits for the previous one."""
    trace = IOTrace()
    clock = start_at
    for i in range(len(program)):
        scheduled = start_at if i == 0 else clock + float(program.gaps[i])
        completed = device.submit(_request(program, i, scheduled), scheduled)
        trace.append(completed)
        clock = completed.completed_at
    return trace


def _reference_parallel(device, programs, start_at: float) -> list[IOTrace]:
    """Concurrent synchronous processes on the single device queue: the
    process whose next IO can submit earliest goes first, ties to the
    lowest process index."""
    traces = [IOTrace() for _ in programs]
    position = [0] * len(programs)
    blocked = [start_at] * len(programs)
    scheduled = [start_at] * len(programs)
    while True:
        best, best_time = None, float("inf")
        for p, program in enumerate(programs):
            if position[p] < len(program):
                ready = max(blocked[p], scheduled[p])
                if ready < best_time:
                    best, best_time = p, ready
        if best is None:
            return traces
        program, i = programs[best], position[best]
        completed = device.submit(_request(program, i, scheduled[best]), best_time)
        traces[best].append(completed)
        blocked[best] = completed.completed_at
        position[best] = i + 1
        if i + 1 < len(program):
            scheduled[best] = completed.completed_at + float(program.gaps[i + 1])


def _device_pair(profile: str):
    """Two identical fresh devices: one for the engine, one for the oracle."""
    return (
        build_device(profile, logical_bytes=4 * MIB),
        build_device(profile, logical_bytes=4 * MIB),
    )


def _assert_traces_identical(trace_a, trace_b) -> None:
    assert len(trace_a) == len(trace_b)
    assert trace_a.to_csv() == trace_b.to_csv()
    assert np.array_equal(trace_a.response_times(), trace_b.response_times())
    # row views: CompletedIO and CostAccumulator compare field-by-field
    assert list(trace_a) == list(trace_b)


def _check_pattern(profile: str, spec: PatternSpec):
    """Run ``spec`` through the engine and the oracle; returns the run."""
    device, oracle = _device_pair(profile)
    run = Engine(device).run(spec)
    reference = _reference_sync(
        oracle, PatternGenerator(spec).program(), oracle.busy_until
    )
    _assert_traces_identical(run.trace, reference)
    assert run.stats == summarize(reference.response_times(), spec.io_ignore)
    assert device.fingerprint() == oracle.fingerprint()
    return run, reference


def _check_parallel(profile: str, spec, process_specs) -> None:
    device, oracle = _device_pair(profile)
    run = Engine(device).run(spec)
    references = _reference_parallel(
        oracle,
        [PatternGenerator(s).program() for s in process_specs],
        oracle.busy_until,
    )
    assert len(run.runs) == len(references)
    for sub, process_spec, reference in zip(run.runs, process_specs, references):
        _assert_traces_identical(sub.trace, reference)
        assert sub.stats == summarize(
            reference.response_times(), process_spec.io_ignore
        )
    merged = np.concatenate(
        [
            reference.response_times()[process_spec.io_ignore:]
            for process_spec, reference in zip(process_specs, references)
        ]
    )
    assert run.stats == summarize(merged)
    assert device.fingerprint() == oracle.fingerprint()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_baselines_columnar_legacy_identical(profile, kind):
    """SR/RR/SW/RW: same stats, CSV bytes, rows and device state."""
    _check_pattern(profile, baselines(io_size=16 * KIB, io_count=64)[kind])


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("timing", (TimingKind.PAUSE, TimingKind.BURST))
def test_timed_patterns_columnar_legacy_identical(profile, timing):
    """Pause/burst gaps feed the same submit-time recurrence."""
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=48,
        target_size=2 * MIB,
        timing=timing,
        pause_usec=750.0,
        burst=4 if timing is TimingKind.BURST else 0,
    )
    _check_pattern(profile, spec)


@pytest.mark.parametrize("profile", PROFILES)
def test_mix_columnar_legacy_identical(profile):
    """Mix runs: overall and per-component summaries all agree."""
    primary = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=32,
        target_size=2 * MIB,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=32,
        target_offset=2 * MIB,
        target_size=512 * KIB,
    )
    spec = MixSpec(
        primary=primary, secondary=secondary, ratio=3, io_count=48, io_ignore=8
    )
    device, oracle = _device_pair(profile)
    run = Engine(device).run(spec)
    reference = _reference_sync(
        oracle, MixGenerator(spec).program(), oracle.busy_until
    )
    _assert_traces_identical(run.trace, reference)
    responses = reference.response_times()
    assert run.stats == summarize(responses, spec.io_ignore)
    # every (ratio+1)-th IO is the secondary's
    measured = range(spec.io_ignore, spec.io_count)
    for secondary, stats in ((False, run.primary_stats), (True, run.secondary_stats)):
        component = [
            responses[i] for i in measured
            if (i % (spec.ratio + 1) == spec.ratio) == secondary
        ]
        assert stats == summarize(np.asarray(component))
    assert device.fingerprint() == oracle.fingerprint()


@pytest.mark.parametrize("profile", PROFILES)
def test_parallel_columnar_legacy_identical(profile):
    """Parallel runs: merged stats and every per-process trace agree."""
    base = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=48,
        target_size=48 * 16 * KIB,
    )
    spec = ParallelSpec(base=base, parallel_degree=3)
    _check_parallel(profile, spec, spec.process_specs())


@pytest.mark.parametrize("profile", PROFILES)
def test_parallel_mix_columnar_legacy_identical(profile):
    """Heterogeneous parallel runs interleave identically."""
    reads = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=24,
        target_size=512 * KIB,
    )
    writes = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=24,
        target_offset=2 * MIB,
        target_size=1 * MIB,
    )
    spec = ParallelMixSpec((reads, writes))
    _check_parallel(profile, spec, spec.components)


def test_restat_matches_on_columnar_trace():
    """Phase re-analysis cuts the cached response array identically."""
    spec = baselines(io_size=16 * KIB, io_count=64)["RW"]
    run, reference = _check_pattern("memoright", spec)
    for cut in (0, 8, 32, 63):
        assert run.restat(cut) == summarize(reference.response_times(), cut)
