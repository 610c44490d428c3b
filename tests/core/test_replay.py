"""Trace replay across devices."""

import pytest

from repro.core.engine import Engine
from repro.core.methodology import enforce_random_state
from repro.core.patterns import LocationKind, PatternSpec
from repro.core.replay import (
    ReplayMode,
    remap_rows,
    replay,
    replay_csv,
)
from repro.core.stats import summarize
from repro.core.workloads import oltp_mix
from repro.errors import AnalysisError
from repro.flashsim import build_device
from repro.flashsim.timing import TimingSpec
from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest, Mode
from repro.units import KIB, MIB

from tests.conftest import make_device


def capture_trace(device=None, io_count=24, timing=None):
    device = device or make_device(timing=timing)
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=io_count,
        target_size=512 * KIB,
        seed=4,
    )
    run = Engine(device).run(spec)
    return IOTrace.from_csv(run.trace.to_csv())


def stretched(trace, gap_usec):
    """``trace`` with IO *i* recorded as submitted at ``i * gap_usec``."""
    payload = trace.to_payload()
    responses = trace.response_times().tolist()
    payload["submitted_at"] = [i * gap_usec for i in range(len(trace))]
    payload["completed_at"] = [
        i * gap_usec + rt for i, rt in enumerate(responses)
    ]
    return IOTrace.from_payload(payload)


def test_closed_loop_replay_reproduces_the_same_device():
    rows = capture_trace()
    target = make_device()
    result = replay(target, rows, mode=ReplayMode.CLOSED_LOOP)
    assert len(result.trace) == len(rows)
    # same device class, same workload: same-order spans
    assert result.speedup == pytest.approx(1.0, rel=0.3)
    lbas = [completed.request.lba for completed in result.trace]
    assert lbas == rows.column("lba").tolist()


def test_replay_onto_a_faster_device_speeds_up():
    slow_rows = capture_trace(timing=TimingSpec(transfer_per_kib=200.0))
    fast_target = make_device(timing=TimingSpec(transfer_per_kib=1.0))
    result = replay(fast_target, slow_rows)
    assert result.speedup > 2.0


def test_timed_replay_preserves_think_time():
    # stretch the recorded arrival times far apart
    rows = stretched(capture_trace(), 50_000.0)
    target = make_device()
    timed = replay(target, rows, mode=ReplayMode.TIMED)
    closed = replay(make_device(), rows, mode=ReplayMode.CLOSED_LOOP)
    assert timed.replay_span_usec > 5 * closed.replay_span_usec


def test_replay_rejects_oversized_extents():
    rows = capture_trace()
    tiny = make_device()
    oversized = remap_rows(rows, tiny.capacity, 16 * KIB)
    # remapped rows fit; the raw rows against a fake small capacity don't
    assert replay(tiny, oversized).stats.count == len(rows)
    from repro.flashsim.geometry import Geometry

    small = make_device(
        geometry=Geometry(
            page_size=2 * KIB, pages_per_block=8, logical_bytes=256 * KIB,
            physical_blocks=16 + 24,
        )
    )
    with pytest.raises(AnalysisError):
        replay(small, rows)


def test_remap_folds_lbas():
    rows = capture_trace()
    remapped = remap_rows(rows, 256 * KIB, 16 * KIB)
    assert len(remapped) == len(rows)
    for row in remapped:
        assert row.request.lba + row.request.size <= 256 * KIB
    assert remapped.to_csv().splitlines()[0] == rows.to_csv().splitlines()[0]
    assert (remapped.response_times() == rows.response_times()).all()
    with pytest.raises(AnalysisError):
        remap_rows(rows, 1 * KIB, 16 * KIB)


def test_replay_empty_rejected():
    with pytest.raises(AnalysisError):
        replay(make_device(), IOTrace())


def test_replay_csv_round_trip(tmp_path):
    device = make_device()
    rows = capture_trace(device)
    path = tmp_path / "trace.csv"
    trace = IOTrace()
    # re-run to get CompletedIO objects to serialise
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=12,
        target_size=512 * KIB,
        seed=9,
    )
    run = Engine(device).run(spec)
    run.trace.to_csv(path)
    result = replay_csv(make_device(), path)
    assert result.stats.count == 12


def test_replay_io_ignore():
    rows = capture_trace()
    result = replay(make_device(), rows, io_ignore=8)
    assert result.stats.ignored == 8
    assert result.stats.count == len(rows) - 8


# ----------------------------------------------------------------------
# bit-identity against a per-IO FlashDevice.submit loop
# ----------------------------------------------------------------------

def _submit_replay(device, trace, timed):
    """The per-IO oracle: each IO through ``FlashDevice.submit``, at its
    recorded offset (timed) or at the previous completion (closed loop)."""
    out = IOTrace()
    start = now = device.busy_until
    origin = trace[0].submitted_at
    for index, row in enumerate(trace):
        offset = row.submitted_at - origin
        submit_at = max(start + offset, start) if timed else now
        request = IORequest(
            index, row.request.lba, row.request.size, row.request.mode, offset
        )
        completed = device.submit(request, submit_at)
        out.append(completed)
        now = completed.completed_at
    return out


def _enforced(profile):
    device = build_device(profile, logical_bytes=8 * MIB)
    enforce_random_state(device)
    return device


@pytest.mark.parametrize("profile", ["memoright", "kingston_dti"])
@pytest.mark.parametrize("mode", list(ReplayMode))
@pytest.mark.parametrize("gap_usec", [None, 300.0])
def test_replay_matches_per_io_submit_loop(profile, mode, gap_usec):
    source = _enforced(profile)
    workload = oltp_mix(
        source.capacity, page_size=16 * KIB, io_count=96,
        reads_per_write=3, working_set=2 * MIB,
    )
    trace = IOTrace.from_csv(Engine(source).run(workload).trace.to_csv())
    if gap_usec is not None:
        trace = stretched(trace, gap_usec)
    replayed, oracle_device = _enforced(profile), _enforced(profile)
    result = replay(replayed, trace, mode=mode, io_ignore=8)
    oracle = _submit_replay(oracle_device, trace, mode is ReplayMode.TIMED)
    assert result.trace.to_csv() == oracle.to_csv()
    assert result.stats == summarize(oracle.response_times(), 8)
    assert result.original_span_usec == (
        trace[len(trace) - 1].completed_at - trace[0].submitted_at
    )
    assert result.replay_span_usec == (
        oracle[len(oracle) - 1].completed_at - oracle[0].submitted_at
    )
    assert replayed.fingerprint() == oracle_device.fingerprint()
