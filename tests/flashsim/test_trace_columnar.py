"""Columnar IOTrace storage: views, serialisation and pickling."""

import pickle

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest, Mode
from repro.units import KIB

from tests.conftest import make_device


def run_some_ios(count=6):
    device = make_device()
    trace = IOTrace()
    now = 0.0
    for i in range(count):
        done = device.submit(IORequest(i, i * 8 * KIB, 8 * KIB, Mode.WRITE), now)
        trace.append(done)
        now = done.completed_at
    return trace


def test_row_views_share_note_storage():
    """Notes added through a row view persist in the trace (the FTL's
    merge annotations arrive this way)."""
    trace = run_some_ios(3)
    trace[0].cost.note("gc")
    assert trace[0].cost.notes == ["gc"]
    assert "gc" in trace.to_csv()


def test_negative_index_and_slice():
    trace = run_some_ios(5)
    assert trace[-1].request.index == 4
    tail = trace[2:]
    assert [c.request.index for c in tail] == [2, 3, 4]


def test_column_views_are_read_only():
    trace = run_some_ios(4)
    lbas = trace.column("lba")
    assert lbas.tolist() == [0, 8 * KIB, 16 * KIB, 24 * KIB]
    with pytest.raises(ValueError):
        lbas[0] = 1
    with pytest.raises(ValueError):
        trace.response_times()[0] = 0.0


def test_response_times_cache_invalidated_by_append():
    trace = run_some_ios(3)
    first = trace.response_times()
    assert len(first) == 3
    trace.append(trace[0])
    assert len(trace.response_times()) == 4


def test_empty_trace_has_working_columns():
    trace = IOTrace()
    assert len(trace) == 0
    assert len(trace.response_times()) == 0
    assert trace.column("lba").size == 0
    assert list(trace) == []


def _synthetic_trace(count=3):
    """A trace recorded directly (no device), so notes are fully ours."""
    from repro.flashsim.timing import CostAccumulator

    trace = IOTrace()
    for i in range(count):
        trace.record_at(
            row=i,
            lba=i * 8 * KIB,
            size=8 * KIB,
            write=True,
            scheduled_at=float(i),
            submitted_at=float(i),
            started_at=float(i),
            completed_at=float(i) + 0.5,
            cost=CostAccumulator(page_programs=1),
        )
    return trace


def test_notes_with_separator_and_escape_round_trip():
    """A note containing the ";" joiner (or a backslash) must not split
    into phantom notes on re-parse."""
    trace = _synthetic_trace(3)
    trace[0].cost.note("merge; forced")
    trace[0].cost.note("path\\x")
    trace[1].cost.note("plain")
    rows = IOTrace.from_csv(trace.to_csv())
    assert rows[0].cost.notes == ["merge; forced", "path\\x"]
    assert rows[1].cost.notes == ["plain"]
    assert rows[2].cost.notes == []


def test_from_csv_round_trip():
    trace = run_some_ios(5)
    trace[1].cost.note("gc")
    rebuilt = IOTrace.from_csv(trace.to_csv())
    assert len(rebuilt) == 5
    # identity, cost and note columns survive; timings are re-read at
    # the CSV's 3-decimal precision
    assert rebuilt.column("lba").tolist() == trace.column("lba").tolist()
    assert rebuilt.column("write").tolist() == trace.column("write").tolist()
    assert (
        rebuilt.column("page_programs").tolist()
        == trace.column("page_programs").tolist()
    )
    assert rebuilt[1].cost.notes == trace[1].cost.notes
    assert "gc" in rebuilt[1].cost.notes
    assert rebuilt.response_times().tolist() == [
        round(float(rt), 3) for rt in trace.response_times()
    ]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda text: text.replace("index,", "idx,", 1),  # wrong header
        lambda text: "",  # no header at all
        lambda text: text + "1,write,0\n",  # short row
        lambda text: text.replace(",write,", ",erase,", 1),  # unknown mode
        lambda text: text.replace(",write,0,", ",write,zero,", 1),  # bad lba
    ],
)
def test_from_csv_rejects_malformed_input(mangle):
    text = run_some_ios(3).to_csv()
    with pytest.raises(AnalysisError):
        IOTrace.from_csv(mangle(text))


def test_payload_round_trip():
    trace = run_some_ios(4)
    trace[2].cost.note("gc")
    rebuilt = IOTrace.from_payload(trace.to_payload())
    assert list(rebuilt) == list(trace)
    assert rebuilt.to_csv() == trace.to_csv()


def test_pickle_round_trip_and_size_reduction():
    """A pickled trace comes back with the same rows and columns."""
    trace = run_some_ios(64)
    trace[3].cost.note("gc")
    rebuilt = pickle.loads(pickle.dumps(trace))
    assert list(rebuilt) == list(trace)
    assert np.array_equal(rebuilt.response_times(), trace.response_times())
