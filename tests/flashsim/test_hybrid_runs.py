"""Hybrid FTL run-level behaviour: write_pages splitting, the stream
tail table, pool bookkeeping under mixed traffic, and the batch run
path (log appends, slice reads) pinned against the per-page oracle."""

from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import BadBlockError, ReproError
from repro.flashsim.chip import FlashChip
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB, MIB

from .test_chip_migrate import FailNthProgram

PPB = 8


@pytest.fixture
def ftl(geometry, chip):
    return HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4)
    )


def write_run(ftl, pairs):
    cost = CostAccumulator()
    ftl.write_pages(pairs, cost)
    return cost


def test_write_pages_splits_non_contiguous_batches(ftl):
    # one batch, two separate runs (a gap in the middle)
    pairs = [(0, 1), (1, 2), (5, 3), (6, 4)]
    write_run(ftl, pairs)
    # run 1 started at offset 0 -> a stream candidate was registered
    assert ftl._stream_tails.get(0) == 2
    for lpage, token in pairs:
        assert ftl.read_token_quiet(lpage) == token
    ftl.check_invariants()


def test_stream_tail_advances_across_batches(ftl):
    write_run(ftl, [(0, 1), (1, 2)])
    assert ftl._stream_tails[0] == 2
    write_run(ftl, [(2, 3), (3, 4)])
    assert ftl._stream_tails[0] == 4
    # the confirmed stream now occupies a sequential slot
    assert 0 in ftl._open_seq


def test_stream_rolls_into_next_block(ftl):
    # filling block 0 completely registers block 1 as a candidate
    write_run(ftl, [(i, i + 1) for i in range(PPB)])
    assert ftl._stream_tails.get(1) == 0
    # and the continuation into block 1 is seq-classified immediately?
    # no: offset 0 only registers; the continuation at offset>0 confirms
    write_run(ftl, [(PPB, 100)])
    write_run(ftl, [(PPB + 1, 101)])
    assert 1 in ftl._open_seq
    ftl.check_invariants()


def test_stream_tail_table_is_bounded(geometry, chip):
    ftl = HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=2)
    )
    capacity = ftl._stream_tail_capacity
    for block in range(capacity + 16):
        if block >= geometry.logical_blocks:
            break
        write_run(ftl, [(block * PPB, 1 + block)])
    assert len(ftl._stream_tails) <= capacity


def test_wrapping_stream_restarts_cleanly(ftl):
    # two laps over two blocks, in order: all switch merges, no fulls
    laps = [(i % (2 * PPB), 1 + i) for i in range(4 * PPB)]
    for lpage, token in laps:
        write_run(ftl, [(lpage, token)])
    assert ftl.merge_stats["full"] == 0
    assert ftl.merge_stats["switch"] == 4
    ftl.check_invariants()


def test_interleaved_streams_within_pool_limit(ftl):
    # two concurrent streams fit the 2 seq slots: all switch merges
    for offset in range(PPB):
        write_run(ftl, [(offset, 10 + offset)])
        write_run(ftl, [(PPB + offset, 20 + offset)])
    assert ftl.merge_stats["switch"] == 2
    assert ftl.merge_stats["full"] == 0
    ftl.check_invariants()


def test_more_streams_than_slots_degrade(geometry, chip):
    ftl = HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=2)
    )
    # four interleaved streams against two slots: evictions force
    # deferred merges that a 2-slot device must pay
    for offset in range(PPB):
        for stream in range(4):
            write_run(ftl, [(stream * PPB + offset, 1 + stream * PPB + offset)])
    ftl.quiesce()
    assert ftl.merge_stats["full"] + ftl.merge_stats["partial"] > 0
    for stream in range(4):
        for offset in range(PPB):
            assert ftl.read_token_quiet(stream * PPB + offset) == (
                1 + stream * PPB + offset
            )
    ftl.check_invariants()


def test_mixed_random_and_stream_traffic(ftl, geometry):
    import random

    rng = random.Random(5)
    model = {}
    stream_position = 0
    for step in range(300):
        if step % 3 == 0:  # stream write
            lpage = stream_position % geometry.logical_pages
            stream_position += 1
        else:  # random write
            lpage = rng.randrange(geometry.logical_pages)
        write_run(ftl, [(lpage, step + 1)])
        model[lpage] = step + 1
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token
    ftl.check_invariants()


def test_open_log_counts_by_pool(ftl):
    write_run(ftl, [(3, 1)])  # random-class
    write_run(ftl, [(PPB, 2), (PPB + 1, 3)])  # candidate then...
    write_run(ftl, [(PPB + 2, 4)])  # ...confirmed stream
    assert len(ftl._open_rnd) == 1
    assert len(ftl._open_seq) == 1
    assert ftl.open_log_count() == 2


# ----------------------------------------------------------------------
# run path vs the per-page oracle
# ----------------------------------------------------------------------
#
# ``write_pages`` appends the pages that continue a log with one chip
# run, and ``read_pages`` reads log-free blocks as one slice.  With
# ``batch_enabled`` off both take the per-page loop; the two modes must
# leave identical tokens, costs, FTL state and chip state.

RUN_GEOMETRY = Geometry(
    page_size=2 * KIB,
    pages_per_block=PPB,
    logical_bytes=6 * PPB * 2 * KIB,
    physical_blocks=6 + 7,
)
RUN_PAGES = RUN_GEOMETRY.logical_pages

#: one operation: ("w", [(start, length), ...]) writes the runs as one
#: batch (fresh tokens); ("r", start, length) reads one span
_write_op = st.tuples(
    st.just("w"),
    st.lists(
        st.tuples(st.integers(0, RUN_PAGES - 1), st.integers(1, 2 * PPB)),
        min_size=1,
        max_size=3,
    ),
)
_read_op = st.tuples(
    st.just("r"), st.integers(0, RUN_PAGES - 1), st.integers(1, 3 * PPB)
)
_ops = st.lists(st.one_of(_write_op, _write_op, _read_op), min_size=1, max_size=40)


def _pair(page_mapped: bool, fault_at: int = 0, cls=HybridLogFTL):
    """A per-page (``batch_enabled=False``) and a batch hybrid FTL."""
    ftls = []
    for batch in (False, True):
        chip = FlashChip(
            RUN_GEOMETRY, fault_injector=FailNthProgram(fault_at) if fault_at else None
        )
        ftl = cls(
            RUN_GEOMETRY,
            chip,
            HybridConfig(
                seq_log_blocks=1, rnd_log_blocks=2, page_mapped_logs=page_mapped
            ),
        )
        ftl.batch_enabled = batch
        ftls.append(ftl)
    return ftls


def _log_state(log):
    return (log.lblock, log.pblock, log.next_pos, log.pos_of.tolist(), log.in_order)


def _state(ftl):
    """Everything the run path may touch, FTL and chip."""
    chip = ftl.chip
    return (
        ftl._data_map.tolist(),
        list(ftl._free),
        [_log_state(log) for log in ftl._open_seq.values()],
        [_log_state(log) for log in ftl._open_rnd.values()],
        [_log_state(log) for log in ftl._pending],
        {
            lblock: [_log_state(log) for log in generations]
            for lblock, generations in ftl._pending_by_lblock.items()
        },
        list(ftl._stream_tails.items()),
        dict(ftl.merge_stats),
        ftl.merge_copy_reads,
        ftl.merge_copy_programs,
        chip._tokens.tolist(),
        chip._write_point.tolist(),
        chip._erase_count.tolist(),
        chip._bad.tolist(),
        chip.stats,
    )


def _apply(ftl, op, token_base: int):
    """Run one operation; returns (tokens read or None, cost, error type)."""
    cost = CostAccumulator()
    out = None
    try:
        if op[0] == "w":
            items, token = [], token_base
            for start, length in op[1]:
                for lpage in range(start, min(start + length, RUN_PAGES)):
                    items.append((lpage, token))
                    token += 1
            ftl.write_pages(items, cost)
        else:
            _, start, length = op
            lpages = np.arange(start, min(start + length, RUN_PAGES), dtype=np.int64)
            out = ftl.read_pages(lpages, cost, ascending=True).tolist()
    except ReproError as exc:
        return out, cost, type(exc)
    return out, cost, None


def _assert_same_run(ops, page_mapped: bool, fault_at: int = 0, pair=None) -> None:
    scalar, batch = pair or _pair(page_mapped, fault_at)
    for step, op in enumerate(ops):
        token_base = 1 + 1000 * step
        expected = _apply(scalar, op, token_base)
        assert _apply(batch, op, token_base) == expected, (step, op)
        assert _state(batch) == _state(scalar), (step, op)
        if expected[2] is not None:
            return  # the device is broken from here on; state matched
    scalar.check_invariants()
    batch.check_invariants()


@pytest.mark.parametrize("page_mapped", [True, False])
@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_run_path_matches_per_page_oracle(page_mapped, ops):
    _assert_same_run(ops, page_mapped)


@pytest.mark.parametrize("page_mapped", [True, False])
@settings(max_examples=60, deadline=None)
@given(ops=_ops, fault_at=st.integers(1, 120))
def test_run_path_matches_oracle_under_program_faults(page_mapped, ops, fault_at):
    # a fault injector makes the append decline: the k-th program fails
    # at the same page, with the same state behind it, in both modes
    _assert_same_run(ops, page_mapped, fault_at)


class _CountingFTL(HybridLogFTL):
    """Counts the run-path events an oracle comparison should cover."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.events = Counter()

    def _append(self, items, i, end, cost):
        lblock = items[i][0] // PPB
        count = super()._append(items, i, end, cost)
        if count:
            self.events["append"] += 1
            if self._pool_of(lblock) is None:
                self.events["fill"] += 1  # the append filled and closed its log
        return count

    def _promote(self, lblock):
        self.events["promote"] += 1
        super()._promote(lblock)

    def _stream_restart(self, log, offset):
        restart = HybridLogFTL._stream_restart(log, offset)
        self.events["restart"] += restart
        return restart

    def _defer(self, log):
        self.events["pending"] += 1
        super()._defer(log)


@pytest.mark.parametrize("page_mapped", [True, False])
def test_run_path_covers_fills_promotions_and_pending(page_mapped):
    # streams over several blocks, out-of-order runs and offset-0
    # restarts: logs fill inside appends, promote, restart and pend
    ops = [
        ("w", [(0, 2)]),
        ("w", [(2, 2 * PPB)]),
        ("w", [(PPB + 3, 3), (3 * PPB + 5, 6)]),
        ("w", [(3 * PPB + 1, 3)]),
        ("w", [(3 * PPB, PPB)]),
        ("w", [(4 * PPB + 6, 2 * PPB)]),
        ("r", 0, 5 * PPB),
        ("w", [(PPB, 4), (5 * PPB + 1, 7)]),
        ("w", [(2 * PPB + 2, PPB)]),
        ("r", PPB - 2, 4 * PPB),
    ]
    pair = _pair(page_mapped, cls=_CountingFTL)
    _assert_same_run(ops, page_mapped, pair=pair)
    events = pair[1].events
    assert events["append"] and events["fill"] and events["promote"]
    assert events["pending"]
    # only page-mapped logs restart a stream over a stale log
    assert bool(events["restart"]) is page_mapped
    # the per-page oracle takes the same routing decisions, without appends
    assert pair[0].events == events - Counter(append=events["append"], fill=events["fill"])


@pytest.mark.parametrize("page_mapped", [True, False])
def test_read_of_bad_data_block_matches_oracle(page_mapped):
    scalar, batch = _pair(page_mapped)
    for ftl in (scalar, batch):
        _apply(ftl, ("w", [(0, 3 * PPB)]), 1)
        ftl.quiesce()
        ftl.chip.mark_bad(int(ftl._data_map[1]))
    op = ("r", PPB // 2, 2 * PPB)
    expected = _apply(scalar, op, 0)
    assert expected[2] is BadBlockError
    assert _apply(batch, op, 0) == expected
    assert _state(batch) == _state(scalar)


def test_whole_block_write_is_one_program_and_one_run(monkeypatch):
    _, batch = _pair(page_mapped=True)
    calls = []
    for name in ("program", "program_run"):
        method = getattr(batch.chip, name)
        monkeypatch.setattr(
            batch.chip,
            name,
            lambda *args, name=name, method=method: calls.append(name) or method(*args),
        )
    batch.write_pages(
        [(lpage, lpage + 1) for lpage in range(PPB, 2 * PPB)], CostAccumulator()
    )
    assert calls == ["program", "program_run"]
    assert batch.merge_stats["switch"] == 1


def test_batch_disabled_ftl_stays_per_page(monkeypatch):
    scalar, _ = _pair(page_mapped=True)

    def forbidden(*args):
        raise AssertionError("a chip run ran with batch_enabled off")

    monkeypatch.setattr(scalar.chip, "read_run", forbidden)
    monkeypatch.setattr(scalar.chip, "program_run", forbidden)
    assert _apply(scalar, ("w", [(0, 3 * PPB)]), 1)[2] is None
    assert scalar._data_map[:3].min() >= 0  # three log-free data blocks
    assert _apply(scalar, ("r", 0, 3 * PPB), 0)[0] == list(range(1, 3 * PPB + 1))
