"""``FlashChip.migrate`` is pinned against the scalar read/program loop.

Every log-block FTL copies merge pages through ``migrate``.  For any
source set — live pages, filler slots, erased sources — destination and
start offset, it must leave the same tokens, write points and
``ChipStats`` as the per-page loop it replaces, and under injected
program faults, bad source blocks and invalid runs it must raise the
same exception with the same state behind it.
"""

from __future__ import annotations

from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import BadBlockError, EraseError, ProgramError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.geometry import Geometry
from repro.units import KIB

PPB = 8
BLOCKS = 10
GEOMETRY = Geometry(
    page_size=2 * KIB,
    pages_per_block=PPB,
    logical_bytes=(BLOCKS - 2) * PPB * 2 * KIB,
    physical_blocks=BLOCKS,
)
FILLER = 0


class FailNthProgram:
    """Fail the ``n``-th program operation (1-based)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.programs = 0

    def program_fails(self, block: int, page_offset: int) -> bool:
        self.programs += 1
        return self.programs == self.n

    def erase_fails(self, block: int) -> bool:
        return False


def scalar_migrate(chip, src, dst_block, start, filler) -> int:
    """The per-page merge copy loop ``migrate`` replaces."""
    reads = 0
    for i, page in enumerate(src):
        token = filler
        if page != -1:
            token = chip.read(*divmod(page, PPB))
            reads += 1
            if token == ERASED:
                token = filler
        chip.program(dst_block, start + i, token)
    return reads


def _build(write_points, fault_injector=None) -> FlashChip:
    chip = FlashChip(GEOMETRY, fault_injector=fault_injector)
    for block, write_point in enumerate(write_points):
        tokens = 1000 * (block + 1) + np.arange(write_point)
        chip.program_run(block, 0, tokens)
    return chip


def _state(chip: FlashChip):
    snap = chip.snapshot()
    return (
        snap["tokens"].tobytes(),
        snap["write_point"].tobytes(),
        snap["erase_count"].tobytes(),
        snap["bad"].unpack().tobytes(),
        snap["stats"],
    )


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as exc:  # the exception type is the outcome
        return (type(exc), None)


@st.composite
def migrations(draw):
    """A chip state plus one merge copy into an erased-tail destination."""
    write_points = draw(
        st.lists(st.integers(0, PPB), min_size=BLOCKS, max_size=BLOCKS)
    )
    dst = draw(st.integers(0, BLOCKS - 1))
    start = write_points[dst]
    n = draw(st.integers(0, PPB - start))
    others = [block for block in range(BLOCKS) if block != dst]
    live = [b * PPB + o for b in others for o in range(write_points[b])]
    erased = [b * PPB + o for b in others for o in range(write_points[b], PPB)]
    choices = [st.just(-1)]
    if live:
        choices.append(st.sampled_from(live))
    if erased:
        choices.append(st.sampled_from(erased))
    src = draw(st.lists(st.one_of(*choices), min_size=n, max_size=n))
    return write_points, src, dst, start


def _forbidden(*args, **kwargs):
    raise AssertionError("a clean run must not fall back to per-page calls")


@settings(max_examples=200, deadline=None)
@given(migrations())
def test_migrate_equals_scalar_loop(case):
    write_points, src, dst, start = case
    reference = _build(write_points)
    expected = scalar_migrate(reference, src, dst, start, FILLER)
    chip = _build(write_points)
    chip.read = chip.program = _forbidden
    got = chip.migrate(np.asarray(src, dtype=np.int64), dst, start, FILLER)
    assert got == expected
    assert expected == sum(page != -1 for page in src)
    assert _state(chip) == _state(reference)
    assert reference.stats.page_programs - sum(write_points) == len(src)


@settings(max_examples=150, deadline=None)
@given(migrations(), st.integers(1, PPB))
def test_injected_program_failure_matches_scalar_loop(case, nth):
    write_points, src, dst, start = case
    reference = _build(write_points)
    chip = _build(write_points)
    reference.fault_injector = FailNthProgram(nth)
    chip.fault_injector = FailNthProgram(nth)
    want = _outcome(lambda: scalar_migrate(reference, src, dst, start, FILLER))
    got = _outcome(lambda: chip.migrate(src, dst, start, FILLER))
    assert got == want
    if nth <= len(src):
        assert want[0] is ProgramError
        assert chip.stats.program_failures == 1
    assert _state(chip) == _state(reference)


@settings(max_examples=150, deadline=None)
@given(migrations(), st.integers(0, BLOCKS - 1))
def test_bad_source_block_matches_scalar_loop(case, bad):
    write_points, src, dst, start = case
    reference = _build(write_points)
    chip = _build(write_points)
    reference.mark_bad(bad)
    chip.mark_bad(bad)
    want = _outcome(lambda: scalar_migrate(reference, src, dst, start, FILLER))
    got = _outcome(lambda: chip.migrate(src, dst, start, FILLER))
    assert got == want
    if any(page != -1 and page // PPB == bad for page in src) or (
        bad == dst and src
    ):
        assert want[0] is BadBlockError
    assert _state(chip) == _state(reference)


@pytest.mark.parametrize(
    "src, dst, start, error",
    [
        ([-1, 3], 2, 2, ProgramError),  # start past the write point
        ([3, 4], 2, 0, ProgramError),  # start behind the write point
        ([-1] * (PPB + 1), 3, 0, ProgramError),  # run past the block end
        ([-1], 3, -1, ProgramError),  # negative start
        ([BLOCKS * PPB], 3, 0, EraseError),  # source page out of range
        ([-5], 3, 0, EraseError),  # negative source page
        ([3], BLOCKS, 0, EraseError),  # destination out of range
    ],
)
def test_invalid_runs_raise_like_scalar_loop(src, dst, start, error):
    write_points = [PPB, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    reference = _build(write_points)
    chip = _build(write_points)
    assert _outcome(lambda: scalar_migrate(reference, src, dst, start, FILLER)) == (
        error,
        None,
    )
    with pytest.raises(error):
        chip.migrate(src, dst, start, FILLER)
    assert _state(chip) == _state(reference)


def test_erased_sources_and_empty_runs():
    chip = _build([PPB, 2, 0, 0, 0, 0, 0, 0, 0, 0])
    # live, erased (block 1 offset 5) and filler slots
    assert chip.migrate([3, 1 * PPB + 5, -1, 0], 2, 0, FILLER) == 3
    assert chip.read_run(2, 0, 4).tolist() == [1003, FILLER, FILLER, 1000]
    assert chip.write_point(2) == 4
    before = replace(chip.stats)
    assert chip.migrate([], 2, 4, FILLER) == 0
    assert chip.write_point(2) == 4
    assert chip.stats == before


@pytest.mark.parametrize(
    "src",
    [
        [2 * PPB, 2 * PPB + 1],  # the destination's own programmed pages
        [3, 2 * PPB + 2],  # a page the same run has just programmed
        [2 * PPB + 5, -1],  # a page still erased when it is read
    ],
)
def test_sources_inside_the_destination_match_scalar_loop(src):
    write_points = [PPB, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    reference = _build(write_points)
    chip = _build(write_points)
    assert chip.migrate(src, 2, 2, FILLER) == scalar_migrate(
        reference, src, 2, 2, FILLER
    )
    assert _state(chip) == _state(reference)
