"""RAM write-back cache: hits, LRU groups, destage hysteresis, flush."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import FTLError
from repro.flashsim.cache import WriteBackCache
from repro.flashsim.timing import CostAccumulator

from ..conftest import SMALL_GEOMETRY

PPB = 8


@pytest.fixture
def cache(geometry):
    # capacity: 16 pages, destage down to 12
    return WriteBackCache(geometry, 16 * geometry.page_size, low_watermark=0.75)


def test_write_then_read_hit(cache):
    assert cache.write(5, 100) is False  # first write: not a hit
    assert cache.read(5) == 100
    assert cache.hits == 1


def test_overwrite_is_a_hit_and_keeps_one_copy(cache):
    cache.write(5, 100)
    assert cache.write(5, 200) is True
    assert cache.dirty_pages == 1
    assert cache.read(5) == 200


def test_read_miss(cache):
    assert cache.read(42) is None
    assert cache.misses == 1


def test_destage_not_needed_below_capacity(cache, hybrid_ftl):
    for lpage in range(16):
        cache.write(lpage, lpage + 1)
    cost = CostAccumulator()
    assert cache.destage_if_needed(hybrid_ftl, cost) == 0
    assert cost.is_empty()


def test_destage_hysteresis_down_to_low_watermark(cache, hybrid_ftl):
    # 17 dirty pages in 3 block groups -> over capacity (16)
    for lpage in list(range(8)) + list(range(8, 16)) + [16]:
        cache.write(lpage, lpage + 1)
    cost = CostAccumulator()
    destaged = cache.destage_if_needed(hybrid_ftl, cost)
    assert destaged > 0
    assert cache.dirty_pages <= 12
    assert cost.page_programs == destaged


def test_destage_picks_lru_block_group(cache, hybrid_ftl):
    for offset in range(8):
        cache.write(offset, 1)  # block 0 (oldest)
    for offset in range(8):
        cache.write(PPB + offset, 2)  # block 1
    cache.write(0, 9)  # touch block 0 -> block 1 becomes LRU
    cache.write(2 * PPB, 3)  # overflow (17 pages)
    cost = CostAccumulator()
    cache.destage_if_needed(hybrid_ftl, cost)
    # block 1 was destaged; block 0 is still cached
    assert cache.read(0) == 9
    assert cache.read(PPB) is None
    assert hybrid_ftl.read_token_quiet(PPB) == 2


def test_destaged_group_is_written_in_offset_order(cache, hybrid_ftl):
    # write a block's pages in reverse; the destage must arrive sorted,
    # making the log switch-mergeable (how caches absorb reverse writes)
    for offset in reversed(range(PPB)):
        cache.write(offset, offset + 1)
    cost = CostAccumulator()
    cache.flush(hybrid_ftl, cost)
    assert hybrid_ftl.merge_stats["switch"] == 1
    assert hybrid_ftl.merge_stats["full"] == 0


def test_flush_empties_everything(cache, hybrid_ftl):
    for lpage in range(13):
        cache.write(lpage, lpage + 1)
    cost = CostAccumulator()
    assert cache.flush(hybrid_ftl, cost) == 13
    assert cache.dirty_pages == 0
    for lpage in range(13):
        assert hybrid_ftl.read_token_quiet(lpage) == lpage + 1


def test_stats_track_destages(cache, hybrid_ftl):
    for lpage in range(8):
        cache.write(lpage, 1)
    cost = CostAccumulator()
    cache.flush(hybrid_ftl, cost)
    assert cache.destaged_groups == 1
    assert cache.destaged_pages == 8


def test_capacity_validation(geometry):
    with pytest.raises(FTLError):
        WriteBackCache(geometry, geometry.page_size - 1)
    with pytest.raises(FTLError):
        WriteBackCache(geometry, geometry.page_size, low_watermark=0.0)
    with pytest.raises(FTLError):
        WriteBackCache(geometry, geometry.page_size, low_watermark=1.5)


# ----------------------------------------------------------------------
# run forms vs the per-page loop
# ----------------------------------------------------------------------


class _RecordingFTL:
    """Stands in for the FTL under a destage: records each group."""

    def __init__(self) -> None:
        self.groups: list = []

    def write_pages(self, items, cost) -> None:
        self.groups.append(list(items))


def _cache_state(cache):
    return (
        [(lblock, sorted(group.items())) for lblock, group in cache._groups.items()],
        cache.dirty_pages,
        cache.hits,
        cache.misses,
        cache.destaged_groups,
        cache.destaged_pages,
    )


_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["w", "r"]), st.integers(0, 63), st.integers(1, 3 * PPB)
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ops=_cache_ops)
def test_run_forms_match_per_page_loop(ops):
    per_page, runs = (
        WriteBackCache(SMALL_GEOMETRY, 16 * SMALL_GEOMETRY.page_size, low_watermark=0.75)
        for _ in range(2)
    )
    per_page_ftl, runs_ftl = _RecordingFTL(), _RecordingFTL()
    for step, (mode, start, count) in enumerate(ops):
        pages = range(start, min(start + count, 64))
        if mode == "w":
            tokens = np.arange(1, len(pages) + 1, dtype=np.int64) + 100 * step
            for lpage, token in zip(pages, tokens.tolist()):
                per_page.write(lpage, token)
            runs.write_run(start, tokens)
            per_page.destage_if_needed(per_page_ftl, CostAccumulator())
            runs.destage_if_needed(runs_ftl, CostAccumulator())
        else:
            expected = {
                i: token
                for i, lpage in enumerate(pages)
                if (token := per_page.read(lpage)) is not None
            }
            assert runs.read_run(start, len(pages)) == expected
        assert _cache_state(runs) == _cache_state(per_page)
        assert runs_ftl.groups == per_page_ftl.groups
