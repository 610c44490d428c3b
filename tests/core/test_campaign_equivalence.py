"""Equivalence suite: the throughput dispatch changes nothing but time.

DESIGN.md §14's contract — warm-worker scheduling, shared-memory
snapshot restore and pipelined worker-side enforcement must leave
campaign outcomes **bit-identical** to the sequential executor: same
payloads, same state fingerprints, same per-IO trace columns.  These
tests pin that contract at ``--jobs 4`` against ``jobs=1``, with the
scheduling machinery verifiably active (warm hits observed, zero
snapshot bytes through the pipe).
"""

import pytest

from repro.core.executor import CampaignExecutor, plan_cells
from repro.units import KIB, MIB, SEC

PROFILES = ("kingston_dti", "memoright")
CAPACITY = 4 * MIB


def campaign_cells(io_count: int = 8):
    """A small two-profile campaign: enough cells per group for warm
    reuse, two groups for pipelined enforcement."""
    cells = []
    for profile in PROFILES:
        cells.extend(
            plan_cells(
                profile,
                CAPACITY,
                ["granularity"],
                io_size=32 * KIB,
                io_count=io_count,
                pause_usec=0.1 * SEC,
            )
        )
    return cells


def by_experiment(outcomes):
    return {(o.cell.profile, o.cell.experiment): o for o in outcomes}


def group_fingerprints(executor):
    """The executor's prepared base-state fingerprints per group."""
    return {
        group: prep.fingerprint for group, prep in executor._prepared.items()
    }


def test_jobs4_warm_dispatch_bit_identical_to_sequential():
    cells = campaign_cells()

    sequential = CampaignExecutor(jobs=1)
    base = sequential.execute(cells)

    warm = CampaignExecutor(jobs=4)
    try:
        fast = warm.execute(cells)
        # the machinery this suite guards must actually be engaged:
        # resident devices hit, enforcement-fresh restores skipped, and
        # zero snapshot bytes shipped through the pool pipe
        assert warm.sched.warm_hits > 0
        assert warm.sched.restores_skipped > 0
        assert warm.sched.segments_published == len(PROFILES)
        assert warm.sched.bytes_shipped == 0
        assert warm.sched.bytes_saved > 0
        # worker-side enforcement produced the same base states the
        # parent side did (fingerprints key the run cache, so this is
        # what makes cache entries portable across dispatch modes);
        # captured before close() forgets segment-only groups
        assert group_fingerprints(warm) == group_fingerprints(sequential)
    finally:
        warm.close()

    assert [o.cell for o in fast] == [o.cell for o in base]
    for key, outcome in by_experiment(base).items():
        assert by_experiment(fast)[key].payload == outcome.payload


def test_trace_columns_identical_across_dispatch_modes():
    # keep_traces puts the full per-IO columnar traces into the payload,
    # so payload equality pins every trace column bit-for-bit
    cells = campaign_cells(io_count=6)

    sequential = CampaignExecutor(jobs=1, keep_traces=True)
    base = sequential.execute(cells)

    warm = CampaignExecutor(jobs=4, keep_traces=True)
    try:
        fast = warm.execute(cells)
        assert warm.sched.warm_hits > 0
    finally:
        warm.close()

    for key, outcome in by_experiment(base).items():
        other = by_experiment(fast)[key]
        assert other.payload == outcome.payload
        rows = outcome.payload["rows"]
        assert any(row.get("traces") for row in rows)


def test_repeated_execute_reuses_prepared_states_and_stays_identical():
    # second execute on the same executor: every group is already
    # prepared (no new enforcement), results unchanged
    cells = campaign_cells()
    warm = CampaignExecutor(jobs=4)
    try:
        first = warm.execute(cells)
        published = warm.sched.segments_published
        second = warm.execute(cells)
        assert warm.sched.segments_published == published
        for a, b in zip(first, second):
            assert a.payload == b.payload
    finally:
        warm.close()


def test_warm_dispatch_identical_with_cache_round_trip(tmp_path):
    # cold run (warm dispatch) populates the cache; the sequential
    # executor then serves every cell from it — cross-mode cache keys
    cells = campaign_cells()
    warm = CampaignExecutor(jobs=4, cache=tmp_path / "cache")
    try:
        cold = warm.execute(cells)
    finally:
        warm.close()
    sequential = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    served = sequential.execute(cells)
    assert all(o.cached for o in served)
    for a, b in zip(cold, served):
        assert a.payload == b.payload
