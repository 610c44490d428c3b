"""Campaign executor: cells, memoization, sequential/parallel parity."""

import json

import pytest

from repro.core.executor import (
    CACHE_VERSION,
    CampaignCell,
    CampaignExecutor,
    RunCache,
    plan_cells,
    results_by_experiment,
    run_cell,
)
from repro.core.methodology import StatePool
from repro.errors import ExperimentError
from repro.units import KIB, MIB, SEC

PROFILE = "kingston_dti"
CAPACITY = 4 * MIB


def order_cells():
    return plan_cells(
        PROFILE,
        CAPACITY,
        ["order"],
        io_size=32 * KIB,
        io_count=8,
        pause_usec=0.1 * SEC,
    )


def test_plan_cells_enumerates_one_cell_per_experiment():
    cells = order_cells()
    assert [cell.experiment for cell in cells] == ["order/SR", "order/SW"]
    assert all(cell.profile == PROFILE for cell in cells)
    assert all(cell.capacity == CAPACITY for cell in cells)


def test_executor_rejects_nonpositive_jobs():
    with pytest.raises(ExperimentError):
        CampaignExecutor(jobs=0)


def test_executor_enforces_into_a_caller_supplied_empty_pool():
    # an empty pool is falsy (StatePool.__len__): it must still be used
    pool = StatePool()
    executor = CampaignExecutor(state_pool=pool)
    executor.prepare(PROFILE, CAPACITY)
    assert pool.misses == 1
    assert len(pool) == 1


def test_run_cell_rejects_unknown_experiment():
    executor = CampaignExecutor(enforce=False)
    _, snapshot, _ = executor.prepare(PROFILE, CAPACITY)
    bogus = CampaignCell(
        profile=PROFILE, capacity=CAPACITY, benchmark="order",
        experiment="order/NOPE", io_size=32 * KIB, io_count=8,
    )
    with pytest.raises(ExperimentError):
        run_cell(bogus, snapshot)


def test_cache_misses_then_hits_with_identical_payloads(tmp_path):
    cells = order_cells()

    first = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    ran = first.execute(cells)
    assert [outcome.cached for outcome in ran] == [False, False]
    assert first.cache.misses == len(cells)
    assert first.cache.hits == 0

    # a brand-new executor (fresh StatePool, fresh cache object) against
    # the same directory re-runs zero cells
    second = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    served = second.execute(cells)
    assert [outcome.cached for outcome in served] == [True, True]
    assert second.cache.hits == len(cells)
    assert second.cache.misses == 0
    assert [outcome.payload for outcome in served] == [
        outcome.payload for outcome in ran
    ]


def test_cache_rejects_foreign_versions(tmp_path):
    cache = RunCache(tmp_path)
    cell = order_cells()[0]
    key = cache.key(cell, "fingerprint", "digest")
    path = cache.put(key, cell, {"rows": []})
    entry = json.loads(path.read_text())
    entry["version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.misses == 1


def test_parallel_execution_matches_sequential():
    cells = order_cells()
    sequential = CampaignExecutor(jobs=1).execute(cells)
    parallel = CampaignExecutor(jobs=2).execute(cells)
    assert [outcome.payload for outcome in parallel] == [
        outcome.payload for outcome in sequential
    ]


def test_results_by_experiment_round_trips():
    outcomes = CampaignExecutor(jobs=1).execute(order_cells())
    results = results_by_experiment(outcomes)
    assert set(results) == {"order/SR", "order/SW"}
    for result in results.values():
        assert all(row.mean_usec > 0 for row in result.rows)


def test_keep_traces_round_trips_through_cache(tmp_path):
    from repro.core.archive import payload_has_traces

    cells = order_cells()
    first = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    ran = first.execute(cells)
    assert all(payload_has_traces(outcome.payload) for outcome in ran)
    rows = ran[0].result().rows
    assert rows[0].traces and len(rows[0].traces[0]) == cells[0].io_count

    second = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    served = second.execute(cells)
    assert [outcome.cached for outcome in served] == [True, True]
    assert [outcome.payload for outcome in served] == [
        outcome.payload for outcome in ran
    ]


def test_stats_only_entries_do_not_satisfy_trace_campaigns(tmp_path):
    cells = order_cells()
    stats_only = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    stats_only.execute(cells)

    # the stats-only entries are misses for a trace-keeping campaign ...
    tracing = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    upgraded = tracing.execute(cells)
    assert [outcome.cached for outcome in upgraded] == [False, False]

    # ... and the upgraded (trace-carrying) entries satisfy both kinds
    third = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    served = third.execute(cells)
    assert [outcome.cached for outcome in served] == [True, True]


def test_attribution_implies_traces_and_attributes_every_cell():
    from repro.core.archive import payload_has_attribution, payload_has_traces

    executor = CampaignExecutor(jobs=1, attribution=True)
    assert executor.keep_traces  # attribution rides on kept traces
    outcomes = executor.execute(order_cells())
    for outcome in outcomes:
        assert payload_has_traces(outcome.payload)
        assert payload_has_attribution(outcome.payload)


def test_attribution_balances_in_executor_payloads():
    import numpy as np

    from repro.flashsim.trace import IOTrace

    outcomes = CampaignExecutor(jobs=1, attribution=True).execute(order_cells())
    checked = 0
    for outcome in outcomes:
        for row in outcome.payload["rows"]:
            for trace_payload in row["traces"]:
                trace = IOTrace.from_payload(trace_payload)
                assert not trace.attribution_balance().any()
                checked += len(trace)
    assert checked > 0


def test_parallel_attribution_matches_sequential():
    cells = order_cells()
    sequential = CampaignExecutor(jobs=1, attribution=True).execute(cells)
    parallel = CampaignExecutor(jobs=2, attribution=True).execute(cells)
    assert [outcome.payload for outcome in parallel] == [
        outcome.payload for outcome in sequential
    ]


def test_attribution_misses_unattributed_cache_entries(tmp_path):
    from repro.core.archive import payload_has_attribution

    cells = order_cells()
    plain = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    plain.execute(cells)

    # the cached entries carry traces but no attribution: an attribution
    # campaign must re-run them rather than serve unattributed payloads
    attributed = CampaignExecutor(
        jobs=1, cache=tmp_path / "cache", attribution=True
    )
    outcomes = attributed.execute(cells)
    assert all(not outcome.cached for outcome in outcomes)
    assert all(payload_has_attribution(o.payload) for o in outcomes)

    # ... and the re-run entries now satisfy attribution cache hits
    second = CampaignExecutor(
        jobs=1, cache=tmp_path / "cache", attribution=True
    )
    served = second.execute(cells)
    assert all(outcome.cached for outcome in served)
    assert all(payload_has_attribution(o.payload) for o in served)


def test_payload_has_attribution_edges():
    from repro.core.archive import payload_has_attribution

    assert not payload_has_attribution({"rows": []})
    assert not payload_has_attribution(
        {"rows": [{"traces": [{"submitted_at": [1.0]}]}]}
    )
    assert payload_has_attribution(
        {"rows": [{"traces": [{"submitted_at": [1.0], "attribution": {}}]}]}
    )
    # one unattributed non-empty trace poisons the whole payload ...
    assert not payload_has_attribution(
        {
            "rows": [
                {"traces": [{"submitted_at": [1.0], "attribution": {}}]},
                {"traces": [{"submitted_at": [1.0]}]},
            ]
        }
    )
    # ... but empty traces cannot carry attribution and are tolerated
    assert payload_has_attribution(
        {
            "rows": [
                {"traces": [{"submitted_at": [1.0], "attribution": {}}]},
                {"traces": [{"submitted_at": []}]},
            ]
        }
    )


def test_cache_tracks_payload_bytes_and_per_profile_stats(tmp_path):
    cells = order_cells()

    first = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    first.execute(cells)
    cache = first.cache
    assert cache.payload_bytes > 0
    stats = cache.profiles[PROFILE]
    assert stats["misses"] == len(cells)
    assert stats["hits"] == 0
    assert stats["payload_bytes"] == cache.payload_bytes
    # each stored entry records its own payload size on disk
    sizes = [
        json.loads(path.read_text())["payload_bytes"]
        for path in (tmp_path / "cache").glob("*.json")
    ]
    assert len(sizes) == len(cells)
    assert sum(sizes) == cache.payload_bytes

    second = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    second.execute(cells)
    served = second.cache.profiles[PROFILE]
    assert served["hits"] == len(cells)
    assert served["misses"] == 0
    assert served["bytes_saved"] > 0
    assert second.cache.bytes_saved == served["bytes_saved"]
