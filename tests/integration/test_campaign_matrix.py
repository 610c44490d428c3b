"""Campaign-matrix smoke: one profile per FTL family × all ten
micro-benchmarks runs without a failed cell, and the warm parallel
dispatch returns exactly the sequential payloads.

A crash in any (profile, micro-benchmark) combination the CLI offers —
like the Mix placement overlap this matrix would have caught — fails
here before it reaches a campaign.
"""

from repro.core import CampaignExecutor, plan_cells
from repro.core.microbench import MICROBENCHMARKS
from repro.units import KIB, MIB

#: hybrid log-block, block-map and page-map
FAMILY_PROFILES = ("memoright", "kingston_dti", "ideal_pagemap")


def test_campaign_matrix_runs_clean_and_parallel_matches_sequential():
    cells = [
        cell
        for profile in FAMILY_PROFILES
        for cell in plan_cells(
            profile, 4 * MIB, tuple(MICROBENCHMARKS),
            io_size=32 * KIB, io_count=16,
        )
    ]
    assert {cell.benchmark for cell in cells} == set(MICROBENCHMARKS)
    with CampaignExecutor(jobs=1) as executor:
        sequential = executor.execute(cells)
    with CampaignExecutor(jobs=2) as executor:
        parallel = executor.execute(cells)
    assert len(sequential) == len(parallel) == len(cells)
    assert [outcome.cell for outcome in parallel] == cells
    assert [outcome.payload for outcome in parallel] == [
        outcome.payload for outcome in sequential
    ]
