"""Golden merge results: every FTL family's merge copies stay bit-identical.

A fixed merge-heavy run — random-state enforcement, random writes, a
reverse Order pattern, then ``quiesce`` — drives the hybrid full and
partial merges, block-map gap copies and finalisations, and FAST
reclamation.  The final ``FlashDevice.fingerprint()`` and the exact
``metrics()`` counters are pinned against values recorded with the
per-page ``FlashChip.read``/``program`` copy loops, so any change to
how merges copy pages (tokens, filler, program order, counters) shows.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import Engine, enforce_random_state
from repro.core.patterns import LocationKind, PatternSpec
from repro.flashsim.ftl.fast import FastConfig
from repro.flashsim.profiles import build_device, scaled_profile
from repro.iotypes import Mode
from repro.units import KIB, MIB

CAPACITY = 8 * MIB
IO_SIZE = 32 * KIB
IO_COUNT = 128


def _device(name: str):
    if name == "memoright_fast":
        profile = scaled_profile(
            "memoright", name=name, ftl_kind="fast", fast=FastConfig()
        )
        return profile.build(CAPACITY)
    return build_device(name, logical_bytes=CAPACITY)


def _merge_heavy_run(name: str):
    device = _device(name)
    enforce_random_state(device, seed=97)
    engine = Engine(device)
    engine.run(
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.RANDOM,
            io_size=IO_SIZE,
            io_count=IO_COUNT,
            target_size=CAPACITY,
            seed=42,
        )
    )
    engine.run(
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.ORDERED,
            io_size=IO_SIZE,
            io_count=IO_COUNT,
            incr=-1,
            seed=42,
        )
    )
    device.ftl.quiesce()
    device.check_invariants()
    return device


def _metrics_digest(metrics: dict[str, float]) -> str:
    return hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode()
    ).hexdigest()[:16]


#: name -> (fingerprint, metrics digest, merge/copy counters), recorded
#: with the per-page copy loops
GOLDEN = {
    "kingston_dti": (
        "fe73e1365ac333c5d975a11f8be504d249930e992131fba7c770212aecb3969b",
        "3e33cf826d8dc9fc",
        {
            "chip.block_erases": 334.0,
            "chip.erase_failures": 0.0,
            "chip.page_programs": 43257.0,
            "chip.page_reads": 32756.0,
            "chip.program_failures": 0.0,
            "ftl.finalizations": 366.0,
        },
    ),
    "kingston_sd": (
        "8060a58095836eb4f47be3bec63a31ec0595c3f682fdf00590b27ba8fa821a46",
        "35ed0c1c17edc7b9",
        {
            "chip.block_erases": 397.0,
            "chip.erase_failures": 0.0,
            "chip.page_programs": 27137.0,
            "chip.page_reads": 16872.0,
            "chip.program_failures": 0.0,
            "ftl.finalizations": 461.0,
        },
    ),
    "memoright": (
        "316220c9281b4601fc6bbf9de10e7a756581e782bff33b0b0263e22c9a55076d",
        "be4d758b254d9d9f",
        {
            "chip.block_erases": 104.0,
            "chip.erase_failures": 0.0,
            "chip.page_programs": 6844.0,
            "chip.page_reads": 3017.0,
            "chip.program_failures": 0.0,
            "ftl.full_merges": 60.0,
            "ftl.merge_copy_programs": 3564.0,
            "ftl.merge_copy_reads": 2985.0,
            "ftl.partial_merges": 0.0,
            "ftl.switch_merges": 6.0,
        },
    ),
    "memoright_fast": (
        "9b5cb1a04a4cb4f584a47de1059c815fa36337cde787ecb7a2e9997c376a3822",
        "48714c1b78acb74c",
        {
            "chip.block_erases": 160.0,
            "chip.erase_failures": 0.0,
            "chip.page_programs": 9155.0,
            "chip.page_reads": 5169.0,
            "chip.program_failures": 0.0,
            "ftl.full_merges": 111.0,
            "ftl.log_reclaims": 30.0,
            "ftl.switch_merges": 10.0,
        },
    ),
    "mtron": (
        "2d6c5c435a21bbfc85db42d5d77e319e108066a537e2458a3edfc4a483c54d4c",
        "8e272e2aa5466725",
        {
            "chip.block_erases": 128.0,
            "chip.erase_failures": 0.0,
            "chip.page_programs": 8076.0,
            "chip.page_reads": 3796.0,
            "chip.program_failures": 0.0,
            "ftl.full_merges": 73.0,
            "ftl.merge_copy_programs": 4428.0,
            "ftl.merge_copy_reads": 3754.0,
            "ftl.partial_merges": 1.0,
            "ftl.switch_merges": 5.0,
        },
    ),
    "samsung": (
        "58e6fb8784685a6cf77908c67d051eaace40fcc31948725f9a4cedf9bef79f46",
        "bcdb7c374a86e1ae",
        {
            "chip.block_erases": 127.0,
            "chip.erase_failures": 0.0,
            "chip.page_programs": 8172.0,
            "chip.page_reads": 3838.0,
            "chip.program_failures": 0.0,
            "ftl.full_merges": 71.0,
            "ftl.merge_copy_programs": 4296.0,
            "ftl.merge_copy_reads": 3708.0,
            "ftl.partial_merges": 1.0,
            "ftl.switch_merges": 5.0,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_merge_heavy_run_matches_golden(name):
    device = _merge_heavy_run(name)
    metrics = device.metrics()
    fingerprint, digest, counters = GOLDEN[name]
    assert {key: metrics[key] for key in counters} == counters
    assert _metrics_digest(metrics) == digest
    assert device.fingerprint() == fingerprint
