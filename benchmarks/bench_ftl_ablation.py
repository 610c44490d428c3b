"""FTL design ablation (beyond the paper's experiments).

The paper treats devices as black boxes; the simulator can open them.
Holding the timing model fixed (the Memoright's), swap the FTL family
and compare the four baselines:

* hybrid log-block (what 2008 devices shipped);
* fully page-mapped with greedy GC (the design research assumed);
* strict block-mapping (the USB-stick design).

This quantifies how much of Table 3 is *FTL policy* rather than chip
timing — the central reason the paper warns against modelling devices
as flash chips (Section 1).
"""

import numpy as np

from repro.core import (
    Engine,
    baselines,
    detect_phases,
    enforce_random_state,
    rest_device,
)
from repro.core.report import format_table
from repro.flashsim import scaled_profile
from repro.flashsim.ftl.blockmap import BlockMapConfig
from repro.flashsim.ftl.fast import FastConfig
from repro.flashsim.ftl.pagemap import PageMapConfig
from repro.units import KIB, MIB, SEC

from conftest import report

CAPACITY = 32 * MIB


def build_variant(kind: str):
    # no controller RAM cache in any variant: the ablation isolates the
    # FTL policy itself
    from repro.flashsim import ControllerConfig

    bare = ControllerConfig()
    if kind == "hybrid":
        profile = scaled_profile("memoright", controller=bare)
    elif kind == "fast":
        profile = scaled_profile(
            "memoright",
            name="memoright-fast",
            ftl_kind="fast",
            hybrid=None,
            fast=FastConfig(shared_log_blocks=8),
            controller=bare,
        )
    elif kind == "pagemap":
        profile = scaled_profile(
            "memoright",
            name="memoright-pagemap",
            ftl_kind="pagemap",
            hybrid=None,
            pagemap=PageMapConfig(
                gc_low_blocks=4, bg_enabled=True, bg_target_blocks=32
            ),
            controller=bare,
        )
    else:
        profile = scaled_profile(
            "memoright",
            name="memoright-blockmap",
            ftl_kind="blockmap",
            hybrid=None,
            blockmap=BlockMapConfig(replacement_slots=8),
            controller=bare,
        )
    device = profile.build(CAPACITY)
    enforce_random_state(device)
    rest_device(device, 60 * SEC)
    return device


def steady(device, spec):
    run = Engine(device).run(spec)
    responses = np.array(run.trace.response_times())
    cut = detect_phases(responses).startup
    rest_device(device, 30 * SEC)
    return float(responses[cut:].mean()) / 1000.0


def test_ftl_family_drives_the_write_behaviour(once):
    def run_all():
        from repro.core.patterns import LocationKind, PatternSpec
        from repro.iotypes import Mode

        results = {}
        for kind in ("hybrid", "fast", "pagemap", "blockmap"):
            device = build_variant(kind)
            specs = baselines(
                io_size=32 * KIB,
                io_count=512,
                random_target_size=device.capacity,
                sequential_target_size=device.capacity,
            )
            results[kind] = {
                label: steady(device, spec) for label, spec in specs.items()
            }
            # in-place rewrites of one block (the classic DB page update)
            block = device.geometry.block_size
            Engine(device).run(
                PatternSpec(
                    mode=Mode.WRITE,
                    location=LocationKind.SEQUENTIAL,
                    io_size=32 * KIB,
                    io_count=block // (32 * KIB),
                    target_offset=8 * MIB,
                ),
            )
            rest_device(device, 10 * SEC)
            results[kind]["InPlace"] = steady(
                device,
                PatternSpec(
                    mode=Mode.WRITE,
                    location=LocationKind.ORDERED,
                    incr=0,
                    io_size=32 * KIB,
                    io_count=192,
                    target_size=32 * KIB,
                    target_offset=8 * MIB,
                ),
            )
        return results

    results = once(run_all)
    labels = ("SR", "RR", "SW", "RW", "InPlace")
    rows = [
        (kind, *(f"{results[kind][label]:.2f}" for label in labels))
        for kind in results
    ]
    text = format_table(("FTL (same chips/timing)",) + labels, rows)
    text += (
        "\nsame flash, three FTLs: the random-write column is pure policy —"
        "\nexactly why the paper refuses to model devices as flash chips"
    )
    report("Ablation: FTL family vs the four baselines", text)

    # reads barely depend on the FTL
    for label in ("SR", "RR"):
        values = [results[kind][label] for kind in results]
        assert max(values) < 2.5 * min(values)
    # random writes depend enormously on it: the page-mapped design
    # absorbs them far better than the shipped hybrids — the gap the
    # research literature was chasing
    rw = {kind: results[kind]["RW"] for kind in results}
    assert rw["pagemap"] < 0.7 * rw["hybrid"]
    assert rw["blockmap"] > 4 * rw["pagemap"]
    # FAST's shared logs absorb scattered writes by volume, paying at
    # reclamation: wide random writes still beat BAST's per-block logs
    assert rw["fast"] < 1.5 * rw["hybrid"]
    # and in-place rewrites expose the block-mapped design even with
    # fast chips: a near-full block copy per write
    in_place = {kind: results[kind]["InPlace"] for kind in results}
    assert in_place["blockmap"] > 5 * in_place["hybrid"]
    assert in_place["pagemap"] < 2 * results["pagemap"]["SW"]
    # sequential writes are fine everywhere (all three have a cheap path)
    sw = {kind: results[kind]["SW"] for kind in results}
    assert max(sw.values()) < 6 * min(sw.values())
