"""Behavioural smoke-coverage of the profiles without Table 3 rows.

The seven presented devices are pinned by the calibration tests; the
remaining Table 2 devices (GSKILL, Transcend 16 GB, Corsair, Kingston
SD) and the synthetic page-mapped reference must still behave like
flash: random writes cost more than sequential, reads are cheap, and
the simulator's invariants hold after a full workout.
"""

import numpy as np
import pytest

from repro.core import Engine, baselines, detect_phases, enforce_random_state, rest_device
from repro.flashsim import build_device, profile_names
from repro.paperdata import TABLE3
from repro.units import KIB, MIB, SEC

OTHER_PROFILES = sorted(set(profile_names()) - set(TABLE3))


@pytest.mark.parametrize("name", OTHER_PROFILES)
def test_profile_flash_shape(name):
    device = build_device(name, logical_bytes=16 * MIB)
    enforce_random_state(device)
    rest_device(device, 60 * SEC)
    specs = baselines(
        io_size=32 * KIB,
        io_count=384,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )
    means = {}
    for label in ("SR", "RR", "SW", "RW"):
        run = Engine(device).run(specs[label])
        responses = np.array(run.trace.response_times())
        cut = detect_phases(responses).startup
        means[label] = float(responses[cut:].mean())
        rest_device(device, 30 * SEC)
    # flash shape: reads cheap and uniform, writes dearer, random writes
    # the most expensive operation
    assert means["RR"] >= means["SR"] * 0.95
    assert means["RW"] > means["RR"], name
    if name == "ideal_pagemap":
        # the page-mapped reference absorbs random writes almost
        # entirely (its generous spare pool rarely needs GC at this
        # scale) — the property the FTL ablation quantifies
        assert means["SW"] * 0.9 <= means["RW"] < 4 * means["SW"]
    else:
        # hybrids and block-maps pay real merges on random writes
        assert means["RW"] > 1.5 * means["SW"], name
    device.check_invariants()
