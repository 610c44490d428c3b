"""Calibration regression tests: every Table 3 device's baselines must
stay near the paper's numbers.

These are the guardrails for profile edits — the benchmarks print
paper-vs-measured, but only a failing test stops a drive-by change from
silently de-calibrating a device.
"""

import numpy as np
import pytest

from repro.core import Engine, baselines, detect_phases, enforce_random_state, rest_device
from repro.flashsim import build_device
from repro.paperdata import PHASES, TABLE3
from repro.units import KIB, MIB, SEC

#: measured-vs-paper tolerance for the 32 KiB baselines (multiplicative)
TOLERANCE = 2.5


def measure_baselines(name: str) -> dict[str, tuple[float, int]]:
    device = build_device(name, logical_bytes=32 * MIB)
    enforce_random_state(device)
    rest_device(device, 60 * SEC)
    specs = baselines(
        io_size=32 * KIB,
        io_count=768,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )
    out = {}
    for label in ("SR", "RR", "SW", "RW"):
        run = Engine(device).run(specs[label])
        responses = np.array(run.trace.response_times())
        startup = detect_phases(responses).startup
        out[label] = (float(responses[startup:].mean()) / 1000.0, startup)
        rest_device(device, 60 * SEC)
    return out


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(TABLE3))
def test_baselines_within_tolerance(name):
    measured = measure_baselines(name)
    paper = TABLE3[name]
    for label in ("SR", "RR", "SW", "RW"):
        value, __ = measured[label]
        expected = getattr(paper, label.lower())
        assert expected / TOLERANCE <= value <= expected * TOLERANCE, (
            f"{name}.{label}: measured {value:.2f} ms vs paper {expected} ms"
        )
    # ordering inside the row: random writes dominate, reads are cheap
    assert measured["RW"][0] > measured["SW"][0]
    assert measured["RW"][0] > measured["RR"][0]
    # start-up phase present exactly where the paper reports one
    __, paper_has_startup = PHASES[name]
    __, rw_startup = measured["RW"]
    if paper_has_startup:
        assert rw_startup > 30, f"{name}: expected an RW start-up phase"
    else:
        # a short cache-fill prefix is tolerated; a long one is not
        assert rw_startup <= 120, f"{name}: unexpected RW start-up {rw_startup}"


@pytest.mark.slow
def test_device_ordering_matches_table3():
    """The cross-device ordering of random-write costs is the paper's
    central empirical result; it must survive any recalibration."""
    measured = {name: measure_baselines(name)["RW"][0] for name in TABLE3}
    paper_order = sorted(TABLE3, key=lambda name: TABLE3[name].rw)
    measured_order = sorted(measured, key=measured.get)
    # the three high-end SSDs come first in both orders
    assert set(paper_order[:3]) == set(measured_order[:3])
    # and the three sticks/MLC devices come last in both
    assert set(paper_order[-3:]) == set(measured_order[-3:])
