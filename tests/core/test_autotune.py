"""Adaptive experiment-length tuning (the paper's Section 6 future work)."""

import numpy as np
import pytest

from repro.core.autotune import autotune_run, confidence_halfwidth
from repro.core.patterns import LocationKind, PatternSpec
from repro.errors import AnalysisError
from repro.iotypes import Mode
from repro.units import KIB

from tests.conftest import make_device


def rw_spec(device, io_count=1):
    return PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=io_count,
        target_size=(device.capacity // (16 * KIB)) * 16 * KIB,
    )


def sr_spec(io_count=1):
    return PatternSpec(
        mode=Mode.READ,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=io_count,
    )


# ----------------------------------------------------------------------
# the confidence machinery
# ----------------------------------------------------------------------

def test_confidence_tightens_with_more_samples():
    rng = np.random.default_rng(0)
    small = rng.normal(100.0, 10.0, size=32)
    large = rng.normal(100.0, 10.0, size=512)
    half_small, __ = confidence_halfwidth(small)
    half_large, __ = confidence_halfwidth(large)
    assert half_large < half_small


def test_confidence_accounts_for_autocorrelation():
    rng = np.random.default_rng(1)
    independent = rng.normal(100.0, 10.0, size=256)
    # strongly correlated series with the same marginal spread
    correlated = np.repeat(rng.normal(100.0, 10.0, size=32), 8)
    half_ind, __ = confidence_halfwidth(independent)
    half_corr, __ = confidence_halfwidth(correlated)
    assert half_corr > half_ind


def test_confidence_degenerate_inputs():
    assert confidence_halfwidth(np.array([1.0, 2.0]))[0] == float("inf")
    half, rel = confidence_halfwidth(np.full(64, 5.0))
    assert half == 0.0 and rel == 0.0


# ----------------------------------------------------------------------
# the adaptive runner
# ----------------------------------------------------------------------

def test_autotune_converges_on_a_uniform_pattern():
    device = make_device()
    result = autotune_run(device, sr_spec(), relative_ci=0.10, min_ios=64,
                          max_ios=1024, chunk=32, min_running=32)
    assert result.converged
    assert result.io_count <= 256  # cheap pattern: small budget suffices
    assert result.io_ignore == 0
    assert result.relative_ci <= 0.10
    assert len(result.responses) == result.io_count


def test_autotune_skips_a_startup_phase():
    device = make_device(bg=True)
    # the background device has a free-pool head-room: the first random
    # writes are cheap; autotune must not converge inside them
    result = autotune_run(
        device, rw_spec(device), relative_ci=0.25, min_ios=128,
        max_ios=2048, chunk=32, min_running=48,
    )
    if result.phases.has_startup:
        assert result.io_ignore > 0
        # the tuned mean is close to the true running phase, not the
        # whole-trace mean
        values = np.asarray(result.responses)
        naive = values.mean()
        assert result.stats.mean_usec >= naive


def test_autotune_budget_hit_reports_nonconvergence():
    device = make_device()
    result = autotune_run(
        device, rw_spec(device), relative_ci=0.0001,  # unreachable
        min_ios=64, max_ios=192, chunk=32, min_running=32,
    )
    assert not result.converged
    assert result.io_count == 192
    assert "budget hit" in result.summary()


def test_autotune_validation():
    device = make_device()
    with pytest.raises(AnalysisError):
        autotune_run(device, sr_spec(), relative_ci=0.0)
    with pytest.raises(AnalysisError):
        autotune_run(device, sr_spec(), chunk=8)
    with pytest.raises(AnalysisError):
        autotune_run(device, sr_spec(), chunk=64, max_ios=32)
    with pytest.raises(AnalysisError):
        autotune_run(device, sr_spec(), min_ios=5000, max_ios=1024)


def test_autotune_respects_device_capacity():
    device = make_device()
    # a sequential pattern extended to max_ios must wrap, not overflow
    result = autotune_run(
        device, sr_spec(), relative_ci=0.10, min_ios=64,
        max_ios=4096, chunk=64, min_running=32,
    )
    assert result.io_count <= 4096


def test_autotune_beats_fixed_iocount_budget(enforced_mtron):
    """The point of the feature: fewer IOs than the paper's fixed rule
    for easy patterns, correct means for hard ones."""
    from repro.core import baselines

    device = enforced_mtron
    specs = baselines(
        io_size=32 * KIB, io_count=1,
        random_target_size=device.capacity,
    )
    read_result = autotune_run(device, specs["SR"], relative_ci=0.10)
    assert read_result.converged
    assert read_result.io_count < 1024  # the paper's fixed SSD IOCount
    write_result = autotune_run(device, specs["RW"], relative_ci=0.15)
    assert write_result.converged
    # the tuned mean is in the steady regime (far above the cheap phase)
    assert write_result.stats.mean_usec > 2_000.0


# ----------------------------------------------------------------------
# bit-identity against a per-IO FlashDevice.submit loop
# ----------------------------------------------------------------------

def _submit_responses(device, spec, max_ios, count):
    """The per-IO oracle: the first ``count`` IOs of the extended
    pattern, each through ``FlashDevice.submit`` on Table 1's schedule
    (IO *i* at IO *i-1*'s completion plus its gap)."""
    from repro.core.generator import PatternGenerator
    from repro.iotypes import IORequest

    span = spec.target_size
    if spec.location is LocationKind.SEQUENTIAL:
        span = max(span, max_ios * spec.io_size)
    available = device.capacity - spec.target_offset - spec.io_shift
    span = min(span, (available // spec.io_size) * spec.io_size)
    long_spec = spec.with_(io_count=max_ios, io_ignore=0, target_size=span)
    program = PatternGenerator(long_spec).program()
    clock = device.busy_until
    responses = []
    for index in range(count):
        scheduled = clock + float(program.gaps[index]) if index else clock
        request = IORequest(
            index, int(program.lbas[index]), spec.io_size, spec.mode, scheduled
        )
        completed = device.submit(request, scheduled)
        responses.append(completed.response_usec)
        clock = completed.completed_at
    return tuple(responses)


@pytest.mark.parametrize("profile", ["memoright", "kingston_dti", "ideal_pagemap"])
@pytest.mark.parametrize("label", ["SW", "RW", "RR"])
@pytest.mark.parametrize("paced", [False, True], ids=["consecutive", "paced"])
def test_autotune_matches_per_io_submit_loop(profile, label, paced):
    from repro.core.methodology import enforce_random_state
    from repro.core.patterns import TimingKind, baselines
    from repro.flashsim import build_device
    from repro.units import MIB

    spec = baselines(io_size=32 * KIB, io_count=64, random_target_size=8 * MIB)[label]
    if paced:
        spec = spec.with_(timing=TimingKind.PAUSE, pause_usec=500.0)
    tuned_device, oracle_device = (
        build_device(profile, logical_bytes=16 * MIB) for _ in range(2)
    )
    for device in (tuned_device, oracle_device):
        enforce_random_state(device)
    result = autotune_run(tuned_device, spec, chunk=40, min_ios=192, max_ios=780)
    assert result.responses == _submit_responses(
        oracle_device, spec, 780, result.io_count
    )
    assert result.chunks == -(-result.io_count // 40)
    assert tuned_device.fingerprint() == oracle_device.fingerprint()
