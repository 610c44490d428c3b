"""Methodology: state enforcement and run-control rules (Sections 4/5.1)."""

import pytest

from repro.core.methodology import (
    enforce_random_state,
    enforce_sequential_state,
    recommended_io_count,
    recommended_io_ignore,
    run_control_for,
    spec_with_run_control,
)
from repro.core.patterns import LocationKind, PatternSpec
from repro.flashsim import build_device
from repro.flashsim.chip import ERASED
from repro.flashsim.profiles import profile_names
from repro.iotypes import Mode
from repro.units import KIB, MIB

from tests.conftest import make_device


def test_random_enforcement_covers_capacity():
    device = make_device()
    report = enforce_random_state(device)
    assert report.method == "random"
    assert report.bytes_written >= device.capacity
    assert report.io_count > 0
    assert report.elapsed_usec > 0
    device.check_invariants()


def test_random_enforcement_uses_random_sizes(monkeypatch):
    from repro.flashsim.host import SyncHost

    device = make_device()
    sizes = set()
    original = SyncHost.run_program

    def spy(host, program, start_at=0.0):
        sizes.update(program.sizes.tolist())
        return original(host, program, start_at)

    monkeypatch.setattr(SyncHost, "run_program", spy)
    enforce_random_state(device)
    assert len(sizes) > 5  # many distinct sizes, 0.5K..block size
    assert max(sizes) <= device.geometry.block_size


def test_random_enforcement_is_deterministic_per_seed():
    a = make_device()
    b = make_device()
    report_a = enforce_random_state(a, seed=3)
    report_b = enforce_random_state(b, seed=3)
    assert report_a.io_count == report_b.io_count
    assert report_a.elapsed_usec == report_b.elapsed_usec


def test_sequential_enforcement_writes_whole_device():
    device = make_device()
    report = enforce_sequential_state(device, io_size=64 * KIB)
    assert report.method == "sequential"
    assert report.bytes_written == device.capacity
    # every page of the device is now written
    for lpage in (0, device.geometry.logical_pages - 1):
        assert device.ftl.read_token_quiet(lpage) != ERASED
    device.check_invariants()


def test_sequential_enforcement_is_faster_than_random():
    """Section 4.1: sequential state enforcement is faster (but less
    stable); random took 5 hours to 35 days on the paper's devices."""
    random_device = make_device()
    random_report = enforce_random_state(random_device)
    sequential_device = make_device()
    sequential_report = enforce_sequential_state(sequential_device)
    assert sequential_report.elapsed_usec < random_report.elapsed_usec


def test_coverage_validation():
    device = make_device()
    with pytest.raises(ValueError):
        enforce_random_state(device, coverage=0)


def test_recommended_io_count_rules():
    # the paper's rules at full scale (Section 5.1)
    assert recommended_io_count("SSD", "SR", scale=1.0) == 1024
    assert recommended_io_count("SSD", "RW", scale=1.0) == 5120
    assert recommended_io_count("USB", "RW", scale=1.0) == 512
    assert recommended_io_count("SD", "SW", scale=1.0) == 512
    # scaled values stay usable
    assert recommended_io_count("SSD", "RW", scale=0.1) == 512
    assert recommended_io_count("USB", "SR", scale=0.01) >= 32


def test_recommended_io_ignore():
    assert recommended_io_ignore(0) == 0
    assert recommended_io_ignore(100) == 126  # 25% margin


def test_run_control_for_covers_phases():
    io_ignore, io_count = run_control_for(startup=100, period=16, min_periods=8)
    assert io_ignore >= 100
    assert io_count - io_ignore >= 8 * 16


def test_run_control_without_oscillation():
    io_ignore, io_count = run_control_for(startup=0, period=None, floor=64)
    assert io_ignore == 0
    assert io_count >= 64


def test_spec_with_run_control():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=32 * KIB,
        io_count=64,
        target_size=4096 * KIB,
    )
    tuned = spec_with_run_control(spec, startup=50, period=10)
    assert tuned.io_ignore > 50
    assert tuned.io_count >= tuned.io_ignore + 64


# ----------------------------------------------------------------------
# StatePool
# ----------------------------------------------------------------------

def test_state_pool_unbounded_by_default():
    from repro.core.methodology import StatePool

    pool = StatePool()
    device = make_device()
    for seed in range(4):
        pool.ensure(device, coverage=0.25, seed=seed)
    assert len(pool) == 4
    assert pool.misses == 4


# ----------------------------------------------------------------------
# bit-identity against a per-IO FlashDevice.submit loop
# ----------------------------------------------------------------------

def _submit_writes(device, method, extents):
    """The per-IO oracle: back-to-back writes through
    ``FlashDevice.submit``, then drain — the report enforcement owes."""
    from repro.core.methodology import StateReport
    from repro.iotypes import IORequest

    start = now = device.busy_until
    for index, (lba, size) in enumerate(extents):
        now = device.submit(IORequest(index, lba, size, Mode.WRITE), now).completed_at
    device.drain()
    count = len(extents)
    return StateReport(
        method=method,
        io_count=count,
        bytes_written=sum(size for _, size in extents),
        elapsed_usec=now - start,
        mean_io_usec=(now - start) / count,
    )


def _random_extents(device, seed, coverage):
    """Section 4.1's random stream, drawn as :func:`enforce_random_state`
    documents it: random sector-multiple sizes up to the block size at
    random sector-aligned offsets, until ``coverage`` times the capacity
    is written."""
    import random

    from repro.units import SECTOR

    capacity = device.geometry.logical_bytes
    rng = random.Random(seed)
    extents = []
    written = 0
    while written < int(coverage * capacity):
        size = rng.randrange(SECTOR, device.geometry.block_size + 1, SECTOR)
        extents.append((rng.randrange(0, capacity - size + 1, SECTOR), size))
        written += size
    return extents


def _sequential_extents(device, io_size=128 * KIB):
    capacity = device.geometry.logical_bytes
    return [
        (lba, min(io_size, capacity - lba)) for lba in range(0, capacity, io_size)
    ]


@pytest.mark.parametrize("profile", profile_names())
@pytest.mark.parametrize("method", ["random", "sequential"])
def test_enforcement_matches_per_io_submit_loop(profile, method):
    enforced, oracle = (
        build_device(profile, logical_bytes=4 * MIB) for _ in range(2)
    )
    if method == "random":
        # twice over, so every FTL family reaches GC / merge steady state
        report = enforce_random_state(enforced, coverage=2.0, seed=5)
        expected = _submit_writes(oracle, method, _random_extents(oracle, 5, 2.0))
    else:
        report = enforce_sequential_state(enforced)
        expected = _submit_writes(oracle, method, _sequential_extents(oracle))
    assert report == expected
    assert enforced.fingerprint() == oracle.fingerprint()
