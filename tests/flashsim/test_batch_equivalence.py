"""Scalar/batch equivalence: the vectorized run kernel must be invisible.

The batched controller→FTL→chip hot path (``Controller`` fast paths,
``BaseFTL.read_pages``/``write_run``, ``FlashChip.read_run``/
``program_run``) is a pure performance optimisation: every device profile
must produce bit-identical state (``fingerprint``), identical physical
work (``CostAccumulator`` totals) and identical observability counters
(``metrics``) whether the batch paths are enabled or forced off.

Two devices are driven through the same IO mix — sequential, random,
aligned, misaligned, reads and writes interleaved — one with
``batch_enabled = False`` on both the controller and the FTL (the scalar
reference), one with the defaults.  Dedicated cases cover the
cache-enabled controllers (whose batch path goes through the cache's
``write_run``/``read_run``), the mapping-unit-expanded controllers
(whose partial edges keep the scalar read-modify-write) and the
hybrid profiles at their default capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flashsim.profiles import build_device, profile_names
from repro.units import KIB, MIB

from ..conftest import SMALL_GEOMETRY, make_device

SECTOR = 512

_COST_FIELDS = (
    "page_reads",
    "page_programs",
    "copy_reads",
    "copy_programs",
    "block_erases",
    "bytes_transferred",
    "map_misses",
)


def _force_scalar(device) -> None:
    device.controller.batch_enabled = False
    device.ftl.batch_enabled = False


def _io_mix(geometry, seed: int = 7):
    """A deterministic interleaving of every access shape the controller
    distinguishes: sequential/random, page-aligned/sector-misaligned,
    whole-page and sub-page sizes, reads mixed with writes."""
    rng = np.random.default_rng(seed)
    page = geometry.page_size
    cap = geometry.logical_bytes
    block = geometry.page_size * geometry.pages_per_block
    ios: list[tuple[str, int, int]] = []

    def clamp(lba: int, size: int) -> tuple[int, int]:
        lba = max(0, min(lba, cap - SECTOR))
        size = max(SECTOR, min(size, cap - lba))
        return lba, size

    # sequential aligned writes then reads (multi-page runs)
    for i in range(12):
        ios.append(("w", *clamp((i * 2 * page) % cap, 2 * page)))
    for i in range(12):
        ios.append(("r", *clamp((i * 2 * page) % cap, 2 * page)))
    # random aligned whole-block and whole-page IOs
    for _ in range(16):
        lba = int(rng.integers(0, cap // page)) * page
        ios.append(("w", *clamp(lba, page)))
        ios.append(("r", *clamp(lba, page)))
    for _ in range(4):
        lba = int(rng.integers(0, max(1, cap // block))) * block
        ios.append(("w", *clamp(lba, block)))
    # misaligned sector-granular IOs (RMW edges on both sides)
    for _ in range(16):
        lba = int(rng.integers(0, cap // SECTOR)) * SECTOR
        size = int(rng.integers(1, 2 * page // SECTOR + 1)) * SECTOR
        mode = "w" if rng.integers(0, 2) else "r"
        ios.append((mode, *clamp(lba, size)))
    # sub-page writes inside a single page (no fully covered pages)
    for _ in range(8):
        lba = int(rng.integers(0, cap // page)) * page + SECTOR
        ios.append(("w", *clamp(lba, SECTOR)))
    # a long sequential sweep to push the page-map FTL into GC
    for i in range(3 * cap // block):
        ios.append(("w", *clamp((i * block) % cap, block)))
    # long sequential reads: spans past the controller's batch-read
    # threshold, so the array read path (not just writes) is exercised
    for i in range(4):
        ios.append(("r", *clamp(i * 4 * block, 4 * block)))
    return ios


def _run_mix(device, ios) -> list[tuple[int, ...]]:
    costs = []
    for mode, lba, size in ios:
        done = device.read(lba, size) if mode == "r" else device.write(lba, size)
        costs.append(tuple(getattr(done.cost, f) for f in _COST_FIELDS))
    return costs


def _assert_equivalent(scalar, batch, ios) -> None:
    scalar_costs = _run_mix(scalar, ios)
    batch_costs = _run_mix(batch, ios)
    for i, (s, b) in enumerate(zip(scalar_costs, batch_costs)):
        assert s == b, (
            f"cost divergence at IO {i} ({ios[i]}): scalar={s} batch={b}"
        )
    assert scalar.fingerprint() == batch.fingerprint()
    assert scalar.metrics() == batch.metrics()
    batch.check_invariants()


@pytest.mark.parametrize("profile", profile_names())
def test_profiles_scalar_batch_identical(profile):
    """Every built-in profile: same fingerprint, costs and metrics."""
    scalar = build_device(profile, logical_bytes=4 * MIB)
    batch = build_device(profile, logical_bytes=4 * MIB)
    _force_scalar(scalar)
    _assert_equivalent(scalar, batch, _io_mix(scalar.geometry))


@pytest.mark.parametrize("ftl_kind", ["pagemap", "hybrid", "blockmap", "fast"])
def test_small_devices_scalar_batch_identical(ftl_kind):
    """Small bespoke devices exercise GC/merge edges within few IOs."""
    scalar = make_device(ftl_kind=ftl_kind)
    batch = make_device(ftl_kind=ftl_kind)
    _force_scalar(scalar)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=11))


@pytest.mark.parametrize("ftl_kind", ["pagemap", "hybrid"])
def test_cache_enabled_scalar_batch_identical(ftl_kind):
    """Cache run writes/reads match the per-page cache loop."""
    scalar = make_device(ftl_kind=ftl_kind, cache_bytes=64 * KIB)
    batch = make_device(ftl_kind=ftl_kind, cache_bytes=64 * KIB)
    _force_scalar(scalar)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=13))


@pytest.mark.parametrize("ftl_kind", ["pagemap", "blockmap", "hybrid"])
def test_mapping_unit_scalar_batch_identical(ftl_kind):
    """Mapping-unit expansion creates RMW padding on both edges."""
    unit = 2 * SMALL_GEOMETRY.page_size
    scalar = make_device(ftl_kind=ftl_kind, mapping_unit=unit)
    batch = make_device(ftl_kind=ftl_kind, mapping_unit=unit)
    _force_scalar(scalar)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=17))


@pytest.mark.parametrize("profile", ["memoright", "samsung"])
def test_hybrid_default_capacity_scalar_batch_identical(profile):
    """Full-size hybrid devices: physical page numbers past int16.

    A sequential fill cycles the free-block FIFO once, so the random
    writes that follow open their logs in blocks past ``32767 / ppb``
    and the reads hit logged pages there.
    """
    scalar = build_device(profile)
    batch = build_device(profile)
    _force_scalar(scalar)
    geometry = scalar.geometry
    ppb = geometry.pages_per_block
    rng = np.random.default_rng(3)
    ios = [("w", lba, 4 * MIB) for lba in range(0, geometry.logical_bytes, 4 * MIB)]
    for _ in range(150):
        lba = int(rng.integers(0, geometry.logical_bytes // (32 * KIB))) * 32 * KIB
        ios.append(("w", lba, 32 * KIB))
        ios.append(("r", lba, 32 * KIB))
        ios.append(("r", max(0, lba - 16 * KIB), 64 * KIB))
    _assert_equivalent(scalar, batch, ios)
    ftl = batch.ftl
    logs = [*ftl._open_seq.values(), *ftl._open_rnd.values(), *ftl._pending]
    assert max(log.pblock for log in logs) * ppb > np.iinfo(np.int16).max


def test_scalar_mode_never_takes_run_paths(monkeypatch):
    """``batch_enabled = False`` keeps every IO on the per-page path."""
    device = build_device("samsung", logical_bytes=4 * MIB)
    _force_scalar(device)

    def forbidden(*args, **kwargs):
        raise AssertionError("a run path ran with batch_enabled off")

    for owner, name in (
        (device.chip, "read_run"),
        (device.chip, "program_run"),
        (device.controller.cache, "read_run"),
        (device.controller.cache, "write_run"),
    ):
        monkeypatch.setattr(owner, name, forbidden)
    _run_mix(device, _io_mix(device.geometry))


def test_background_gc_scalar_batch_identical():
    """Background reclamation interleaves with the batch write path."""
    scalar = make_device(ftl_kind="pagemap", bg=True)
    batch = make_device(ftl_kind="pagemap", bg=True)
    _force_scalar(scalar)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=19))


def test_snapshot_restore_preserves_batch_state():
    """Restoring a snapshot rebuilds derived batch state (GC buckets)."""
    device = make_device(ftl_kind="pagemap")
    ios = _io_mix(SMALL_GEOMETRY, seed=23)
    half = len(ios) // 2
    _run_mix(device, ios[:half])
    snap = device.snapshot()
    fp_mid = device.fingerprint()
    _run_mix(device, ios[half:])
    fp_end = device.fingerprint()
    device.restore(snap)
    assert device.fingerprint() == fp_mid
    _run_mix(device, ios[half:])
    assert device.fingerprint() == fp_end
    device.check_invariants()
