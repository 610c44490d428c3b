"""The flight recorder's exactness invariant, in every pipeline.

The decomposition's contract (``repro.flashsim.recorder``) is that the
integer components of every IO sum *exactly* to the rounded response
time — not approximately, not on average.  This suite pins that across
the same equivalence axes the performance suites use: all four FTL
families, calibrated profiles (with measurement noise), the write-back
cache, sync vs queued hosts at depth 1, columnar vs per-IO object
recording, the analytic kernels vs the per-IO reference, and scalar vs
batch kernels — plus the float-residual oracle, the column function
against the scalar ``attribute_io``, the apportionment edge cases,
trace round-trips and the recorder's pure-observability guarantee (a
device with a recorder attached must evolve bit-identically to one
without).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.core.generator import PatternGenerator
from repro.core.patterns import baselines
from repro.flashsim import analytic, build_device
from repro.flashsim.host import AsyncHost, ParallelHost, SyncHost
from repro.flashsim.recorder import (
    COMPONENTS,
    FlightRecorder,
    _apportion,
    _apportion_rows,
    attribute_io,
    attribute_rows,
    attribution_inputs,
    events_from_trace,
    summarize_components,
    unattributed_usec,
)
from repro.flashsim.timing import CostAccumulator, TimingSpec
from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest
from repro.units import KIB, MIB

from ..conftest import SMALL_GEOMETRY, make_device
from .test_batch_equivalence import _force_scalar, _io_mix

FTL_KINDS = ("pagemap", "hybrid", "blockmap", "fast")

#: the internal-work component each FTL family must exercise under the
#: reclamation-heavy conftest IO mix
EXPECTED_INTERNAL = {
    "pagemap": "gc",
    "hybrid": "merge",
    "blockmap": "merge",
    "fast": "merge",
}


def _drive(device, ios):
    for mode, lba, size in ios:
        if mode == "r":
            device.read(lba, size)
        else:
            device.write(lba, size)


def _assert_events_balanced(events):
    assert events, "recorder captured nothing"
    for event in events:
        assert sum(event.components) == round(event.response_usec), (
            f"unbalanced IO lba={event.lba}: {event.components} "
            f"vs {event.response_usec}"
        )


def _assert_trace_balanced(trace):
    assert trace.has_attribution
    balance = trace.attribution_balance()
    assert len(balance) == len(trace)
    assert not balance.any(), f"unbalanced rows: {np.nonzero(balance)[0]}"


# ----------------------------------------------------------------------
# apportionment and the float-residual oracle
# ----------------------------------------------------------------------

def test_apportion_sums_exactly():
    components = [12.4, 0.0, 7.9, 100.6, 0.2, 3.3, 0.0, 0.0, 0.0, 5.5, -1.9]
    target = round(sum(components))
    shares = _apportion(components, target)
    assert sum(shares) == target
    # integer components pass through; fractions round to a neighbour
    for share, value in zip(shares, components):
        assert abs(share - value) < 1.0


def test_apportion_handles_negative_components():
    # a noise delta below zero must floor like everything else
    components = [10.0] * 10 + [-3.7]
    target = round(sum(components))
    shares = _apportion(components, target)
    assert sum(shares) == target
    assert shares[-1] in (-4, -3)


def test_apportion_all_zero():
    assert _apportion([0.0] * len(COMPONENTS), 0) == (0,) * len(COMPONENTS)


def test_apportion_ties_are_deterministic():
    components = [1.5, 1.5, 1.5, 1.5]
    assert _apportion(components, 6) == _apportion(components, 6)
    assert sum(_apportion(components, 6)) == 6


def test_apportion_rows_matches_scalar_apportion():
    """The row-wise apportionment equals the scalar one, ties included."""
    rng = np.random.default_rng(5)
    rows = rng.uniform(-5.0, 400.0, size=(400, len(COMPONENTS)))
    rows[::4] = np.round(rows[::4] * 2.0) / 2.0  # exact .5 remainders: ties
    rows[1::4, 3:6] = 1.5
    rows[2::4, -1] = -rows[2::4, -1]  # a negative noise delta
    targets = np.rint(rows.sum(axis=1)) + rng.integers(-2, 3, size=len(rows))
    vectorised = _apportion_rows(rows, targets)
    for row, target, shares in zip(rows.tolist(), targets, vectorised):
        assert tuple(shares.tolist()) == _apportion(row, int(target))


def _random_cost(rng: np.random.Generator) -> CostAccumulator:
    """A cost with host work and a random (possibly nested) scope tree."""
    cost = CostAccumulator()
    cost.scopes = []
    cost.page_reads += int(rng.integers(0, 9))
    cost.page_programs += int(rng.integers(0, 9))
    cost.copy_reads += int(rng.integers(0, 3))  # unscoped copies: gc
    cost.bytes_transferred += int(rng.integers(0, 65)) * 512
    cost.map_misses += int(rng.integers(0, 2))
    cost.extra_usec += float(rng.choice([0.0, 0.75, 3.1]))
    tags = ("gc", "merge", "wear", "cache", "mystery")
    for _ in range(int(rng.integers(0, 3))):
        sub = cost.begin_scope()
        sub.copy_reads += int(rng.integers(0, 64))
        sub.copy_programs += int(rng.integers(0, 64))
        sub.block_erases += int(rng.integers(0, 3))
        if rng.random() < 0.5:
            nested = sub.begin_scope()
            nested.copy_programs += int(rng.integers(1, 32))
            nested.page_programs += int(rng.integers(0, 4))
            nested.extra_usec += 0.3
            sub.end_scope(str(rng.choice(tags)), nested)
        cost.end_scope(str(rng.choice(tags)), sub)
    return cost


def test_attribute_rows_matches_scalar_oracle():
    """Per-IO inputs through the column function give, row for row, the
    scalar ``attribute_io`` decomposition (interference, noise, waits,
    unscoped and unknown tags included)."""
    rng = np.random.default_rng(17)
    timing = TimingSpec(
        map_miss=12.0, copy_page_extra=5.0, channels=4, planes=2,
        copy_parallelism=2.0,
    )
    inputs, waits, responses, expected = [], [], [], []
    for i in range(300):
        cost = _random_cost(rng)
        base = cost.total(timing)
        scaled = base * (1.6 if i % 3 == 0 else 1.0)
        final = scaled * float(rng.choice([1.0, 0.93, 1.07]))
        wait = float(rng.choice([0.0, 12.5, 1.0 / 3.0]))
        # a response a few ulps off wait + final, as a completion chain gives
        response = (wait + 40.0) + final - 40.0
        channel = int(rng.integers(0, 4))
        inputs.append(
            attribution_inputs(timing, cost, channel, base, scaled, final)
        )
        waits.append(wait)
        responses.append(response)
        expected.append(
            attribute_io(
                timing, cost, wait=wait, service_base=base,
                service_scaled=scaled, service_final=final,
                response=response, channel=channel,
            )
        )
    matrix = attribute_rows(
        timing, np.array(inputs), np.array(waits), np.array(responses)
    )
    assert [tuple(row) for row in matrix.tolist()] == expected


def test_synthetic_decomposition_residual_is_float_noise():
    """The residual oracle: the component model covers every cost path."""
    timing = TimingSpec(map_miss=12.0, copy_page_extra=5.0)
    cost = CostAccumulator()
    cost.scopes = []
    cost.page_reads += 2
    cost.bytes_transferred += 8 * KIB
    cost.map_misses += 1
    cost.extra_usec += 7.25
    sub = cost.begin_scope()
    sub.copy_reads += 4
    sub.copy_programs += 4
    sub.block_erases += 1
    nested = sub.begin_scope()
    nested.copy_reads += 2
    nested.copy_programs += 2
    sub.end_scope("gc", nested)
    cost.end_scope("merge", sub)

    service_base = cost.total(timing)
    service_scaled = service_base * 1.15
    service_final = service_scaled * 0.97
    wait = 12.5
    response = wait + service_final
    residual = unattributed_usec(
        timing, cost, wait=wait, service_base=service_base,
        service_scaled=service_scaled, service_final=service_final,
        response=response,
    )
    assert abs(residual) < 1e-6

    attribution = attribute_io(
        timing, cost, wait=wait, service_base=service_base,
        service_scaled=service_scaled, service_final=service_final,
        response=response, channel=3,
    )
    assert attribution[0] == 3
    assert sum(attribution[1:]) == round(response)
    by_name = dict(zip(COMPONENTS, attribution[1:]))
    assert by_name["merge"] > 0 and by_name["gc"] > 0
    assert by_name["interference"] > 0 and by_name["noise"] < 0


# ----------------------------------------------------------------------
# the invariant across devices and pipelines
# ----------------------------------------------------------------------

@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_ftl_families_balance_exactly(ftl_kind):
    device = make_device(ftl_kind=ftl_kind)
    recorder = FlightRecorder(capacity=10_000)
    device.attach_recorder(recorder)
    _drive(device, _io_mix(SMALL_GEOMETRY, seed=11))
    _assert_events_balanced(recorder.events())
    totals = summarize_components(recorder.events())
    assert totals[EXPECTED_INTERNAL[ftl_kind]] > 0


def test_cache_device_attributes_destage_work():
    device = make_device(ftl_kind="hybrid", cache_bytes=64 * KIB)
    recorder = FlightRecorder(capacity=10_000)
    device.attach_recorder(recorder)
    _drive(device, _io_mix(SMALL_GEOMETRY, seed=13))
    _assert_events_balanced(recorder.events())
    totals = summarize_components(recorder.events())
    assert totals["cache"] > 0


@pytest.mark.parametrize("profile", ("memoright", "kingston_dti", "mtron"))
def test_profiles_balance_exactly(profile):
    """Calibrated profiles bring interference and noise into play."""
    device = build_device(profile, logical_bytes=4 * MIB)
    recorder = FlightRecorder(capacity=10_000)
    device.attach_recorder(recorder)
    _drive(device, _io_mix(device.geometry, seed=7))
    _assert_events_balanced(recorder.events())


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
@pytest.mark.parametrize("kind", ("SW", "RW"))
def test_sync_async_depth1_attribution_identical(ftl_kind, kind):
    spec = baselines(
        io_size=8 * KIB, io_count=64,
        random_target_size=1 * MIB, sequential_target_size=512 * KIB,
    )[kind]
    sync_device = make_device(ftl_kind=ftl_kind)
    async_device = make_device(ftl_kind=ftl_kind)
    sync_device.attach_recorder(FlightRecorder())
    async_device.attach_recorder(FlightRecorder())
    sync_trace = SyncHost(sync_device).run_program(
        PatternGenerator(spec).program()
    )
    async_trace = AsyncHost(async_device).run_program(
        PatternGenerator(spec).program(), queue_depth=1
    )
    _assert_trace_balanced(sync_trace)
    _assert_trace_balanced(async_trace)
    assert np.array_equal(
        sync_trace.attribution_matrix(), async_trace.attribution_matrix()
    )


#: per-profile RW spec of the columnar/legacy comparison; ideal_pagemap
#: writes enough to cross the free-pool watermark (GC-epoch windows)
_COLUMNAR_SPECS = {
    "memoright": dict(io_size=16 * KIB, io_count=64),
    "kingston_dti": dict(io_size=16 * KIB, io_count=64),
    "ideal_pagemap": dict(
        io_size=64 * KIB, io_count=512, random_target_size=4 * MIB
    ),
}


def _assert_kernels_served_with_recorder():
    """The recorder no longer declines the analytic kernels."""
    stats = analytic.STATS
    assert not [k for k in stats.declines if k.endswith(":recorder")]
    assert stats.write_ios + stats.read_ios + stats.queued_ios > 0


@pytest.mark.parametrize("profile", ("memoright", "kingston_dti", "ideal_pagemap"))
def test_columnar_legacy_attribution_identical(profile):
    """The engine's columnar recording and per-IO ``FlashDevice.submit``
    completions appended to a trace carry the same attribution — for
    the page-map and block-map devices that is the analytic kernels'
    attribution against the per-IO reference."""
    spec = baselines(**_COLUMNAR_SPECS[profile])["RW"]
    columnar_device, legacy_device = (
        build_device(profile, logical_bytes=4 * MIB) for _ in range(2)
    )
    columnar_device.attach_recorder(FlightRecorder())
    legacy_device.attach_recorder(FlightRecorder())
    analytic.STATS.reset()
    columnar = Engine(columnar_device).run(spec).trace
    if profile != "memoright":  # the hybrid FTL has no kernel
        _assert_kernels_served_with_recorder()
    if profile == "ideal_pagemap":
        assert analytic.STATS.epoch_collections > 0
    legacy = IOTrace()
    program = PatternGenerator(spec).program()
    clock = 0.0
    for index, (lba, gap) in enumerate(
        zip(program.lbas.tolist(), program.gaps.tolist())
    ):
        scheduled = clock + gap if index else clock
        request = IORequest(index, lba, spec.io_size, spec.mode, scheduled)
        completed = legacy_device.submit(request, scheduled)
        legacy.append(completed)
        clock = completed.completed_at
    _assert_trace_balanced(columnar)
    _assert_trace_balanced(legacy)
    assert np.array_equal(columnar.attribution_matrix(), legacy.attribution_matrix())
    # the rings: kernel-window row references vs one event per submit
    assert columnar_device.recorder.events() == legacy_device.recorder.events()


def test_parallel_host_ring_in_dispatch_order():
    """Interleaved processes feed the ring in dispatch order, one event
    per IO, each equal to its trace row's decomposition."""
    device = make_device(ftl_kind="pagemap")
    recorder = FlightRecorder(capacity=10_000)
    device.attach_recorder(recorder)
    programs = [
        PatternGenerator(
            baselines(
                io_size=8 * KIB, io_count=32,
                random_target_size=1 * MIB, sequential_target_size=512 * KIB,
            )[kind]
        ).program()
        for kind in ("SW", "RW", "SR")
    ]
    traces = ParallelHost(device).run_programs(programs)
    events = recorder.events()
    rows = [e for trace in traces for e in events_from_trace(trace)]
    assert len(events) == len(rows) == sum(len(p) for p in programs)
    assert sorted(events, key=lambda e: e.started_at) == events
    assert sorted(rows, key=lambda e: e.started_at) == events
    # the processes really interleave
    assert [e.write for e in events[:3]] != [e.write for e in rows[:3]]


def test_queued_read_kernel_attribution_matches_reference(monkeypatch):
    """A depth-4 zero-gap read program through the queued kernel carries
    the attribution of the per-IO async reference loop."""
    spec = baselines(
        io_size=16 * KIB, io_count=256, random_target_size=4 * MIB
    )["RR"]

    def run():
        device = build_device("ideal_pagemap", logical_bytes=4 * MIB)
        SyncHost(device).run_program(
            PatternGenerator(
                baselines(io_size=64 * KIB, io_count=64)["SW"]
            ).program()
        )
        recorder = FlightRecorder(capacity=10_000)
        device.attach_recorder(recorder)
        trace = AsyncHost(device).run_program(
            PatternGenerator(spec).program(), queue_depth=4,
            start_at=device.busy_until,
        )
        return trace, recorder, device

    analytic.STATS.reset()
    fast, fast_ring, fast_device = run()
    assert analytic.STATS.queued_ios == len(fast)
    _assert_kernels_served_with_recorder()
    monkeypatch.setattr(analytic, "ENABLED", False)
    reference, reference_ring, reference_device = run()
    _assert_trace_balanced(fast)
    assert fast.to_csv() == reference.to_csv()
    assert np.array_equal(
        fast.attribution_matrix(), reference.attribution_matrix()
    )
    assert fast_ring.events() == reference_ring.events()
    assert fast_device.fingerprint() == reference_device.fingerprint()
    # queued reads overlap across channels
    assert len(set(fast.attribution_column("channel").tolist())) > 1


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_scalar_batch_attribution_identical(ftl_kind):
    scalar = make_device(ftl_kind=ftl_kind)
    batch = make_device(ftl_kind=ftl_kind)
    _force_scalar(scalar)
    scalar_rec = FlightRecorder(capacity=10_000)
    batch_rec = FlightRecorder(capacity=10_000)
    scalar.attach_recorder(scalar_rec)
    batch.attach_recorder(batch_rec)
    ios = _io_mix(SMALL_GEOMETRY, seed=11)
    _drive(scalar, ios)
    _drive(batch, ios)
    _assert_events_balanced(scalar_rec.events())
    _assert_events_balanced(batch_rec.events())
    assert [e.components for e in scalar_rec] == [
        e.components for e in batch_rec
    ]


def test_queued_contention_attributes_wait():
    """Channel contention adds wait; the invariant must absorb it.

    The queued hosts pace submissions so steady-state IOs rarely wait;
    filling the NCQ queue in one burst (more IOs than channels, all
    submitted at t=0) forces later IOs onto still-busy channels.
    """
    device = build_device("memoright", logical_bytes=4 * MIB)
    recorder = FlightRecorder()
    device.attach_recorder(recorder)
    size = 16 * KIB
    assert device.queue_depth > device.timing.channels
    for tag in range(device.queue_depth):
        device.submit_async(tag * size, size, False, now=0.0, tag=tag)
    for _ in range(device.queue_depth):
        device.pop_next_completion()
    events = recorder.events()
    _assert_events_balanced(events)
    assert sum(event.component("wait") for event in events) > 0


# ----------------------------------------------------------------------
# pure observability: the recorder must not perturb the simulation
# ----------------------------------------------------------------------

def test_recorder_does_not_perturb_the_device():
    plain = make_device(ftl_kind="hybrid")
    observed = make_device(ftl_kind="hybrid")
    observed.attach_recorder(FlightRecorder())
    ios = _io_mix(SMALL_GEOMETRY, seed=19)
    _drive(plain, ios)
    _drive(observed, ios)
    assert plain.fingerprint() == observed.fingerprint()
    assert plain.metrics() == observed.metrics()
    assert plain.stats == observed.stats


def test_recorder_excluded_from_snapshots():
    device = make_device(ftl_kind="pagemap")
    device.attach_recorder(FlightRecorder())
    ios = _io_mix(SMALL_GEOMETRY, seed=23)
    half = len(ios) // 2
    _drive(device, ios[:half])
    snapshot = device.snapshot()
    fresh = make_device(ftl_kind="pagemap")
    fresh.restore(snapshot)
    assert fresh.recorder is None
    assert fresh.fingerprint() == device.fingerprint()


def test_detach_stops_recording():
    device = make_device()
    recorder = FlightRecorder()
    device.attach_recorder(recorder)
    device.write(0, 4 * KIB)
    seen = len(recorder)
    device.detach_recorder()
    assert device.recorder is None
    device.write(0, 4 * KIB)
    assert len(recorder) == seen


# ----------------------------------------------------------------------
# the ring buffer
# ----------------------------------------------------------------------

def test_ring_bounds_and_dropped_count():
    device = make_device()
    recorder = FlightRecorder(capacity=8)
    device.attach_recorder(recorder)
    page = SMALL_GEOMETRY.page_size
    for i in range(20):
        device.write((i * page) % SMALL_GEOMETRY.logical_bytes, page)
    assert len(recorder) == 8
    assert recorder.recorded == 20
    assert recorder.dropped == 12
    # the ring keeps the newest events
    assert recorder.events()[-1].completed_at == max(
        e.completed_at for e in recorder
    )
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.recorded == 20


def test_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# trace carriage: columns, payload, pickle, CSV stability
# ----------------------------------------------------------------------

def _traced_pair(spec):
    """The same spec with and without a recorder; returns both traces."""
    plain = make_device(ftl_kind="hybrid")
    observed = make_device(ftl_kind="hybrid")
    observed.attach_recorder(FlightRecorder(capacity=10_000))
    plain_trace = SyncHost(plain).run_program(PatternGenerator(spec).program())
    observed_trace = SyncHost(observed).run_program(
        PatternGenerator(spec).program()
    )
    return plain_trace, observed_trace, observed


def _small_spec():
    return baselines(
        io_size=8 * KIB, io_count=48,
        random_target_size=1 * MIB, sequential_target_size=512 * KIB,
    )["RW"]


def test_recorder_off_trace_has_no_attribution():
    plain_trace, observed_trace, _ = _traced_pair(_small_spec())
    assert not plain_trace.has_attribution
    assert "attribution" not in plain_trace.to_payload()
    assert observed_trace.has_attribution
    # attribution must not leak into the CSV format
    assert plain_trace.to_csv() == observed_trace.to_csv()


def test_trace_payload_round_trips_attribution():
    _, trace, _ = _traced_pair(_small_spec())
    payload = trace.to_payload()
    assert "attribution" in payload
    rebuilt = IOTrace.from_payload(payload)
    assert rebuilt.has_attribution
    assert np.array_equal(
        rebuilt.attribution_matrix(), trace.attribution_matrix()
    )
    _assert_trace_balanced(rebuilt)


def test_trace_pickle_round_trips_attribution():
    _, trace, _ = _traced_pair(_small_spec())
    rebuilt = pickle.loads(pickle.dumps(trace))
    assert rebuilt.has_attribution
    assert np.array_equal(
        rebuilt.attribution_matrix(), trace.attribution_matrix()
    )


def test_events_from_trace_matches_ring():
    _, trace, device = _traced_pair(_small_spec())
    rebuilt = events_from_trace(trace)
    ring = device.recorder.events()
    assert len(rebuilt) == len(trace)
    # the ring holds the same decompositions the trace carries
    assert [e.components for e in rebuilt] == [e.components for e in ring]
    assert [e.channel for e in rebuilt] == [e.channel for e in ring]


def test_events_from_trace_rejects_unattributed():
    plain_trace, _, _ = _traced_pair(_small_spec())
    with pytest.raises(ValueError):
        events_from_trace(plain_trace)
