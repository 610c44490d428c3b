"""Inter-run interference and pause determination (Section 4.3, Fig 5).

Consecutive runs must not interfere: a device with asynchronous page
reclamation keeps working after a batch of random writes, slowing
subsequent unrelated IOs.  The paper's probe: sequential reads, then a
batch of random writes, then sequential reads again — count how many of
the second batch of reads are affected, take that as a lower bound on
the inter-run pause, and then *significantly overestimate* it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Engine
from repro.core.patterns import LocationKind, PatternSpec
from repro.flashsim.device import FlashDevice
from repro.iotypes import Mode
from repro.units import KIB, SEC


@dataclass(frozen=True)
class PauseDetermination:
    """Result of the SR / RW / SR interference probe."""

    affected_reads: int
    lingering_usec: float
    baseline_read_usec: float
    recommended_pause_usec: float
    #: response times (µs) of the three probe phases, in submission order
    reads_before: np.ndarray
    writes: np.ndarray
    reads_after: np.ndarray

    @property
    def interferes(self) -> bool:
        """Whether any lingering effect was observed at all."""
        return self.affected_reads > 0

    def summary(self) -> str:
        """One-line description of the probe outcome."""
        return (
            f"{self.affected_reads} reads affected, lingering "
            f"{self.lingering_usec / SEC:.2f}s -> recommended pause "
            f"{self.recommended_pause_usec / SEC:.1f}s"
        )


def determine_pause(
    device: FlashDevice,
    io_size: int = 32 * KIB,
    reads_before: int = 512,
    write_count: int = 512,
    reads_after: int = 4096,
    slow_factor: float = 1.15,
    min_pause_usec: float = 1.0 * SEC,
    overestimate: float = 2.0,
    seed: int = 11,
) -> PauseDetermination:
    """Run the Figure 5 probe and derive the inter-run pause.

    ``slow_factor`` defines "affected": a read slower than that multiple
    of the first batch's mean.  The recommendation is ``overestimate``
    times the observed lingering duration, floored at
    ``min_pause_usec`` (the paper uses 1 s for unaffected devices and
    5 s for the Mtron's observed 2.5 s).
    """
    capacity = device.capacity
    read_area = (capacity // io_size) * io_size
    common = dict(io_size=io_size, target_size=read_area, seed=seed)
    sr_before = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.SEQUENTIAL,
        io_count=reads_before,
        **common,
    )
    rw_batch = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_count=write_count,
        **common,
    )
    sr_after = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.SEQUENTIAL,
        io_count=reads_after,
        **common,
    )
    engine = Engine(device)
    before = engine.run(sr_before).trace.response_times()
    writes = engine.run(rw_batch).trace.response_times()
    after_run = engine.run(sr_after)
    after = after_run.trace.response_times()

    baseline = float(np.mean(before))
    affected_mask = np.asarray(after) > baseline * slow_factor
    affected_indexes = np.flatnonzero(affected_mask)
    if affected_indexes.size:
        last_affected = int(affected_indexes[-1])
        affected = last_affected + 1
        lingering = (
            after_run.trace[last_affected].completed_at
            - after_run.trace[0].submitted_at
        )
    else:
        affected = 0
        lingering = 0.0
    recommended = max(min_pause_usec, lingering * overestimate)
    return PauseDetermination(
        affected_reads=affected,
        lingering_usec=lingering,
        baseline_read_usec=baseline,
        recommended_pause_usec=recommended,
        reads_before=before,
        writes=writes,
        reads_after=after,
    )
