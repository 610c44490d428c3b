"""Trace replay: re-execute an archived IO trace against a device.

The paper publishes per-IO traces (tens of millions of data points) so
others can re-analyse them; replay closes the loop — a trace captured
on one (simulated) device can be driven against another, preserving
either the *arrival pattern* (submit at the recorded times, an open-loop
replay) or the *dependency pattern* (each IO after the previous
completes, a closed-loop replay like the original synchronous host).

This enables what-if runs the paper's Section 5.3 hints motivate:
"what would my workload cost on the Memoright instead of the DTI?"
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.generator import IOProgram
from repro.core.stats import RunStats, summarize
from repro.errors import AnalysisError
from repro.flashsim.device import FlashDevice
from repro.flashsim.host import SyncHost
from repro.flashsim.trace import IOTrace


class ReplayMode(enum.Enum):
    """How submit times are derived during replay."""

    #: submit at the recorded timestamps, shifted to start at zero — the
    #: workload's own think time is preserved (open loop)
    TIMED = "timed"
    #: each IO submits when the previous completes — the synchronous
    #: closed loop the paper's host used
    CLOSED_LOOP = "closed-loop"


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace."""

    mode: ReplayMode
    trace: IOTrace
    stats: RunStats
    original_span_usec: float
    replay_span_usec: float

    @property
    def speedup(self) -> float:
        """Original span / replay span (>1: the target device is faster)."""
        if self.replay_span_usec <= 0:
            return float("inf")
        return self.original_span_usec / self.replay_span_usec


def replay(
    device: FlashDevice,
    trace: IOTrace,
    mode: ReplayMode = ReplayMode.CLOSED_LOOP,
    io_ignore: int = 0,
) -> ReplayResult:
    """Replay ``trace`` against ``device``.

    A closed-loop replay is a zero-gap program run by
    :meth:`~repro.flashsim.host.SyncHost.run_program`; a timed replay
    submits each IO at its recorded offset from the first one (an
    open-loop arrival process the synchronous host cannot express).

    Every replayed extent must fit the target device; replaying a trace
    captured on a bigger device onto a smaller one raises (remap the
    LBAs first if that is what you want).
    """
    count = len(trace)
    if not count:
        raise AnalysisError("cannot replay an empty trace")
    lbas = trace.column("lba")
    sizes = trace.column("size")
    writes = trace.column("write")
    oversized = np.flatnonzero(lbas + sizes > device.capacity)
    if oversized.size:
        first = oversized[0]
        raise AnalysisError(
            f"trace extent [{lbas[first]}, +{sizes[first]}) exceeds the "
            f"target device's capacity {device.capacity}"
        )
    submitted = trace.column("submitted_at")
    start = device.busy_until
    if mode is ReplayMode.TIMED:
        out = IOTrace(capacity=count)
        offsets = (submitted - submitted[0]).tolist()
        for row, (lba, size, write, offset) in enumerate(
            zip(lbas.tolist(), sizes.tolist(), writes.tolist(), offsets)
        ):
            scheduled = start + offset
            device.submit_into(
                out, row, lba, size, write, max(scheduled, start), scheduled
            )
    else:
        program = IOProgram(
            lbas=lbas, sizes=sizes, writes=writes,
            gaps=np.zeros(count, dtype=np.float64),
        )
        out = SyncHost(device).run_program(program, start_at=start)
    return ReplayResult(
        mode=mode,
        trace=out,
        stats=summarize(out.response_times(), io_ignore),
        original_span_usec=float(trace.column("completed_at")[-1] - submitted[0]),
        replay_span_usec=float(
            out.column("completed_at")[-1] - out.column("submitted_at")[0]
        ),
    )


def replay_csv(
    device: FlashDevice,
    path: str | Path,
    mode: ReplayMode = ReplayMode.CLOSED_LOOP,
    io_ignore: int = 0,
) -> ReplayResult:
    """Replay a trace archived with :meth:`IOTrace.to_csv`."""
    return replay(device, IOTrace.load_csv(path), mode=mode, io_ignore=io_ignore)


def remap_rows(trace: IOTrace, target_capacity: int, align: int) -> IOTrace:
    """Fold a trace's LBAs into a smaller target capacity.

    Extents are wrapped modulo the largest ``align``-aligned prefix of
    the target space; sizes are preserved.  Useful for driving a trace
    captured on a large device against a scaled one — the pattern's
    *locality structure* changes, so treat results as approximate.
    """
    if target_capacity < align or align <= 0:
        raise AnalysisError("target capacity must hold at least one aligned unit")
    usable = (target_capacity // align) * align
    sizes = np.minimum(trace.column("size"), usable)
    lbas = trace.column("lba") % usable
    lbas = np.where(lbas + sizes > usable, usable - sizes, lbas)
    payload = trace.to_payload()
    payload["lba"] = lbas.tolist()
    payload["size"] = sizes.tolist()
    return IOTrace.from_payload(payload)
