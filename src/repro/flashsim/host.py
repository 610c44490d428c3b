"""Host-side IO submission model.

The paper submits IOs with **direct, synchronous** system calls so the
file system and disk scheduler cannot reorder or coalesce them
(Section 4.3).  The simulated equivalents:

* :class:`SyncHost` — one thread of control; each IO is submitted when
  the pattern's timing function says so and the host blocks until it
  completes.  ``os_overhead_usec`` models the system-call cost the
  paper cannot avoid even with direct IO.

* :class:`ParallelHost` — the Parallelism micro-benchmark's
  ``ParallelDegree`` concurrent processes, each running its own
  pattern.  An event loop always advances the process with the earliest
  next submission time; the device itself remains a single queue, so
  concurrent IOs serialise and each process observes queueing delay in
  its response times.  This is the machinery behind the paper's finding
  that parallel IO does not help flash devices (Hint 7).

* :class:`AsyncHost` — an extension beyond the paper: one process
  keeping the device's NCQ-style command queue full (up to a queue
  depth), so IOs overlap across the device's channels.  At queue depth
  1 it is bit-identical to :class:`SyncHost`; paced patterns preserve
  the feedback recurrence (the pause before IO *i* counts from IO
  *i-1*'s completion) by waiting for that completion before submitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.flashsim import analytic
from repro.flashsim.device import FlashDevice
from repro.flashsim.trace import IOTrace

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.generator import IOProgram


@dataclass
class SyncHost:
    """Synchronous, direct-IO submission from a single process."""

    device: FlashDevice
    os_overhead_usec: float = 0.0

    def run_program(
        self, program: "IOProgram", start_at: float = 0.0
    ) -> IOTrace:
        """Drive a precomputed :class:`~repro.core.generator.IOProgram`.

        The loop keeps only the irreducible feedback step (``t(IOi)``
        depends on ``rt(IOi-1)``, Table 1: the first IO submits at
        ``start_at``, IO *i* at the previous completion plus its gap)
        and records each IO straight into a columnar
        :class:`~repro.flashsim.trace.IOTrace` — no request/completion
        objects.

        Back-to-back (zero-gap, zero-overhead) programs on qualifying
        devices first try the closed-form run kernels
        (:mod:`repro.flashsim.analytic`), which simulate whole
        transition-free windows on columns and decay to this loop's
        per-IO path at every window boundary.  The kernels return
        ``False`` without touching any state when the program or device
        disqualifies, so the reference loop below always starts clean.
        """
        count = len(program)
        trace = IOTrace(capacity=count)
        if count and analytic.run_program_into(
            self.device, program, trace, start_at, self.os_overhead_usec
        ):
            trace.attribute()
            return trace
        lbas = program.lbas.tolist()
        sizes = program.sizes.tolist()
        writes = program.writes.tolist()
        gaps = program.gaps.tolist()
        submit_into = self.device.submit_into
        overhead = self.os_overhead_usec
        clock = start_at
        for i in range(count):
            scheduled = start_at if i == 0 else clock + gaps[i]
            submit_at = max(clock, scheduled)
            clock = submit_into(
                trace, i, lbas[i], sizes[i], writes[i],
                submit_at + overhead, scheduled,
            )
        trace.attribute()
        return trace


@dataclass
class AsyncHost:
    """Asynchronous submission: keep the device queue full.

    Runs an :class:`~repro.core.generator.IOProgram` with up to
    ``queue_depth`` IOs in flight (clamped to the device's own queue
    depth).  Consecutive IOs submit back-to-back without waiting;
    paced IOs (a positive inter-IO gap) wait for the *previous* IO's
    completion first, because the pattern's submit-time recurrence
    ``t(IOi) = t(IOi-1) + rt(IOi-1) + Pause`` (Table 1) is defined on
    response times — so Pause patterns stay effectively synchronous and
    Burst patterns overlap only within a burst.

    Completions may pop out of submission order; each is recorded at
    ``row = submission index``, so the trace is in submission order and
    byte-identical CSV regardless of the completion interleaving.
    """

    device: FlashDevice
    os_overhead_usec: float = 0.0
    queue_depth: int = 0  # 0 -> the program's (or the device's) depth

    def run_program(
        self,
        program: "IOProgram",
        start_at: float = 0.0,
        queue_depth: int | None = None,
    ) -> IOTrace:
        """Drive a precomputed program with queued submission."""
        requested = (
            queue_depth
            if queue_depth is not None
            else (self.queue_depth or getattr(program, "queue_depth", 1))
        )
        depth = max(1, min(int(requested), self.device.queue_depth))
        count = len(program)
        trace = IOTrace(capacity=count)
        if analytic.run_program_queued(
            self.device, program, trace, start_at, self.os_overhead_usec, depth
        ):
            trace.attribute()
            return trace
        lbas = program.lbas.tolist()
        sizes = program.sizes.tolist()
        writes = program.writes.tolist()
        gaps = program.gaps.tolist()
        completed: list[float | None] = [None] * count
        device = self.device
        overhead = self.os_overhead_usec
        clock = start_at
        i = 0
        in_flight = 0
        while i < count or in_flight:
            ready = i < count and in_flight < depth
            if ready and i > 0 and gaps[i] > 0.0 and completed[i - 1] is None:
                ready = False  # paced: the gap counts from rt(IOi-1)
            if ready:
                if i == 0:
                    scheduled = start_at
                elif gaps[i] > 0.0:
                    scheduled = completed[i - 1] + gaps[i]
                else:
                    scheduled = clock
                clock = max(clock, scheduled)
                device.submit_async(
                    lbas[i], sizes[i], writes[i],
                    clock + overhead, tag=i, scheduled_at=scheduled,
                    trace=trace,
                )
                in_flight += 1
                i += 1
            else:
                entry = device.pop_next_completion()
                trace.record_at(
                    entry.tag, entry.lba, entry.size, entry.write,
                    entry.scheduled_at, entry.submitted_at,
                    entry.started_at, entry.completed_at, entry.cost,
                )
                completed[entry.tag] = entry.completed_at
                if entry.completed_at > clock:
                    clock = entry.completed_at
                in_flight -= 1
        trace.attribute()
        return trace


class ParallelHost:
    """``ParallelDegree`` processes issuing synchronous IO concurrently.

    Each process blocks on its own outstanding IO; the device serialises
    service.  The loop picks, among ready processes, the one whose next
    IO has the earliest effective submission time; ties always go to the
    lowest process index (a deterministic total order, *not* round-robin
    — on a consecutive-timing pattern every process is ready the moment
    the device frees, and the fixed scan order is what makes runs
    reproducible).
    """

    def __init__(self, device: FlashDevice, os_overhead_usec: float = 0.0) -> None:
        self.device = device
        self.os_overhead_usec = os_overhead_usec

    def run_programs(
        self, programs: Sequence["IOProgram"], start_at: float = 0.0
    ) -> list[IOTrace]:
        """Drive precomputed programs concurrently, one per process.

        Each IO is recorded straight into that process's columnar
        trace; returns the traces in process order.
        """
        states = [_ProgramState(program, start_at) for program in programs]
        submit_into = self.device.submit_into
        overhead = self.os_overhead_usec
        while True:
            best: _ProgramState | None = None
            best_time = float("inf")
            for state in states:
                if state.position >= state.count:
                    continue
                ready_at = max(state.blocked_until, state.scheduled)
                if ready_at < best_time:
                    best_time = ready_at
                    best = state
            if best is None:
                for state in states:
                    state.trace.attribute()
                return [state.trace for state in states]
            position = best.position
            completion = submit_into(
                best.trace, position, best.lbas[position],
                best.sizes[position], best.writes[position],
                best_time + overhead, best.scheduled,
            )
            best.blocked_until = completion
            best.position = position + 1
            if best.position < best.count:
                best.scheduled = completion + best.gaps[best.position]


class _ProgramState:
    """Per-process cursor inside :meth:`ParallelHost.run_programs`."""

    __slots__ = (
        "lbas", "sizes", "writes", "gaps",
        "count", "position", "blocked_until", "scheduled", "trace",
    )

    def __init__(self, program: "IOProgram", start_at: float) -> None:
        self.lbas = program.lbas.tolist()
        self.sizes = program.sizes.tolist()
        self.writes = program.writes.tolist()
        self.gaps = program.gaps.tolist()
        self.count = len(program)
        self.position = 0
        self.blocked_until = start_at
        self.scheduled = start_at
        self.trace = IOTrace(capacity=self.count)

