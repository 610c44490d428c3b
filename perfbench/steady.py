"""Host time at a steady reference speed.

The sandbox's speed drifts by up to 2x over periods of seconds to
minutes (other tenants share the machine), which no amount of
repetition inside a 36-second run averages out.  :class:`SteadyClock`
therefore times every measured segment together with a fixed reference
loop run right before and right after it, and scales the segment by how
much slower than nominal the loop ran around it.  Times come out in
seconds *at reference speed*: what the segment would have taken had the
reference loop taken :data:`PROBE_NOMINAL_S`.

The loop mixes the simulator's three kinds of work, because neighbours
slow memory-bound code more than arithmetic: integer arithmetic, random
lookups in a dict larger than the CPU caches, and small numpy writes
spread over many objects.  It is part of the benchmark, not of the
program, so a program change cannot move it.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: the nominal time of one probe: the unit normalized times are given in
PROBE_NOMINAL_S = 0.004
#: samples per probe; the fastest one counts, so one interrupt cannot skew it
PROBE_SAMPLES = 2


class _Block:
    """A stand-in for an FTL block: a page array and a write pointer."""

    __slots__ = ("pages", "used")

    def __init__(self) -> None:
        self.pages = np.zeros(64, dtype=np.int64)
        self.used = 0

    def program(self, value: int) -> None:
        self.pages[self.used & 63] = value
        self.used += 1


class ReferenceLoop:
    """The fixed reference work; its data is built once, seeded."""

    def __init__(self) -> None:
        rng = random.Random(1)
        keys = list(range(1 << 17))
        rng.shuffle(keys)
        self._table = {key: key ^ 0x5A5A for key in keys}
        self._order = keys[:12_000]
        self._blocks = [_Block() for _ in range(1 << 13)]

    def run(self) -> int:
        total = 0
        for i in range(12_000):
            total += i * i
        table = self._table
        for key in self._order:
            total += table[key]
        blocks = self._blocks
        for i in range(3_000):
            blocks[(i * 7919) & 8191].program(i)
        return total

    def probe(self) -> float:
        """Seconds one run takes right now (fastest of a few)."""
        best = float("inf")
        for _ in range(PROBE_SAMPLES):
            start = time.perf_counter()
            self.run()
            best = min(best, time.perf_counter() - start)
        return best


@dataclass
class Segment:
    """One timed block: raw seconds, and the factor to reference speed."""

    raw_s: float = 0.0
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """The block's duration at reference speed."""
        return self.raw_s * self.scale


class SteadyClock:
    """Times blocks of work in seconds at reference speed."""

    def __init__(self) -> None:
        self._loop = ReferenceLoop()
        self._last = self._loop.probe()
        #: totals over every segment so far, at reference speed and raw
        self.seconds = 0.0
        self.raw_s = 0.0

    @contextmanager
    def segment(self):
        """Time the block; the yielded :class:`Segment` is filled on exit."""
        segment = Segment()
        start = time.perf_counter()
        try:
            yield segment
        finally:
            segment.raw_s = time.perf_counter() - start
            after = self._loop.probe()
            segment.scale = PROBE_NOMINAL_S / ((self._last + after) / 2)
            self._last = after
            self.seconds += segment.seconds
            self.raw_s += segment.raw_s
