"""The two-phase response-time model (Section 4.2, Figures 3 and 4).

Flash devices show a **start-up phase** — a prefix of uniformly cheap
IOs while deferred work (buffering, lazy garbage collection) absorbs
writes for free — followed by a **running phase** where response times
oscillate between two or more levels (cheap page writes vs. writes that
trigger reclamation and erases).

This module detects both phases from a response-time trace:

* the start-up boundary is the first IO whose response time crosses the
  log-scale midpoint between the cheap and the expensive levels;
* the oscillation period is the median gap between expensive IOs.

These drive the methodology's choice of ``IOIgnore`` (cover the
start-up) and ``IOCount`` (cover enough periods to converge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.engine import Engine
from repro.core.patterns import PatternSpec
from repro.errors import AnalysisError
from repro.flashsim.device import FlashDevice


@dataclass(frozen=True)
class PhaseAnalysis:
    """Result of analysing one trace with the two-phase model."""

    startup: int
    period: int | None
    threshold_usec: float
    cheap_level_usec: float
    expensive_level_usec: float
    expensive_fraction: float

    @property
    def has_startup(self) -> bool:
        """Whether a start-up phase was detected at all."""
        return self.startup > 0

    @property
    def oscillates(self) -> bool:
        """Whether a running-phase oscillation period was found."""
        return self.period is not None

    def summary(self) -> str:
        """One-line description of the detected phases."""
        period = f"{self.period}" if self.period is not None else "-"
        return (
            f"startup={self.startup} period={period} "
            f"cheap={self.cheap_level_usec / 1000:.2f}ms "
            f"expensive={self.expensive_level_usec / 1000:.2f}ms"
        )


def detect_phases(response_usec: Sequence[float], min_spread: float = 3.0) -> PhaseAnalysis:
    """Analyse a trace with the two-phase model.

    ``min_spread`` is the cheap-vs-expensive ratio below which the trace
    is considered un-phased (uniform response times: no start-up, no
    oscillation) — reads and sequential writes on most devices.
    """
    values = np.asarray(response_usec, dtype=float)
    if values.size < 16:
        raise AnalysisError("phase detection needs at least 16 measurements")
    if (values <= 0).any():
        raise AnalysisError("response times must be positive")
    cheap = float(np.percentile(values, 10))
    expensive = float(np.percentile(values, 95))
    if expensive / cheap < min_spread:
        # Long-period oscillations (Figure 4: one bookkeeping burst per
        # ~128 IOs) hide above the 95th percentile; fall back to the
        # peak level if several distinct spikes exist.
        peak = float(values.max())
        spikes = int((values > np.sqrt(cheap * peak)).sum()) if peak > 0 else 0
        if peak / cheap >= 2 * min_spread and spikes >= 3:
            expensive = peak
        else:
            return PhaseAnalysis(
                startup=0,
                period=None,
                threshold_usec=float(np.median(values)),
                cheap_level_usec=cheap,
                expensive_level_usec=expensive,
                expensive_fraction=0.0,
            )
    # log-scale midpoint between the two levels (the figures are drawn
    # in log scale for the same reason)
    threshold = float(np.sqrt(cheap * expensive))
    is_expensive = values > threshold
    expensive_indexes = np.flatnonzero(is_expensive)
    startup = int(expensive_indexes[0]) if expensive_indexes.size else 0
    # A trace that starts oscillating immediately has no start-up phase;
    # require the cheap prefix to be non-trivial.
    if startup < 8:
        startup = 0
    period: int | None = None
    running = expensive_indexes[expensive_indexes >= startup]
    if running.size >= 3:
        gaps = np.diff(running)
        period = max(1, int(np.median(gaps)))
    if period is not None and startup <= 1.5 * period:
        # a cheap prefix no longer than the oscillation's own cycle is
        # just the first period, not a start-up phase (Figure 4)
        startup = 0
    return PhaseAnalysis(
        startup=startup,
        period=period,
        threshold_usec=threshold,
        cheap_level_usec=cheap,
        expensive_level_usec=expensive,
        expensive_fraction=float(is_expensive.mean()),
    )


@dataclass(frozen=True)
class PhaseProfile:
    """Per-baseline phase analyses for one device, plus the derived
    upper bounds the methodology uses (Section 4.2)."""

    analyses: dict[str, PhaseAnalysis]

    @property
    def startup_bound(self) -> int:
        """Upper bound of the start-up phase across the baselines."""
        return max(analysis.startup for analysis in self.analyses.values())

    @property
    def period_bound(self) -> int | None:
        """Upper bound of the oscillation period across the baselines."""
        periods = [
            analysis.period
            for analysis in self.analyses.values()
            if analysis.period is not None
        ]
        return max(periods) if periods else None

    def startup_for(self, label: str) -> int:
        """Start-up length of one baseline (0 if not measured)."""
        return self.analyses[label].startup if label in self.analyses else 0


def measure_phases(
    device: FlashDevice,
    baseline_specs: dict[str, PatternSpec],
    io_count: int | None = None,
) -> PhaseProfile:
    """Run the four baselines with a large IOCount and analyse phases.

    ``io_count`` overrides each spec's length (the methodology runs
    "very large" counts here; callers pass something several times the
    expected start-up).
    """
    from repro.obs import tracing as obs_tracing

    analyses: dict[str, PhaseAnalysis] = {}
    for label, spec in baseline_specs.items():
        run_spec = spec if io_count is None else spec.with_(io_count=io_count)
        with obs_tracing.span("phase-baseline", cat="phases", label=label):
            run = Engine(device).run(run_spec)
            analyses[label] = detect_phases(run.trace.response_times())
    return PhaseProfile(analyses=analyses)
