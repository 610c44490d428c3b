"""Dependency-free SVG figures.

The ASCII plots serve the terminal; this module writes the same traces
and series as standalone ``.svg`` files — the publishable form of the
paper's figures — with nothing beyond the standard library.

Supported forms mirror :mod:`~repro.analysis.visualize`:

* :func:`svg_trace` — response time vs IO number (Figures 3-5), with
  optional log-scale y;
* :func:`svg_series` — one line per series over shared axes
  (Figures 6-8), optional log x/y.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from repro.errors import AnalysisError

#: a small qualitative palette (colour-blind safe-ish)
_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 56


def _scale_factory(lo: float, hi: float, out_lo: float, out_hi: float, log: bool):
    if log and lo <= 0:
        raise AnalysisError("log-scale axes require positive values")
    if log:
        lo_t, hi_t = math.log10(lo), math.log10(hi)
    else:
        lo_t, hi_t = lo, hi
    span = (hi_t - lo_t) or 1.0

    def scale(value: float) -> float:
        value_t = math.log10(value) if log else value
        return out_lo + (value_t - lo_t) / span * (out_hi - out_lo)

    return scale


def _axis_ticks(lo: float, hi: float, log: bool, count: int = 5) -> list[float]:
    if log:
        lo_exp = math.floor(math.log10(lo))
        hi_exp = math.ceil(math.log10(hi))
        return [10.0 ** exponent for exponent in range(lo_exp, hi_exp + 1)]
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + index * step for index in range(count)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.0e}"
    if abs(value) >= 10:
        return f"{value:.0f}"
    return f"{value:.2f}"


def _document(body: list[str], title: str) -> str:
    header = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    return "\n".join(header + body + ["</svg>"])


def _frame_and_axes(
    x_lo: float, x_hi: float, y_lo: float, y_hi: float,
    log_x: bool, log_y: bool, x_label: str, y_label: str,
) -> tuple[list[str], object, object]:
    sx = _scale_factory(x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN, log_x)
    sy = _scale_factory(y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN, log_y)
    body = [
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#999"/>'
    ]
    for tick in _axis_ticks(x_lo, x_hi, log_x):
        if not x_lo <= tick <= x_hi:
            continue
        x = sx(tick)
        body.append(
            f'<line x1="{x:.1f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.1f}" '
            f'y2="{_HEIGHT - _MARGIN + 5}" stroke="#666"/>'
        )
        body.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN + 18}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="10">{_fmt(tick)}</text>'
        )
    for tick in _axis_ticks(y_lo, y_hi, log_y):
        if not y_lo <= tick <= y_hi:
            continue
        y = sy(tick)
        body.append(
            f'<line x1="{_MARGIN - 5}" y1="{y:.1f}" x2="{_MARGIN}" '
            f'y2="{y:.1f}" stroke="#666"/>'
        )
        body.append(
            f'<text x="{_MARGIN - 8}" y="{y + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(tick)}</text>'
        )
    body.append(
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    body.append(
        f'<text x="14" y="{_HEIGHT / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_HEIGHT / 2})">{y_label}</text>'
    )
    return body, sx, sy


def svg_trace(
    response_usec: Sequence[float],
    title: str = "response time per IO",
    log_y: bool = True,
    path: str | Path | None = None,
) -> str:
    """Render a per-IO response-time trace; optionally write it."""
    if len(response_usec) == 0:
        raise AnalysisError("cannot plot an empty trace")
    values_ms = [value / 1000.0 for value in response_usec]
    y_lo, y_hi = min(values_ms), max(values_ms)
    if log_y and y_lo <= 0:
        log_y = False
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    body, sx, sy = _frame_and_axes(
        0, len(values_ms) - 1 or 1, y_lo, y_hi, False, log_y,
        "IO number", "response time (ms)",
    )
    for index, value in enumerate(values_ms):
        body.append(
            f'<circle cx="{sx(index):.1f}" cy="{sy(value):.1f}" r="1.6" '
            f'fill="{_COLORS[0]}"/>'
        )
    text = _document(body, title)
    if path is not None:
        Path(path).write_text(text)
    return text


def svg_series(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "ms",
    log_x: bool = False,
    log_y: bool = False,
    path: str | Path | None = None,
) -> str:
    """Render named (x, y) series as polylines; optionally write it."""
    if not series or not any(len(xs) for xs, __ in series.values()):
        raise AnalysisError("no series to plot")
    all_x = [x for xs, __ in series.values() for x in xs]
    all_y = [y for __, ys in series.values() for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if log_x and x_lo <= 0:
        log_x = False
    if log_y and y_lo <= 0:
        log_y = False
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    body, sx, sy = _frame_and_axes(
        x_lo, x_hi, y_lo, y_hi, log_x, log_y, x_label, y_label
    )
    for index, (name, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[index % len(_COLORS)]
        points = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys)
        )
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for x, y in zip(xs, ys):
            body.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.4" '
                f'fill="{color}"/>'
            )
        legend_y = _MARGIN + 14 + index * 14
        body.append(
            f'<rect x="{_WIDTH - _MARGIN - 110}" y="{legend_y - 8}" '
            f'width="10" height="10" fill="{color}"/>'
        )
        body.append(
            f'<text x="{_WIDTH - _MARGIN - 95}" y="{legend_y + 1}" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
    text = _document(body, title)
    if path is not None:
        Path(path).write_text(text)
    return text
