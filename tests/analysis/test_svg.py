"""SVG figure backend."""

import numpy as np
import pytest

from repro.analysis.svg import svg_series, svg_trace
from repro.errors import AnalysisError


def test_trace_document_structure(tmp_path):
    path = tmp_path / "trace.svg"
    text = svg_trace([100.0, 5000.0, 300.0, 27_000.0], title="rt", path=path)
    assert text.startswith("<svg")
    assert text.endswith("</svg>")
    assert "rt" in text
    assert "response time (ms)" in text
    assert text.count("<circle") == 4
    assert path.read_text() == text


def test_trace_log_scale_fallback():
    # a zero value silently falls back to linear y
    text = svg_trace([0.0, 100.0, 200.0], log_y=True)
    assert "<svg" in text


def test_trace_constant_series():
    text = svg_trace([500.0] * 5)
    assert text.count("<circle") == 5


def test_trace_empty_rejected():
    with pytest.raises(AnalysisError):
        svg_trace([])
    with pytest.raises(AnalysisError):
        svg_trace(np.empty(0))


def test_trace_accepts_numpy_arrays():
    # IOTrace.response_times is an ndarray; its truth value is ambiguous
    values = np.array([100.0, 5000.0, 300.0])
    assert svg_trace(values) == svg_trace(values.tolist())
    series = {"RW": (np.arange(3), values)}
    assert svg_series(series).count("<polyline") == 1


def test_series_polylines_and_legend(tmp_path):
    path = tmp_path / "series.svg"
    text = svg_series(
        {
            "SR": ([1, 2, 4, 8], [0.1, 0.2, 0.4, 0.8]),
            "RW": ([1, 2, 4, 8], [5.0, 5.5, 6.0, 6.5]),
        },
        title="Granularity",
        x_label="IOSize",
        log_x=True,
        path=path,
    )
    assert text.count("<polyline") == 2
    assert "SR" in text and "RW" in text
    assert "Granularity" in text
    assert path.exists()


def test_series_empty_rejected():
    with pytest.raises(AnalysisError):
        svg_series({})
    with pytest.raises(AnalysisError):
        svg_series({"s": ([], [])})


def test_series_log_axes_require_positive():
    # negative values fall back to linear rather than raising
    text = svg_series({"s": ([-1, 1], [1.0, 2.0])}, log_x=True)
    assert "<polyline" in text


def test_series_distinct_colors():
    text = svg_series(
        {f"s{i}": ([1, 2], [float(i), float(i + 1)]) for i in range(3)}
    )
    # three distinct stroke colours
    strokes = {
        part.split('"')[0]
        for part in text.split('stroke="')[1:]
        if part.split('"')[0].startswith("#")
    }
    assert len(strokes) >= 3
