"""Parallel mixed patterns (Section 3.1's second parallel form:
"mixing, in parallel, different basic patterns").

The paper restricted its Parallelism micro-benchmark to replicated
baselines; the pattern algebra also defines heterogeneous parallel
composition, which this bench exercises: concurrent reader + writer
processes.  Expected shape (Hints 6/7 combined): the composition costs
about the serialised sum — concurrency buys nothing, but also breaks
nothing.
"""

import numpy as np

from repro.core import Engine, baselines, detect_phases, rest_device
from repro.core.patterns import ParallelMixSpec
from repro.core.report import format_table
from repro.units import KIB, SEC

from conftest import ready_device, report


def test_heterogeneous_parallel_composition(once):
    device = ready_device("mtron")
    half = (device.capacity // 2 // (32 * KIB)) * 32 * KIB
    specs = baselines(
        io_size=32 * KIB,
        io_count=512,
        random_target_size=half,
        sequential_target_size=half,
        seed=13,
    )

    def solo_span(spec):
        run = Engine(device).run(spec)
        span = run.trace[-1].completed_at - run.trace[0].submitted_at
        rest_device(device, 30 * SEC)
        return span

    combos = (
        ("SR", "SW"),
        ("SR", "RW"),
        ("RR", "SW"),
    )

    def run_all():
        rows = []
        for first, second in combos:
            a = specs[first]
            b = specs[second].with_(target_offset=half, seed=14)
            span_a = solo_span(a)
            span_b = solo_span(b)
            mix = Engine(device).run(ParallelMixSpec((a, b)))
            span_mix = max(
                run.trace[-1].completed_at for run in mix.runs
            ) - min(run.trace[0].submitted_at for run in mix.runs)
            rest_device(device, 60 * SEC)
            rows.append((f"{first} || {second}", span_a, span_b, span_mix))
        return rows

    rows = once(run_all)
    table = [
        (
            label,
            f"{(span_a + span_b) / SEC:.2f}",
            f"{span_mix / SEC:.2f}",
            f"x{span_mix / (span_a + span_b):.2f}",
        )
        for label, span_a, span_b, span_mix in rows
    ]
    text = format_table(
        ("composition", "serialised sum (s)", "parallel (s)", "ratio"),
        table,
    )
    text += (
        "\npaper (Hints 6/7): combining a limited number of patterns is"
        "\nacceptable; concurrency does not improve performance — both"
        "\nextend to heterogeneous parallel composition"
    )
    report("Parallel mixed patterns (Table 1's second parallel form)", text)

    for label, span_a, span_b, span_mix in rows:
        ratio = span_mix / (span_a + span_b)
        # no speedup (single queue) and no pathological blow-up either
        assert 0.85 <= ratio <= 1.6, (label, ratio)
