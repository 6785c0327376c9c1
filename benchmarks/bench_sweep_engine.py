"""Sweep-engine benchmark: the figure 14-20 sweep, serial vs engine.

The acceptance bar for the engine is concrete: evaluating the full
sensitivity-figure sweep through the (in-process) ``SweepEngine`` must be
at least 2x faster than the pre-engine point-by-point path while producing
bitwise-identical MTTDL curves.  This benchmark measures both arms,
asserts the bar, and only then archives the wall times, with the host
they were taken on, in ``benchmarks/results/sweep_engine.txt``.
"""

import time

import pytest
from _bench_utils import archive, host_facts, show

from repro import SweepEngine
from repro.analysis import format_table
from repro.analysis.figures import all_figures

TRIALS = 5


def _best_of(fn, trials=TRIALS):
    """Best wall time over ``trials`` runs (suppresses scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(trials):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return best, result


def _assert_identical(serial_figs, engine_figs):
    for plain, fast in zip(serial_figs, engine_figs):
        assert plain.title == fast.title
        assert plain.x_values == fast.x_values
        for a, b in zip(plain.series, fast.series):
            assert a.label == b.label
            assert a.values == b.values, (plain.title, a.label)


def test_engine_speedup_report(baseline_params):
    params = baseline_params

    serial_time, serial_figs = _best_of(lambda: all_figures(params))
    engine_time, engine_figs = _best_of(
        lambda: all_figures(params, engine=SweepEngine(params))
    )
    _assert_identical(serial_figs, engine_figs)
    speedup = serial_time / engine_time

    provenance = SweepEngine(params)
    all_figures(params, engine=provenance)
    rows = [
        ["arm", f"wall time (best of {TRIALS})", "speedup"],
        ["serial point-by-point", f"{serial_time * 1e3:8.1f} ms", "1.00x"],
        ["SweepEngine", f"{engine_time * 1e3:8.1f} ms", f"{speedup:.2f}x"],
    ]
    text = show(
        "Figure 14-20 sensitivity sweep (168 points), serial vs sweep engine\n"
        + format_table(rows)
        + "\nengine counters: "
        + provenance.provenance().describe()
        + "\noutputs bitwise identical across both arms\n"
        + host_facts()
    )
    assert speedup >= 2.0, f"engine speedup {speedup:.2f}x < 2x"
    archive(text, "sweep_engine.txt")


@pytest.mark.parametrize("arm", ["serial", "engine"])
def test_all_figures_timing(benchmark, baseline_params, arm):
    if arm == "serial":
        benchmark(lambda: all_figures(baseline_params))
    else:
        benchmark(
            lambda: all_figures(
                baseline_params, engine=SweepEngine(baseline_params)
            )
        )
