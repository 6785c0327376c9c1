"""Figure 19: sensitivity to redundancy set size R (4-16)."""

import math

from _bench_utils import archive, show

from repro.analysis import figure19_redundancy_set_size


def test_fig19_redundancy_set_size(benchmark, baseline_params):
    figure = benchmark(figure19_redundancy_set_size, baseline_params)
    text = show(figure)

    for series in figure.series:
        # "all configurations appear to become less reliable as the
        # redundancy set size increases"
        assert all(b >= a for a, b in zip(series.values, series.values[1:]))
        # "about an order of magnitude difference between the extremes"
        orders = math.log10(series.values[-1] / series.values[0])
        assert 0.5 < orders < 3.5
    archive(text, "fig19_redundancy_set.txt")
