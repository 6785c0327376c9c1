"""Figure 18: sensitivity to node set size N (16-256)."""

from _bench_utils import archive, show

from repro.analysis import figure18_node_set_size


def test_fig18_node_set_size(benchmark, baseline_params):
    figure = benchmark(figure18_node_set_size, baseline_params)
    text = show(figure)

    spreads = {s.label: max(s.values) / min(s.values) for s in figure.series}
    # FT2 no-RAID shows some sensitivity; the other two stay within about
    # an order of magnitude over a 16x range of N (the cancellation between
    # a larger failure domain and a smaller critical fraction).
    assert spreads["FT 2, Internal RAID 5"] < 12
    assert spreads["FT 3, No Internal RAID"] < 12
    assert all(v < 30 for v in spreads.values())
    archive(text, "fig18_node_set.txt")
