"""Figure 20: sensitivity to drives per node d (4-24)."""

from _bench_utils import archive, show

from repro.analysis import figure20_drives_per_node


def test_fig20_drives_per_node(benchmark, baseline_params):
    figure = benchmark(figure20_drives_per_node, baseline_params)
    text = show(figure)

    # "there is very little sensitivity to the number of drives per node"
    # — the per-PB normalization cancels per-node reliability against node
    # count.
    for series in figure.series:
        assert max(series.values) / min(series.values) < 3.0
    archive(text, "fig20_drives_per_node.txt")
