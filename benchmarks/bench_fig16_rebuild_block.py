"""Figure 16: sensitivity to rebuild block size (16-512 KB) — the paper's
most powerful controllable knob."""

from _bench_utils import archive, show

from repro.analysis import figure16_rebuild_block_size
from repro.models import PAPER_TARGET_EVENTS_PER_PB_YEAR

TARGET = PAPER_TARGET_EVENTS_PER_PB_YEAR


def test_fig16_rebuild_block_size(benchmark, baseline_params):
    figure = benchmark(figure16_rebuild_block_size, baseline_params)
    text = show(figure)

    # Significant leverage: >1 order for all, >2 orders where two rebuild
    # rates compound.
    for series in figure.series:
        assert series.values[0] / series.values[-1] > 20
    assert any(s.values[0] / s.values[-1] > 100 for s in figure.series)
    # The paper's recommendation: the two strong configurations meet the
    # target at 64 KB or larger (baseline MTTFs).
    idx64 = figure.x_values.index(64.0)
    for label in (
        "FT 2, Internal RAID 5 (baseline MTTF)",
        "FT 3, No Internal RAID (baseline MTTF)",
    ):
        assert all(v < TARGET for v in figure.series_by_label(label).values[idx64:])
    # FT2 no-RAID never meets the target at low MTTF, any block size.
    low = figure.series_by_label("FT 2, No Internal RAID (low MTTF)")
    assert all(v > TARGET for v in low.values)
    archive(text, "fig16_rebuild_block.txt")
