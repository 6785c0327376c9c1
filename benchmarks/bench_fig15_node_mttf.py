"""Figure 15: sensitivity to node MTTF (100k-1M h) at drive MTTF low/high."""

from _bench_utils import archive, show

from repro.analysis import figure15_node_mttf
from repro.models import PAPER_TARGET_EVENTS_PER_PB_YEAR

TARGET = PAPER_TARGET_EVENTS_PER_PB_YEAR


def test_fig15_node_mttf(benchmark, baseline_params):
    figure = benchmark(figure15_node_mttf, baseline_params)
    text = show(figure)

    # FT2 + internal RAID 5 shows the most sensitivity to node MTTF.
    spreads = {
        s.label: max(s.values) / min(s.values) for s in figure.series
    }
    raid5 = max(v for k, v in spreads.items() if "RAID 5" in k)
    others = max(v for k, v in spreads.items() if "RAID 5" not in k)
    assert raid5 >= others
    # FT2 no-RAID misses the target for most of the range at low drive
    # MTTF, and still misses at the low-node-MTTF end even with good drives.
    low_drive = figure.series_by_label("FT 2, No Internal RAID (drive MTTF low)")
    assert sum(1 for v in low_drive.values if v > TARGET) >= len(low_drive.values) // 2
    high_drive = figure.series_by_label("FT 2, No Internal RAID (drive MTTF high)")
    assert high_drive.values[0] > TARGET
    # Reliability improves monotonically with node MTTF.
    for series in figure.series:
        assert all(a >= b for a, b in zip(series.values, series.values[1:]))
    archive(text, "fig15_node_mttf.txt")
