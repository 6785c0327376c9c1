"""Figure 14: sensitivity to drive MTTF (100k-750k h) at node MTTF
low/high, for the three surviving configurations."""

from _bench_utils import archive, show

from repro.analysis import figure14_drive_mttf
from repro.models import PAPER_TARGET_EVENTS_PER_PB_YEAR

TARGET = PAPER_TARGET_EVENTS_PER_PB_YEAR


def test_fig14_drive_mttf(benchmark, baseline_params):
    figure = benchmark(figure14_drive_mttf, baseline_params)
    text = show(figure)

    # FT2 no-RAID misses the target across the range at low node MTTF...
    low = figure.series_by_label("FT 2, No Internal RAID (node MTTF low)")
    assert all(v > TARGET for v in low.values)
    # ...and is marginal at high node MTTF.
    high = figure.series_by_label("FT 2, No Internal RAID (node MTTF high)")
    assert min(high.values) < 2 * TARGET
    # FT2 + internal RAID 5 is nearly flat in drive MTTF at low node MTTF
    # (node failures dominate — the Section 8 explanation for RAID 6's
    # irrelevance).
    raid5_low = figure.series_by_label("FT 2, Internal RAID 5 (node MTTF low)")
    assert max(raid5_low.values) / min(raid5_low.values) < 2.0
    # The two strong configurations meet the target over the whole range.
    for label in (
        "FT 2, Internal RAID 5 (node MTTF low)",
        "FT 3, No Internal RAID (node MTTF low)",
    ):
        assert all(v < TARGET for v in figure.series_by_label(label).values)
    archive(text, "fig14_drive_mttf.txt")
