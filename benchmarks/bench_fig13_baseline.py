"""Figure 13: baseline comparison of the nine redundancy configurations.

Regenerates the bar chart as a table (events/PB-year per configuration at
the Section 6 baseline) and asserts the paper's three observations.
"""

from _bench_utils import archive, show

from repro.analysis import baseline_figure, run_baseline
from repro.models import PAPER_TARGET_EVENTS_PER_PB_YEAR


def test_fig13_baseline(benchmark, baseline_params):
    report = benchmark(run_baseline, baseline_params)
    figure = baseline_figure(report)
    text = show(figure)

    # Observation 1: NFT 1 misses the target everywhere.
    assert report.ft1_all_miss_target()
    # Observation 2: internal RAID 5 ~ RAID 6 at FT >= 2.
    assert report.raid5_raid6_gap_orders(2) < 0.5
    assert report.raid5_raid6_gap_orders(3) < 0.5
    # Observation 3: [FT3, internal RAID] overshoots by ~5 orders.
    assert 4.0 < report.ft3_internal_raid_margin_orders() < 8.0
    # The survivors include the Section 7 sensitivity trio's strong members.
    keys = {c.key for c in report.survivors()}
    assert {"ft2_raid5", "ft3_noraid"} <= keys
    # FT2 no-RAID is marginal (within 3x of the line either way).
    rate = report.result_for("ft2_noraid").events_per_pb_year
    assert PAPER_TARGET_EVENTS_PER_PB_YEAR / 3 < rate < 3 * PAPER_TARGET_EVENTS_PER_PB_YEAR
    archive(text, "fig13_baseline.txt")
