"""Ablation (beyond the paper): fail-in-place re-stripe vs hot-spare rebuild.

Section 3 commits to sealed nodes whose arrays *re-stripe* onto surviving
drives after a failure.  The classic alternative keeps a hot spare per
node and rebuilds the failed drive onto it.  The two differ in repair
time: a re-stripe moves the whole array's data (read + write) through all
drives, while a spare rebuild is bottlenecked by the single spare drive's
write bandwidth.  This benchmark quantifies what the design choice costs
in system-level reliability at the baseline.
"""

import pytest
from _bench_utils import archive, show

from repro.analysis import format_table
from repro.models import (
    Parameters,
    RebuildModel,
    build_internal_raid_chain,
    events_per_pb_year,
    k2_factor,
)


def raid5_rates(params: Parameters, restripe_rate: float):
    """lambda_D / lambda_S from the paper's Section 4.2 formulas at an
    arbitrary repair rate."""
    d = params.drives_per_node
    lam = params.drive_failure_rate
    che = params.hard_error_per_drive_read
    lambda_d_arr = d * (d - 1) * lam**2 / restripe_rate
    lambda_s = d * (d - 1) * lam * che
    return lambda_d_arr, lambda_s


def spare_rebuild_rate(params: Parameters) -> float:
    """Hot-spare repair: the spare drive's write stream is the bottleneck
    (one drive at sustained x rebuild fraction, re-stripe command size)."""
    per_drive = (
        min(
            params.drive_max_iops * params.restripe_command_bytes,
            params.drive_sustained_bps,
        )
        * params.rebuild_bandwidth_fraction
    )
    seconds = params.drive_data_bytes / per_drive
    return 3600.0 / seconds


def system_mttdl(params: Parameters, repair_rate: float) -> float:
    lambda_d_arr, lambda_s = raid5_rates(params, repair_rate)
    chain = build_internal_raid_chain(
        2,
        params.node_set_size,
        params.node_failure_rate,
        lambda_d_arr,
        lambda_s,
        RebuildModel(params).node_rebuild_rate(2),
        k2_factor(params.node_set_size, params.redundancy_set_size),
    )
    return chain.mean_time_to_absorption()


def test_ablation_restripe_vs_spare(benchmark, baseline_params):
    restripe = RebuildModel(baseline_params).restripe_rate()
    spare = spare_rebuild_rate(baseline_params)

    mttdl_restripe = benchmark(system_mttdl, baseline_params, restripe)
    mttdl_spare = system_mttdl(baseline_params, spare)

    rows = [
        ["variant", "repair rate (1/h)", "MTTDL (h)", "events/PB-yr"],
        [
            "fail-in-place re-stripe",
            f"{restripe:.4g}",
            f"{mttdl_restripe:.4g}",
            f"{events_per_pb_year(mttdl_restripe, baseline_params):.3e}",
        ],
        [
            "hot-spare rebuild",
            f"{spare:.4g}",
            f"{mttdl_spare:.4g}",
            f"{events_per_pb_year(mttdl_spare, baseline_params):.3e}",
        ],
    ]
    text = show(
        "Ablation: internal-RAID repair strategy (FT 2, internal RAID 5)\n"
        + format_table(rows)
    )

    # A single spare drive rebuild moves ~d x less data than a re-stripe,
    # but through 1/d of the spindles: the rates end up comparable, and
    # system reliability is dominated by node failures either way —
    # quantitative support for the paper's fail-in-place choice.
    assert 0.2 < mttdl_restripe / mttdl_spare < 5.0
    archive(text, "ablation_restripe.txt")
