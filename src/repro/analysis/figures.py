"""Drivers for the paper's sensitivity figures (Figures 14-20).

Each ``figureNN`` function reproduces one figure of Section 7 as a
:class:`~repro.engine.SweepResult` (a :class:`~repro.analysis.report.FigureData`
subclass, so every renderer consumes it unchanged): the swept x-axis, one
series per (configuration x MTTF-regime) line, y-values in data-loss
events per PB-year.  The three configurations are the Section 6
survivors: [FT2, no internal RAID], [FT2, internal RAID 5],
[FT3, no internal RAID].

Every driver accepts an optional ``engine`` — a
:class:`~repro.engine.SweepEngine` through which all points are
evaluated (compiled specs re-bound per point, optionally disk-cached)
with bitwise identical results; ``repro-figures`` uses exactly this hook.

MTTF regimes follow the paper: drive MTTF low/high = 100,000 / 750,000
hours; node MTTF low/high = 100,000 / 1,000,000 hours.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..engine.result import EngineProvenance, SweepResult
from ..models.configurations import Configuration, sensitivity_configurations
from ..models.parameters import KB, Parameters
from .sensitivity import SweepPoint, sweep, sweep_to_figure

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.sweep import SweepEngine

__all__ = [
    "DRIVE_MTTF_LOW",
    "DRIVE_MTTF_HIGH",
    "NODE_MTTF_LOW",
    "NODE_MTTF_HIGH",
    "figure14_drive_mttf",
    "figure15_node_mttf",
    "figure16_rebuild_block_size",
    "figure17_link_speed",
    "figure18_node_set_size",
    "figure19_redundancy_set_size",
    "figure20_drives_per_node",
    "all_figures",
]

DRIVE_MTTF_LOW = 100_000.0
DRIVE_MTTF_HIGH = 750_000.0
NODE_MTTF_LOW = 100_000.0
NODE_MTTF_HIGH = 1_000_000.0


def _configs() -> List[Configuration]:
    return sensitivity_configurations()


def _provenance(
    engine: Optional["SweepEngine"], method: str
) -> Optional[EngineProvenance]:
    return engine.provenance(method) if engine is not None else None


def figure14_drive_mttf(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = (100_000, 200_000, 300_000, 450_000, 600_000, 750_000),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 14: sensitivity to drive MTTF.

    Series: each surviving configuration at node MTTF low (100k h) and
    high (1M h).
    """
    base = params or Parameters.baseline()
    points: List[SweepPoint] = []
    labels = {}
    for node_mttf, regime in ((NODE_MTTF_LOW, "node MTTF low"), (NODE_MTTF_HIGH, "node MTTF high")):
        regime_base = base.replace(node_mttf_hours=node_mttf)
        swept = sweep(
            _configs(),
            regime_base,
            x_values,
            lambda p, x: p.replace(drive_mttf_hours=float(x)),
            method,
            engine,
        )
        for p in swept:
            labels[id(p)] = f"{p.config.label} ({regime})"
        points.extend(swept)
    return sweep_to_figure(
        "Figure 14: Sensitivity to Drive MTTF",
        "drive MTTF (hours)",
        points,
        label_fn=lambda p: labels[id(p)],
        axis_name="drive_mttf_hours",
        provenance=_provenance(engine, method),
    )


def figure15_node_mttf(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = (
        100_000,
        200_000,
        400_000,
        600_000,
        800_000,
        1_000_000,
    ),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 15: sensitivity to node MTTF.

    Series: each surviving configuration at drive MTTF low (100k h) and
    high (750k h).
    """
    base = params or Parameters.baseline()
    points: List[SweepPoint] = []
    labels = {}
    for drive_mttf, regime in ((DRIVE_MTTF_LOW, "drive MTTF low"), (DRIVE_MTTF_HIGH, "drive MTTF high")):
        regime_base = base.replace(drive_mttf_hours=drive_mttf)
        swept = sweep(
            _configs(),
            regime_base,
            x_values,
            lambda p, x: p.replace(node_mttf_hours=float(x)),
            method,
            engine,
        )
        for p in swept:
            labels[id(p)] = f"{p.config.label} ({regime})"
        points.extend(swept)
    return sweep_to_figure(
        "Figure 15: Sensitivity to Node MTTF",
        "node MTTF (hours)",
        points,
        label_fn=lambda p: labels[id(p)],
        axis_name="node_mttf_hours",
        provenance=_provenance(engine, method),
    )


def figure16_rebuild_block_size(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = (16, 32, 64, 128, 256, 512),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 16: sensitivity to rebuild block size (KB).

    Series: each surviving configuration at the low-MTTF regime (drive
    and node MTTF at their low ends) and at the baseline MTTFs — the
    paper's "does not meet the target for low MTTF" observation needs the
    former, its ">= 64 KB" recommendation the latter.
    """
    base = params or Parameters.baseline()
    points: List[SweepPoint] = []
    labels = {}
    regimes = (
        (
            base.replace(
                drive_mttf_hours=DRIVE_MTTF_LOW, node_mttf_hours=NODE_MTTF_LOW
            ),
            "low MTTF",
        ),
        (base, "baseline MTTF"),
    )
    for regime_base, regime in regimes:
        swept = sweep(
            _configs(),
            regime_base,
            x_values,
            lambda p, x: p.replace(rebuild_command_bytes=float(x) * KB),
            method,
            engine,
        )
        for p in swept:
            labels[id(p)] = f"{p.config.label} ({regime})"
        points.extend(swept)
    return sweep_to_figure(
        "Figure 16: Sensitivity to Rebuild Block Size",
        "rebuild block size (KB)",
        points,
        label_fn=lambda p: labels[id(p)],
        axis_name="rebuild_command_bytes",
        provenance=_provenance(engine, method),
    )


def figure17_link_speed(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = (1.0, 5.0, 10.0),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 17: sensitivity to link speed (Gb/s) at the paper's three
    points; 5 and 10 Gb/s should coincide (disk-bound regime)."""
    base = params or Parameters.baseline()
    points = sweep(
        _configs(),
        base,
        x_values,
        lambda p, x: p.with_link_speed_gbps(float(x)),
        method,
        engine,
    )
    return sweep_to_figure(
        "Figure 17: Sensitivity to Link Speed",
        "link speed (Gb/s)",
        points,
        axis_name="link_speed_bits_per_hour",
        provenance=_provenance(engine, method),
    )


def figure18_node_set_size(
    params: Optional[Parameters] = None,
    x_values: Sequence[int] = (16, 32, 64, 128, 256),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 18: sensitivity to node set size N."""
    base = params or Parameters.baseline()
    points = sweep(
        _configs(),
        base,
        x_values,
        lambda p, x: p.replace(node_set_size=int(x)),
        method,
        engine,
    )
    return sweep_to_figure(
        "Figure 18: Sensitivity to Node Set Size",
        "node set size N",
        points,
        axis_name="node_set_size",
        provenance=_provenance(engine, method),
    )


def figure19_redundancy_set_size(
    params: Optional[Parameters] = None,
    x_values: Sequence[int] = (4, 6, 8, 10, 12, 16),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 19: sensitivity to redundancy set size R (about an order of
    magnitude between the extremes, per the paper)."""
    base = params or Parameters.baseline()
    points = sweep(
        _configs(),
        base,
        x_values,
        lambda p, x: p.replace(redundancy_set_size=int(x)),
        method,
        engine,
    )
    return sweep_to_figure(
        "Figure 19: Sensitivity to Redundancy Set Size",
        "redundancy set size R",
        points,
        axis_name="redundancy_set_size",
        provenance=_provenance(engine, method),
    )


def figure20_drives_per_node(
    params: Optional[Parameters] = None,
    x_values: Sequence[int] = (4, 8, 12, 16, 20, 24),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 20: sensitivity to drives per node d (nearly flat, thanks to
    the per-PB normalization's cancellation effect)."""
    base = params or Parameters.baseline()
    points = sweep(
        _configs(),
        base,
        x_values,
        lambda p, x: p.replace(drives_per_node=int(x)),
        method,
        engine,
    )
    return sweep_to_figure(
        "Figure 20: Sensitivity to Drives per Node",
        "drives per node d",
        points,
        axis_name="drives_per_node",
        provenance=_provenance(engine, method),
    )


def all_figures(
    params: Optional[Parameters] = None,
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> List[SweepResult]:
    """Every sensitivity figure, in paper order.

    With an ``engine``, the compiled specs and array-rates memo persist
    across all seven figures — the later figures only re-bind rates.
    """
    return [
        figure14_drive_mttf(params, method=method, engine=engine),
        figure15_node_mttf(params, method=method, engine=engine),
        figure16_rebuild_block_size(params, method=method, engine=engine),
        figure17_link_speed(params, method=method, engine=engine),
        figure18_node_set_size(params, method=method, engine=engine),
        figure19_redundancy_set_size(params, method=method, engine=engine),
        figure20_drives_per_node(params, method=method, engine=engine),
    ]
