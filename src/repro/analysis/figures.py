"""Drivers for the paper's sensitivity figures (Figures 14-20).

Each figure of Section 7 is one row of :data:`FIGURES`: its title, the
swept parameter and values, and the MTTF regimes it plots.
:func:`sensitivity_figures` evaluates any set of rows as
:class:`~repro.engine.SweepResult` objects (a
:class:`~repro.analysis.report.FigureData` subclass, so every renderer
consumes them unchanged): the swept x-axis, one series per
(configuration x MTTF-regime) line, y-values in data-loss events per
PB-year.  The three configurations are the Section 6 survivors:
[FT2, no internal RAID], [FT2, internal RAID 5], [FT3, no internal RAID].

Every driver accepts an optional ``engine`` — a
:class:`~repro.engine.SweepEngine` that evaluates every point of every
requested figure in one batch, with results bitwise identical to the
default point-by-point ``config.reliability`` path; ``repro-figures``
uses exactly this hook.

MTTF regimes follow the paper: drive MTTF low/high = 100,000 / 750,000
hours; node MTTF low/high = 100,000 / 1,000,000 hours.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.result import SweepResult
from ..models.configurations import sensitivity_configurations
from ..models.parameters import KB, Parameters
from .sensitivity import SweepPoint, sweep_to_figure

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.sweep import SweepEngine

__all__ = [
    "DRIVE_MTTF_LOW",
    "DRIVE_MTTF_HIGH",
    "NODE_MTTF_LOW",
    "NODE_MTTF_HIGH",
    "FIGURES",
    "SensitivityFigure",
    "sensitivity_figures",
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


class SensitivityFigure(NamedTuple):
    """One sensitivity figure: a one-axis sweep over the survivors.

    ``transform`` maps (regime baseline, x) to a point's parameters.
    Each ``(name, overrides)`` regime applies its overrides to the
    baseline and labels its series ``"<configuration> (<name>)"``; no
    regimes means one, the baseline, with series named by configuration.
    """

    title: str
    x_label: str
    axis_name: str
    x_values: Tuple[Any, ...]
    transform: Callable[[Parameters, Any], Parameters]
    regimes: Tuple[Tuple[str, Mapping[str, float]], ...] = ()


_LOW_MTTFS = {"drive_mttf_hours": DRIVE_MTTF_LOW, "node_mttf_hours": NODE_MTTF_LOW}

#: Figures 14-20 by number, in paper order.
FIGURES: Dict[int, SensitivityFigure] = {
    14: SensitivityFigure(
        "Figure 14: Sensitivity to Drive MTTF", "drive MTTF (hours)",
        "drive_mttf_hours",
        (100_000, 200_000, 300_000, 450_000, 600_000, 750_000),
        lambda p, x: p.replace(drive_mttf_hours=float(x)),
        (("node MTTF low", {"node_mttf_hours": NODE_MTTF_LOW}),
         ("node MTTF high", {"node_mttf_hours": NODE_MTTF_HIGH})),
    ),
    15: SensitivityFigure(
        "Figure 15: Sensitivity to Node MTTF", "node MTTF (hours)",
        "node_mttf_hours",
        (100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000),
        lambda p, x: p.replace(node_mttf_hours=float(x)),
        (("drive MTTF low", {"drive_mttf_hours": DRIVE_MTTF_LOW}),
         ("drive MTTF high", {"drive_mttf_hours": DRIVE_MTTF_HIGH})),
    ),
    16: SensitivityFigure(
        "Figure 16: Sensitivity to Rebuild Block Size",
        "rebuild block size (KB)", "rebuild_command_bytes",
        (16, 32, 64, 128, 256, 512),
        lambda p, x: p.replace(rebuild_command_bytes=float(x) * KB),
        (("low MTTF", _LOW_MTTFS), ("baseline MTTF", {})),
    ),
    17: SensitivityFigure(
        "Figure 17: Sensitivity to Link Speed", "link speed (Gb/s)",
        "link_speed_bits_per_hour", (1.0, 5.0, 10.0),
        lambda p, x: p.with_link_speed_gbps(float(x)),
    ),
    18: SensitivityFigure(
        "Figure 18: Sensitivity to Node Set Size", "node set size N",
        "node_set_size", (16, 32, 64, 128, 256),
        lambda p, x: p.replace(node_set_size=int(x)),
    ),
    19: SensitivityFigure(
        "Figure 19: Sensitivity to Redundancy Set Size",
        "redundancy set size R", "redundancy_set_size", (4, 6, 8, 10, 12, 16),
        lambda p, x: p.replace(redundancy_set_size=int(x)),
    ),
    20: SensitivityFigure(
        "Figure 20: Sensitivity to Drives per Node", "drives per node d",
        "drives_per_node", (4, 8, 12, 16, 20, 24),
        lambda p, x: p.replace(drives_per_node=int(x)),
    ),
}


def sensitivity_figures(
    figures: Iterable[SensitivityFigure],
    params: Optional[Parameters] = None,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> List[SweepResult]:
    """Evaluate sensitivity figures, in the order given.

    With an ``engine``, every point of every figure is evaluated in one
    :meth:`~repro.engine.SweepEngine.evaluate_many` batch; without one,
    point by point through ``config.reliability`` (the reference path).
    The results are bitwise identical either way.
    """
    base = params or Parameters.baseline()
    configs = sensitivity_configurations()
    figures = list(figures)
    # Per figure: (x, config, params, series label), regime-, x-, then
    # configuration-major.
    plans = []
    for figure in figures:
        rows = []
        for regime, overrides in figure.regimes or (("", {}),):
            regime_base = base.replace(**overrides) if overrides else base
            for x in figure.x_values:
                point_params = figure.transform(regime_base, x)
                for config in configs:
                    label = f"{config.label} ({regime})" if regime else config.label
                    rows.append((x, config, point_params, label))
        plans.append(rows)
    pairs = [(config, p) for rows in plans for _, config, p, _ in rows]
    if engine is None:
        results = [config.reliability(p, method) for config, p in pairs]
    else:
        results = engine.evaluate_many(pairs, method=method)
    provenance = engine.provenance(method) if engine is not None else None
    outcomes = iter(results)
    out = []
    for figure, rows in zip(figures, plans):
        points, labels = [], {}
        for (x, config, _, label), result in zip(rows, outcomes):
            points.append(
                SweepPoint(x, config, result.events_per_pb_year, result.mttdl_hours)
            )
            labels[id(points[-1])] = label
        out.append(
            sweep_to_figure(
                figure.title,
                figure.x_label,
                points,
                label_fn=lambda point: labels[id(point)],
                axis_name=figure.axis_name,
                provenance=provenance,
            )
        )
    return out


def _figure(number, params, x_values, method, engine) -> SweepResult:
    figure = FIGURES[number]._replace(x_values=tuple(x_values))
    return sensitivity_figures([figure], params, method, engine)[0]


def figure14_drive_mttf(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = FIGURES[14].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 14: drive MTTF, at node MTTF low (100k h) and high (1M h)."""
    return _figure(14, params, x_values, method, engine)


def figure15_node_mttf(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = FIGURES[15].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 15: node MTTF, at drive MTTF low (100k h) and high (750k h)."""
    return _figure(15, params, x_values, method, engine)


def figure16_rebuild_block_size(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = FIGURES[16].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 16: rebuild block size (KB), at low MTTFs (the paper's "does
    not meet the target") and baseline MTTFs (its ">= 64 KB" advice)."""
    return _figure(16, params, x_values, method, engine)


def figure17_link_speed(
    params: Optional[Parameters] = None,
    x_values: Sequence[float] = FIGURES[17].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 17: link speed (Gb/s); 5 and 10 Gb/s coincide (disk-bound)."""
    return _figure(17, params, x_values, method, engine)


def figure18_node_set_size(
    params: Optional[Parameters] = None,
    x_values: Sequence[int] = FIGURES[18].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 18: sensitivity to node set size N."""
    return _figure(18, params, x_values, method, engine)


def figure19_redundancy_set_size(
    params: Optional[Parameters] = None,
    x_values: Sequence[int] = FIGURES[19].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 19: redundancy set size R (about an order of magnitude)."""
    return _figure(19, params, x_values, method, engine)


def figure20_drives_per_node(
    params: Optional[Parameters] = None,
    x_values: Sequence[int] = FIGURES[20].x_values,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> SweepResult:
    """Figure 20: drives per node d (nearly flat: the per-PB cancellation)."""
    return _figure(20, params, x_values, method, engine)


def all_figures(
    params: Optional[Parameters] = None,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> List[SweepResult]:
    """Every sensitivity figure, in paper order (one engine batch)."""
    return sensitivity_figures(FIGURES.values(), params, method, engine)
