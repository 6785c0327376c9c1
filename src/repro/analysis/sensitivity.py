"""One-at-a-time sensitivity analysis (Section 7).

The paper varies one parameter at a time, holding the others at the
baseline, and plots events/PB-year per configuration.
:func:`sweep` is the generic engine behind every sensitivity figure;
:func:`tornado` summarizes each parameter's leverage (max/min ratio over
its range), which is how the paper concludes the rebuild block size is
"the controllable parameter with the most significant impact".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.result import EngineProvenance, SweepResult
from ..models.configurations import Configuration
from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR
from ..models.parameters import Parameters
from .report import FigureData, Series

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.sweep import SweepEngine

__all__ = ["sweep", "SweepPoint", "sweep_to_figure", "tornado", "TornadoEntry"]

ParamsTransform = Callable[[Parameters, Any], Parameters]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a sweep."""

    x: Any
    config: Configuration
    events_per_pb_year: float
    mttdl_hours: float

    @property
    def meets_target(self) -> bool:
        return self.events_per_pb_year < PAPER_TARGET_EVENTS_PER_PB_YEAR


def sweep(
    configs: Sequence[Configuration],
    base_params: Parameters,
    x_values: Sequence[Any],
    transform: ParamsTransform,
    method: str = "analytic",
    engine: Optional["SweepEngine"] = None,
) -> List[SweepPoint]:
    """Evaluate configurations over a one-dimensional parameter sweep.

    Args:
        configs: configurations to evaluate at every point.
        base_params: the baseline every point starts from.
        x_values: swept values (passed to ``transform``).
        transform: maps (baseline, x) to the point's parameters.
        method: ``"analytic"`` or ``"closed_form"`` MTTDL computation.
        engine: optional :class:`~repro.engine.SweepEngine`; when given,
            all points are evaluated through it (compiled specs
            re-bound per point, optionally disk-cached) with
            bitwise-identical results.

    Returns:
        Points in (x, config) iteration order.
    """
    per_x = [(x, transform(base_params, x)) for x in x_values]
    pairs = [
        (x, config, params) for x, params in per_x for config in configs
    ]
    if engine is not None:
        results = engine.evaluate_many(
            [(config, params) for _, config, params in pairs], method=method
        )
    else:
        results = [
            config.reliability(params, method) for _, config, params in pairs
        ]
    return [
        SweepPoint(
            x=x,
            config=config,
            events_per_pb_year=result.events_per_pb_year,
            mttdl_hours=result.mttdl_hours,
        )
        for (x, config, _), result in zip(pairs, results)
    ]


def sweep_to_figure(
    title: str,
    x_label: str,
    points: Sequence[SweepPoint],
    label_fn: Optional[Callable[[SweepPoint], str]] = None,
    axis_name: str = "",
    provenance: Optional[EngineProvenance] = None,
) -> SweepResult:
    """Group sweep points into a :class:`~repro.engine.SweepResult`.

    The result is a :class:`FigureData` subclass (one series per label),
    so every existing renderer consumes it unchanged; it additionally
    carries the raw points, the swept axis and the engine provenance.
    """
    if label_fn is None:
        label_fn = lambda p: p.config.label
    x_values: List[Any] = []
    series_values: Dict[str, Dict[Any, float]] = {}
    for p in points:
        if p.x not in x_values:
            x_values.append(p.x)
        series_values.setdefault(label_fn(p), {})[p.x] = p.events_per_pb_year
    series = tuple(
        Series(label, tuple(values[x] for x in x_values))
        for label, values in series_values.items()
    )
    return SweepResult(
        title=title,
        x_label=x_label,
        x_values=tuple(float(x) for x in x_values),
        series=series,
        target=PAPER_TARGET_EVENTS_PER_PB_YEAR,
        axis_name=axis_name or x_label,
        axis_values=tuple(x_values),
        points=tuple(points),
        provenance=provenance,
    )


@dataclass(frozen=True)
class TornadoEntry:
    """Leverage of one parameter for one configuration.

    Attributes:
        parameter: swept parameter name.
        config: configuration evaluated.
        low: events/PB-year at the range's best end.
        high: events/PB-year at the range's worst end.
        leverage_orders: log10(high / low) — how many orders of magnitude
            the parameter moves the reliability across its range.
    """

    parameter: str
    config: Configuration
    low: float
    high: float

    @property
    def leverage_orders(self) -> float:
        if self.low <= 0:
            return math.inf
        return math.log10(self.high / self.low)


def tornado(
    configs: Sequence[Configuration],
    base_params: Parameters,
    parameter_ranges: Dict[str, Tuple[Sequence[Any], ParamsTransform]],
    method: str = "analytic",
) -> List[TornadoEntry]:
    """Rank parameters by reliability leverage.

    Args:
        configs: configurations to evaluate.
        base_params: the shared baseline.
        parameter_ranges: name -> (x_values, transform) as for
            :func:`sweep`.

    Returns:
        Entries sorted by descending leverage.
    """
    entries = []
    for name, (x_values, transform) in parameter_ranges.items():
        points = sweep(configs, base_params, x_values, transform, method)
        for config in configs:
            mine = [p.events_per_pb_year for p in points if p.config == config]
            entries.append(
                TornadoEntry(
                    parameter=name, config=config, low=min(mine), high=max(mine)
                )
            )
    entries.sort(key=lambda e: e.leverage_orders, reverse=True)
    return entries
