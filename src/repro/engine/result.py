"""Result containers for engine-evaluated sweeps.

:class:`SweepResult` is the common return type of every sweep/figure
function: a :class:`~repro.reporting.FigureData` (so every existing
renderer — ``format_figure``, ``to_csv``, ``to_dict`` — consumes it
unchanged) extended with the swept axis, the raw per-config points and
the :class:`EngineProvenance` describing how it was computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..reporting import FigureData

__all__ = ["EngineProvenance", "SweepResult"]


@dataclass(frozen=True)
class EngineProvenance:
    """How a result set was produced — recorded for reproducibility.

    Attributes:
        method: normalized evaluation method ("analytic", "closed_form",
            "monte_carlo").
        spec_hits / spec_misses: this engine's lookups in the
            process-wide compiled-spec cache (a hit re-binds an
            already-compiled chain; a miss compiles a spec).
        array_hits / array_misses: internal-array rates memo counters.
        spec_hashes: content hashes of every :class:`~repro.core.spec.
            ModelSpec` this engine bound — the exact chain structures
            the numbers came from.
        engine: engine identifier, e.g. ``"repro.engine/1.0.0"``.
    """

    method: str = "analytic"
    spec_hits: int = 0
    spec_misses: int = 0
    array_hits: int = 0
    array_misses: int = 0
    spec_hashes: Tuple[str, ...] = ()
    engine: str = "repro.engine"

    def describe(self) -> str:
        """One-line summary (the ``--verbose`` spec/memo report)."""
        parts = [f"method={self.method}"]
        parts.append(
            f"compiled specs {self.spec_hits} binds / "
            f"{self.spec_misses} compiles ({len(self.spec_hashes)} shapes)"
        )
        parts.append(
            f"array-rates memo {self.array_hits} hits / "
            f"{self.array_misses} misses"
        )
        return "; ".join(parts)


@dataclass(frozen=True)
class SweepResult(FigureData):
    """A sweep's outcome: FigureData plus axis, points and provenance.

    Attributes (beyond :class:`~repro.reporting.FigureData`):
        axis_name: the swept :class:`Parameters` field or axis label.
        axis_values: the raw swept values (uncast — ``x_values`` holds the
            float form used for plotting).
        points: the evaluated per-(x, config) points, in sweep order
            (:class:`repro.analysis.sensitivity.SweepPoint` instances when
            produced by the analysis layer).
        provenance: engine settings and counters, None for the plain
            serial path.
    """

    axis_name: str = ""
    axis_values: Tuple[Any, ...] = ()
    points: Tuple[Any, ...] = ()
    provenance: Optional[EngineProvenance] = None
