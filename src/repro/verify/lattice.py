"""Parameter lattices for verification sweeps.

The paper's conclusions are claimed over an *operating envelope*, not a
single point, so the verification pass audits every invariant on a
cartesian lattice around the Section 6 baseline: drive MTTF, node MTTF
and the hard-error rate each at low / baseline / high.  Three axes with
three values give 27 points; crossed with the nine configurations that
is 243 (configuration, parameters) evaluations per method — well inside
what one batched engine sweep absorbs.

The axes deliberately stay inside the paper's regime (``mu >> N lambda``
and hard-error probabilities well below 1): outside it the closed forms
are *documented* to diverge, which is a property of the approximations,
not a bug the verifier should page anyone about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.sweep import SweepEngine
from ..models.configurations import all_configurations
from ..models.parameters import Parameters
from .registry import VerifyContext

__all__ = [
    "DEFAULT_AXES",
    "build_lattice",
    "default_lattice",
    "make_context",
]

#: Axis name -> the three swept values (low, baseline, high).
DEFAULT_AXES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("drive_mttf_hours", (150_000.0, 300_000.0, 600_000.0)),
    ("node_mttf_hours", (200_000.0, 400_000.0, 800_000.0)),
    ("hard_error_rate_per_bit", (1e-15, 1e-14, 1e-13)),
)


def build_lattice(
    base: Parameters,
    axes: Sequence[Tuple[str, Sequence[float]]],
) -> List[Parameters]:
    """Every combination of ``axes`` values applied to ``base``.

    Axis order is preserved, the last axis varying fastest, so lattice
    indices are stable across runs (violation reports stay comparable).
    """
    points = [base]
    for name, values in axes:
        points = [
            p.replace(**{name: type(getattr(p, name))(v)})
            for p in points
            for v in values
        ]
    return points


def default_lattice(base: Optional[Parameters] = None) -> List[Parameters]:
    """The standard 27-point verification lattice around ``base``."""
    if base is None:
        base = Parameters.baseline()
    return build_lattice(base, DEFAULT_AXES)


def make_context(
    base: Optional[Parameters] = None,
    *,
    mc_replicas: int = 0,
    mc_jobs: int = 1,
    mc_seed: int = 0,
    mc_sigmas: float = 5.0,
    mc_acceleration: float = 200.0,
    max_fault_tolerance: int = 3,
) -> VerifyContext:
    """A ready-to-run context: the 3x``max_fault_tolerance`` configuration
    grid crossed with the default lattice.

    ``mc_replicas=0`` (the default, and the CLI's ``--smoke`` mode) skips
    the Monte-Carlo oracle; everything else still runs.
    """
    if base is None:
        base = Parameters.baseline()
    return VerifyContext(
        configs=all_configurations(max_fault_tolerance),
        points=default_lattice(base),
        engine=SweepEngine(base),
        base=base,
        mc_replicas=mc_replicas,
        mc_jobs=mc_jobs,
        mc_seed=mc_seed,
        mc_sigmas=mc_sigmas,
        mc_acceleration=mc_acceleration,
    )
