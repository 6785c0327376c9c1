"""repro.engine — the memoized sweep engine.

The engine evaluates batches of (configuration, parameters) points
in-process with compiled-spec memoization and batched GTH solves,
while producing floats bitwise identical to the plain point-by-point
evaluation.  It also hosts the unified :func:`repro.evaluate` facade
and the on-disk :class:`DiskCache` that ``repro-validate`` keeps its
Monte-Carlo estimates in.
"""

from .cache import DEFAULT_CACHE_DIR, DiskCache
from .facade import evaluate
from .keys import CACHE_SCHEMA_VERSION, point_key, stable_digest
from .result import EngineProvenance, SweepResult
from .solver import (
    PreparedGroup,
    SolveContext,
    closed_form_mttdl,
    evaluate_chunk,
    mttdl_batched,
    normalize_method,
    prepare_groups,
    solve_grouped,
)
from .sweep import SweepEngine

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DiskCache",
    "EngineProvenance",
    "PreparedGroup",
    "SolveContext",
    "SweepEngine",
    "SweepResult",
    "closed_form_mttdl",
    "evaluate",
    "evaluate_chunk",
    "mttdl_batched",
    "normalize_method",
    "point_key",
    "prepare_groups",
    "solve_grouped",
    "stable_digest",
]
