"""repro.engine — the parallel, memoized sweep engine.

The engine evaluates grids of (configuration, parameters) points with
process-pool fan-out, chain-topology memoization, batched GTH solves and
an optional on-disk result cache, while producing floats bitwise
identical to the plain point-by-point evaluation.  It also hosts the
unified :func:`repro.evaluate` facade.
"""

from .cache import DEFAULT_CACHE_DIR, DiskCache
from .facade import evaluate
from .keys import CACHE_SCHEMA_VERSION, point_key, stable_digest
from ..runtime import default_jobs, should_pool, split_chunks
from .result import EngineProvenance, SweepResult
from .solver import (
    SolveContext,
    closed_form_mttdl,
    evaluate_chunk,
    mttdl_batched,
    normalize_method,
    prepare_point,
    solve_grouped,
)
from .sweep import Axis, GridPoint, SweepEngine, point_payload_valid

__all__ = [
    "Axis",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DiskCache",
    "EngineProvenance",
    "GridPoint",
    "SolveContext",
    "SweepEngine",
    "SweepResult",
    "closed_form_mttdl",
    "default_jobs",
    "evaluate",
    "evaluate_chunk",
    "mttdl_batched",
    "normalize_method",
    "point_key",
    "point_payload_valid",
    "prepare_point",
    "should_pool",
    "solve_grouped",
    "split_chunks",
    "stable_digest",
]
