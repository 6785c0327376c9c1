"""Absorbing continuous-time Markov chain engine.

This package is the paper-independent mathematical substrate: generator
matrices, mean time to absorption (MTTDL), transient analysis,
trajectory sampling, and the declarative spec IR (states + symbolic
rates compiled once, bound per operating point).  The paper's specific
chains live in :mod:`repro.models`.

The supported public surface is exactly ``__all__`` below.  Chain
solves go through the strategy interface in :mod:`repro.core.solvers`
(:func:`solve` with a :class:`SolveRequest`, or :meth:`CTMC.solve`);
the raw GTH kernels stay in :mod:`repro.core.linalg` as solver-internal
machinery and are deliberately not re-exported here — backends are the
only supported way to reach them.
"""

from .ctmc import (
    AbsorptionResult,
    CTMC,
    CTMCError,
    GeneratorDiagnostics,
    NotAbsorbingError,
    Transition,
)
from .exact import exact_expected_times, exact_mttdl
from .solvers import (
    BACKENDS,
    DEFAULT_SOLVE_OPTIONS,
    SolveOptions,
    SolveRequest,
    SolveResult,
    SolverBackend,
    SolverError,
    get_backend,
    select_backend,
    solve,
)
from .sparse import (
    CsrMatrix,
    SparseChain,
    build_indirect,
)
from .spec import (
    CompiledChain,
    CompiledSpecCache,
    ModelSpec,
    RateExpr,
    SpecBuilder,
    SpecError,
    const,
    param,
    rate_min,
)
from .gillespie import (
    SampleSummary,
    Trajectory,
    sample_absorption_times,
    sample_trajectory,
)

__all__ = [
    "AbsorptionResult",
    "BACKENDS",
    "CTMC",
    "CTMCError",
    "CompiledChain",
    "CompiledSpecCache",
    "CsrMatrix",
    "DEFAULT_SOLVE_OPTIONS",
    "GeneratorDiagnostics",
    "ModelSpec",
    "NotAbsorbingError",
    "RateExpr",
    "SampleSummary",
    "SolveOptions",
    "SolveRequest",
    "SolveResult",
    "SolverBackend",
    "SolverError",
    "SparseChain",
    "SpecBuilder",
    "SpecError",
    "Trajectory",
    "Transition",
    "build_indirect",
    "const",
    "exact_expected_times",
    "exact_mttdl",
    "get_backend",
    "param",
    "rate_min",
    "sample_absorption_times",
    "sample_trajectory",
    "select_backend",
    "solve",
]
