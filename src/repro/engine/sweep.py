"""The sweep engine.

:class:`SweepEngine` evaluates batches of (configuration, parameters)
points in-process through compiled-spec binding (plus the array-rates
memo), while guaranteeing the exact floats of the pre-engine
point-by-point code (see :mod:`repro.engine.solver` for why every path
is bitwise-deterministic).  It keeps no result cache: one batch solves
a whole figure run faster than reading its points back from disk.

The engine takes plain point lists; which points to evaluate is the
caller's business.  The sensitivity figures go through
:func:`repro.analysis.figures.all_figures` (one batch for every
figure), one-axis sweeps through :func:`repro.analysis.sweep` with
``engine=``, design grids through :func:`repro.advise`.  Typical use::

    engine = SweepEngine()
    results = engine.evaluate_many(
        [(config, params.replace(drive_mttf_hours=x))
         for x in (100_000, 300_000, 750_000)
         for config in sensitivity_configurations()]
    )
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.solvers import DEFAULT_SOLVE_OPTIONS, SolveOptions
from ..models.configurations import Configuration
from ..models.metrics import ReliabilityResult
from ..models.parameters import Parameters
from ..models.specs import compiled_cache
from .. import __version__, obs
from .result import EngineProvenance
from .solver import SolveContext, evaluate_chunk, normalize_method

__all__ = ["SweepEngine"]


class SweepEngine:
    """Evaluates configuration/parameter grids fast and reproducibly.

    Args:
        base_params: default baseline for :meth:`evaluate` (the paper's
            Section 6 baseline when omitted).
        jobs: must be 1.  The engine always evaluates in-process (the
            widest sweep here is milliseconds of work, far below a
            process pool's start-up cost); Monte-Carlo replica fan-out
            is :func:`repro.sim.estimate_mttdl`'s ``jobs``.
        cache: must be ``False``.  The engine has no result cache (a
            batch solves faster than a disk-cache read); the on-disk
            :class:`~repro.engine.DiskCache` serves Monte-Carlo
            estimates only (``repro-validate``).
        method: default evaluation method ("analytic" or "closed_form").
        options: default :class:`~repro.core.solvers.SolveOptions` for
            every evaluation — solver backend, array-rates derivation
            and iterative tolerances.
    """

    def __init__(
        self,
        base_params: Optional[Parameters] = None,
        *,
        jobs: int = 1,
        cache: bool = False,
        method: str = "analytic",
        options: Optional[SolveOptions] = None,
    ) -> None:
        if jobs != 1:
            raise ValueError(
                f"SweepEngine evaluates in-process; jobs must be 1, got "
                f"{jobs!r} (for Monte-Carlo replica fan-out use "
                "repro.sim.estimate_mttdl(jobs=...))"
            )
        if cache is not False:
            raise ValueError(
                "SweepEngine has no analytic disk cache (one batch solves "
                f"faster than a disk-cache read); cache must be False, got "
                f"{cache!r}"
            )
        self._base = base_params if base_params is not None else Parameters.baseline()
        self._method = normalize_method(method)
        self._options = DEFAULT_SOLVE_OPTIONS if options is None else options
        self._ctx = SolveContext()
        self.metrics = obs.Metrics()
        self._points_counter = self.metrics.counter("engine.points")
        self._batches_counter = self.metrics.counter("engine.batches")

    # ------------------------------------------------------------------ #
    # properties / stats
    # ------------------------------------------------------------------ #

    @property
    def base_params(self) -> Parameters:
        return self._base

    def provenance(self, method: Optional[str] = None) -> EngineProvenance:
        """A snapshot of the engine's settings and cumulative counters."""
        stats = self._ctx.stats()
        return EngineProvenance(
            method=normalize_method(method) if method else self._method,
            spec_hits=stats["spec_hits"],
            spec_misses=stats["spec_misses"],
            array_hits=stats["array_hits"],
            array_misses=stats["array_misses"],
            spec_hashes=self._ctx.spec_hashes(),
            engine=f"repro.engine/{__version__}",
        )

    def metrics_snapshot(self) -> obs.Metrics:
        """Every counter this engine touched, merged into one registry.

        Folds the engine's own tallies (batches, points), the solve
        context's array memo and the process-wide compiled-spec cache
        (``core.spec_cache.*``, shared with :func:`repro.evaluate`) —
        the ``metrics.json`` payload for a sweep run.
        """
        merged = obs.Metrics()
        merged.merge(self.metrics)
        merged.merge(self._ctx.metrics)
        merged.merge(compiled_cache().metrics)
        return merged

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        config: Configuration,
        params: Optional[Parameters] = None,
        *,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> ReliabilityResult:
        """Evaluate a single point (engine-accelerated)."""
        return self.evaluate_many(
            [(config, params if params is not None else self._base)],
            method=method,
            options=options,
        )[0]

    def evaluate_many(
        self,
        pairs: Sequence[Tuple[Configuration, Parameters]],
        *,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> List[ReliabilityResult]:
        """Evaluate many (configuration, parameters) points, in order.

        All points are evaluated in one batch through the engine's
        persistent memos.  Under the default options, outputs are
        bitwise identical to ``config.reliability(params, method)`` for
        every point; non-default options reroute the solve through the
        selected backend.
        """
        method = normalize_method(method) if method else self._method
        options = self._options if options is None else options
        if method == "monte_carlo":
            raise ValueError(
                "SweepEngine evaluates analytic/closed-form points; use "
                "repro.evaluate(..., options=SolveOptions("
                "backend='monte_carlo')) or "
                "repro.sim.estimate_mttdl for simulation"
            )
        pairs = list(pairs)
        with obs.span("engine.evaluate_many", points=len(pairs), method=method):
            self._batches_counter.inc()
            self._points_counter.inc(len(pairs))
            mttdls: List[float] = []
            if pairs:
                with obs.span("engine.dispatch", tasks=len(pairs)):
                    mttdls = evaluate_chunk(
                        [(config, params, method) for config, params in pairs],
                        self._ctx,
                        options,
                    )
            return [
                ReliabilityResult.from_mttdl(mttdl, params)
                for mttdl, (_, params) in zip(mttdls, pairs)
            ]
