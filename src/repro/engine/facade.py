"""The unified single-point evaluation API.

:func:`evaluate` is the one front door for "how reliable is this
configuration under these parameters?", dispatching through the
solver-strategy interface (:mod:`repro.core.solvers`) to the analytic
chain solve (dense or sparse backend), the paper's closed forms, or the
Monte-Carlo simulator.  It is re-exported as :func:`repro.evaluate`.

Solve-shaping knobs travel in a single frozen
:class:`~repro.core.solvers.SolveOptions` value.  Every analytic answer,
default options included, comes from building the model's chain and
handing it to :func:`repro.core.solvers.solve`, so the ``"auto"``
backend policy always applies and the trace always names the backend
that answered.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..core.solvers import (
    DEFAULT_SOLVE_OPTIONS,
    SolveOptions,
    SolveRequest,
)
from ..core.solvers import solve as _core_solve
from ..models.configurations import Configuration
from ..models.metrics import ReliabilityResult
from ..models.parameters import Parameters
from ..models.rebuild import RebuildModel

__all__ = ["evaluate"]


def evaluate(
    config: Configuration,
    params: Optional[Parameters] = None,
    *,
    options: Optional[SolveOptions] = None,
    rebuild: Optional[RebuildModel] = None,
    replicas: int = 200,
    seed: int = 0,
    jobs: int = 1,
) -> ReliabilityResult:
    """Evaluate one configuration's reliability, by any method.

    Args:
        config: the redundancy configuration.
        params: system parameters (the paper's baseline when omitted).
        options: a :class:`~repro.core.solvers.SolveOptions` selecting
            the solver backend (``"auto"``/``"dense_gth"``/
            ``"sparse_iterative"`` for the numeric chain solve,
            ``"closed_form"`` for the paper's approximations,
            ``"monte_carlo"`` for simulation to first loss), the
            internal array-rates derivation and the iterative
            tolerances.  Defaults solve the chain with auto backend
            selection.
        rebuild: optional rebuild-time model override (chain and
            closed-form solves only).
        replicas: Monte-Carlo replica count (``monte_carlo`` only).
        seed: Monte-Carlo master seed (``monte_carlo`` only).
        jobs: Monte-Carlo replica fan-out width (``monte_carlo`` only).

    Returns:
        A :class:`ReliabilityResult`; for Monte Carlo it is built from the
        sample-mean MTTDL (use :func:`repro.sim.estimate_mttdl` directly
        when the error bars matter).

    Note:
        For ``monte_carlo``, pass parameters derived with
        :func:`repro.sim.accelerated_parameters` — at the unaccelerated
        baseline a loss event is so rare that every replica grinds to the
        event-count safety cap instead of finishing.
    """
    if options is None:
        options = DEFAULT_SOLVE_OPTIONS
    if params is None:
        params = Parameters.baseline()
    backend = options.backend
    family = (
        backend
        if backend in ("monte_carlo", "closed_form")
        else "analytic"
    )
    with obs.span(
        "repro.evaluate", method=family, config=config.key, backend=backend
    ):
        if family == "monte_carlo":
            if rebuild is not None:
                raise ValueError(
                    "rebuild overrides are not supported with the "
                    "monte_carlo backend; the simulator derives repair "
                    "rates from params"
                )
            from ..sim.monte_carlo import estimate_mttdl

            mc = estimate_mttdl(
                config, params, replicas=replicas, seed=seed, jobs=jobs
            )
            return ReliabilityResult.from_mttdl(mc.mean_hours, params)
        if family == "closed_form":
            request = SolveRequest(
                closed_form=lambda: (
                    config.model(params, rebuild).mttdl_approx(),
                ),
                query="mttdl",
                options=options,
            )
            return ReliabilityResult.from_mttdl(
                _core_solve(request).values[0], params
            )
        model = config.model(params, rebuild, rates_method=options.rates_method)
        result = _core_solve(
            SolveRequest(
                chains=(model.chain(),), query="mttdl", options=options
            )
        )
        return ReliabilityResult.from_mttdl(result.values[0], params)
