"""The solver-strategy interface: one way to solve a chain, many backends.

Everything in the repo that needs a steady-state or absorption solve —
:meth:`CTMC.solve <repro.core.ctmc.CTMC.solve>`, the sweep engine's
batched paths, :func:`repro.evaluate`, the serving layer's batcher —
builds a :class:`SolveRequest` and hands it to :func:`solve`, which
dispatches to a :class:`SolverBackend`:

* ``dense_gth`` — the existing stacked, subtraction-free GTH
  elimination on dense generators (bitwise identical to the pre-API
  code paths; the default for the paper's nine small families);
* ``sparse_iterative`` — the :mod:`repro.core.sparse` kernels on CSR
  storage: direct sparse elimination with iterative refinement for
  MTTDL, power iteration for stationary queries, uniformization for
  non-stiff absorption — the backend that takes chains past the dense
  ``(n, n)`` memory ceiling;
* ``closed_form`` — the paper's closed-form approximations, supplied by
  the caller as a thunk (the backend runs and tags it, keeping the
  method taxonomy in one place).

Backend choice is an explicit :class:`SolveOptions` field with an
``"auto"`` default that picks by state count, and the options carry a
stable digest (:meth:`SolveOptions.cache_key`) so non-default choices
flow into sweep/serve cache keys without perturbing existing keys —
default options hash to the absence of an override, exactly like the
``extra=None`` convention in :func:`repro.engine.keys.point_key`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import obs
from .ctmc import CTMC, AbsorptionResult, CTMCError, NotAbsorbingError
from .linalg import gth_fundamental_matrix, gth_solve_batched, gth_solve_unchecked
from .sparse import (
    SparseChain,
    power_stationary,
    sparse_gth_factorize,
    uniformized_mttdl,
)

__all__ = [
    "BACKENDS",
    "ClosedFormBackend",
    "DEFAULT_SOLVE_OPTIONS",
    "DenseGthBackend",
    "SolveOptions",
    "SolveRequest",
    "SolveResult",
    "SolverBackend",
    "SolverError",
    "SparseIterativeBackend",
    "get_backend",
    "select_backend",
    "solve",
]


class SolverError(CTMCError):
    """Raised for invalid solve requests or backend/query mismatches."""


#: ``"monte_carlo"`` is a valid :class:`SolveOptions` backend so the whole
#: method choice can travel in one options value, but it is dispatched by
#: :func:`repro.evaluate` to the simulator — it is not a chain-solve
#: backend and has no entry in :data:`BACKENDS`.
_BACKEND_NAMES = (
    "auto",
    "dense_gth",
    "sparse_iterative",
    "closed_form",
    "monte_carlo",
)
_QUERIES = ("mttdl", "absorption", "stationary")
_RATES_METHODS = ("approx", "exact")
_SPARSE_ALGORITHMS = ("auto", "elimination", "uniformization")


def _stable_digest(payload: object) -> str:
    """Canonical-JSON SHA-256, the same convention as
    :func:`repro.engine.keys.stable_digest` (duplicated here so the core
    layer stays import-free of the engine)."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SolveOptions:
    """Every solve-shaping knob, in one frozen, hashable bag.

    This collapses the kwargs that used to be scattered across call
    sites (``method=`` aliases on :func:`repro.evaluate`, the internal
    array-rates method, per-call iterative tolerances) into a single
    value that travels with the request and folds into cache keys.

    Attributes:
        backend: ``"auto"`` (pick by state count), ``"dense_gth"``,
            ``"sparse_iterative"`` or ``"closed_form"``.
        rates_method: how internal-RAID array rates are derived —
            ``"approx"`` (the paper's closed forms, the default
            everywhere) or ``"exact"`` (embedded-chain solve).
        sparse_algorithm: MTTDL kernel for the sparse backend —
            ``"auto"``/``"elimination"`` (direct sparse GTH, exact for
            stiff chains) or ``"uniformization"`` (truncated series,
            non-stiff chains only).
        tolerance: declared convergence/residual tolerance for the
            iterative kernels (relative).
        max_iterations: iteration cap for the iterative kernels.
        dense_state_limit: the ``"auto"`` crossover — chains with more
            states than this are routed to the sparse backend.
    """

    backend: str = "auto"
    rates_method: str = "approx"
    sparse_algorithm: str = "auto"
    tolerance: float = 1e-9
    max_iterations: int = 1_000_000
    dense_state_limit: int = 4096

    def __post_init__(self) -> None:
        if self.backend not in _BACKEND_NAMES:
            raise SolverError(
                f"unknown backend {self.backend!r}; "
                f"use one of {', '.join(_BACKEND_NAMES)}"
            )
        if self.rates_method not in _RATES_METHODS:
            raise SolverError(
                f"unknown rates_method {self.rates_method!r}; "
                f"use one of {', '.join(_RATES_METHODS)}"
            )
        if self.sparse_algorithm not in _SPARSE_ALGORITHMS:
            raise SolverError(
                f"unknown sparse_algorithm {self.sparse_algorithm!r}; "
                f"use one of {', '.join(_SPARSE_ALGORITHMS)}"
            )
        if not self.tolerance > 0:
            raise SolverError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        if self.dense_state_limit < 1:
            raise SolverError("dense_state_limit must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready field mapping (canonical key order by name)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SolveOptions":
        """Construct from a field mapping, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SolverError(
                f"unknown solve option(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**payload)  # type: ignore[arg-type]

    def replace(self, **changes: object) -> "SolveOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def is_default(self) -> bool:
        """Whether these are exactly the default options — the case that
        must leave every existing cache key untouched."""
        return self == DEFAULT_SOLVE_OPTIONS

    def cache_key(self) -> str:
        """Stable digest of the options, for cache-key composition."""
        return _stable_digest(self.to_dict())


#: The options every legacy call site implicitly used: auto backend,
#: approx array rates.  ``SolveOptions()`` equals this by construction.
DEFAULT_SOLVE_OPTIONS = SolveOptions()


@dataclass(frozen=True)
class SolveRequest:
    """One solve, fully described.

    Exactly one payload style applies per request: a batch of dense
    ``chains``, a single ``sparse`` chain, or a ``closed_form`` thunk.

    Attributes:
        chains: dense chains to solve (batched; structurally-identical
            members are grouped and stacked by the dense backend).
        sparse: a :class:`~repro.core.sparse.SparseChain` payload.
        query: ``"mttdl"`` (mean time to absorption, per chain),
            ``"absorption"`` (full per-state analysis, single chain) or
            ``"stationary"`` (stationary distribution, single chain).
        options: the :class:`SolveOptions` governing backend choice and
            iterative tolerances.
        closed_form: thunk returning the values directly; the
            ``closed_form`` backend's payload (kept as a callable so the
            core layer needs no knowledge of the paper's formulas).
    """

    chains: Tuple[CTMC, ...] = ()
    sparse: Optional[SparseChain] = None
    query: str = "mttdl"
    options: SolveOptions = field(default_factory=lambda: DEFAULT_SOLVE_OPTIONS)
    closed_form: Optional[Callable[[], Sequence[float]]] = None

    def __post_init__(self) -> None:
        if self.query not in _QUERIES:
            raise SolverError(
                f"unknown query {self.query!r}; use one of "
                f"{', '.join(_QUERIES)}"
            )
        payloads = (
            bool(self.chains)
            + (self.sparse is not None)
            + (self.closed_form is not None)
        )
        if payloads != 1:
            raise SolverError(
                "a SolveRequest needs exactly one payload: chains, "
                "sparse, or closed_form"
            )

    @property
    def num_points(self) -> int:
        """Solves requested (chains in the batch; 1 for other payloads)."""
        return len(self.chains) if self.chains else 1

    @property
    def max_states(self) -> int:
        """Largest state count across the payload (0 for closed form)."""
        if self.sparse is not None:
            return self.sparse.num_states
        if self.chains:
            return max(c.num_states for c in self.chains)
        return 0


@dataclass(frozen=True)
class SolveResult:
    """What a backend returns, uniformly across backends and queries.

    Attributes:
        values: the query's scalar answers — per-chain MTTDL for
            ``"mttdl"``, the single MTTDL for ``"absorption"``, the
            per-state probabilities for ``"stationary"``.
        backend: name of the backend that actually ran (an ``"auto"``
            request reports its resolution here).
        query: the request's query, echoed.
        iterations: iterations spent by iterative kernels (0 = direct).
        converged: whether the declared tolerance was met (always True
            for the direct backends).
        residual: final relative residual / tail estimate of the
            iterative kernels (0.0 for the direct backends).
        absorption: the full :class:`~repro.core.ctmc.AbsorptionResult`
            for ``"absorption"`` queries.
        distribution: label -> probability for ``"stationary"`` queries.
    """

    values: Tuple[float, ...]
    backend: str
    query: str
    iterations: int = 0
    converged: bool = True
    residual: float = 0.0
    absorption: Optional[AbsorptionResult] = None
    distribution: Optional[Dict[object, float]] = None


class SolverBackend:
    """The strategy protocol: a named way to execute a
    :class:`SolveRequest`.

    Implementations must set :attr:`name` and implement :meth:`solve`;
    they are registered in :data:`BACKENDS` and reached through
    :func:`solve` (direct instantiation is for tests).
    """

    name: str = "abstract"

    def solve(self, request: SolveRequest) -> SolveResult:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# dense GTH backend
# --------------------------------------------------------------------- #


class DenseGthBackend(SolverBackend):
    """The repo's original solver: stacked dense GTH elimination.

    Every arithmetic step is the pre-API code moved verbatim — grouping
    by structure signature, one stacked assembly, one batched
    subtraction-free elimination — so the floats (and the golden
    baselines pinned on them) are bitwise unchanged.
    """

    name = "dense_gth"

    def solve(self, request: SolveRequest) -> SolveResult:
        chains = self._dense_chains(request)
        if request.query == "mttdl":
            return SolveResult(
                values=tuple(self._mttdl_batched(chains)),
                backend=self.name,
                query=request.query,
            )
        if request.query == "absorption":
            chain = self._single(chains, request.query)
            absorption = self._absorb(chain)
            return SolveResult(
                values=(absorption.mttdl,),
                backend=self.name,
                query=request.query,
                absorption=absorption,
            )
        chain = self._single(chains, request.query)
        distribution = self._stationary(chain)
        return SolveResult(
            values=tuple(distribution.values()),
            backend=self.name,
            query=request.query,
            distribution=distribution,
        )

    # -- payload handling --------------------------------------------- #

    @staticmethod
    def _dense_chains(request: SolveRequest) -> List[CTMC]:
        if request.closed_form is not None:
            raise SolverError(
                "the dense_gth backend solves chains, not closed forms"
            )
        if request.sparse is not None:
            # The materialization guard is the refusal the sparse
            # backend exists for; it raises with the estimated bytes.
            return [request.sparse.to_ctmc()]
        return list(request.chains)

    @staticmethod
    def _single(chains: List[CTMC], query: str) -> CTMC:
        if len(chains) != 1:
            raise SolverError(
                f"query {query!r} takes exactly one chain, "
                f"got {len(chains)}"
            )
        return chains[0]

    # -- kernels (moved verbatim from the pre-API call sites) ---------- #

    @staticmethod
    def _mttdl_batched(chains: Sequence[CTMC]) -> List[float]:
        """Mean time to absorption of many chains, batching by structure.

        Chains are grouped by (state order, transient/absorbing
        partition, initial state), stored at compile time for a
        spec-bound chain; a group of one is solved by the scalar
        GTH elimination, a larger group is stacked and solved in one
        batched elimination.  Either way back-substitution stops at the
        initial state's row, the only one the answer reads.  Every
        returned float is bitwise equal to the chain's own
        :meth:`~repro.core.ctmc.CTMC.absorb` MTTDL.

        Raises:
            NotAbsorbingError: if a chain has a transient state that
                cannot reach the absorbing set.
        """
        results: List[Optional[float]] = [None] * len(chains)
        groups: Dict[Tuple, List[int]] = {}
        for i, chain in enumerate(chains):
            compiled = chain._compiled
            if compiled is not None:
                if compiled.init_pos < 0:
                    results[i] = 0.0
                    continue
                signature = compiled.signature
            else:
                absorbing = chain.absorbing_states()
                if chain.initial_state in absorbing:
                    results[i] = 0.0
                    continue
                signature = (
                    chain.states,
                    chain.transient_states(),
                    absorbing,
                    chain.initial_state,
                )
            groups.setdefault(signature, []).append(i)
        for signature, members in groups.items():
            with obs.span(
                "solve.gth", states=len(signature[0]), points=len(members)
            ):
                init_pos = signature[1].index(signature[3])
                a, b = DenseGthBackend._group_system([chains[i] for i in members])
                n = a.shape[-1]
                try:
                    if len(members) == 1:
                        tau = gth_solve_unchecked(a, b, np.eye(n), init_pos + 1)
                        taus = tau[None, init_pos]
                    else:
                        rhs = np.broadcast_to(
                            np.eye(n), (len(members), n, n)
                        ).copy()
                        fundamental = gth_solve_batched(
                            a, b, rhs, rows=init_pos + 1
                        )
                        taus = fundamental[:, init_pos, :]
                except ValueError as exc:
                    raise NotAbsorbingError(str(exc)) from exc
                for j, i in enumerate(members):
                    results[i] = float(taus[j].sum())
        return results  # type: ignore[return-value]

    @staticmethod
    def _group_system(group: Sequence[CTMC]) -> Tuple[np.ndarray, np.ndarray]:
        """``(A, b)`` for one signature group (stacked unless it is one
        chain): from the rates of chains bound from one compiled spec,
        else cut from the generators — the same floats either way."""
        compiled = group[0]._compiled
        if compiled is not None and all(c._compiled is compiled for c in group):
            if len(group) == 1:
                return compiled.absorption_arrays(group[0]._rates)
            return compiled.absorption_arrays(np.stack([c._rates for c in group]))
        if len(group) == 1:
            return group[0].absorption_system()[:2]
        return CTMC.stacked_absorption_system(group)[:2]

    @staticmethod
    def _absorb(chain: CTMC) -> AbsorptionResult:
        """Full absorption analysis from the initial state (the body of
        the pre-API ``CTMC.absorb``, float for float)."""
        transient = list(chain.transient_states())
        absorbing = list(chain.absorbing_states())
        if not absorbing:
            raise NotAbsorbingError("chain has no absorbing states")
        if chain.initial_state in absorbing:
            return AbsorptionResult(
                mttdl=0.0,
                expected_times={s: 0.0 for s in transient},
                absorption_probabilities={
                    s: 1.0 if s == chain.initial_state else 0.0
                    for s in absorbing
                },
            )
        off_diagonal, absorb_rates, rates_to_absorbing = (
            chain.absorption_system()
        )
        try:
            fundamental = gth_fundamental_matrix(off_diagonal, absorb_rates)
        except ValueError as exc:
            raise NotAbsorbingError(str(exc)) from exc
        tau = fundamental[transient.index(chain.initial_state)]

        probs = tau @ rates_to_absorbing
        probs = probs / probs.sum()

        return AbsorptionResult(
            mttdl=float(tau.sum()),
            expected_times=dict(zip(transient, map(float, tau))),
            absorption_probabilities=dict(zip(absorbing, map(float, probs))),
        )

    @staticmethod
    def _stationary(chain: CTMC) -> Dict[object, float]:
        """Stationary distribution by dense GTH elimination (the body of
        the pre-API ``CTMC.stationary_distribution``)."""
        if chain.absorbing_states():
            raise CTMCError(
                "stationary distribution undefined for chains with "
                "absorbing states; use with_renewal() to close the chain"
            )
        n = chain.num_states
        states = chain.states
        if n == 1:
            return {states[0]: 1.0}
        # GTH for stationary vectors: eliminate states n-1 .. 1 with the
        # diagonal re-derived from off-diagonal sums (no subtraction).
        a = chain.generator_matrix()
        np.fill_diagonal(a, 0.0)
        for p in range(n - 1, 0, -1):
            total = a[p, :p].sum()
            if total <= 0:
                raise CTMCError(
                    f"state {states[p]!r} cannot reach lower-indexed "
                    "states; reorder states or check irreducibility"
                )
            a[:p, :p] += np.outer(a[:p, p] / total, a[p, :p])
        pi = np.zeros(n)
        pi[0] = 1.0
        for p in range(1, n):
            total = a[p, :p].sum()
            pi[p] = (pi[:p] @ a[:p, p]) / total
        pi /= pi.sum()
        return dict(zip(states, map(float, pi)))


# --------------------------------------------------------------------- #
# sparse iterative backend
# --------------------------------------------------------------------- #

#: Iterative-refinement passes after the direct sparse elimination; the
#: factorization is componentwise accurate, so one pass almost always
#: certifies the declared tolerance.
_MAX_REFINEMENT_PASSES = 5


class SparseIterativeBackend(SolverBackend):
    """CSR kernels for chains past the dense memory ceiling.

    MTTDL queries run the direct sparse GTH elimination and then certify
    ``options.tolerance`` with iterative refinement (reporting the final
    relative residual); ``sparse_algorithm="uniformization"`` selects
    the truncated-series kernel instead (non-stiff chains only).
    Stationary queries run power iteration on the uniformized DTMC.
    Full ``"absorption"`` analyses are a dense-backend feature — the
    per-state tau vector is only needed at paper scale.
    """

    name = "sparse_iterative"

    def solve(self, request: SolveRequest) -> SolveResult:
        if request.closed_form is not None:
            raise SolverError(
                "the sparse_iterative backend solves chains, not closed "
                "forms"
            )
        if request.query == "absorption":
            raise SolverError(
                "full absorption analysis (per-state expected times) is a "
                "dense_gth feature; sparse chains answer 'mttdl' and "
                "'stationary' queries"
            )
        sparse_chains = (
            [request.sparse]
            if request.sparse is not None
            else [SparseChain.from_ctmc(c) for c in request.chains]
        )
        options = request.options
        if request.query == "stationary":
            chain = sparse_chains[0]
            if len(sparse_chains) != 1:
                raise SolverError(
                    "query 'stationary' takes exactly one chain"
                )
            pi, iterations, change, converged = power_stationary(
                chain,
                tolerance=options.tolerance,
                max_iterations=options.max_iterations,
            )
            labels = [chain.label(i) for i in range(chain.num_states)]
            return SolveResult(
                values=tuple(map(float, pi)),
                backend=self.name,
                query=request.query,
                iterations=iterations,
                converged=converged,
                residual=change,
                distribution=dict(zip(labels, map(float, pi))),
            )
        values: List[float] = []
        iterations = 0
        residual = 0.0
        converged = True
        for chain in sparse_chains:
            mttdl, its, res, conv = self._mttdl(chain, options)
            values.append(mttdl)
            iterations += its
            residual = max(residual, res)
            converged = converged and conv
        return SolveResult(
            values=tuple(values),
            backend=self.name,
            query=request.query,
            iterations=iterations,
            converged=converged,
            residual=residual,
        )

    @staticmethod
    def _mttdl(
        chain: SparseChain, options: SolveOptions
    ) -> Tuple[float, int, float, bool]:
        a, b, _, init_pos = chain.transient_system()
        if init_pos < 0:
            return 0.0, 0, 0.0, True
        if options.sparse_algorithm == "uniformization":
            mttdl, its, tail, conv = uniformized_mttdl(
                a,
                b,
                init_pos,
                tolerance=options.tolerance,
                max_iterations=options.max_iterations,
            )
            return mttdl, its, tail, conv
        # Direct elimination + iterative refinement.  x solves R x = 1:
        # x[i] is the mean time to absorption from transient state i.
        with obs.span(
            "solve.sparse.gth", states=chain.num_states, nnz=chain.nnz
        ):
            try:
                factors = sparse_gth_factorize(a, b)
            except ValueError as exc:
                raise NotAbsorbingError(str(exc)) from exc
            rhs = np.ones(a.shape[0])
            x = factors.solve(rhs)
        diag = a.row_sums() + b
        passes = 0
        residual = np.inf
        for passes in range(_MAX_REFINEMENT_PASSES + 1):
            flow = a.matvec(x)
            scale = diag * x + flow + rhs
            r = rhs - (diag * x - flow)
            residual = float(np.max(np.abs(r) / scale))
            if residual <= options.tolerance:
                return float(x[init_pos]), passes, residual, True
            x = x + factors.solve(r)
        return float(x[init_pos]), passes, residual, False


# --------------------------------------------------------------------- #
# closed-form backend
# --------------------------------------------------------------------- #


class ClosedFormBackend(SolverBackend):
    """Runs a caller-supplied closed-form thunk under the solver API.

    The paper's approximation formulas live in :mod:`repro.models`; the
    core layer cannot import them, so the request carries the evaluation
    as a callable and this backend supplies the uniform result shape.
    """

    name = "closed_form"

    def solve(self, request: SolveRequest) -> SolveResult:
        if request.closed_form is None:
            raise SolverError(
                "the closed_form backend needs a closed_form thunk on "
                "the request"
            )
        values = tuple(float(v) for v in request.closed_form())
        return SolveResult(
            values=values, backend=self.name, query=request.query
        )


# --------------------------------------------------------------------- #
# registry and dispatch
# --------------------------------------------------------------------- #

#: The registered strategies, by name.
BACKENDS: Dict[str, SolverBackend] = {
    backend.name: backend
    for backend in (
        DenseGthBackend(),
        SparseIterativeBackend(),
        ClosedFormBackend(),
    )
}


def get_backend(name: str) -> SolverBackend:
    """The registered backend called ``name``."""
    try:
        return BACKENDS[name]
    except KeyError:
        if name == "monte_carlo":
            raise SolverError(
                "'monte_carlo' is not a chain-solve backend; it is "
                "dispatched by repro.evaluate(options=...) to the "
                "simulator in repro.sim"
            ) from None
        raise SolverError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None


def select_backend(request: SolveRequest) -> SolverBackend:
    """Resolve the request's backend, applying the ``"auto"`` policy.

    Explicit choices are honored as-is.  ``"auto"`` picks:

    * ``closed_form`` when the payload is a closed-form thunk,
    * ``sparse_iterative`` for sparse payloads and for dense batches
      whose largest chain exceeds ``options.dense_state_limit``,
    * ``dense_gth`` otherwise (the paper's nine families).
    """
    name = request.options.backend
    if name != "auto":
        return get_backend(name)
    if request.closed_form is not None:
        return BACKENDS["closed_form"]
    if request.sparse is not None:
        return BACKENDS["sparse_iterative"]
    if request.max_states > request.options.dense_state_limit:
        return BACKENDS["sparse_iterative"]
    return BACKENDS["dense_gth"]


def solve(request: SolveRequest) -> SolveResult:
    """Execute ``request`` on its (auto-)selected backend.

    The single entry point every solve in the repo goes through; while
    tracing is on it emits one ``solve.backend`` span carrying the
    resolved backend, the query and the batch size, so traces show which
    strategy answered what.
    """
    backend = select_backend(request)
    # Guarded so the hot path pays one bool check when tracing is off.
    if not obs.tracing_active():
        return backend.solve(request)
    with obs.span(
        "solve.backend",
        backend=backend.name,
        query=request.query,
        points=request.num_points,
        states=request.max_states,
    ):
        return backend.solve(request)
