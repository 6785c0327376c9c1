"""Paper-derived invariants, registered into the default registry.

Each check encodes an *ordering or conservation law the paper's argument
rests on*, not a pinned number: more redundancy never hurts, internal
RAID levels dominate in order, critical-set fractions are proper
fractions that shrink with depth, generators conserve probability, and
the closed forms track the exact solves inside their declared envelopes.
A refactor that shifts a value but preserves the orderings passes; one
that flips a single ordering anywhere on the lattice fails loudly.

Importing this module (or :mod:`repro.verify`) populates
:data:`repro.verify.registry.REGISTRY`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.solvers import SolveOptions, SolveRequest, solve
from ..core.sparse import SparseChain
from ..models.configurations import Configuration
from ..models.critical_sets import critical_fraction, k2_factor, k3_factor
from ..models.raid import InternalRaid
from .registry import VerifyContext, Violation, invariant

__all__ = [
    "CLOSED_FORM_REL_ERROR_BOUNDS",
    "SPARSE_DENSE_REL_TOL",
    "closed_form_bound",
]

#: Declared agreement between the sparse-iterative and dense-GTH
#: backends on the same chain.  Both are componentwise-accurate direct
#: eliminations (the sparse backend certifies its answer with iterative
#: refinement against this tolerance), so the bound is tight — far below
#: any modeling error — while allowing the different elimination
#: orderings their few ulps of rounding freedom.
SPARSE_DENSE_REL_TOL = 1e-9

#: Slack for "non-strict" float comparisons: a genuine tie (equal chains)
#: must pass, but anything past a few ulps is a real ordering flip.
_ORDER_SLACK = 1e-9

#: Declared closed-form relative-error envelopes as a function of the
#: internal redundancy and the cross-node fault tolerance ``k``, valid on
#: the default verification lattice (the paper's ``mu >> N lambda``
#: regime).  For no-internal-RAID nodes the error *shrinks* with ``k``
#: (the dropped numerator terms lose weight as rebuilds stack); internal
#: RAID starts far tighter because the array absorbs the hard-error term.
CLOSED_FORM_REL_ERROR_BOUNDS: Dict[bool, Dict[int, float]] = {
    # internal RAID present?
    False: {1: 0.90, 2: 0.50, 3: 0.10},
    True: {1: 0.10, 2: 0.05, 3: 0.05},
}


def closed_form_bound(config: Configuration) -> float:
    """The declared |approx - exact| / exact bound for ``config``."""
    per_k = CLOSED_FORM_REL_ERROR_BOUNDS[config.internal is not InternalRaid.NONE]
    return per_k.get(config.node_fault_tolerance, 0.50)


def _by_internal(
    ctx: VerifyContext,
) -> Dict[InternalRaid, List[Configuration]]:
    groups: Dict[InternalRaid, List[Configuration]] = {}
    for config in ctx.configs:
        groups.setdefault(config.internal, []).append(config)
    for members in groups.values():
        members.sort(key=lambda c: c.node_fault_tolerance)
    return groups


def _by_nft(ctx: VerifyContext) -> Dict[int, Dict[InternalRaid, Configuration]]:
    groups: Dict[int, Dict[InternalRaid, Configuration]] = {}
    for config in ctx.configs:
        groups.setdefault(config.node_fault_tolerance, {})[config.internal] = config
    return groups


# --------------------------------------------------------------------- #
# conservation
# --------------------------------------------------------------------- #


@invariant(
    "generator-conservation",
    "Every node chain's generator conserves probability: rows sum to "
    "zero, off-diagonal rates are non-negative, absorbing rows are null "
    "and the initial state is transient.",
    tags=("core", "smoke"),
)
def check_generator_conservation(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    violations: List[Violation] = []
    checked = 0
    for i, params in enumerate(ctx.points):
        for config in ctx.configs:
            diag = config.chain(params).diagnostics()
            checked += 1
            if diag.ok(atol=1e-9) and diag.initial_is_transient and diag.num_absorbing:
                continue
            violations.append(
                Violation(
                    invariant="generator-conservation",
                    message="generator violates conservation laws",
                    config=config.key,
                    point=ctx.point_label(i),
                    details={
                        "max_row_residual": diag.max_row_residual,
                        "min_off_diagonal": diag.min_off_diagonal,
                        "absorbing_rows_null": diag.absorbing_rows_null,
                        "initial_is_transient": diag.initial_is_transient,
                        "num_absorbing": diag.num_absorbing,
                    },
                )
            )
    return checked, violations


@invariant(
    "sparse-dense-agreement",
    "For every chain family at every lattice point, the sparse-iterative "
    "solver backend reproduces the dense GTH MTTDL within the declared "
    "relative tolerance.",
    tags=("core", "solvers", "smoke"),
)
def check_sparse_dense_agreement(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    dense_table = ctx.mttdl_table("analytic")
    options = SolveOptions(backend="sparse_iterative")
    violations: List[Violation] = []
    checked = 0
    for i, params in enumerate(ctx.points):
        for config in ctx.configs:
            checked += 1
            dense = dense_table[(config.key, i)]
            sparse_chain = SparseChain.from_ctmc(config.chain(params))
            result = solve(
                SolveRequest(sparse=sparse_chain, options=options)
            )
            sparse = result.values[0]
            rel = abs(sparse - dense) / dense
            if rel <= SPARSE_DENSE_REL_TOL and result.converged:
                continue
            violations.append(
                Violation(
                    invariant="sparse-dense-agreement",
                    message=(
                        f"sparse backend off by {rel:.3g} "
                        f"(declared tolerance {SPARSE_DENSE_REL_TOL:g})"
                    ),
                    config=config.key,
                    point=ctx.point_label(i),
                    details={
                        "dense_mttdl": dense,
                        "sparse_mttdl": sparse,
                        "relative_difference": rel,
                        "converged": result.converged,
                        "residual": result.residual,
                        "states": sparse_chain.num_states,
                        "nnz": sparse_chain.nnz,
                    },
                )
            )
    return checked, violations


# --------------------------------------------------------------------- #
# orderings
# --------------------------------------------------------------------- #


@invariant(
    "mttdl-monotone-nft",
    "At fixed internal redundancy, MTTDL is non-decreasing in the "
    "cross-node fault tolerance (NFT=2 beats NFT=1, NFT=3 beats NFT=2).",
    tags=("models", "ordering", "smoke"),
)
def check_mttdl_monotone_nft(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    table = ctx.mttdl_table("analytic")
    violations: List[Violation] = []
    checked = 0
    for i, _ in enumerate(ctx.points):
        for internal, members in _by_internal(ctx).items():
            for lo, hi in zip(members, members[1:]):
                checked += 1
                lo_v = table[(lo.key, i)]
                hi_v = table[(hi.key, i)]
                if hi_v >= lo_v * (1.0 - _ORDER_SLACK):
                    continue
                violations.append(
                    Violation(
                        invariant="mttdl-monotone-nft",
                        message=(
                            f"MTTDL decreased when NFT rose from "
                            f"{lo.node_fault_tolerance} to "
                            f"{hi.node_fault_tolerance}"
                        ),
                        config=hi.key,
                        point=ctx.point_label(i),
                        details={"lower_nft_mttdl": lo_v, "higher_nft_mttdl": hi_v},
                    )
                )
    return checked, violations


@invariant(
    "raid-level-dominance",
    "At fixed cross-node fault tolerance, internal RAID 6 dominates "
    "internal RAID 5, which dominates no internal RAID.",
    tags=("models", "ordering", "smoke"),
)
def check_raid_level_dominance(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    order = (InternalRaid.NONE, InternalRaid.RAID5, InternalRaid.RAID6)
    table = ctx.mttdl_table("analytic")
    violations: List[Violation] = []
    checked = 0
    for i, _ in enumerate(ctx.points):
        for nft, members in _by_nft(ctx).items():
            present = [members[lvl] for lvl in order if lvl in members]
            for weaker, stronger in zip(present, present[1:]):
                checked += 1
                weak_v = table[(weaker.key, i)]
                strong_v = table[(stronger.key, i)]
                if strong_v >= weak_v * (1.0 - _ORDER_SLACK):
                    continue
                violations.append(
                    Violation(
                        invariant="raid-level-dominance",
                        message=(
                            f"{stronger.key} has lower MTTDL than "
                            f"{weaker.key} at NFT {nft}"
                        ),
                        config=stronger.key,
                        point=ctx.point_label(i),
                        details={
                            "weaker_mttdl": weak_v,
                            "stronger_mttdl": strong_v,
                        },
                    )
                )
    return checked, violations


@invariant(
    "mttdl-monotone-mttf",
    "Better hardware never hurts: along every lattice edge that raises "
    "exactly one component MTTF, MTTDL does not decrease.",
    tags=("models", "ordering", "smoke"),
)
def check_mttdl_monotone_mttf(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    table = ctx.mttdl_table("analytic")
    dicts = [p.to_dict() for p in ctx.points]
    axes = ("drive_mttf_hours", "node_mttf_hours")
    edges: List[Tuple[int, int, str]] = []
    for i, pi in enumerate(dicts):
        for j, pj in enumerate(dicts):
            if i == j:
                continue
            delta = {k for k in pi if pi[k] != pj[k]}
            if len(delta) == 1:
                (axis,) = delta
                if axis in axes and pj[axis] > pi[axis]:
                    edges.append((i, j, axis))
    violations: List[Violation] = []
    checked = 0
    for config in ctx.configs:
        for i, j, axis in edges:
            checked += 1
            lo_v = table[(config.key, i)]
            hi_v = table[(config.key, j)]
            if hi_v >= lo_v * (1.0 - _ORDER_SLACK):
                continue
            violations.append(
                Violation(
                    invariant="mttdl-monotone-mttf",
                    message=f"MTTDL decreased when {axis} improved",
                    config=config.key,
                    point=ctx.point_label(j),
                    details={
                        "axis": axis,
                        "worse_hardware_mttdl": lo_v,
                        "better_hardware_mttdl": hi_v,
                    },
                )
            )
    return checked, violations


# --------------------------------------------------------------------- #
# critical-set combinatorics
# --------------------------------------------------------------------- #

#: (N, R) pairs swept in addition to the lattice's own sizes.
_CRITICAL_SET_GRID = ((8, 4), (16, 8), (64, 8), (64, 16), (128, 8), (256, 16))


@invariant(
    "critical-set-fractions",
    "Critical-set fractions are proper and nested: "
    "0 <= k3 <= k2 <= 1, and the critical fraction is non-increasing in "
    "the number of concurrent node failures.",
    tags=("models", "combinatorics", "smoke"),
)
def check_critical_set_fractions(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    sizes = set(_CRITICAL_SET_GRID)
    for params in ctx.points:
        sizes.add((params.node_set_size, params.redundancy_set_size))
    violations: List[Violation] = []
    checked = 0
    for n, r in sorted(sizes):
        checked += 1
        k2 = k2_factor(n, r)
        k3 = k3_factor(n, r)
        if not 0.0 <= k3 <= k2 <= 1.0:
            violations.append(
                Violation(
                    invariant="critical-set-fractions",
                    message="k3 <= k2 <= 1 violated",
                    point={"node_set_size": n, "redundancy_set_size": r},
                    details={"k2": k2, "k3": k3},
                )
            )
        fractions = [critical_fraction(n, r, j) for j in range(1, r + 2)]
        if any(b > a + _ORDER_SLACK for a, b in zip(fractions, fractions[1:])):
            violations.append(
                Violation(
                    invariant="critical-set-fractions",
                    message="critical fraction increased with failure depth",
                    point={"node_set_size": n, "redundancy_set_size": r},
                    details={"fractions": fractions},
                )
            )
        if fractions[0] != 1.0:
            violations.append(
                Violation(
                    invariant="critical-set-fractions",
                    message="critical fraction at one failure must be 1",
                    point={"node_set_size": n, "redundancy_set_size": r},
                    details={"fraction": fractions[0]},
                )
            )
    return checked, violations


# --------------------------------------------------------------------- #
# closed forms vs exact solves
# --------------------------------------------------------------------- #


@invariant(
    "closed-form-envelope",
    "The paper's closed forms track the exact chain solves within their "
    "declared k-dependent relative-error envelopes, and err on the "
    "conservative (pessimistic) side.",
    tags=("models", "closed-form", "smoke"),
)
def check_closed_form_envelope(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    exact = ctx.mttdl_table("analytic")
    approx = ctx.mttdl_table("closed_form")
    violations: List[Violation] = []
    checked = 0
    for i, _ in enumerate(ctx.points):
        for config in ctx.configs:
            checked += 1
            ex = exact[(config.key, i)]
            ap = approx[(config.key, i)]
            rel = abs(ap - ex) / ex
            bound = closed_form_bound(config)
            if rel > bound:
                violations.append(
                    Violation(
                        invariant="closed-form-envelope",
                        message=(
                            f"closed form off by {rel:.3g} "
                            f"(declared bound {bound:g})"
                        ),
                        config=config.key,
                        point=ctx.point_label(i),
                        details={"exact": ex, "approx": ap, "bound": bound},
                    )
                )
            if ap > ex * (1.0 + _ORDER_SLACK):
                violations.append(
                    Violation(
                        invariant="closed-form-envelope",
                        message="closed form is optimistic (approx > exact)",
                        config=config.key,
                        point=ctx.point_label(i),
                        details={"exact": ex, "approx": ap},
                    )
                )
    return checked, violations
