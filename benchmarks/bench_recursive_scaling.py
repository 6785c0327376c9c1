"""Appendix scaling: no-internal-RAID chain construction (the appendix's
level-by-level doubling) and GTH solve time as a function of fault
tolerance k, plus Figure A1 agreement at every k.

The chain has 2^(k+1) - 1 states and the solve is O(states^3); the GTH
elimination keeps it accurate even at condition numbers beyond 1e16.
"""

import pytest
from _bench_utils import emit_text, host_facts

from repro.analysis import format_table
from repro.models import NoRaidNodeModel, Parameters


@pytest.fixture(scope="module")
def params():
    return Parameters.with_overrides(node_set_size=128, redundancy_set_size=16)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_recursive_solve_scaling(benchmark, params, k):
    model = NoRaidNodeModel(params, fault_tolerance=k)
    mttdl = benchmark(model.mttdl_exact)
    assert mttdl > 0
    if k == 1:
        # At k = 1 the baseline's h_N = d(R-1)C*HER exceeds 1: the chain
        # clamps the probability, the closed form does not, so Figure A1
        # is conservative (underestimates) rather than tight.
        assert model.mttdl_approx() <= mttdl
    else:
        # Figure A1 tracks the exact solve for every higher k.
        assert model.mttdl_approx() == pytest.approx(mttdl, rel=0.25)


def test_recursive_scaling_report(params):
    rows = [["k", "states", "MTTDL exact (h)", "Figure A1 (h)", "ratio"]]
    for k in range(1, 8):
        model = NoRaidNodeModel(params, fault_tolerance=k)
        chain = model.chain()
        exact = chain.mean_time_to_absorption()
        approx = model.mttdl_approx()
        rows.append(
            [
                str(k),
                str(chain.num_states - 1),
                f"{exact:.4g}",
                f"{approx:.4g}",
                f"{approx / exact:.3f}",
            ]
        )
    emit_text(
        "Appendix: recursive construction, arbitrary fault tolerance\n"
        + format_table(rows)
        + "\n"
        + host_facts(),
        "recursive_scaling.txt",
    )
