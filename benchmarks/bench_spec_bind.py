"""Compiled-spec bind vs per-point rebuild: the compile--bind--solve payoff.

The declarative IR's performance claim is concrete: once a chain family
is compiled, binding a whole parameter lattice through the vectorized
rate kernel must be at least 2x faster than rebuilding the chain
point-by-point from its edge list — while producing bitwise-identical
generator matrices.  This benchmark measures three arms on Figure 10
(no-RAID at fault tolerance 3, 16 states, sweeping the drive failure
rate):

* ``rebuild``  — Figure 10's edges written out below and handed to
  ``CTMC(states, transitions)`` per point,
* ``compiled bind``   — ``CompiledChain.bind`` per point (structure
  reused, rates from one run of the compiled rate tape),
* ``compiled bind_batch`` — one stacked numpy pass for every point.

It asserts the 2x bar on the batched arm and a 1.5x bar on the scalar
bind arm, and archives the wall times in
``benchmarks/results/spec_bind.txt``.
"""

import time

import numpy as np
from _bench_utils import archive, host_facts, show

from repro.analysis import format_table
from repro.core import CTMC, Transition
from repro.models.specs import no_raid_env, no_raid_spec

POINTS = 400
TRIALS = 5

N, D = 64, 12
LAMBDA_N = 1.0 / 400_000
MU_N, MU_D = 1.0 / 20, 1.0 / 8
H_WORDS = ("NNN", "NNd", "NdN", "Ndd", "dNN", "dNd", "ddN", "ddd")
H = {w: 0.003 * (i + 1) for i, w in enumerate(H_WORDS)}


def _figure10_chain(n, d, lam_n, lam_d, mu_n, mu_d, h):
    """Figure 10 as drawn: its edges in the figure's order, states
    registered as the edges name them, zero rates dropped."""
    mu = {"N": mu_n, "d": mu_d}
    edges = [
        ("000", "N00", n * lam_n),
        ("000", "d00", n * d * lam_d),
        ("N00", "000", mu_n),
        ("d00", "000", mu_d),
    ]
    for first in "Nd":
        for second in "Nd":
            state = first + second + "0"
            arrival = lam_n if second == "N" else d * lam_d
            edges.append((first + "00", state, (n - 1) * arrival))
            edges.append((state, first + "00", mu[second]))
    for prefix in ("NN", "Nd", "dN", "dd"):
        root = prefix + "0"
        h_n, h_d = min(h[prefix + "N"], 1.0), min(h[prefix + "d"], 1.0)
        edges += [
            (root, prefix + "N", (n - 2) * lam_n * (1.0 - h_n)),
            (root, prefix + "d", (n - 2) * d * lam_d * (1.0 - h_d)),
            (root, "loss", (n - 2) * (lam_n * h_n + d * lam_d * h_d)),
            (prefix + "N", root, mu_n),
            (prefix + "d", root, mu_d),
        ]
    fourth = (n - 3) * (lam_n + d * lam_d)
    edges += [(leaf, "loss", fourth) for leaf in H_WORDS]
    states = list(dict.fromkeys(s for edge in edges for s in edge[:2]))
    transitions = [Transition(*edge) for edge in edges if edge[2] > 0]
    return CTMC(states, transitions, initial_state="000")


def _best_of(fn, trials=TRIALS):
    best = float("inf")
    result = None
    for _ in range(trials):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_spec_bind_speedup_report():
    lambda_ds = [1.0 / mttf for mttf in np.linspace(150_000, 600_000, POINTS)]

    def rebuild_arm():
        return [
            _figure10_chain(N, D, LAMBDA_N, lam_d, MU_N, MU_D, H)
            for lam_d in lambda_ds
        ]

    compiled = no_raid_spec(3).compile()
    envs = [
        no_raid_env(3, N, D, LAMBDA_N, lam_d, MU_N, MU_D, H)
        for lam_d in lambda_ds
    ]

    def bind_arm():
        return [compiled.bind(env) for env in envs]

    stacked = no_raid_env(
        3, N, D, LAMBDA_N, np.array(lambda_ds), MU_N, MU_D, H
    )

    def batch_arm():
        return compiled.bind_batch(stacked)

    rebuild_time, rebuilt_chains = _best_of(rebuild_arm)
    bind_time, bound_chains = _best_of(bind_arm)
    batch_time, batched_chains = _best_of(batch_arm)

    for rebuilt, bound, batched in zip(
        rebuilt_chains, bound_chains, batched_chains
    ):
        assert bound.states == rebuilt.states
        assert batched.states == rebuilt.states
        q = rebuilt.generator_matrix()
        assert np.array_equal(bound.generator_matrix(), q)
        assert np.array_equal(batched.generator_matrix(), q)

    bind_speedup = rebuild_time / bind_time
    batch_speedup = rebuild_time / batch_time
    rows = [
        ["arm", f"wall time (best of {TRIALS})", "speedup"],
        ["rebuild per point", f"{rebuild_time * 1e3:8.2f} ms", "1.00x"],
        ["compiled bind per point", f"{bind_time * 1e3:8.2f} ms", f"{bind_speedup:.2f}x"],
        ["compiled bind_batch", f"{batch_time * 1e3:8.2f} ms", f"{batch_speedup:.2f}x"],
    ]
    text = show(
        f"no-RAID ft3 chain ({compiled.num_states} states), "
        f"{POINTS}-point drive-MTTF sweep: rebuild vs bind\n"
        + format_table(rows)
        + "\ngenerator matrices bitwise identical across all arms\n"
        + host_facts()
    )
    assert batch_speedup >= 2.0, (
        f"bind_batch speedup {batch_speedup:.2f}x < 2x over rebuild"
    )
    assert bind_speedup >= 1.5, (
        f"compiled bind speedup {bind_speedup:.2f}x < 1.5x over rebuild"
    )
    archive(text, "spec_bind.txt")
