"""Cross-consistency property tests across the model stack.

These check relationships that must hold between independent pieces of
the library on hypothesis-generated operating points: exact rational
solves vs GTH, monotonicity of MTTDL in every rate, and the invariance
properties the per-PB normalization promises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exact_mttdl
from repro.models import (
    Configuration,
    InternalRaid,
    NoRaidNodeModel,
    Parameters,
    build_internal_raid_chain,
)


def random_params(seed: int) -> Parameters:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 64))
    r = int(rng.integers(4, min(n, 16) + 1))
    return Parameters.baseline().replace(
        node_set_size=n,
        redundancy_set_size=r,
        drives_per_node=int(rng.integers(2, 24)),
        node_mttf_hours=float(10 ** rng.uniform(4.5, 6.5)),
        drive_mttf_hours=float(10 ** rng.uniform(4.5, 6.5)),
        hard_error_rate_per_bit=float(10 ** rng.uniform(-16, -14)),
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_gth_matches_rational_arithmetic(seed):
    """GTH vs exact Fractions on random paper chains: the float solver is
    trustworthy at every operating point hypothesis finds."""
    params = random_params(seed)
    chain = NoRaidNodeModel(params, 2).chain()
    numeric = chain.mean_time_to_absorption()
    exact = float(exact_mttdl(chain))
    assert numeric == pytest.approx(exact, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_mttdl_monotone_in_mttf(seed):
    """Better hardware never hurts: MTTDL is monotone in both MTTFs."""
    params = random_params(seed)
    config = Configuration(InternalRaid.NONE, 2)
    base = config.mttdl_hours(params)
    better_drives = config.mttdl_hours(
        params.replace(drive_mttf_hours=params.drive_mttf_hours * 2)
    )
    better_nodes = config.mttdl_hours(
        params.replace(node_mttf_hours=params.node_mttf_hours * 2)
    )
    assert better_drives >= base
    assert better_nodes >= base


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_mttdl_monotone_in_fault_tolerance(seed):
    """More cross-node tolerance never hurts (at any random point)."""
    params = random_params(seed)
    values = [
        NoRaidNodeModel(params, t).mttdl_exact() for t in (1, 2, 3)
    ]
    assert values[0] <= values[1] <= values[2]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    t=st.integers(min_value=1, max_value=3),
)
def test_internal_chain_monotone_in_repair_rate(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(t + 2, 64))
    lam_n = 10.0 ** rng.uniform(-7, -5)
    mu = 10.0 ** rng.uniform(-1, 1)
    slow = build_internal_raid_chain(t, n, lam_n, 0.0, 1e-5, mu, 0.5)
    fast = build_internal_raid_chain(t, n, lam_n, 0.0, 1e-5, mu * 3, 0.5)
    assert fast.mean_time_to_absorption() >= slow.mean_time_to_absorption()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_events_per_pb_year_capacity_invariance(seed):
    """Doubling drive capacity at a fixed hard-error rate *per bit read
    during rebuild of the same data* would change physics; but doubling
    capacity with HER scaled to keep C*HER constant must leave the
    normalized metric nearly unchanged (the cancellation the paper's
    Figure 20 relies on, in its purest form)."""
    params = random_params(seed)
    config = Configuration(InternalRaid.NONE, 2)
    base = config.reliability(params).events_per_pb_year
    scaled = params.replace(
        drive_capacity_bytes=params.drive_capacity_bytes * 2,
        hard_error_rate_per_bit=params.hard_error_rate_per_bit / 2,
    )
    doubled = config.reliability(scaled).events_per_pb_year
    # Capacity doubles the data to rebuild (halving mu) but also doubles
    # the PB normalizer; the residual effect is the longer rebuild window,
    # bounded well within an order of magnitude.
    assert base / 10 < doubled < base * 10
