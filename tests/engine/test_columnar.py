"""Columnar prepare: one env per configuration group, bitwise per point.

:func:`repro.engine.prepare_groups` computes each configuration's binding
environment once over :class:`~repro.models.parameters.ParameterColumns`;
column ``i`` must equal the scalar ``chain_env()`` of point ``i`` to the
last bit, and the solved MTTDLs must equal ``repro.evaluate``'s.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import ALL_CONFIGURATIONS, Configuration, Parameters
from repro.core.solvers import SolveOptions
from repro.engine import evaluate_chunk, prepare_groups
from repro.engine.solver import SolveContext
from repro.models import InternalRaid
from repro.models.internal_raid import InternalRaidNodeModel
from repro.models.parameters import ParameterColumns
from repro.models.specs import spec_for_key

_MIN_DRIVES = {InternalRaid.NONE: 1, InternalRaid.RAID5: 2, InternalRaid.RAID6: 3}
#: The nine configurations plus the appendix recursion (FT 4 without
#: internal RAID) and a deeper internal-RAID chain.
_CONFIGS = ALL_CONFIGURATIONS + (
    Configuration(InternalRaid.NONE, 4),
    Configuration(InternalRaid.RAID6, 4),
)


def _number(lo, hi):
    """Float- or int-typed values in ``[lo, hi]``."""
    return st.one_of(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        st.integers(int(lo), int(hi)),
    )


@st.composite
def _params(draw, min_drives, min_nodes):
    n = draw(st.integers(min_nodes, 200))
    return Parameters(
        node_set_size=n,
        redundancy_set_size=draw(st.integers(2, n)),
        drives_per_node=draw(st.integers(min_drives, 40)),
        node_mttf_hours=draw(_number(1e2, 1e8)),
        drive_mttf_hours=draw(_number(1e2, 1e8)),
        hard_error_rate_per_bit=draw(
            st.one_of(st.just(0), st.floats(0.0, 1e-11))
        ),
        drive_capacity_bytes=draw(_number(1e9, 2e13)),
        drive_max_iops=draw(_number(10, 2000)),
        drive_sustained_bps=draw(_number(1e6, 1e9)),
        rebuild_command_bytes=draw(_number(4096, 4 * 2**20)),
        restripe_command_bytes=draw(_number(4096, 16 * 2**20)),
        link_speed_bps=draw(_number(1e8, 1e11)),
        rebuild_bandwidth_fraction=draw(st.floats(0.01, 1.0)),
        capacity_utilization=draw(st.floats(0.05, 1.0)),
    )


@st.composite
def _groups(draw):
    config = draw(st.sampled_from(_CONFIGS))
    size = draw(st.integers(1, 6))
    members = [
        draw(
            _params(
                _MIN_DRIVES[config.internal], config.node_fault_tolerance + 1
            )
        )
        for _ in range(size)
    ]
    # Repeat some members so constant and varying fields both occur.
    members += draw(st.lists(st.sampled_from(members), max_size=3))
    return config, members, draw(st.sampled_from(["approx", "exact"]))


def _scalar_env(config, params, rates_method):
    if config.internal is InternalRaid.NONE:
        return config.model(params).chain_env()
    return InternalRaidNodeModel(
        params,
        config.internal,
        config.node_fault_tolerance,
        rates_method=rates_method,
    ).chain_env()


def _bits(value):
    return np.float64(value).tobytes()


@settings(max_examples=150, deadline=None)
@given(_groups())
def test_columns_match_scalar_envs_bitwise(group):
    config, members, rates_method = group
    (prepared,) = prepare_groups(
        [(config, p) for p in members], SolveContext(), rates_method
    )
    assert sorted(prepared.members) == list(range(len(members)))
    assert prepared.compiled.spec_hash == spec_for_key(config.key).spec_hash
    for name, value in prepared.env.items():
        column = np.broadcast_to(value, (len(members),))
        for slot, i in enumerate(prepared.members):
            expected = _scalar_env(config, members[i], rates_method)[name]
            assert _bits(column[slot]) == _bits(expected), (name, i)
    options = SolveOptions(rates_method=rates_method)
    tasks = [(config, p, "analytic") for p in members]
    assert evaluate_chunk(tasks, options=options) == [
        repro.evaluate(config, p, options=options).mttdl_hours for p in members
    ]


def test_constant_fields_stay_python_scalars():
    base = Parameters.baseline()
    cols = ParameterColumns([base, base.replace(node_set_size=32)])
    assert cols.node_set_size.tolist() == [64, 32]
    assert cols.node_set_size.dtype.kind == "i"
    assert cols.drive_capacity_bytes is base.drive_capacity_bytes
    assert cols.node_failure_rate == base.node_failure_rate


def test_mixed_int_and_float_values_become_a_column():
    base = Parameters.baseline()
    cols = ParameterColumns([base, base.replace(drive_max_iops=150)])
    assert isinstance(cols.drive_max_iops, np.ndarray)
    assert cols.drive_max_iops.dtype == np.float64


def test_raid5_and_raid6_share_one_group():
    base = Parameters.baseline()
    points = [
        (config, base.replace(node_mttf_hours=m))
        for m in (2e5, 4e5)
        for config in ALL_CONFIGURATIONS
        if config.node_fault_tolerance == 2
    ]
    groups = prepare_groups(points, SolveContext())
    assert sorted(len(g.members) for g in groups) == [2, 4]
    assert sorted(i for g in groups for i in g.members) == list(range(6))


def test_single_point_binds_from_scalars():
    config = ALL_CONFIGURATIONS[4]
    (group,) = prepare_groups(
        [(config, Parameters.baseline())], SolveContext()
    )
    assert not any(isinstance(v, np.ndarray) for v in group.env.values())
    assert group.env == config.model(Parameters.baseline()).chain_env()


def test_duplicate_points_each_get_a_chain():
    base = Parameters.baseline()
    tasks = [(ALL_CONFIGURATIONS[0], base, "analytic")] * 3
    expected = repro.evaluate(ALL_CONFIGURATIONS[0], base).mttdl_hours
    assert evaluate_chunk(tasks) == [expected] * 3


def test_array_memo_counts_one_lookup_per_point():
    base = Parameters.baseline()
    config = ALL_CONFIGURATIONS[1]  # ft1_raid5
    points = [
        (config, base.replace(drive_mttf_hours=m))
        for m in (2e5, 2e5, 3e5, 2e5)
    ]
    ctx = SolveContext()
    prepare_groups(points, ctx)
    assert (ctx.array_misses, ctx.array_hits) == (2, 2)
    prepare_groups(points, ctx)
    assert (ctx.array_misses, ctx.array_hits) == (2, 6)


def test_invalid_member_rejects_the_group():
    base = Parameters.baseline()
    config = ALL_CONFIGURATIONS[-1]  # ft3_raid6
    points = [
        (config, base),
        (config, base.replace(node_set_size=3, redundancy_set_size=3)),
    ]
    with pytest.raises(ValueError, match="larger than the fault tolerance"):
        prepare_groups(points, SolveContext())
