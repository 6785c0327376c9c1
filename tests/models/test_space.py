"""Tests for the declarative search-space helper (repro.models.space).

The helper owns configuration/parameter grid enumeration for the
analysis layer, the fleet scenario generator and the design-space
optimizer, so these tests pin three things: the enumeration orders the
existing callers rely on, the silent-skip semantics for physically
infeasible points, and the contract that every validation failure names
the offending axis.
"""

import itertools
import json

import pytest

from repro.models import (
    ALL_CONFIGURATIONS,
    ConfigSpace,
    Configuration,
    InternalRaid,
    ParamAxis,
    ParameterError,
    Parameters,
    SearchSpace,
    SpaceError,
    all_configurations,
    storage_overhead,
)
from repro.models.scrubbing import ScrubbingModel


BASE = Parameters.baseline()


def reference_grid(space, base):
    """Reference enumeration: every axis combination resolved afresh
    for each configuration, skipping combinations the parameter model
    rejects and those with ``R <= t``."""
    combos = list(itertools.product(*(a.values for a in space.axes)))
    points, skipped = [], 0
    for config in space.configs.configurations():
        for combo in combos:
            params = base
            try:
                for axis, value in zip(space.axes, combo):
                    params = axis.apply(params, value)
            except (ParameterError, ValueError):
                skipped += 1
                continue
            if params.redundancy_set_size <= config.node_fault_tolerance:
                skipped += 1
                continue
            coords = tuple(
                (axis.name, value) for axis, value in zip(space.axes, combo)
            )
            points.append((config, coords, params))
    return points, skipped


class TestConfigSpace:
    def test_default_grid_matches_paper(self):
        space = ConfigSpace()
        assert space.size == 9
        assert space.configurations() == list(ALL_CONFIGURATIONS)

    def test_all_configurations_order_preserved(self):
        configs = all_configurations()
        assert len(configs) == 9
        assert configs[0].key == "ft1_noraid"
        assert [c.key for c in configs] == [c.key for c in ALL_CONFIGURATIONS]

    def test_major_orders(self):
        """Tolerances are the outer loop; there is no other order."""
        space = ConfigSpace(
            internal_levels=(InternalRaid.NONE, InternalRaid.RAID5),
            fault_tolerances=(1, 2),
        )
        keys = [c.key for c in space.configurations()]
        assert keys == ["ft1_noraid", "ft1_raid5", "ft2_noraid", "ft2_raid5"]
        with pytest.raises(TypeError):
            space.configurations(major="internal")

    @pytest.mark.parametrize(
        "kwargs, axis",
        [
            ({"internal_levels": ()}, "internal"),
            ({"internal_levels": ("raid5",)}, "internal"),
            (
                {
                    "internal_levels": (
                        InternalRaid.RAID5,
                        InternalRaid.RAID5,
                    )
                },
                "internal",
            ),
            ({"fault_tolerances": ()}, "fault_tolerance"),
            ({"fault_tolerances": (0,)}, "fault_tolerance"),
            ({"fault_tolerances": (1, 1)}, "fault_tolerance"),
            ({"fault_tolerances": (True,)}, "fault_tolerance"),
        ],
    )
    def test_validation_names_axis(self, kwargs, axis):
        with pytest.raises(SpaceError) as excinfo:
            ConfigSpace(**kwargs)
        assert excinfo.value.axis == axis
        assert f"axis {axis!r}" in str(excinfo.value)

    def test_dict_round_trip(self):
        space = ConfigSpace(
            internal_levels=(InternalRaid.RAID6,), fault_tolerances=(2, 3)
        )
        assert ConfigSpace.from_dict(space.to_dict()) == space

    def test_from_dict_rejects_unknown_raid_level(self):
        with pytest.raises(SpaceError) as excinfo:
            ConfigSpace.from_dict({"internal": ["raid7"]})
        assert excinfo.value.axis == "internal"
        assert "raid7" in str(excinfo.value)

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(SpaceError) as excinfo:
            ConfigSpace.from_dict({"raid": ["raid5"]})
        assert excinfo.value.axis == "raid"

    def test_noraid_alias_round_trips_config_keys(self):
        space = ConfigSpace.from_dict({"internal": ["noraid"]})
        assert space.internal_levels == (InternalRaid.NONE,)


class TestParamAxis:
    def test_apply_preserves_field_type(self):
        axis = ParamAxis("redundancy_set_size", (6, 8))
        out = axis.apply(BASE, 8.0)
        assert out.redundancy_set_size == 8
        assert isinstance(out.redundancy_set_size, int)

    def test_derived_scrub_axis_folds_into_error_rate(self):
        axis = ParamAxis("scrub_interval_hours", (168.0,))
        out = axis.apply(BASE, 168.0)
        expected = ScrubbingModel().scrubbed_parameters(BASE, 168.0)
        assert out.hard_error_rate_per_bit == expected.hard_error_rate_per_bit
        axis.validate(BASE)  # derived axes validate by applying

    @pytest.mark.parametrize(
        "name, values",
        [
            ("redundancy_set_size", ()),
            ("redundancy_set_size", ("six",)),
            ("redundancy_set_size", (6, 6)),
            ("redundancy_set_size", (True,)),
            ("drives_per_node", (8, float("inf"))),
            ("redundancy_set_size", (8, float("-inf"))),
            ("node_mttf_hours", (8, float("nan"))),
            ("scrub_interval_hours", (8, float("inf"))),
            pytest.param(
                "node_mttf_hours", (8, 10 ** 400), id="int-beyond-float-range"
            ),
        ],
    )
    def test_validation_names_axis(self, name, values):
        with pytest.raises(SpaceError) as excinfo:
            ParamAxis(name, values)
        assert excinfo.value.axis == name

    def test_validate_rejects_unknown_field(self):
        axis = ParamAxis("no_such_field", (1, 2))
        with pytest.raises(SpaceError) as excinfo:
            axis.validate(BASE)
        assert excinfo.value.axis == "no_such_field"
        # The message lists the derived axes so the caller can self-serve.
        assert "scrub_interval_hours" in str(excinfo.value)


class TestSearchSpace:
    def test_size_is_cartesian_product(self):
        space = SearchSpace(
            configs=ConfigSpace(fault_tolerances=(1, 2)),
            axes=(
                ParamAxis("redundancy_set_size", (6, 8, 12)),
                ParamAxis("node_set_size", (32, 64)),
            ),
        )
        assert space.size() == 3 * 2 * 3 * 2

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpaceError) as excinfo:
            SearchSpace(
                axes=(
                    ParamAxis("redundancy_set_size", (6,)),
                    ParamAxis("redundancy_set_size", (8,)),
                )
            )
        assert excinfo.value.axis == "redundancy_set_size"

    def test_grid_skips_infeasible_combinations(self):
        # R=2 is infeasible against t=2 and t=3 (R <= t): one skip per
        # internal level per infeasible tolerance.
        space = SearchSpace(axes=(ParamAxis("redundancy_set_size", (2, 8)),))
        points, skipped = space.grid(BASE)
        assert skipped == 6
        assert len(points) == space.size() - skipped
        assert all(
            p.params.redundancy_set_size > p.config.node_fault_tolerance
            for p in points
        )

    def test_grid_skips_parameter_model_rejections(self):
        # R > N is rejected by the parameter model, not the R<=t guard.
        space = SearchSpace(
            configs=ConfigSpace(
                internal_levels=(InternalRaid.NONE,), fault_tolerances=(1,)
            ),
            axes=(
                ParamAxis("node_set_size", (8,)),
                ParamAxis("redundancy_set_size", (6, 16)),
            ),
        )
        points, skipped = space.grid(BASE)
        assert skipped == 1
        assert [p.params.redundancy_set_size for p in points] == [6]

    def test_points_carry_coords_and_plain_params(self):
        space = SearchSpace(
            configs=ConfigSpace(
                internal_levels=(InternalRaid.RAID5,), fault_tolerances=(2,)
            ),
            axes=(ParamAxis("redundancy_set_size", (8,)),),
        )
        (point,) = list(space.enumerate(BASE))
        assert point.config == Configuration(InternalRaid.RAID5, 2)
        assert point.coords == (("redundancy_set_size", 8),)
        assert point.params == BASE.replace(redundancy_set_size=8)

    @pytest.mark.parametrize(
        "axes",
        [
            # R > N combos (parameter-model rejections) and R <= t skips.
            (
                ParamAxis("node_set_size", (8, 32)),
                ParamAxis("redundancy_set_size", (2, 3, 6, 16)),
            ),
            # A derived axis between two plain ones.
            (
                ParamAxis("redundancy_set_size", (3, 8)),
                ParamAxis("scrub_interval_hours", (24.0, 730.0)),
                ParamAxis("drive_mttf_hours", (3.0e5, 1.0e6)),
            ),
            (),
        ],
        ids=["r-gt-n", "derived", "no-axes"],
    )
    def test_grid_matches_reference_loop(self, axes):
        space = SearchSpace(axes=axes)
        points, skipped = space.grid(BASE)
        expected, expected_skipped = reference_grid(space, BASE)
        assert [(p.config, p.coords, p.params) for p in points] == expected
        assert skipped == expected_skipped
        # Points with equal coords share one parameter set object.
        by_coords = {}
        for p in points:
            assert by_coords.setdefault(p.coords, p.params) is p.params

    def test_validate_names_offending_axis(self):
        space = SearchSpace(axes=(ParamAxis("not_a_field", (1,)),))
        with pytest.raises(SpaceError) as excinfo:
            space.validate(BASE)
        assert excinfo.value.axis == "not_a_field"

    def test_json_round_trip(self):
        space = SearchSpace(
            configs=ConfigSpace(
                internal_levels=(InternalRaid.NONE, InternalRaid.RAID6),
                fault_tolerances=(1, 3),
            ),
            axes=(ParamAxis("redundancy_set_size", (6, 12)),),
        )
        payload = json.loads(json.dumps(space.to_dict()))
        parsed = SearchSpace.from_dict(payload)
        assert parsed.configs == space.configs
        assert parsed.axes == space.axes
        base_points, _ = space.grid(BASE)
        parsed_points, _ = parsed.grid(BASE)
        assert base_points == parsed_points

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(SpaceError) as excinfo:
            SearchSpace.from_dict({"axis": {}})
        assert excinfo.value.axis == "axis"


class TestStorageOverhead:
    def test_cross_node_only(self):
        config = Configuration(InternalRaid.NONE, 2)
        assert storage_overhead(config, 8, 12) == 8 / 6

    def test_internal_raid_multiplies(self):
        raid5 = Configuration(InternalRaid.RAID5, 2)
        raid6 = Configuration(InternalRaid.RAID6, 2)
        assert storage_overhead(raid5, 8, 12) == (8 / 6) * 12 / 11
        assert storage_overhead(raid6, 8, 12) == (8 / 6) * 12 / 10

    def test_rejects_r_not_exceeding_t(self):
        config = Configuration(InternalRaid.NONE, 3)
        with pytest.raises(ValueError):
            storage_overhead(config, 3, 12)
