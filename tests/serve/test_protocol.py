"""Request parsing, validation and response shaping for the serving layer."""

import pytest

from repro.core.solvers import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.engine.keys import point_key
from repro.models.configurations import Configuration
from repro.models.metrics import ReliabilityResult
from repro.serve.protocol import (
    MAX_FAULT_TOLERANCE,
    MAX_POINTS_PER_REQUEST,
    MAX_SWEEP_VALUES,
    PointQuery,
    ProtocolError,
    params_with_overrides,
    parse_evaluate_body,
    parse_sweep_body,
    point_response,
)

pytestmark = pytest.mark.serve


# --------------------------------------------------------------------- #
# params_with_overrides
# --------------------------------------------------------------------- #


class TestParamsWithOverrides:
    def test_none_returns_base(self, baseline):
        assert params_with_overrides(baseline, None) is baseline

    def test_override_applies(self, baseline):
        out = params_with_overrides(baseline, {"drive_mttf_hours": 2e5})
        assert out.drive_mttf_hours == 2e5
        assert out.node_set_size == baseline.node_set_size

    def test_int_fields_stay_int(self, baseline):
        out = params_with_overrides(baseline, {"node_set_size": 64.0})
        assert out.node_set_size == 64
        assert isinstance(out.node_set_size, int)

    def test_unknown_field_rejected(self, baseline):
        with pytest.raises(ProtocolError, match="unknown parameter field"):
            params_with_overrides(baseline, {"warp_factor": 9})

    def test_non_numeric_rejected(self, baseline):
        with pytest.raises(ProtocolError, match="must be a number"):
            params_with_overrides(baseline, {"drive_mttf_hours": "fast"})
        with pytest.raises(ProtocolError, match="must be a number"):
            params_with_overrides(baseline, {"drive_mttf_hours": True})

    def test_non_mapping_rejected(self, baseline):
        with pytest.raises(ProtocolError, match="must be an object"):
            params_with_overrides(baseline, [1, 2])

    def test_invalid_value_rejected(self, baseline):
        with pytest.raises(ProtocolError):
            params_with_overrides(baseline, {"drive_mttf_hours": -1.0})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("node_mttf_hours", float("nan")),
            ("drive_mttf_hours", float("inf")),
            ("drives_per_node", float("inf")),
            ("node_set_size", float("nan")),
            pytest.param(
                "drive_mttf_hours", 10 ** 400, id="int-beyond-float-range"
            ),
        ],
    )
    def test_non_finite_rejected_naming_the_field(self, baseline, field, bad):
        with pytest.raises(ProtocolError, match=f"{field}.* must be finite"):
            params_with_overrides(baseline, {field: bad})


# --------------------------------------------------------------------- #
# /v1/evaluate parsing
# --------------------------------------------------------------------- #


class TestParseEvaluateBody:
    def test_single_point(self, baseline):
        queries = parse_evaluate_body({"config": "ft2_raid5"}, baseline)
        assert len(queries) == 1
        q = queries[0]
        assert q.config.key == "ft2_raid5"
        assert q.method == "analytic"
        assert q.params == baseline

    def test_multi_point(self, baseline):
        body = {"points": [{"config": "ft1_noraid"}, {"config": "ft3_raid6"}]}
        queries = parse_evaluate_body(body, baseline)
        assert [q.config.key for q in queries] == ["ft1_noraid", "ft3_raid6"]

    def test_point_overrides(self, baseline):
        queries = parse_evaluate_body(
            {"config": "ft1_raid5", "params": {"node_set_size": 64}}, baseline
        )
        assert queries[0].params.node_set_size == 64

    def test_method_normalization(self, baseline):
        q = parse_evaluate_body(
            {"config": "ft1_raid5", "method": "closed_form"}, baseline
        )[0]
        assert q.method == "closed_form"
        for spelling in ("exact", "approx"):
            with pytest.raises(
                ProtocolError, match="'analytic', 'closed_form' or 'monte_carlo'"
            ):
                parse_evaluate_body(
                    {"config": "ft1_raid5", "method": spelling}, baseline
                )

    def test_unknown_method(self, baseline):
        with pytest.raises(ProtocolError):
            parse_evaluate_body(
                {"config": "ft1_raid5", "method": "oracle"}, baseline
            )

    def test_unknown_config(self, baseline):
        with pytest.raises(ProtocolError):
            parse_evaluate_body({"config": "ft9_raid0"}, baseline)

    @pytest.mark.parametrize("key", ["ft7_noraid", "ft7_raid6", "ft40_noraid"])
    def test_fault_tolerance_bound(self, baseline, key):
        with pytest.raises(
            ProtocolError, match=f"maximum of {MAX_FAULT_TOLERANCE}"
        ):
            parse_evaluate_body({"config": key}, baseline)
        with pytest.raises(
            ProtocolError, match=f"maximum of {MAX_FAULT_TOLERANCE}"
        ):
            parse_sweep_body(
                {
                    "configs": [key],
                    "axis": {"name": "drive_mttf_hours", "values": [3e5]},
                },
                baseline,
            )

    def test_fault_tolerance_at_bound_accepted(self, baseline):
        (query,) = parse_evaluate_body(
            {"config": f"ft{MAX_FAULT_TOLERANCE}_noraid"}, baseline
        )
        assert query.config.node_fault_tolerance == MAX_FAULT_TOLERANCE

    def test_missing_config(self, baseline):
        with pytest.raises(ProtocolError, match='"config"'):
            parse_evaluate_body({"method": "analytic"}, baseline)

    def test_unknown_point_field(self, baseline):
        with pytest.raises(ProtocolError, match="unknown point field"):
            parse_evaluate_body(
                {"config": "ft1_raid5", "sudo": True}, baseline
            )

    def test_non_object_body(self, baseline):
        with pytest.raises(ProtocolError):
            parse_evaluate_body([{"config": "ft1_raid5"}], baseline)

    def test_empty_points(self, baseline):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_evaluate_body({"points": []}, baseline)

    def test_points_cap(self, baseline):
        body = {
            "points": [{"config": "ft1_noraid"}] * (MAX_POINTS_PER_REQUEST + 1)
        }
        with pytest.raises(ProtocolError, match="at most"):
            parse_evaluate_body(body, baseline)

    def test_replicas_bounds(self, baseline):
        with pytest.raises(ProtocolError, match='"replicas"'):
            parse_evaluate_body(
                {"config": "ft1_raid5", "replicas": 0}, baseline
            )
        with pytest.raises(ProtocolError, match='"replicas"'):
            parse_evaluate_body(
                {"config": "ft1_raid5", "replicas": 10**9}, baseline
            )

    def test_availability_flag(self, baseline):
        q = parse_evaluate_body(
            {"config": "ft1_raid5", "availability": True}, baseline
        )[0]
        assert q.recovery_hours == 168.0
        q = parse_evaluate_body(
            {
                "config": "ft1_raid5",
                "availability": {"recovery_hours": 24},
            },
            baseline,
        )[0]
        assert q.recovery_hours == 24.0

    def test_availability_rejected_for_monte_carlo(self, baseline):
        with pytest.raises(ProtocolError, match="monte_carlo"):
            parse_evaluate_body(
                {
                    "config": "ft1_raid5",
                    "method": "monte_carlo",
                    "availability": True,
                },
                baseline,
            )

    def test_solve_options_parsed(self, baseline):
        q = parse_evaluate_body(
            {
                "config": "ft1_raid5",
                "options": {"backend": "sparse_iterative", "tolerance": 1e-8},
            },
            baseline,
        )[0]
        assert q.options.backend == "sparse_iterative"
        assert q.options.tolerance == 1e-8

    def test_solve_options_default(self, baseline):
        q = parse_evaluate_body({"config": "ft1_raid5"}, baseline)[0]
        assert q.options is DEFAULT_SOLVE_OPTIONS

    def test_bad_solve_options_rejected(self, baseline):
        with pytest.raises(ProtocolError, match='bad "options"'):
            parse_evaluate_body(
                {"config": "ft1_raid5", "options": {"backend": "quantum"}},
                baseline,
            )
        with pytest.raises(ProtocolError, match='bad "options"'):
            parse_evaluate_body(
                {"config": "ft1_raid5", "options": {"turbo": True}},
                baseline,
            )

    def test_monte_carlo_backend_must_use_method(self, baseline):
        with pytest.raises(ProtocolError, match='"method"'):
            parse_evaluate_body(
                {
                    "config": "ft1_raid5",
                    "options": {"backend": "monte_carlo"},
                },
                baseline,
            )


# --------------------------------------------------------------------- #
# /v1/sweep parsing
# --------------------------------------------------------------------- #


class TestParseSweepBody:
    BODY = {
        "configs": ["ft1_raid5", "ft2_raid5"],
        "axis": {"name": "drive_mttf_hours", "values": [1e5, 3e5]},
    }

    def test_valid(self, baseline):
        q = parse_sweep_body(self.BODY, baseline)
        assert [c.key for c in q.configs] == ["ft1_raid5", "ft2_raid5"]
        assert q.axis_name == "drive_mttf_hours"
        assert q.values == (1e5, 3e5)
        assert q.params == (
            baseline.replace(drive_mttf_hours=1e5),
            baseline.replace(drive_mttf_hours=3e5),
        )
        assert q.method == "analytic"

    def test_int_field_values_cast(self, baseline):
        body = dict(self.BODY, axis={"name": "node_set_size", "values": [16.0]})
        (params,) = parse_sweep_body(body, baseline).params
        assert params.node_set_size == 16
        assert isinstance(params.node_set_size, int)

    def test_unknown_axis(self, baseline):
        body = dict(self.BODY, axis={"name": "warp", "values": [1]})
        with pytest.raises(ProtocolError, match="unknown sweep axis"):
            parse_sweep_body(body, baseline)

    def test_monte_carlo_rejected(self, baseline):
        with pytest.raises(ProtocolError, match="monte_carlo"):
            parse_sweep_body(dict(self.BODY, method="monte_carlo"), baseline)

    @pytest.mark.parametrize("method", ["exact", "approx"])
    def test_pre_engine_spellings_rejected(self, baseline, method):
        with pytest.raises(
            ProtocolError, match="'analytic', 'closed_form' or 'monte_carlo'"
        ):
            parse_sweep_body(dict(self.BODY, method=method), baseline)

    def test_values_cap(self, baseline):
        body = dict(
            self.BODY,
            axis={
                "name": "drive_mttf_hours",
                "values": [1e5 + i for i in range(MAX_SWEEP_VALUES + 1)],
            },
        )
        with pytest.raises(ProtocolError, match="at most"):
            parse_sweep_body(body, baseline)

    def test_inadmissible_value_rejected_upfront(self, baseline):
        body = dict(
            self.BODY, axis={"name": "drive_mttf_hours", "values": [1e5, -1]}
        )
        with pytest.raises(ProtocolError):
            parse_sweep_body(body, baseline)

    def test_empty_configs(self, baseline):
        with pytest.raises(ProtocolError, match='"configs"'):
            parse_sweep_body(dict(self.BODY, configs=[]), baseline)


# --------------------------------------------------------------------- #
# cache keys and responses
# --------------------------------------------------------------------- #


class TestCacheKey:
    def test_analytic_key_is_engine_point_key(self, baseline):
        config = Configuration.from_key("ft2_raid5")
        q = PointQuery(config=config, params=baseline, method="analytic")
        assert q.cache_key() == point_key(config, baseline, "analytic", None)

    def test_monte_carlo_key_varies_with_seed_and_replicas(self, baseline):
        config = Configuration.from_key("ft1_raid5")

        def key(**kw):
            return PointQuery(
                config=config, params=baseline, method="monte_carlo", **kw
            ).cache_key()

        assert key(seed=0) != key(seed=1)
        assert key(replicas=100) != key(replicas=200)
        assert key(seed=3, replicas=100) == key(seed=3, replicas=100)

    def test_recovery_hours_changes_key(self, baseline):
        config = Configuration.from_key("ft1_raid5")
        plain = PointQuery(config=config, params=baseline)
        with_avail = PointQuery(
            config=config, params=baseline, recovery_hours=24.0
        )
        assert plain.cache_key() != with_avail.cache_key()

    def test_params_change_key(self, baseline):
        config = Configuration.from_key("ft1_raid5")
        a = PointQuery(config=config, params=baseline)
        b = PointQuery(
            config=config, params=baseline.replace(drive_mttf_hours=461387.0)
        )
        assert a.cache_key() != b.cache_key()

    def test_default_options_leave_key_unchanged(self, baseline):
        # Pre-options cache entries must stay valid: the default options
        # contribute nothing to the key.
        config = Configuration.from_key("ft2_raid5")
        q = PointQuery(
            config=config,
            params=baseline,
            method="analytic",
            options=SolveOptions(),
        )
        assert q.cache_key() == point_key(config, baseline, "analytic", None)

    def test_non_default_options_change_key(self, baseline):
        config = Configuration.from_key("ft2_raid5")
        plain = PointQuery(config=config, params=baseline)
        sparse = PointQuery(
            config=config,
            params=baseline,
            options=SolveOptions(backend="sparse_iterative"),
        )
        tight = PointQuery(
            config=config,
            params=baseline,
            options=SolveOptions(backend="sparse_iterative", tolerance=1e-6),
        )
        assert plain.cache_key() != sparse.cache_key()
        assert sparse.cache_key() != tight.cache_key()


class TestPointResponse:
    def test_fields(self, baseline):
        config = Configuration.from_key("ft2_raid5")
        q = PointQuery(config=config, params=baseline)
        result = ReliabilityResult.from_mttdl(1e9, baseline)
        out = point_response(q, result, cached=False)
        assert out["config"] == "ft2_raid5"
        assert out["method"] == "analytic"
        assert out["mttdl_hours"] == 1e9
        assert out["params_key"] == baseline.cache_key()
        assert out["cached"] is False
        assert "availability" not in out
        assert "replicas" not in out

    def test_monte_carlo_extras(self, baseline):
        config = Configuration.from_key("ft1_raid5")
        q = PointQuery(
            config=config,
            params=baseline,
            method="monte_carlo",
            replicas=500,
            seed=7,
        )
        result = ReliabilityResult.from_mttdl(1e6, baseline)
        out = point_response(q, result, cached=True)
        assert out["replicas"] == 500
        assert out["seed"] == 7
        assert out["cached"] is True
