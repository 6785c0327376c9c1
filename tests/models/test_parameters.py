"""Tests for the system parameter set."""

import pytest

from repro.models import GB, KB, MB, ParameterError, Parameters


class TestBaseline:
    def test_section6_values(self, baseline):
        assert baseline.node_mttf_hours == 400_000
        assert baseline.drive_mttf_hours == 300_000
        assert baseline.hard_error_rate_per_bit == 1e-14
        assert baseline.drive_capacity_bytes == 300 * GB
        assert baseline.drive_max_iops == 150
        assert baseline.drive_sustained_bps == 40 * MB
        assert baseline.node_set_size == 64
        assert baseline.redundancy_set_size == 8
        assert baseline.drives_per_node == 12
        assert baseline.restripe_command_bytes == 1024 * KB
        assert baseline.rebuild_command_bytes == 128 * KB
        assert baseline.capacity_utilization == 0.75
        assert baseline.rebuild_bandwidth_fraction == 0.10

    def test_c_her_is_paper_value(self, baseline):
        # 300 GB * 8 bits * 1e-14 per bit = 0.024 hard errors per full read.
        assert baseline.hard_error_per_drive_read == pytest.approx(0.024)

    def test_link_sustained_matches_paper(self, baseline):
        # "10 Gbps (800 MB/sec sustained)"
        assert baseline.link_sustained_bytes_per_sec == pytest.approx(800e6)

    def test_failure_rates(self, baseline):
        assert baseline.node_failure_rate == pytest.approx(1 / 400_000)
        assert baseline.drive_failure_rate == pytest.approx(1 / 300_000)

    def test_capacities(self, baseline):
        assert baseline.node_data_bytes == pytest.approx(12 * 300 * GB * 0.75)
        assert baseline.system_raw_bytes == pytest.approx(64 * 12 * 300 * GB)
        assert baseline.system_logical_pb == pytest.approx(0.1728)


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "node_mttf_hours",
            "drive_mttf_hours",
            "drive_capacity_bytes",
            "drive_max_iops",
            "drive_sustained_bps",
            "restripe_command_bytes",
            "rebuild_command_bytes",
            "link_speed_bps",
        ],
    )
    def test_positive_fields(self, field):
        with pytest.raises(ParameterError):
            Parameters(**{field: 0})
        with pytest.raises(ParameterError):
            Parameters(**{field: -1})

    @pytest.mark.parametrize(
        "field",
        [
            "link_sustained_fraction",
            "capacity_utilization",
            "rebuild_bandwidth_fraction",
        ],
    )
    def test_fraction_fields(self, field):
        with pytest.raises(ParameterError):
            Parameters(**{field: 0.0})
        with pytest.raises(ParameterError):
            Parameters(**{field: 1.5})
        Parameters(**{field: 1.0})  # inclusive upper bound

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            pytest.param(10 ** 400, id="int-beyond-float-range"),
        ],
    )
    @pytest.mark.parametrize(
        "field",
        [
            "node_mttf_hours",
            "drive_mttf_hours",
            "hard_error_rate_per_bit",
            "drive_capacity_bytes",
            "node_set_size",
            "drives_per_node",
            "link_speed_bps",
            "rebuild_bandwidth_fraction",
        ],
    )
    def test_non_finite_rejected_naming_the_field(self, field, bad):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            Parameters.baseline().replace(**{field: bad})

    def test_negative_her_rejected(self):
        with pytest.raises(ParameterError):
            Parameters(hard_error_rate_per_bit=-1e-15)

    def test_zero_her_allowed(self):
        Parameters(hard_error_rate_per_bit=0.0)

    def test_node_set_too_small(self):
        with pytest.raises(ParameterError):
            Parameters(node_set_size=1, redundancy_set_size=2)

    def test_redundancy_set_exceeds_node_set(self):
        with pytest.raises(ParameterError):
            Parameters(node_set_size=4, redundancy_set_size=5)

    def test_drives_per_node_minimum(self):
        with pytest.raises(ParameterError):
            Parameters(drives_per_node=0)


class TestConstructors:
    def test_replace_is_validated(self, baseline):
        with pytest.raises(ParameterError):
            baseline.replace(node_set_size=0)

    def test_replace_does_not_mutate(self, baseline):
        changed = baseline.replace(node_set_size=32)
        assert baseline.node_set_size == 64
        assert changed.node_set_size == 32

    def test_with_link_speed_gbps(self, baseline):
        p = baseline.with_link_speed_gbps(5)
        assert p.link_speed_bps == pytest.approx(5e9)
        assert p.link_sustained_bytes_per_sec == pytest.approx(400e6)

    def test_with_rebuild_command_kb(self, baseline):
        p = baseline.with_rebuild_command_kb(64)
        assert p.rebuild_command_bytes == 64 * KB

    def test_to_dict_roundtrip(self, baseline):
        d = baseline.to_dict()
        assert Parameters(**d) == baseline

    def test_frozen(self, baseline):
        with pytest.raises(Exception):
            baseline.node_set_size = 10  # type: ignore[misc]


class TestKeywordOnlyConstruction:
    def test_with_overrides_equals_keyword_construction(self):
        assert Parameters.with_overrides(node_set_size=16) == Parameters(
            node_set_size=16
        )

    def test_with_overrides_defaults_to_baseline(self):
        assert Parameters.with_overrides() == Parameters.baseline()

    def test_with_overrides_validates(self):
        with pytest.raises(ParameterError):
            Parameters.with_overrides(drives_per_node=0)

    def test_positional_construction_raises(self):
        # kw_only dataclass: the interpreter itself rejects positionals
        # now that the hand-written shim finished its deprecation cycle.
        with pytest.raises(TypeError, match="positional"):
            Parameters(400_000.0)

    def test_multiple_positional_arguments_raise(self):
        with pytest.raises(TypeError, match="positional"):
            Parameters(123_456.0, 200_000.0)

    def test_keyword_construction_does_not_warn(self, recwarn):
        Parameters(node_mttf_hours=123_456.0)
        assert not any(
            isinstance(w.message, DeprecationWarning) for w in recwarn.list
        )

    def test_replace_does_not_warn(self, baseline, recwarn):
        baseline.replace(node_set_size=32)
        assert not any(
            isinstance(w.message, DeprecationWarning) for w in recwarn.list
        )

    def test_pickle_round_trip_does_not_warn(self, baseline, recwarn):
        import pickle

        assert pickle.loads(pickle.dumps(baseline)) == baseline
        assert not any(
            isinstance(w.message, DeprecationWarning) for w in recwarn.list
        )


class TestCacheKey:
    """cache_key() is the canonical parameter identity: one derivation,
    bitwise-sensitive, stable across processes."""

    def test_is_stable_digest_of_to_dict(self, baseline):
        from repro.engine.keys import stable_digest

        assert baseline.cache_key() == stable_digest(baseline.to_dict())

    def test_known_value_is_stable_across_processes(self, baseline):
        # A change here means every persisted cache entry silently
        # invalidates — bump engine.keys.CACHE_SCHEMA_VERSION instead.
        key = baseline.cache_key()
        assert len(key) == 64
        assert key == Parameters.baseline().cache_key()

    def test_bitwise_sensitive(self, baseline):
        nudged = baseline.replace(
            drive_mttf_hours=baseline.drive_mttf_hours * (1 + 2**-52)
        )
        assert nudged.drive_mttf_hours != baseline.drive_mttf_hours
        assert nudged.cache_key() != baseline.cache_key()

    def test_equal_params_equal_key(self, baseline):
        same = baseline.replace(drive_mttf_hours=baseline.drive_mttf_hours)
        assert same == baseline
        assert same.cache_key() == baseline.cache_key()

    def test_memo_does_not_leak_into_value_semantics(self, baseline):
        import pickle

        _ = baseline.cache_key()  # populate the memo
        clone = pickle.loads(pickle.dumps(baseline))
        assert clone == baseline
        assert clone.cache_key() == baseline.cache_key()
        assert baseline.to_dict() == clone.to_dict()
        assert "_cache_key_memo" not in baseline.to_dict()
