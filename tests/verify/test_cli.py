"""The repro-verify command: exit codes, reports, selection flags."""

import json

import pytest

from repro.verify.cli import main
from repro.verify.report import REPORT_SCHEMA_VERSION

pytestmark = pytest.mark.verify

FAST = ["--only", "critical-set-fractions", "--quiet"]


class TestExitCodes:
    def test_smoke_run_is_clean(self, capsys):
        """The acceptance criterion: all nine configurations across the
        27-point lattice, every invariant, zero violations, exit 0."""
        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "9 configurations x 27 lattice points" in out
        assert "all invariants held" in out
        assert "VIOLATION" not in out

    def test_single_fast_invariant(self):
        assert main(["--smoke"] + FAST) == 0

    def test_smoke_with_jobs(self, capsys):
        """--jobs now sets only the Monte-Carlo fan-out (the fault drill's
        killed-worker scenario under --smoke); the battery stays clean."""
        assert main(["--smoke", "--jobs", "2"]) == 0
        assert "all invariants held" in capsys.readouterr().out


class TestSelection:
    def test_list_names_every_invariant(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "generator-conservation",
            "mttdl-monotone-nft",
            "raid-level-dominance",
            "closed-form-envelope",
            "time-rescaling-metamorphic",
            "cross-method-agreement",
            "engine-fault-degradation",
        ):
            assert name in out

    def test_unknown_invariant_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--only", "no-such-invariant"])
        assert excinfo.value.code == 2
        assert "no-such-invariant" in capsys.readouterr().err

    def test_tag_selection(self, capsys):
        assert main(["--smoke", "--tag", "combinatorics"]) == 0
        out = capsys.readouterr().out
        assert "critical-set-fractions" in out
        assert "generator-conservation" not in out


class TestJsonReport:
    def test_json_to_stdout(self, capsys):
        assert main(["--smoke", "--json", "-"] + FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == REPORT_SCHEMA_VERSION
        assert payload["ok"] is True
        assert payload["violation_count"] == 0
        assert payload["lattice_points"] == 27
        assert len(payload["configurations"]) == 9
        names = [inv["name"] for inv in payload["invariants"]]
        assert names == ["critical-set-fractions"]

    def test_json_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert main(["--smoke", "--json", str(target)] + FAST) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["invariants"][0]["checked"] > 0


class TestObservability:
    def test_smoke_trace_is_well_formed(self, capsys, tmp_path):
        """The CI leg: --smoke --trace emits a schema-valid trace whose
        tree hangs off one repro-verify root with per-invariant spans."""
        from repro.obs import validate_trace

        trace_path = str(tmp_path / "verify.jsonl")
        assert main(
            ["--smoke", "--trace", trace_path, "--quiet",
             "--only", "generator-conservation",
             "--only", "critical-set-fractions"]
        ) == 0
        capsys.readouterr()
        spans = validate_trace(trace_path)
        names = {s["name"] for s in spans}
        assert "repro-verify" in names
        assert "verify.invariant" in names
        invariants = {
            s["attrs"]["invariant"]
            for s in spans
            if s["name"] == "verify.invariant"
        }
        assert invariants == {
            "generator-conservation", "critical-set-fractions"
        }
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["repro-verify"]

    def test_metrics_export_counts_checks(self, capsys, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        assert main(
            ["--smoke", "--metrics", metrics_path] + FAST
        ) == 0
        capsys.readouterr()
        flat = json.loads(open(metrics_path).read())
        assert flat["verify.checks"] > 0
        assert flat["verify.violations"] == 0

    def test_report_flag_prints_tree(self, capsys):
        assert main(["--smoke", "--report"] + FAST) == 0
        err = capsys.readouterr().err
        assert "run report" in err
        assert "repro-verify" in err


class TestParameterOverrides:
    def test_set_overrides_the_base_point(self):
        assert main(["--smoke", "--set", "node_set_size=32"] + FAST) == 0

    def test_bad_override_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["--smoke", "--set", "not-an-assignment"] + FAST)
        with pytest.raises(SystemExit):
            main(["--smoke", "--set", "no_such_field=3"] + FAST)

    def test_restricted_fault_tolerance(self, capsys):
        assert main(["--smoke", "--max-fault-tolerance", "2", "--json", "-",
                     "--quiet", "--only", "raid-level-dominance"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["configurations"]) == 6
