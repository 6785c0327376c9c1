"""Tests for the repro-validate command-line harness."""

import pytest

from repro.sim.cli import main
from repro.sim.monte_carlo import estimate_payload_valid


class TestValidateCli:
    @pytest.mark.tier2
    def test_runs_and_reports(self, capsys):
        rc = main(
            [
                "--replicas", "30", "--scale", "100", "--seed", "3",
                "--nodes", "12", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert "configuration" in out
        assert "worst |z|" in out
        assert rc in (0, 1)

    def test_small_scale_ok(self, capsys):
        # Heavier acceleration keeps runtimes small in CI.
        rc = main(["--replicas", "40", "--scale", "200", "--nodes", "12", "--no-cache"])
        assert rc in (0, 1)
        assert "acceleration x200" in capsys.readouterr().out

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["--replicas", "10", "--scale", "200", "--nodes", "12", "--verbose"]
        rc1 = main(args)
        first = capsys.readouterr()
        assert "disk cache 0 hits / 5 misses" in first.err
        rc2 = main(args)
        second = capsys.readouterr()
        assert "disk cache 5 hits / 0 misses" in second.err
        assert rc1 == rc2
        assert first.out == second.out

    def test_schema_mismatched_entry_is_resimulated(
        self, capsys, tmp_path, monkeypatch
    ):
        """A damaged estimate entry is a miss: re-simulated, overwritten,
        and the report is the cache-less one."""
        monkeypatch.chdir(tmp_path)
        args = ["--replicas", "10", "--scale", "200", "--nodes", "12"]
        rc = main(args + ["--no-cache"])
        expected = capsys.readouterr().out
        assert main(args) == rc  # warm the cache
        capsys.readouterr()
        entries = sorted((tmp_path / ".repro_cache").glob("*.json"))
        assert len(entries) == 5
        for entry in entries:
            entry.write_text('{"mean_hours": 1.0}', encoding="utf-8")
        assert main(args + ["--verbose"]) == rc
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "disk cache 0 hits / 5 misses" in captured.err
        assert main(args + ["--verbose"]) == rc
        assert "disk cache 5 hits / 0 misses" in capsys.readouterr().err

    def test_band_verdict_per_case(self, capsys):
        rc = main(["--replicas", "10", "--scale", "200", "--nodes", "12",
                   "--no-cache"])
        out = capsys.readouterr().out
        assert "band (h)" in out
        cases = [line for line in out.splitlines()
                 if line.endswith(("  ok", "  OUTSIDE"))]
        assert len(cases) == 5
        assert rc == (1 if any(c.endswith("OUTSIDE") for c in cases) else 0)

    def test_trace_and_metrics_export(self, capsys, tmp_path):
        from repro.obs import tree_coverage, validate_trace

        trace_path = str(tmp_path / "validate.jsonl")
        metrics_path = str(tmp_path / "metrics.json")
        rc = main(
            ["--replicas", "10", "--scale", "200", "--nodes", "12",
             "--no-cache", "--trace", trace_path, "--metrics", metrics_path]
        )
        assert rc in (0, 1)
        capsys.readouterr()
        spans = validate_trace(trace_path)
        names = {s["name"] for s in spans}
        assert "repro-validate" in names
        assert "validate.case" in names
        assert "sim.estimate_mttdl" in names
        assert "sim.replica_chunk" in names
        assert tree_coverage(spans) >= 0.95
        import json

        flat = json.load(open(metrics_path))
        assert flat["sim.loss_hours.count"] >= 50  # 5 cases x 10 replicas
        assert flat["sim.replicas"] >= 50

    def test_bad_arguments(self):
        with pytest.raises(SystemExit):
            main(["--replicas", "1"])
        with pytest.raises(SystemExit):
            main(["--scale", "0"])


class TestEstimatePayloadValid:
    GOOD = {
        "mean_hours": 36.7,
        "std_error_hours": 7,
        "replicas": 8,
        "loss_causes": [["failure-beyond-tolerance", 1]],
    }

    def test_accepts_the_stored_layout(self):
        assert estimate_payload_valid(self.GOOD)

    @pytest.mark.parametrize(
        "change",
        [
            {"mean_hours": "1.0"},
            {"std_error_hours": True},
            {"replicas": 8.0},
            {"loss_causes": [["cause"]]},
            {"loss_causes": [[1, 1]]},
            {"loss_causes": "none"},
        ],
    )
    def test_rejects_a_wrong_field(self, change):
        assert not estimate_payload_valid({**self.GOOD, **change})

    @pytest.mark.parametrize("missing", sorted(GOOD))
    def test_rejects_a_missing_field(self, missing):
        payload = dict(self.GOOD)
        del payload[missing]
        assert not estimate_payload_valid(payload)
