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
                 if line.endswith(("  ok", "  OUTSIDE", "  INCONCLUSIVE"))]
        assert len(cases) == 5
        assert rc == (0 if all(c.endswith("  ok") for c in cases) else 1)

    @staticmethod
    def _stub_estimates(monkeypatch, mean_over_chain, stderr_over_chain):
        """Replace the simulation with an estimate placed relative to
        each case's chain value, so a verdict is decided without a run."""
        from repro.sim import cli
        from repro.sim.monte_carlo import MonteCarloResult

        def chain_value(config, params):
            return config.model(params, rates_method="exact").mttdl_exact()

        def fake(config, params, replicas, seed, jobs, cache):
            chain = chain_value(config, params)
            return MonteCarloResult(
                mean_hours=mean_over_chain * chain,
                std_error_hours=stderr_over_chain * chain,
                replicas=replicas,
                loss_causes=(),
            )

        monkeypatch.setattr(cli, "cached_estimate", fake)

    def test_band_not_below_chain_value_is_inconclusive(
        self, capsys, monkeypatch
    ):
        """A band as wide as the chain value cannot fail for any
        non-negative estimate: every case prints INCONCLUSIVE, the
        summary counts them, and the command exits 1."""
        self._stub_estimates(monkeypatch, 0.9, 0.3)  # 4 x 0.3 > 1
        rc = main(["--replicas", "10", "--no-cache"])
        out = capsys.readouterr().out
        cases = [line for line in out.splitlines() if line.endswith("  INCONCLUSIVE")]
        assert len(cases) == 5
        assert "every case within" not in out
        assert "5 case(s) INCONCLUSIVE" in out
        assert rc == 1

    def test_narrow_band_decides(self, capsys, monkeypatch):
        self._stub_estimates(monkeypatch, 1.01, 0.01)
        assert main(["--replicas", "10", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "every case within" in out
        assert "INCONCLUSIVE" not in out

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
