"""Acceptance: ``repro-figures --fig 13 --trace out.jsonl --report``.

The ISSUE-level contract: the command emits a well-formed JSONL trace, a
run report whose span tree covers >= 95% of root wall time, and stdout
that is bitwise identical with tracing on and off.
"""

import json

from repro.analysis.cli import main
from repro.obs import tree_coverage, validate_trace


class TestFiguresTraceFlag:
    def test_fig13_trace_and_report(self, capsys, tmp_path):
        trace_path = str(tmp_path / "out.jsonl")
        rc = main(
            [
                "--fig", "13", "--format", "json",
                "--trace", trace_path, "--report",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays pure JSON
        assert "run report" in captured.err
        assert "span tree" in captured.err

        spans = validate_trace(trace_path)
        names = {s["name"] for s in spans}
        assert "repro-figures" in names
        assert "figure.13" in names
        # Figure 13's analytic points solve through repro.evaluate, so
        # the trace names the backend that answered.
        assert {"repro.evaluate", "solve.backend"} <= names
        assert tree_coverage(spans) >= 0.95

    def test_fig_flag_merges_with_positional(self, capsys):
        rc = main(["17", "--fig", "13", "--format", "json"])
        assert rc == 0
        figures = json.loads(capsys.readouterr().out)
        assert len(figures) == 2

    def test_fig_flag_rejects_unknown(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["--fig", "99"])

    def test_stdout_bitwise_identical_with_and_without_tracing(
        self, capsys, tmp_path
    ):
        base_args = ["--fig", "13", "17", "--format", "json"]
        assert main(base_args) == 0
        plain = capsys.readouterr().out
        trace_path = str(tmp_path / "out.jsonl")
        assert main(base_args + ["--trace", trace_path]) == 0
        traced = capsys.readouterr().out
        assert traced == plain

    def test_metrics_export(self, capsys, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        rc = main(
            [
                "--fig", "17", "--format", "json",
                "--metrics", metrics_path,
            ]
        )
        assert rc == 0
        capsys.readouterr()
        flat = json.load(open(metrics_path))
        assert flat["engine.points"] > 0
        assert flat["obs.spans"] > 0
        assert "core.spec_cache.misses" in flat

    def test_verbose_still_reports_engine_line(self, capsys):
        rc = main(["17", "--verbose"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[repro.engine]" in err
