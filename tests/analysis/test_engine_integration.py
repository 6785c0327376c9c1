"""Engine-accelerated analysis must reproduce the plain paths bitwise."""

import pytest

from repro import AdviseRequest, SweepEngine, SweepResult, advise
from repro.analysis import format_figure
from repro.analysis.cli import main
from repro.analysis.figures import (
    all_figures,
    figure17_link_speed,
    figure18_node_set_size,
    figure20_drives_per_node,
)
from repro.analysis.sensitivity import sweep, sweep_to_figure
from repro.models import KB, ParamAxis, SearchSpace
from repro.models.configurations import sensitivity_configurations


def _assert_same_figure(plain, fast):
    assert plain.title == fast.title
    assert plain.x_values == fast.x_values
    assert plain.axis_values == fast.axis_values
    assert len(plain.series) == len(fast.series)
    for a, b in zip(plain.series, fast.series):
        assert a.label == b.label
        assert a.values == b.values


class TestFigureParity:
    def test_figure17_bitwise(self, baseline):
        plain = figure17_link_speed(baseline)
        fast = figure17_link_speed(baseline, engine=SweepEngine(baseline))
        _assert_same_figure(plain, fast)
        assert plain.provenance is None
        assert fast.provenance is not None

    def test_figure20_bitwise(self, baseline):
        plain = figure20_drives_per_node(baseline)
        fast = figure20_drives_per_node(
            baseline, engine=SweepEngine(baseline)
        )
        _assert_same_figure(plain, fast)

    def test_custom_x_values_bitwise(self, baseline):
        plain = figure18_node_set_size(baseline, x_values=(16, 48))
        fast = figure18_node_set_size(
            baseline, x_values=(16, 48), engine=SweepEngine(baseline)
        )
        _assert_same_figure(plain, fast)
        assert fast.axis_values == (16, 48)

    @pytest.mark.parametrize("method", ["analytic", "closed_form"])
    def test_all_figures_one_batch_bitwise(self, baseline, method):
        """Every figure's points go to the engine in one batch, and the
        series equal the point-by-point path bit for bit."""
        engine = SweepEngine(baseline)
        fast = all_figures(baseline, method=method, engine=engine)
        assert engine.metrics.value("engine.batches") == 1
        assert engine.metrics.value("engine.points") == 168
        plain = all_figures(baseline, method=method)
        assert len(plain) == len(fast) == 7
        for a, b in zip(plain, fast):
            _assert_same_figure(a, b)

    def test_figures_return_sweep_results(self, baseline):
        assert isinstance(figure17_link_speed(baseline), SweepResult)


class TestSweepParity:
    def test_sweep_engine_kwarg_bitwise(self, baseline):
        configs = sensitivity_configurations()
        xs = (100_000.0, 400_000.0)
        transform = lambda p, x: p.replace(node_mttf_hours=x)
        plain = sweep(configs, baseline, xs, transform)
        fast = sweep(configs, baseline, xs, transform, engine=SweepEngine())
        assert plain == fast

    def test_sweep_to_figure_is_sweep_result(self, baseline):
        configs = sensitivity_configurations()
        points = sweep(
            configs,
            baseline,
            (16, 64),
            lambda p, x: p.replace(node_set_size=int(x)),
        )
        fig = sweep_to_figure("t", "N", points, axis_name="node_set_size")
        assert isinstance(fig, SweepResult)
        assert fig.axis_name == "node_set_size"
        assert fig.axis_values == (16, 64)
        assert fig.points == tuple(points)


class TestDesignSpaceParity:
    def test_bitwise(self, baseline):
        """The design search (repro.advise) reports the plain per-point
        reliability for every frontier design."""
        space = SearchSpace(
            axes=(
                ParamAxis("redundancy_set_size", (6, 8, 12)),
                ParamAxis("rebuild_command_bytes", (64 * KB, 256 * KB)),
            )
        )
        result = advise(
            AdviseRequest(space=space, target_events_per_pb_year=1.0),
            base_params=baseline,
        )
        assert len(result.frontier) > 3
        for candidate in result.frontier:
            plain = candidate.config.reliability(candidate.params, "analytic")
            assert candidate.result == plain


class TestCliFlags:
    def test_jobs_and_no_cache(self, capsys):
        """--jobs (the engine evaluates in-process) and --no-cache (the
        engine keeps no result cache) are gone: argparse rejects both
        with status 2."""
        for flag in (["--jobs", "2"], ["--no-cache"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["17"] + flag)
            assert excinfo.value.code == 2
            assert flag[0] in capsys.readouterr().err
        rc = main(["17"])
        assert rc == 0
        assert "Figure 17" in capsys.readouterr().out

    def test_verbose_reports_engine_stats(self, capsys):
        rc = main(["17", "--verbose"])
        assert rc == 0
        assert "[repro.engine]" in capsys.readouterr().err

    def test_output_matches_pre_engine_flags(
        self, capsys, tmp_path, monkeypatch, baseline
    ):
        """The CLI's one engine batch renders exactly the point-by-point
        figures, and writes no cache directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["20", "14", "15", "16", "17", "18", "19"]) == 0
        plain = all_figures(baseline)  # Figures 14-20
        expected = [plain[6]] + plain[:6]
        assert capsys.readouterr().out == "\n\n".join(
            format_figure(f) for f in expected
        ) + "\n"
        assert list(tmp_path.iterdir()) == []
