"""SweepResult and EngineProvenance containers."""

from repro import SweepEngine, SweepResult
from repro.analysis import sweep, sweep_to_figure
from repro.analysis.report import FigureData, format_figure
from repro.engine import EngineProvenance
from repro.models.configurations import sensitivity_configurations


def _node_set_sweep(baseline, title="Sweep", x_label="node_set_size"):
    engine = SweepEngine(jobs=1)
    points = sweep(
        sensitivity_configurations(),
        baseline,
        (16, 64),
        lambda p, x: p.replace(node_set_size=x),
        engine=engine,
    )
    return sweep_to_figure(
        title,
        x_label,
        points,
        axis_name="node_set_size",
        provenance=engine.provenance(),
    )


class TestSweepResult:
    def test_is_figure_data(self, baseline):
        result = _node_set_sweep(baseline)
        assert isinstance(result, SweepResult)
        assert isinstance(result, FigureData)

    def test_format_figure_consumes_it_unchanged(self, baseline):
        result = _node_set_sweep(baseline, "Engine sweep", "node set size N")
        rendered = format_figure(result)
        assert "Engine sweep" in rendered
        assert "node set size N" in rendered

    def test_figure_data_renderers_work(self, baseline):
        result = _node_set_sweep(baseline)
        csv = result.to_csv()
        assert csv.splitlines()[0].startswith("node_set_size")
        payload = result.to_dict()
        assert len(payload["series"]) == 3


class TestEngineProvenance:
    def test_defaults(self):
        prov = EngineProvenance()
        assert not hasattr(prov, "cache_enabled")
        assert "disk cache" not in prov.describe()

    def test_describe_with_cache(self):
        """The compiled-spec cache counters, as ``--verbose`` prints them."""
        prov = EngineProvenance(spec_hits=3, spec_misses=1, spec_hashes=("ab",))
        text = prov.describe()
        assert "3 binds" in text
        assert "1 compiles (1 shapes)" in text
