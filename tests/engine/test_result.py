"""SweepResult and EngineProvenance containers."""

from repro import Parameters, SweepEngine, SweepResult
from repro.analysis.report import FigureData, format_figure
from repro.engine import Axis, EngineProvenance
from repro.models.configurations import sensitivity_configurations


class TestSweepResult:
    def test_is_figure_data(self, baseline):
        result = SweepEngine(jobs=1).sweep(
            sensitivity_configurations(),
            Axis("node_set_size", (16, 64)),
            base_params=baseline,
        )
        assert isinstance(result, SweepResult)
        assert isinstance(result, FigureData)

    def test_format_figure_consumes_it_unchanged(self, baseline):
        result = SweepEngine(jobs=1).sweep(
            sensitivity_configurations(),
            Axis("node_set_size", (16, 64), label="node set size N"),
            base_params=baseline,
            title="Engine sweep",
        )
        rendered = format_figure(result)
        assert "Engine sweep" in rendered
        assert "node set size N" in rendered

    def test_figure_data_renderers_work(self, baseline):
        result = SweepEngine(jobs=1).sweep(
            sensitivity_configurations(),
            Axis("node_set_size", (16, 64)),
            base_params=baseline,
        )
        csv = result.to_csv()
        assert csv.splitlines()[0].startswith("node_set_size")
        payload = result.to_dict()
        assert len(payload["series"]) == 3


class TestEngineProvenance:
    def test_defaults(self):
        prov = EngineProvenance()
        assert not prov.cache_enabled
        assert "disk cache off" in prov.describe()

    def test_describe_with_cache(self):
        prov = EngineProvenance(cache_enabled=True, cache_hits=3, cache_misses=1)
        text = prov.describe()
        assert "3 hits" in text
        assert "1 misses" in text
