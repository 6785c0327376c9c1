"""Tests for repro.obs.tracer: nesting, shipping, and the disabled path."""

import sys
import threading

import pytest

from repro import obs
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer


@pytest.fixture
def tracer():
    """A fresh tracer installed as the process-global one."""
    t = Tracer()
    previous = obs.set_tracer(t)
    yield t
    obs.set_tracer(previous)


def by_name(spans, name):
    return [s for s in spans if s["name"] == name]


class TestNesting:
    def test_parent_child_ids(self, tracer):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = tracer.finished()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner_d, outer_d = spans
        assert inner_d["parent_id"] == outer_d["span_id"]
        assert outer_d["parent_id"] is None

    def test_siblings_share_parent(self, tracer):
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        spans = tracer.finished()
        root = by_name(spans, "root")[0]
        assert by_name(spans, "a")[0]["parent_id"] == root["span_id"]
        assert by_name(spans, "b")[0]["parent_id"] == root["span_id"]

    def test_attrs_and_set(self, tracer):
        with obs.span("work", points=3) as sp:
            sp.set("hits", 2)
        (span,) = tracer.finished()
        assert span["attrs"] == {"points": 3, "hits": 2}

    def test_timings_nonnegative_and_nested(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                sum(range(10_000))
        inner, outer = tracer.finished()
        assert 0.0 <= inner["wall_s"] <= outer["wall_s"]
        assert inner["cpu_s"] >= 0.0

    def test_span_ids_unique_and_pid_tagged(self, tracer):
        import os

        for _ in range(5):
            with obs.span("x"):
                pass
        spans = tracer.finished()
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == len(ids)
        assert all(s["pid"] == os.getpid() for s in spans)
        assert all(i.startswith(f"{os.getpid():x}-") for i in ids)

    def test_exception_still_records_span(self, tracer):
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert [s["name"] for s in tracer.finished()] == ["doomed"]

    def test_current_span_id_tracks_stack(self, tracer):
        assert obs.current_span_id() is None
        with obs.span("outer") as outer:
            assert obs.current_span_id() == outer.span_id
            with obs.span("inner") as inner:
                assert obs.current_span_id() == inner.span_id
            assert obs.current_span_id() == outer.span_id
        assert obs.current_span_id() is None


class TestThreads:
    def test_threads_have_independent_stacks(self, tracer):
        """Spans opened on different threads parent within their thread."""
        errors = []

        def work(tag):
            try:
                with obs.span(f"thread.{tag}") as outer:
                    with obs.span(f"thread.{tag}.child") as child:
                        assert child.parent_id == outer.span_id
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        with obs.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        spans = tracer.finished()
        for i in range(4):
            outer = by_name(spans, f"thread.{i}")[0]
            child = by_name(spans, f"thread.{i}.child")[0]
            assert child["parent_id"] == outer["span_id"]
            # A fresh thread has no active span: its root is a tree root,
            # not a child of the main thread's span.
            assert outer["parent_id"] is None


class TestShipping:
    def test_capture_and_adopt_reparents_roots(self, tracer):
        with obs.capture_spans() as shipped:
            with obs.span("worker"):
                with obs.span("worker.child"):
                    pass
        assert tracer.finished() == []  # captured, not recorded globally
        with obs.span("dispatch") as dispatch:
            obs.adopt_spans(shipped)
        spans = tracer.finished()
        worker = by_name(spans, "worker")[0]
        child = by_name(spans, "worker.child")[0]
        assert worker["parent_id"] == dispatch.span_id
        assert child["parent_id"] == worker["span_id"]  # interior edge kept

    def test_adopt_explicit_parent(self, tracer):
        with obs.capture_spans() as shipped:
            with obs.span("w"):
                pass
        with obs.span("root") as root:
            pass
        obs.adopt_spans(shipped, parent_id=root.span_id)
        assert by_name(tracer.finished(), "w")[0]["parent_id"] == root.span_id

    def test_capture_restores_previous_tracer(self, tracer):
        with obs.capture_spans():
            assert obs.current_tracer() is not tracer
        assert obs.current_tracer() is tracer

    def test_synth_span_has_the_real_span_layout(self, tracer, tmp_path):
        """A synthesized span carries exactly the keys of a live span's
        ``to_dict()``, grafts under the adopting span, and the mixed
        tree passes ``validate_trace``."""
        with obs.span("root") as root:
            synthetic = obs.synth_span("phase", 1.5e9, -1.0, points=3)
            obs.adopt_spans([synthetic])
        spans = tracer.finished()
        real = by_name(spans, "root")[0]
        phase = by_name(spans, "phase")[0]
        assert set(phase) == set(real) == set(root.to_dict())
        assert phase["parent_id"] == root.span_id
        assert phase["wall_s"] == 0.0  # clamped, never negative
        assert phase["attrs"] == {"points": 3}
        assert phase["span_id"] != real["span_id"]
        path = str(tmp_path / "synth.jsonl")
        obs.write_trace(spans, path)
        assert {s["name"] for s in obs.validate_trace(path)} == {"root", "phase"}

    def test_adopt_noop_when_disabled(self):
        assert not obs.tracing_active()
        obs.adopt_spans([{"span_id": "x-1", "parent_id": None, "name": "n"}])


class TestDisabled:
    def test_null_span_singleton(self):
        """Disabled spans return the one shared no-op object."""
        assert not obs.tracing_active()
        a = obs.span("anything", k=1)
        b = obs.span("other")
        assert a is NULL_SPAN
        assert b is NULL_SPAN
        with a as sp:
            sp.set("ignored", 1)
        assert obs.current_tracer() is NULL_TRACER

    def test_disabled_path_does_not_accumulate_allocations(self):
        """Steady-state disabled tracing retains no per-span memory."""
        assert not obs.tracing_active()

        def burst(n):
            for _ in range(n):
                with obs.span("hot", i=1):
                    pass

        burst(1000)  # warm up caches / code objects
        before = sys.getallocatedblocks()
        burst(50_000)
        after = sys.getallocatedblocks()
        # Not strictly zero (interpreter internals churn) but far below
        # one retained block per span.
        assert after - before < 1000

    def test_set_tracer_none_means_disabled(self):
        previous = obs.set_tracer(None)
        try:
            assert not obs.tracing_active()
        finally:
            obs.set_tracer(previous)
