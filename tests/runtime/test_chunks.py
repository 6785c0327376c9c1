"""Chunking and pool-gating logic of the runtime fan-out layer."""

import os

from repro import obs
from repro.obs.tracer import Tracer
from repro.runtime.chunks import (
    MIN_TASKS_FOR_POOL,
    default_jobs,
    run_chunks,
    should_pool,
    split_chunks,
)


def _double_chunk(chunk):
    return [2 * x for x in chunk]


def _traced_chunk(chunk):
    with obs.span("runtime.test.chunk", items=len(chunk)):
        return _double_chunk(chunk)


class TestSplitChunks:
    def test_even_split(self):
        assert split_chunks(list(range(8)), 4) == [
            [0, 1],
            [2, 3],
            [4, 5],
            [6, 7],
        ]

    def test_remainder_goes_to_leading_chunks(self):
        assert split_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_more_parts_than_items(self):
        assert split_chunks([1, 2], 5) == [[1], [2]]

    def test_order_preserved(self):
        items = list(range(23))
        chunks = split_chunks(items, 4)
        assert [x for c in chunks for x in c] == items

    def test_empty(self):
        assert split_chunks([], 3) == [[]]


class TestShouldPool:
    def test_one_job_never_pools(self):
        assert not should_pool(1, 1000)

    def test_tiny_batch_never_pools(self):
        assert not should_pool(8, MIN_TASKS_FOR_POOL - 1)

    def test_single_cpu_never_pools(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert not should_pool(8, 1000)

    def test_pools_with_work_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert should_pool(2, MIN_TASKS_FOR_POOL)

    def test_default_jobs_is_at_least_one(self):
        assert default_jobs() >= 1


class TestRunChunks:
    def test_serial_fallback_preserves_order(self):
        chunks = split_chunks(list(range(10)), 3)
        outputs = run_chunks(_double_chunk, chunks, jobs=1)
        assert [x for out in outputs for x in out] == [2 * x for x in range(10)]

    def test_pooled_run_matches_serial(self, monkeypatch):
        """Force the real process pool (the gate would decline it on a
        single-CPU host) and check it returns the serial answer in order."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        chunks = split_chunks(list(range(16)), 4)
        serial = run_chunks(_double_chunk, chunks, jobs=1)
        pooled = run_chunks(_double_chunk, chunks, jobs=4)
        assert pooled == serial

    def test_crashed_chunks_recomputed_in_process(self, monkeypatch):
        """Workers killed on startup (fork-inherited faultpoint) must not
        change results: every crashed chunk is recomputed in-process."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        from repro.runtime import faultpoints

        chunks = split_chunks(list(range(16)), 4)
        serial = run_chunks(_double_chunk, chunks, jobs=1)

        def die():
            os._exit(23)

        with faultpoints.injected(faultpoints.POOL_WORKER_START, die):
            recovered = run_chunks(_double_chunk, chunks, jobs=4)
        assert recovered == serial

    def test_pooled_spans_ship_under_caller(self, monkeypatch):
        """Worker spans cross the process boundary and re-parent under
        the span open at dispatch, one per chunk, with the serial
        answer."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        chunks = split_chunks(list(range(16)), 4)
        tracer = Tracer()
        with obs.use_tracer(tracer):
            with obs.span("runtime.test.dispatch"):
                pooled = run_chunks(_traced_chunk, chunks, jobs=4)
        assert pooled == run_chunks(_double_chunk, chunks, jobs=1)
        spans = tracer.finished()
        dispatch = next(s for s in spans if s["name"] == "runtime.test.dispatch")
        workers = [s for s in spans if s["name"] == "runtime.test.chunk"]
        assert len(workers) == len(chunks)
        assert {w["parent_id"] for w in workers} == {dispatch["span_id"]}
        assert dispatch["pid"] not in {w["pid"] for w in workers}
