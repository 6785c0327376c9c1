"""Contract tests for the worker topologies.

Every topology must honor the same surface: start/submit/stop lifecycle,
shard pinning, per-worker state built by ``worker_state(index)``,
exceptions travelling through futures, and (for processes) crash
detection with clean :class:`WorkerCrashed` failures plus optional
restart.
"""

import asyncio
import os
import time

import pytest

from repro import obs
from repro.obs.tracer import Tracer
from repro.runtime.topology import ProcessTopology, ThreadTopology, WorkerCrashed


def _echo(state, payload):
    return (state, payload)


def _add(state, payload):
    return state + payload


def _pid_of(state, payload):
    return os.getpid()


def _raise(state, payload):
    raise ValueError(f"boom: {payload}")


def _maybe_exit(state, payload):
    if payload == "die":
        os._exit(11)
    return payload


def _traced(state, payload):
    with obs.span("runtime.test.work", payload=payload):
        return payload * 2


def _state_index(index):
    return index * 10


TOPOLOGIES = [
    lambda handler, **kw: ThreadTopology(handler, size=1, **kw),
    lambda handler, **kw: ProcessTopology(handler, size=1, **kw),
]


class TestCommonContract:
    @pytest.mark.parametrize("make", TOPOLOGIES)
    def test_submit_before_start_raises(self, make):
        topology = make(_echo)
        with pytest.raises(RuntimeError):
            topology.submit("x")

    @pytest.mark.parametrize("make", TOPOLOGIES)
    def test_roundtrip_and_state(self, make):
        with make(_echo, worker_state=_state_index) as topology:
            assert topology.submit("payload").result() == (0, "payload")

    @pytest.mark.parametrize("make", TOPOLOGIES)
    def test_exceptions_travel_through_future(self, make):
        with make(_raise) as topology:
            future = topology.submit("x")
            with pytest.raises(ValueError, match="boom: x"):
                future.result()

    def test_process_roundtrip_and_state(self):
        with ProcessTopology(_add, size=2, worker_state=_state_index) as topology:
            assert topology.submit(5, shard=0).result() == 5
            assert topology.submit(5, shard=1).result() == 15

    def test_process_exceptions_travel_through_future(self):
        with ProcessTopology(_raise, size=1) as topology:
            future = topology.submit("y")
            with pytest.raises(ValueError, match="boom: y"):
                future.result()

    def test_asubmit_bridges_to_asyncio(self):
        async def drive():
            with ThreadTopology(_add, size=2, worker_state=_state_index) as topology:
                return await topology.asubmit(1, shard=1)

        assert asyncio.run(drive()) == 11


class TestShardPinning:
    def test_thread_shard_pins_to_slot_state(self):
        with ThreadTopology(_echo, size=4, worker_state=_state_index) as topology:
            for shard in range(8):
                state, _ = topology.submit("p", shard=shard).result()
                assert state == (shard % 4) * 10

    def test_process_shard_pins_to_worker(self):
        with ProcessTopology(_pid_of, size=2) as topology:
            pids = {
                shard: topology.submit(None, shard=shard).result()
                for shard in range(4)
            }
        assert pids[0] == pids[2]
        assert pids[1] == pids[3]
        assert pids[0] != pids[1]
        assert pids[0] != os.getpid()


class TestHealth:
    def test_health_reports_slots(self):
        with ProcessTopology(_echo, size=2) as topology:
            infos = topology.health()
            assert [w.index for w in infos] == [0, 1]
            assert all(w.alive for w in infos)
            assert all(w.pid not in (None, os.getpid()) for w in infos)
            assert all(w.restarts == 0 for w in infos)


class TestCrashSemantics:
    def test_crash_fails_inflight_with_worker_crashed(self):
        with ProcessTopology(_maybe_exit, size=1) as topology:
            future = topology.submit("die")
            with pytest.raises(WorkerCrashed) as excinfo:
                future.result(timeout=10)
            assert excinfo.value.exit_code == 11

    def test_no_restart_by_default(self):
        with ProcessTopology(_maybe_exit, size=1) as topology:
            with pytest.raises(WorkerCrashed):
                topology.submit("die").result(timeout=10)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if not topology.health()[0].alive:
                    break
                time.sleep(0.01)
            with pytest.raises(WorkerCrashed):
                topology.submit("after").result(timeout=10)

    def test_restart_respawns_and_recovers(self):
        with ProcessTopology(_maybe_exit, size=1, restart=True) as topology:
            first_pid = topology.health()[0].pid
            with pytest.raises(WorkerCrashed):
                topology.submit("die").result(timeout=10)
            # wait for the replacement slot to come up
            deadline = time.monotonic() + 10
            value = None
            while time.monotonic() < deadline:
                try:
                    value = topology.submit("ok").result(timeout=10)
                    break
                except WorkerCrashed:
                    time.sleep(0.02)
            assert value == "ok"
            info = topology.health()[0]
            assert info.restarts >= 1
            assert info.pid != first_pid
            assert topology.restart_count() >= 1


class TestSpanAdoption:
    def test_worker_spans_adopt_under_submitting_span(self):
        tracer = Tracer()
        with obs.use_tracer(tracer):
            with ProcessTopology(_traced, size=1) as topology:
                with obs.span("runtime.test.parent"):
                    assert topology.submit(21).result() == 42
        spans = tracer.finished()
        by_name = {s["name"]: s for s in spans}
        assert "runtime.test.work" in by_name
        work = by_name["runtime.test.work"]
        assert work["parent_id"] == by_name["runtime.test.parent"]["span_id"]
        assert work["pid"] != by_name["runtime.test.parent"]["pid"]

    def test_untraced_submission_ships_no_spans(self):
        with ProcessTopology(_traced, size=1) as topology:
            assert topology.submit(3).result() == 6


class TestUnpicklableReplies:
    def test_unpicklable_result_becomes_runtime_error(self):
        with ProcessTopology(_make_unpicklable, size=1) as topology:
            future = topology.submit(None)
            with pytest.raises(RuntimeError, match="could not be serialized"):
                future.result(timeout=10)
            # the worker survived the bad reply
            assert topology.submit(None) is not None


def _make_unpicklable(state, payload):
    return lambda: None
