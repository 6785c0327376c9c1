"""The sharded serve topology: routing, equality, the front cache, crash drills."""

import asyncio
import json
import os

import pytest

import repro
from repro.models.configurations import Configuration, all_configurations
from repro.runtime import faultpoints
from repro.serve import ServeConfig, serving, shard_index
from repro.serve.loadgen import HotKeyShape, run_loadgen

pytestmark = pytest.mark.serve


async def _request(host, port, method, path, body=None):
    """One HTTP exchange; returns (status, headers, parsed-JSON body)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_blob) if body_blob else None


# --------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------- #


class TestShardIndex:
    def test_single_shard_is_zero(self):
        assert shard_index("ft1_raid5", "analytic", 1) == 0
        assert shard_index("ft1_raid5", "analytic", 0) == 0

    def test_deterministic(self):
        for key in ("ft1_noraid", "ft2_raid5", "ft3_raid6"):
            for method in ("analytic", "closed_form"):
                first = shard_index(key, method, 4)
                assert all(
                    shard_index(key, method, 4) == first for _ in range(10)
                )

    def test_in_range(self):
        for config in all_configurations(3):
            for method in ("analytic", "closed_form"):
                for n in (1, 2, 3, 4, 7):
                    assert 0 <= shard_index(config.key, method, n) < n

    def test_standard_configs_cover_all_four_shards(self):
        """The nine standard chain families land on all four residues —
        a 4-worker deployment has no idle shard."""
        shards = {
            shard_index(config.key, "analytic", 4)
            for config in all_configurations(3)
        }
        assert shards == {0, 1, 2, 3}

    def test_analytic_routes_by_spec_hash(self):
        """Same spec family → same shard: ftN_raid5 and ftN_raid6 share
        nothing, but the routing is a pure function of the config key."""
        a = shard_index("ft2_raid5", "analytic", 4)
        b = shard_index("ft2_raid5", "analytic", 4)
        assert a == b


# --------------------------------------------------------------------- #
# bitwise equality across topologies
# --------------------------------------------------------------------- #


def _shard_config(workers, **overrides):
    """Sharded serve config with the front knobs tests rely on."""
    base = dict(
        port=0,
        workers=workers,
        cache_size=0,
        queue_depth=10_000,
        max_wait_us=2_000,
    )
    base.update(overrides)
    return ServeConfig(**base)


def test_sharded_answers_bitwise_equal_single_process():
    """The acceptance bar: the same seeded hot-key load against a
    1-worker and a 4-worker topology produces byte-identical response
    bodies, request by request."""

    async def drive(workers):
        async with serving(_shard_config(workers)) as server:
            return await run_loadgen(
                server.host,
                server.port,
                rps=40,
                duration_s=1.5,
                seed=7,
                shape=HotKeyShape(),
                capture_bodies=True,
            )

    single = asyncio.run(drive(1))
    sharded = asyncio.run(drive(4))
    assert single.sent == sharded.sent > 0
    assert single.transport_errors == sharded.transport_errors == 0
    assert single.server_errors == sharded.server_errors == 0
    assert single.shed == sharded.shed == 0
    mismatches = [
        i
        for i, (a, b) in enumerate(zip(single.bodies, sharded.bodies))
        if a != b
    ]
    assert mismatches == []


def test_sharded_answers_match_direct_evaluate(baseline):
    """Every config answered through the 4-worker topology is bitwise
    identical to the direct repro.evaluate() call."""

    async def drive():
        async with serving(_shard_config(4)) as server:
            answers = {}
            for config in all_configurations(3):
                status, _, body = await _request(
                    server.host,
                    server.port,
                    "POST",
                    "/v1/evaluate",
                    {"config": config.key, "method": "analytic"},
                )
                assert status == 200
                answers[config.key] = body
            return answers

    answers = asyncio.run(drive())
    for key, served in answers.items():
        direct = repro.evaluate(Configuration.from_key(key), baseline)
        assert served["mttdl_hours"] == direct.mttdl_hours, key
        assert served["events_per_pb_year"] == direct.events_per_pb_year, key
        assert served["cached"] is False, key


# --------------------------------------------------------------------- #
# the front result cache and per-shard metrics
# --------------------------------------------------------------------- #


def test_worker_caches_hit_and_every_shard_solves(baseline):
    """With the result cache on, repeats of a key answer from the front
    cache (serve.cache.hits, ``cached: true``) without reaching a shard,
    every shard solves at least one batch, and answers stay bitwise
    identical to the direct call."""

    async def drive():
        config = _shard_config(4, cache_size=256, cache_ttl_s=None)
        async with serving(config) as server:
            for round_ in range(3):
                for cfg in all_configurations(3):
                    status, _, body = await _request(
                        server.host,
                        server.port,
                        "POST",
                        "/v1/evaluate",
                        {"config": cfg.key, "method": "analytic"},
                    )
                    assert status == 200
                    direct = repro.evaluate(
                        Configuration.from_key(cfg.key), baseline
                    )
                    assert body["mttdl_hours"] == direct.mttdl_hours
                    assert body["cached"] is (round_ > 0)
            return server.service.metrics

    metrics = asyncio.run(drive())
    assert metrics.value("serve.cache.hits", 0) == 18
    assert metrics.value("serve.points", 0) == 9
    for shard in range(4):
        assert metrics.value(f"serve.shard.{shard}.batches", 0) > 0
        assert metrics.histogram(f"serve.shard.{shard}.batch.size").count > 0


def test_front_cache_answers_repeats_in_sharded_mode():
    """The one result cache answers in every topology: a ``--workers 2``
    service answers a repeated point with ``cached: true`` and holds it
    in ``service.cache``."""

    async def drive():
        async with serving(_shard_config(2, cache_size=512)) as server:
            bodies = []
            for _ in range(2):
                status, _, body = await _request(
                    server.host,
                    server.port,
                    "POST",
                    "/v1/evaluate",
                    {"config": "ft2_raid5"},
                )
                assert status == 200
                bodies.append(body)
            return bodies, len(server.service.cache)

    (first, second), entries = asyncio.run(drive())
    assert first["cached"] is False
    assert second["cached"] is True
    assert {**second, "cached": False} == first
    assert entries == 1


def test_concurrent_identical_requests_solve_once_across_shards():
    """Two identical requests in flight together reach the shards once:
    the second awaits the first one's solve (or, if it arrives after,
    answers from the cache) — ``serve.points`` reads 1."""

    async def drive():
        async with serving(_shard_config(2, cache_size=512)) as server:
            replies = await asyncio.gather(
                *(
                    _request(
                        server.host,
                        server.port,
                        "POST",
                        "/v1/evaluate",
                        {"config": "ft3_raid6"},
                    )
                    for _ in range(2)
                )
            )
            return replies, server.service.metrics

    replies, metrics = asyncio.run(drive())
    assert [status for status, _, _ in replies] == [200, 200]
    first, second = (body for _, _, body in replies)
    assert first["mttdl_hours"] == second["mttdl_hours"]
    assert metrics.value("serve.points", 0) == 1


# --------------------------------------------------------------------- #
# the serve.worker_crash fault drill
# --------------------------------------------------------------------- #


def test_worker_crash_restart_drill(tmp_path, baseline):
    """Kill a shard worker mid-load via the serve.worker_crash faultpoint:
    the in-flight request fails clean (503 + Retry-After), the runtime
    restarts the worker, and post-restart answers are bitwise identical
    to the direct call."""
    trigger = tmp_path / "kill-shard-worker"

    def kill_if_armed(shard=None, **_kwargs):
        if os.path.exists(str(trigger)):
            os._exit(17)

    async def drive():
        async with serving(_shard_config(2)) as server:
            host, port = server.host, server.port
            body = {"config": "ft2_raid5", "method": "analytic"}

            # Phase 1: healthy baseline.
            status, _, before = await _request(
                host, port, "POST", "/v1/evaluate", body
            )
            assert status == 200

            # Phase 2: arm the faultpoint; the in-flight request dies
            # with the worker and surfaces as a clean 503 + Retry-After.
            trigger.write_text("armed")
            status, headers, error = await _request(
                host, port, "POST", "/v1/evaluate", body
            )
            assert status == 503
            assert "retry-after" in headers
            assert "worker" in error["error"].lower()

            # Phase 3: disarm, wait for the runtime to restart the shard.
            trigger.unlink()
            for _ in range(200):
                health = server.service.health()
                workers = health["workers"]
                if all(w["alive"] for w in workers) and any(
                    w["restarts"] >= 1 for w in workers
                ):
                    break
                await asyncio.sleep(0.01)
            else:
                raise AssertionError(f"no restart observed: {workers}")

            # Phase 4: the restarted worker answers, bitwise identical.
            status, _, after = await _request(
                host, port, "POST", "/v1/evaluate", body
            )
            assert status == 200
            return before, after, server.service.health()

    with faultpoints.injected(faultpoints.SERVE_WORKER_CRASH, kill_if_armed):
        before, after, health = asyncio.run(drive())
    direct = repro.evaluate(Configuration.from_key("ft2_raid5"), baseline)
    assert before["mttdl_hours"] == direct.mttdl_hours
    assert after == before
    assert sum(w["restarts"] for w in health["workers"]) >= 1


def test_crash_faultpoint_does_not_fire_single_process(baseline):
    """The serve.worker_crash faultpoint is scoped to shard workers: the
    single-process solver thread never fires it, so an armed drill does
    not take down an unsharded server."""

    def kill(shard=None, **_kwargs):  # pragma: no cover - must not run
        os._exit(17)

    async def drive():
        async with serving(ServeConfig(port=0, cache_size=0)) as server:
            status, _, body = await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft1_raid5"},
            )
            return status, body

    with faultpoints.injected(faultpoints.SERVE_WORKER_CRASH, kill):
        status, body = asyncio.run(drive())
    assert status == 200
    direct = repro.evaluate(Configuration.from_key("ft1_raid5"), baseline)
    assert body["mttdl_hours"] == direct.mttdl_hours


# --------------------------------------------------------------------- #
# sharded health payload
# --------------------------------------------------------------------- #


def test_health_reports_workers():
    async def drive():
        async with serving(_shard_config(3)) as server:
            status, _, health = await _request(
                server.host, server.port, "GET", "/healthz"
            )
            return status, health

    status, health = asyncio.run(drive())
    assert status == 200
    workers = health["workers"]
    assert len(workers) == 3
    assert [w["index"] for w in workers] == [0, 1, 2]
    assert all(w["alive"] for w in workers)
    assert all(w["restarts"] == 0 for w in workers)
    assert len({w["pid"] for w in workers}) == 3
