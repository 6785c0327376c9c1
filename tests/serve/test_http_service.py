"""End-to-end tests over real sockets: routes, errors, identity, overload."""

import asyncio
import json

import pytest

import repro
from repro.core.solvers import SolveOptions
from repro.models.configurations import Configuration, all_configurations
from repro.serve import ServeConfig, serving
from repro.serve.protocol import params_with_overrides
from repro.serve.loadgen import run_loadgen

pytestmark = pytest.mark.serve


async def _request(
    host, port, method, path, body=None, raw_body=None, advertised_length=None
):
    """One HTTP exchange; returns (status, headers, parsed-JSON body)."""
    payload = b""
    if raw_body is not None:
        payload = raw_body
    elif body is not None:
        payload = json.dumps(body).encode("utf-8")
    length = (
        advertised_length if advertised_length is not None else len(payload)
    )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n"
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


def _run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- #
# routes
# --------------------------------------------------------------------- #


def test_healthz_and_metricsz():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            status, _, health = await _request(
                server.host, server.port, "GET", "/healthz"
            )
            assert status == 200
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            # Answer one point so the metrics have content.
            await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft1_raid5"},
            )
            status, _, metrics = await _request(
                server.host, server.port, "GET", "/metricsz"
            )
            assert status == 200
            assert metrics["serve.http.requests"] == 3
            assert metrics["serve.points"] == 1

    _run(drive())


def test_single_point_bitwise_identical_to_evaluate(baseline):
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft2_raid5", "method": "analytic"},
            )

    status, _, answer = _run(drive())
    assert status == 200
    direct = repro.evaluate(Configuration.from_key("ft2_raid5"), baseline)
    assert answer["mttdl_hours"] == direct.mttdl_hours
    assert answer["events_per_pb_year"] == direct.events_per_pb_year
    assert answer["mttdl_years"] == direct.mttdl_years
    assert answer["meets_target"] == direct.meets_target
    assert answer["cached"] is False


def test_every_config_and_method_matches_evaluate(baseline):
    """The acceptance bar: all nine configs, both chain methods, each
    HTTP answer bitwise identical to the direct API."""
    keys = [c.key for c in all_configurations(3)]

    async def drive():
        answers = {}
        async with serving(ServeConfig(port=0)) as server:
            for method in ("analytic", "closed_form"):
                body = {
                    "points": [
                        {"config": key, "method": method} for key in keys
                    ]
                }
                status, _, out = await _request(
                    server.host, server.port, "POST", "/v1/evaluate", body
                )
                assert status == 200
                answers[method] = out["results"]
        return answers

    answers = _run(drive())
    for method, results in answers.items():
        for key, served in zip(keys, results):
            backend = "auto" if method == "analytic" else "closed_form"
            direct = repro.evaluate(
                Configuration.from_key(key),
                baseline,
                options=SolveOptions(backend=backend),
            )
            assert served["mttdl_hours"] == direct.mttdl_hours, (key, method)
            assert (
                served["events_per_pb_year"] == direct.events_per_pb_year
            ), (key, method)


def test_params_override_round_trip(baseline):
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {
                    "config": "ft1_raid6",
                    "params": {"drive_mttf_hours": 250_000.0},
                },
            )

    status, _, answer = _run(drive())
    assert status == 200
    direct = repro.evaluate(
        Configuration.from_key("ft1_raid6"),
        baseline.replace(drive_mttf_hours=250_000.0),
    )
    assert answer["mttdl_hours"] == direct.mttdl_hours


def test_second_identical_request_is_cached():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            first = await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft3_raid5"},
            )
            second = await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft3_raid5"},
            )
            return first, second

    (s1, _, a1), (s2, _, a2) = _run(drive())
    assert (s1, s2) == (200, 200)
    assert a1["cached"] is False
    assert a2["cached"] is True
    assert a1["mttdl_hours"] == a2["mttdl_hours"]
    assert a1["params_key"] == a2["params_key"]


def test_availability_profile_in_response(baseline):
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {
                    "config": "ft2_raid5",
                    "availability": {"recovery_hours": 24},
                },
            )

    status, _, answer = _run(drive())
    assert status == 200
    profile = answer["availability"]
    assert profile["recovery_hours"] == 24.0
    fractions = (
        profile["fully_operational_fraction"]
        + profile["degraded_fraction"]
        + profile["post_loss_fraction"]
    )
    assert fractions == pytest.approx(1.0)


@pytest.mark.parametrize(
    "name, values",
    [
        ("drive_mttf_hours", [100_000.0, 300_000.0, 750_000.0]),
        ("node_set_size", [16.0, 64]),  # an int field sent as a float
        ("drive_mttf_hours", [300_000.0, 300_000.0, 100_000.0]),
    ],
    ids=["float-field", "int-field", "repeated-value"],
)
def test_sweep_matches_direct_evaluate(baseline, name, values):
    """Every served point equals repro.evaluate at the parameters
    params_with_overrides builds; repeated values repeat their points."""
    configs = ["ft1_raid5", "ft2_raid5"]

    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host,
                server.port,
                "POST",
                "/v1/sweep",
                {"configs": configs, "axis": {"name": name, "values": values}},
            )

    status, _, answer = _run(drive())
    assert status == 200
    series = []
    for key in configs:
        results = [
            repro.evaluate(
                Configuration.from_key(key),
                params_with_overrides(baseline, {name: v}),
            )
            for v in values
        ]
        series.append(
            {
                "config": key,
                "mttdl_hours": [r.mttdl_hours for r in results],
                "events_per_pb_year": [r.events_per_pb_year for r in results],
            }
        )
    assert answer == {
        "axis": name,
        "values": [float(v) for v in values],
        "method": "analytic",
        "series": series,
    }


# --------------------------------------------------------------------- #
# error mapping
# --------------------------------------------------------------------- #


def test_error_statuses():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            host, port = server.host, server.port
            results = {}
            results["bad_json"] = await _request(
                host, port, "POST", "/v1/evaluate", raw_body=b"{nope"
            )
            results["bad_body"] = await _request(
                host, port, "POST", "/v1/evaluate", {"config": "ft9_warp"}
            )
            results["nan_param"] = await _request(
                host,
                port,
                "POST",
                "/v1/evaluate",
                {"config": "ft2_raid5", "params": {"node_mttf_hours": float("nan")}},
            )
            results["inf_int_param"] = await _request(
                host,
                port,
                "POST",
                "/v1/evaluate",
                {"config": "ft2_raid5", "params": {"drives_per_node": float("inf")}},
            )
            results["not_found"] = await _request(
                host, port, "GET", "/v2/evaluate"
            )
            results["get_on_post"] = await _request(
                host, port, "GET", "/v1/evaluate"
            )
            results["post_on_get"] = await _request(
                host, port, "POST", "/healthz", {}
            )
            # The server answers 413 from the headers alone, without
            # reading a body it would only throw away.
            results["oversize"] = await _request(
                host,
                port,
                "POST",
                "/v1/evaluate",
                advertised_length=(1 << 20) + 1,
            )
            return results

    results = _run(drive())
    assert results["bad_json"][0] == 400
    assert "JSON" in results["bad_json"][2]["error"]
    assert results["bad_body"][0] == 400
    for case, field in (
        ("nan_param", "node_mttf_hours"),
        ("inf_int_param", "drives_per_node"),
    ):
        status, _, payload = results[case]
        assert status == 400, (case, payload)
        assert field in payload["error"] and "finite" in payload["error"]
    assert results["not_found"][0] == 404
    assert results["get_on_post"][0] == 400  # POST route, wrong verb
    assert results["post_on_get"][0] == 405
    assert results["oversize"][0] == 413


def test_fault_tolerance_above_the_served_bound_answers_400():
    """Every route that names a fault tolerance refuses one above
    MAX_FAULT_TOLERANCE before building its chain, naming the bound; the
    bound itself is served."""
    sweep = {"axis": {"name": "drive_mttf_hours", "values": [3e5]}}

    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            host, port = server.host, server.port
            return {
                "evaluate": await _request(
                    host, port, "POST", "/v1/evaluate", {"config": "ft7_noraid"}
                ),
                "sweep": await _request(
                    host, port, "POST", "/v1/sweep",
                    {"configs": ["ft2_raid5", "ft7_raid5"], **sweep},
                ),
                "advise": await _request(
                    host, port, "POST", "/v1/advise",
                    {"space": {"internal": ["none"], "fault_tolerance": [1, 7]}},
                ),
                "at_bound": await _request(
                    host, port, "POST", "/v1/evaluate", {"config": "ft6_noraid"}
                ),
            }

    results = _run(drive())
    for route in ("evaluate", "sweep", "advise"):
        status, _, payload = results[route]
        assert status == 400, (route, payload)
        assert "fault tolerance 7" in payload["error"]
        assert "maximum of 6" in payload["error"]
    status, _, payload = results["at_bound"]
    assert status == 200, payload


def test_non_finite_json_literal_refused_at_parse():
    body = b'{"points": [{"config": "ft2_raid5", "params": {"node_mttf_hours": NaN}}]}'

    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host, server.port, "POST", "/v1/evaluate", raw_body=body
            )

    status, _, payload = _run(drive())
    assert status == 400
    assert payload["error"] == (
        "body.points[0].params.node_mttf_hours: the JSON literal NaN "
        "is not a finite number"
    )


def test_overload_sheds_429_with_retry_after():
    """With admission closed (drained batcher), every solve request
    sheds as 429 carrying the configured Retry-After hint."""

    async def drive():
        async with serving(
            ServeConfig(port=0, retry_after_s=3.0)
        ) as server:
            # Close admission exactly the way SIGTERM drain does.
            await server.service.batcher.stop()
            status, headers, body = await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft1_raid5"},
            )
            assert status == 429
            assert headers["retry-after"] == "3"
            assert body["retry_after_s"] == 3.0
            # The metrics saw the shed class.
            _, _, metrics = await _request(
                server.host, server.port, "GET", "/metricsz"
            )
            assert metrics["serve.http.responses.429"] == 1
            server.service.batcher.start()  # so stop() drains cleanly

    _run(drive())


def test_aux_overload_sheds_sweeps():
    """Sweeps run behind their own admission bound; a zero-depth bound
    sheds them deterministically while point solves still answer."""

    async def drive():
        async with serving(ServeConfig(port=0, aux_depth=0)) as server:
            status, headers, _ = await _request(
                server.host,
                server.port,
                "POST",
                "/v1/sweep",
                {
                    "configs": ["ft1_raid5"],
                    "axis": {"name": "drive_mttf_hours", "values": [1e5]},
                },
            )
            assert status == 429
            assert "retry-after" in headers
            status, _, _ = await _request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft1_raid5"},
            )
            assert status == 200

    _run(drive())


# --------------------------------------------------------------------- #
# metrics reconcile with the request log under load
# --------------------------------------------------------------------- #


def test_loadgen_metrics_reconcile_with_request_log():
    """Drive the server with the open-loop generator and reconcile the
    server-side counters against the client-side request log."""

    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            report = await run_loadgen(
                server.host, server.port, rps=60, duration_s=1.5, seed=11
            )
            _, _, metrics = await _request(
                server.host, server.port, "GET", "/metricsz"
            )
            return report, metrics

    report, metrics = _run(drive())
    assert report.sent > 0
    assert report.transport_errors == 0
    # One /metricsz probe rode along after the run.
    assert metrics["serve.http.requests"] == report.sent + 1
    classes = {
        "2xx": metrics.get("serve.http.responses.2xx", 0),
        "4xx": metrics.get("serve.http.responses.4xx", 0),
        "429": metrics.get("serve.http.responses.429", 0),
        "5xx": metrics.get("serve.http.responses.5xx", 0),
    }
    assert classes["5xx"] == 0
    # The probe's own 2xx is counted after its snapshot was built, so
    # the classes reflect exactly the loadgen's log.
    assert classes["2xx"] == report.completed
    assert classes["429"] == report.shed
    # Every request was admitted, answered from cache, coalesced onto an
    # in-flight solve, or shed — nothing fell through the cracks.
    accounted = (
        metrics.get("serve.queue.admitted", 0)
        + metrics.get("serve.cache.hits", 0)
        + metrics.get("serve.inflight.coalesced", 0)
        + metrics.get("serve.queue.shed", 0)
    )
    assert accounted >= report.sent
    # The batcher actually ran (and never lost a point).
    assert metrics["serve.points"] == metrics["serve.queue.admitted"]


def test_graceful_drain_answers_inflight(baseline):
    """stop() after concurrent submissions answers everything admitted."""

    async def drive():
        harness = serving(ServeConfig(port=0))
        server = await harness.__aenter__()
        try:
            bodies = [
                {
                    "config": "ft2_raid5",
                    "params": {"drive_mttf_hours": 1e5 + i},
                }
                for i in range(8)
            ]
            tasks = [
                asyncio.ensure_future(
                    _request(
                        server.host, server.port, "POST", "/v1/evaluate", b
                    )
                )
                for b in bodies
            ]
            # Wait until every request reached dispatch, so the drain
            # below finds them genuinely in flight.
            requests_seen = server.service.metrics.counter(
                "serve.http.requests"
            )
            for _ in range(2000):
                if requests_seen.value >= len(bodies):
                    break
                await asyncio.sleep(0.001)
        finally:
            await harness.__aexit__(None, None, None)
        return await asyncio.gather(*tasks)

    outcomes = _run(drive())
    statuses = sorted(status for status, _, _ in outcomes)
    assert all(status in (200, 429) for status in statuses)
    assert 200 in statuses  # the drain really answered admitted work
