"""End-to-end tests for ``POST /v1/advise`` and the aux-lane health
surfaces it rides on."""

import asyncio
import json

import pytest

import repro
from repro.advise import AdviseRequest
from repro.serve import ServeConfig, serving
from repro.serve.top import render

pytestmark = [pytest.mark.serve, pytest.mark.advise]

SMALL_BODY = {
    "space": {
        "internal": ["none", "raid5"],
        "fault_tolerance": [1, 2],
        "axes": {"redundancy_set_size": [6, 8]},
    },
    "seed": 0,
}


async def _request(host, port, method, path, body=None):
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


def test_advise_round_trip_matches_library_bitwise():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host, server.port, "POST", "/v1/advise", SMALL_BODY
            )

    status, _, payload = asyncio.run(drive())
    assert status == 200
    assert payload["kind"] == "repro-advise-result"
    direct = repro.advise(
        AdviseRequest.from_dict(SMALL_BODY),
        base_params=repro.Parameters.baseline(),
    ).to_dict()
    assert payload["frontier"] == direct["frontier"]
    assert payload["recommended"] == direct["recommended"]
    assert payload["evaluated"] == direct["evaluated"]


def test_frontier_reliability_bitwise_equals_evaluate():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host, server.port, "POST", "/v1/advise", SMALL_BODY
            )

    status, _, payload = asyncio.run(drive())
    assert status == 200
    assert payload["frontier"]
    for point in payload["frontier"]:
        direct = repro.evaluate(
            repro.Configuration.from_key(point["config"]),
            repro.Parameters(**point["params"]),
        )
        assert point["reliability"]["mttdl_hours"] == direct.mttdl_hours
        assert (
            point["reliability"]["events_per_pb_year"]
            == direct.events_per_pb_year
        )


def test_bad_axis_answers_400_naming_the_axis():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host,
                server.port,
                "POST",
                "/v1/advise",
                {"space": {"axes": {"no_such_field": [1, 2]}}},
            )

    status, _, payload = asyncio.run(drive())
    assert status == 400
    assert "no_such_field" in payload["error"]


@pytest.mark.parametrize(
    "body, field",
    [
        ({"space": {"axes": {"drives_per_node": [float("inf")]}}},
         "drives_per_node"),
        ({"space": {"axes": {"node_mttf_hours": [float("nan")]}}},
         "node_mttf_hours"),
        ({"cost_model": {"drive_cost_per_year": float("nan")}},
         "drive_cost_per_year"),
        ({"cost_model": {"node_cost_per_year": float("-inf")}},
         "node_cost_per_year"),
        ({"target_events_per_pb_year": 10 ** 400},
         "target_events_per_pb_year"),
    ],
)
def test_non_finite_input_answers_400_naming_the_field(body, field):
    # json.dumps spells these Infinity / NaN, which the server's parser
    # refuses, naming the field; 10**400 parses and fails validation.
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host, server.port, "POST", "/v1/advise", body
            )

    status, _, payload = asyncio.run(drive())
    assert status == 400
    assert field in payload["error"]
    assert "finite" in payload["error"]


def test_non_finite_json_literal_refused_at_parse():
    body = {"seed": 0, "cost_model": {"node_cost_per_year": float("-inf")}}

    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host, server.port, "POST", "/v1/advise", body
            )

    status, _, payload = asyncio.run(drive())
    assert status == 400
    assert payload["error"] == (
        "body.cost_model.node_cost_per_year: the JSON literal -Infinity "
        "is not a finite number"
    )


def test_oversized_space_answers_400():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _request(
                server.host,
                server.port,
                "POST",
                "/v1/advise",
                {
                    "space": {
                        "axes": {
                            "node_set_size": list(range(32, 32 + 400))
                        }
                    }
                },
            )

    status, _, payload = asyncio.run(drive())
    assert status == 400
    assert "repro-advise" in payload["error"]  # points at the CLI


def test_advise_depth_zero_sheds_with_429():
    async def drive():
        async with serving(ServeConfig(port=0, advise_depth=0)) as server:
            return await _request(
                server.host, server.port, "POST", "/v1/advise", SMALL_BODY
            )

    status, headers, payload = asyncio.run(drive())
    assert status == 429
    assert "retry-after" in headers
    assert payload["retry_after_s"] == pytest.approx(1.0)


def test_healthz_reports_aux_lane():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            await _request(
                server.host, server.port, "POST", "/v1/advise", SMALL_BODY
            )
            return await _request(server.host, server.port, "GET", "/healthz")

    status, _, health = asyncio.run(drive())
    assert status == 200
    aux = health["aux"]
    assert aux["depth"] == 8
    assert aux["pending"] == 0
    assert aux["inflight"] == 0
    assert aux["queued"] == 0
    assert aux["advise"] == {"depth": 2, "pending": 0, "shed": 0}


def test_metricsz_reports_advise_and_aux_gauges():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            await _request(
                server.host, server.port, "POST", "/v1/advise", SMALL_BODY
            )
            return await _request(
                server.host, server.port, "GET", "/metricsz"
            )

    status, _, metrics = asyncio.run(drive())
    assert status == 200
    assert metrics["serve.requests.advise"] == 1
    # advise.* counters live in the process-global registry, so earlier
    # searches in the same test process also show up here.
    assert metrics["advise.requests"] >= 1
    assert metrics["advise.frontier.points"] > 0
    assert metrics["serve.aux.inflight"] == 0
    assert metrics["serve.aux.queued"] == 0
    assert metrics["serve.advise.pending"] == 0


def test_top_renders_aux_line():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            await _request(
                server.host, server.port, "POST", "/v1/advise", SMALL_BODY
            )
            _, _, metrics = await _request(
                server.host, server.port, "GET", "/metricsz"
            )
            _, _, health = await _request(
                server.host, server.port, "GET", "/healthz"
            )
            return metrics, health

    metrics, health = asyncio.run(drive())
    frame = render(metrics, health)
    assert "aux" in frame
    assert "advise 0/2" in frame
