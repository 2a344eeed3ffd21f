"""The standalone cache tier (repro.fleet.cache_server) and the shared
keep-alive pool (repro.fleet.pool).

Boots a real cache server on an ephemeral port and speaks the payload
wire protocol at it raw — hex keys, codec payload dicts — pinning batch
get/put semantics, write-buffer visibility (a put is readable before
the SQLite flush), the binary-only data plane and JSON-only control
plane, the health/stats/metrics routes, and that malformed requests
come back 400, never 500.
"""

import statistics
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.fleet.cache_server import _CacheHandler, make_cache_server
from repro.fleet.metrics import parse_samples, sample_value
from repro.fleet.pool import ConnectionPool, pool, reset_pool
from repro.fleet.remote import RemoteBackend
from repro.obs import metrics as obs_metrics
from repro.protocol.codec import DEFAULT_CODEC as JSON, STORE_CODEC as BINARY
from repro.engine.rows import EXACT

from helpers import hold_after_reply, post_unbounded_body, zlib_bomb


@pytest.fixture
def cache(tmp_path):
    """A cache server thread on an ephemeral port, torn down afterwards."""
    server = make_cache_server(port=0, path=str(tmp_path / "cache.sqlite"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.store.close()
        thread.join(timeout=5)


def _post(server, path, payload, codec=BINARY):
    host, port = server.server_address[:2]
    connection = HTTPConnection(host, port, timeout=10.0)
    try:
        connection.request(
            "POST",
            path,
            body=codec.encode_payload(payload),
            headers={"Content-Type": codec.content_type},
        )
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    return response, body


def _get(server, path):
    host, port = server.server_address[:2]
    connection = HTTPConnection(host, port, timeout=10.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    return response, body


KEY = b"\x01" * 16
PAYLOAD = {"v": 42}


class TestWireProtocol:
    def test_put_then_get_round_trips(self, cache):
        response, body = _post(
            cache, "/v1/cache/put", {"e": [[0, KEY.hex(), PAYLOAD]]}
        )
        assert response.status == 200
        assert response.getheader("Content-Type") == BINARY.content_type
        ack = BINARY.decode_payload(body)
        assert ack["stored"] == 1
        response, body = _get_entries(cache, [[0, KEY.hex()]])
        assert response.status == 200
        assert body["e"] == [PAYLOAD]

    def test_get_misses_are_nulls_in_order(self, cache):
        _post(cache, "/v1/cache/put", {"e": [[0, KEY.hex(), PAYLOAD]]})
        response, body = _get_entries(
            cache, [[0, (b"\x02" * 16).hex()], [0, KEY.hex()]]
        )
        assert response.status == 200
        assert body["e"] == [None, PAYLOAD]

    def test_put_is_readable_before_the_sqlite_flush(self, cache):
        # the store buffers writes (flush_every rows); a get from another
        # worker must still see the row immediately
        assert cache.store._pending or cache.store.flush_every > 1
        _post(cache, "/v1/cache/put", {"e": [[0, KEY.hex(), {"a": []}]]})
        _, body = _get_entries(cache, [[0, KEY.hex()]])
        assert body["e"] == [{"a": []}]

    def test_put_ack_carries_store_totals(self, cache):
        _, body = _post(
            cache,
            "/v1/cache/put",
            {"e": [[0, KEY.hex(), PAYLOAD], [0, (b"\x02" * 16).hex(), PAYLOAD]]},
        )
        ack = BINARY.decode_payload(body)
        assert ack["entries"] == 2
        assert ack["bytes"] > 0

    def test_json_data_plane_bodies_are_400(self, cache):
        for path, payload in (
            ("/v1/cache/put", {"e": [[0, KEY.hex(), PAYLOAD]]}),
            ("/v1/cache/get", {"k": [[0, KEY.hex()]]}),
        ):
            response, body = _post(cache, path, payload, codec=JSON)
            assert response.status == 400
            # error bodies are control plane: always JSON
            assert response.getheader("Content-Type") == JSON.content_type
            assert JSON.decode_payload(body)["error"] == "bad_request"
        assert cache.store.entries == 0


def _get_entries(cache, keys):
    response, body = _post(cache, "/v1/cache/get", {"k": keys})
    return response, (BINARY.decode_payload(body) if response.status == 200 else body)


class TestBadRequests:
    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no "k"
            {"k": "nope"},  # not a list
            {"k": [[9, KEY.hex()]]},  # unknown kind
            {"k": [[0, "zz"]]},  # not hex
            {"k": [[0, ""]]},  # empty key
            {"k": [[0]]},  # short row
            {"k": [[2, KEY.hex()]]},  # the retired consistency kind
        ],
    )
    def test_malformed_get_is_400(self, cache, payload):
        response, body = _post(cache, "/v1/cache/get", payload)
        assert response.status == 400
        assert JSON.decode_payload(body)["error"] == "bad_request"

    def test_malformed_put_row_is_400(self, cache):
        for row in ([EXACT, KEY.hex(), "not a dict"], [2, KEY.hex(), PAYLOAD]):
            response, _ = _post(cache, "/v1/cache/put", {"e": [row]})
            assert response.status == 400
        # a rejected row is never stored, and the server keeps serving
        response, body = _get_entries(cache, [[EXACT, KEY.hex()]])
        assert (response.status, body["e"]) == (200, [None])

    def test_put_with_a_bad_row_stores_none_of_the_batch(self, cache):
        obs_metrics.reset_registry()
        batch = [[EXACT, KEY.hex(), PAYLOAD], [EXACT, "zz", PAYLOAD]]
        response, body = _post(cache, "/v1/cache/put", {"e": batch})
        assert response.status == 400
        assert "malformed key 'zz'" in JSON.decode_payload(body)["message"]
        assert cache.store.entries == 0
        samples = parse_samples(obs_metrics.registry().render())
        assert sample_value(
            samples, "repro_cache_server_requests_total", {"op": "put", "outcome": "stored"}
        ) is None
        # the valid row ahead of the bad one was not written either
        response, body = _get_entries(cache, [[EXACT, KEY.hex()]])
        assert (response.status, body["e"]) == (200, [None])

    def test_get_with_a_bad_row_reads_and_counts_nothing(self, cache):
        _post(cache, "/v1/cache/put", {"e": [[EXACT, KEY.hex(), PAYLOAD]]})
        obs_metrics.reset_registry()
        loads = cache.store.loads
        response, _ = _post(
            cache, "/v1/cache/get", {"k": [[EXACT, KEY.hex()], [EXACT, "zz"]]}
        )
        assert response.status == 400
        assert cache.store.loads == loads
        samples = parse_samples(obs_metrics.registry().render())
        for outcome in ("hit", "miss"):
            assert sample_value(
                samples, "repro_cache_server_requests_total", {"op": "get", "outcome": outcome}
            ) is None
        assert sample_value(
            samples, "repro_cache_server_requests_total", {"op": "get", "outcome": "bad_request"}
        ) == 1

    def test_unknown_routes_are_404(self, cache):
        response, _ = _get(cache, "/nope")
        assert response.status == 404
        response, _ = _post(cache, "/v1/nope", {})
        assert response.status == 404

    def test_unknown_post_route_is_labelled_post_in_both_metrics(self, cache):
        obs_metrics.reset_registry()
        response, _ = _post(cache, "/v1/nope", {})
        assert response.status == 404
        samples = parse_samples(obs_metrics.registry().render())
        assert sample_value(
            samples,
            "repro_cache_server_requests_total",
            {"op": "post", "outcome": "bad_request"},
        ) == 1
        # the latency lands under the same label, not under a cache op
        assert (
            sample_value(samples, "repro_cache_server_seconds_count", {"op": "post"})
            == 1
        )
        for op in ("get", "put"):
            assert (
                sample_value(samples, "repro_cache_server_seconds_count", {"op": op})
                is None
            )

    def test_garbage_body_is_400_not_500(self, cache):
        host, port = cache.server_address[:2]
        connection = HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("POST", "/v1/cache/get", body=b"\xff\xfe garbage")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_decompression_bomb_is_400_and_the_server_keeps_serving(self, cache):
        host, port = cache.server_address[:2]
        for path in ("/v1/cache/get", "/v1/cache/put"):
            connection = HTTPConnection(host, port, timeout=10.0)
            try:
                connection.request(
                    "POST",
                    path,
                    body=zlib_bomb(),
                    headers={"Content-Type": BINARY.content_type},
                )
                response = connection.getresponse()
                body = response.read()
            finally:
                connection.close()
            assert response.status == 400
            assert "inflates past" in JSON.decode_payload(body)["message"]
        response, body = _post(cache, "/v1/cache/put", {"e": [[EXACT, KEY.hex(), PAYLOAD]]})
        assert response.status == 200
        _, found = _get_entries(cache, [[EXACT, KEY.hex()]])
        assert found == {"e": [PAYLOAD]}

    @pytest.mark.parametrize("path", ["/v1/cache/get", "/v1/cache/put"])
    def test_unbounded_body_is_a_prompt_413_and_the_server_keeps_serving(self, cache, path):
        host, port = cache.server_address[:2]
        status, headers, body, elapsed = post_unbounded_body(host, port, path)
        assert status == 413
        assert elapsed < 5.0
        assert headers["connection"] == "close"
        assert JSON.decode_payload(body)["error"] == "bad_request"
        response, body = _get(cache, "/healthz")
        assert response.status == 200
        assert JSON.decode_payload(body)["ok"] is True


class TestOperationalRoutes:
    def test_healthz_names_the_role(self, cache):
        response, body = _get(cache, "/healthz")
        assert response.getheader("Content-Type") == JSON.content_type
        health = JSON.decode_payload(body)
        assert health["ok"] is True
        assert health["role"] == "cache"

    def test_stats_reflect_traffic(self, cache):
        _post(cache, "/v1/cache/put", {"e": [[0, KEY.hex(), PAYLOAD]]})
        _get_entries(cache, [[0, KEY.hex()]])
        response, body = _get(cache, "/v1/stats")
        assert response.getheader("Content-Type") == JSON.content_type
        stats = JSON.decode_payload(body)
        assert stats["role"] == "cache"
        assert stats["entries"] == 1
        assert stats["loads"] >= 1

    def test_metrics_route_counts_hits_and_misses(self, cache):
        _post(cache, "/v1/cache/put", {"e": [[0, KEY.hex(), PAYLOAD]]})
        _get_entries(cache, [[0, KEY.hex()], [0, (b"\x03" * 16).hex()]])
        response, body = _get(cache, "/v1/metrics")
        assert response.status == 200
        text = body.decode("utf-8")
        assert 'repro_cache_server_requests_total{op="get",outcome="hit"}' in text
        assert 'repro_cache_server_requests_total{op="get",outcome="miss"}' in text

    def test_metrics_publish_before_the_reply_leaves(self, cache, monkeypatch):
        # a worker that has read its reply and then scrapes on another
        # connection must find its own request, even while the server
        # thread that answered it has not yet returned
        obs_metrics.reset_registry()
        held, release = hold_after_reply(monkeypatch, _CacheHandler, "/v1/cache/get")
        try:
            response, _ = _get_entries(cache, [[0, KEY.hex()]])
            assert response.status == 200
            assert held.wait(timeout=10.0)
            _, body = _get(cache, "/v1/metrics")
        finally:
            release.set()
        samples = parse_samples(body.decode("utf-8"))
        assert sample_value(samples, "repro_cache_server_seconds_count", {"op": "get"}) == 1
        assert sample_value(
            samples, "repro_cache_server_requests_total", {"op": "get", "outcome": "miss"}
        ) == 1


class TestReplyLatency:
    def test_keep_alive_reads_do_not_wait_for_a_delayed_ack(self, cache):
        # a reply written as headers then body stalls on Nagle until the
        # client's delayed ACK, ~40 ms per round trip; loopback without
        # the stall answers in well under a millisecond
        reset_pool()
        backend = RemoteBackend(f"remote://127.0.0.1:{cache.server_address[1]}")
        rows = [(EXACT, KEY)]
        times = []
        try:
            backend.load_payloads(rows)  # opens the connection, untimed
            for _ in range(20):
                started = time.perf_counter()
                assert backend.load_payloads(rows) == [None]
                times.append(time.perf_counter() - started)
            assert pool().stats()["created"] == 1  # one keep-alive connection
        finally:
            reset_pool()
        median = statistics.median(times)
        assert median < 0.010, f"median round trip {median * 1e3:.1f} ms"


class TestConnectionPool:
    def test_release_then_acquire_reuses(self, cache):
        host, port = cache.server_address[:2]
        shared = ConnectionPool()
        first = shared.acquire(host, port, timeout=5.0)
        first.request("GET", "/healthz")
        first.getresponse().read()
        shared.release(host, port, first)
        assert shared.idle_count(host, port) == 1
        again = shared.acquire(host, port, timeout=2.0)
        assert again is first
        assert again.timeout == 2.0  # the new caller's budget applies
        assert shared.stats()["reused"] == 1
        shared.discard(again)

    def test_overflow_release_discards(self):
        shared = ConnectionPool(max_idle_per_host=1)
        a = shared.acquire("127.0.0.1", 1)
        b = shared.acquire("127.0.0.1", 1)
        shared.release("127.0.0.1", 1, a)
        shared.release("127.0.0.1", 1, b)
        assert shared.idle_count("127.0.0.1", 1) == 1
        assert shared.stats()["discarded"] == 1
        shared.clear()

    def test_process_pool_reset(self):
        shared = pool()
        shared.acquire("127.0.0.1", 1)
        assert shared.stats()["created"] >= 1
        reset_pool()
        assert pool().stats() == {
            "created": 0,
            "reused": 0,
            "discarded": 0,
            "idle": 0,
        }
