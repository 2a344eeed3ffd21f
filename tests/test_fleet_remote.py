"""The resilient remote cache backend (repro.fleet.remote).

Fault injection against real sockets: a refused port, a server
speaking garbage, one that stalls past the timeout, one that drops the
connection mid-body.  Every failure mode must degrade to a cache miss
or a dropped write — the backend never raises into the engine — and
corrupt payloads must never promote into entries.  Also pins the
circuit-breaker state machine (closed → open → half-open → closed), the
warm-start path over the wire between "worker processes" (simulated by
resetting the per-process backend registry), and the acceptance
scenario: killing the cache server mid-session costs warm starts, never
a 5xx, and the worker re-attaches when the tier returns.
"""

import socket
import threading
import time
from dataclasses import replace
from http.client import HTTPConnection

import pytest

from repro.engine.cache import CacheCounters, ExecutionCache, reset_process_cache
from repro.engine.rows import EXACT, TERMINAL
from repro.fleet.cache_server import make_cache_server
from repro.fleet.metrics import parse_samples, sample_value
from repro.fleet.pool import reset_pool
from repro.fleet.remote import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RemoteBackend,
)
from repro.obs import metrics as obs_metrics
from repro.protocol.codec import STORE_CODEC
from repro.service.backends import reset_backends, resolve_backend
from repro.service.client import ServiceClient
from repro.service.server import make_server
from repro.service.sessions import SessionManager
from repro.synth.config import DEFAULT_CONFIG

from helpers import (
    LITERAL_EXACT,
    LITERAL_TERMINAL,
    assert_serves_literal_rows,
    cards_page,
    literal_rows,
    scrape_cards_trace,
    zlib_bomb,
)

KEY = b"\x07" * 16
ROW = [(EXACT, KEY)]


@pytest.fixture(autouse=True)
def _isolate():
    reset_process_cache()
    reset_pool()
    yield
    reset_backends()
    reset_process_cache()
    reset_pool()


@pytest.fixture
def cache(tmp_path):
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


def _cache_url(server) -> str:
    return f"remote://127.0.0.1:{server.server_address[1]}"


def _dead_port() -> int:
    """A port nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class _FaultServer:
    """One-connection-at-a-time socket server with a scripted behavior."""

    def __init__(self, behavior):
        self._behavior = behavior
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._running = True
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while self._running:
            try:
                connection, _ = self._sock.accept()
            except OSError:
                return
            try:
                self._behavior(connection)
            except OSError:
                pass
            finally:
                try:
                    connection.close()
                except OSError:
                    pass

    def close(self):
        self._running = False
        try:
            self._sock.close()
        except OSError:
            pass


def _drain_request(connection):
    connection.settimeout(2.0)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = connection.recv(65536)
        if not chunk:
            return data
        data += chunk
    return data


class TestFaultInjection:
    def test_connection_refused_degrades_to_miss(self):
        backend = RemoteBackend(
            f"remote://127.0.0.1:{_dead_port()}",
            timeout=0.3,
            retries=1,
            breaker_threshold=100,
        )
        assert backend.load_payloads(ROW) == [None]
        assert backend.load_payloads(ROW) == [None]
        assert backend.io_errors == 2  # retries do not double-count

    def test_writes_to_a_dead_tier_drop_not_raise(self):
        backend = RemoteBackend(
            f"remote://127.0.0.1:{_dead_port()}",
            timeout=0.3,
            retries=0,
            breaker_threshold=100,
        )
        backend.store_payload(EXACT, KEY, {"v": 5})
        # the buffered write still serves locally
        assert backend.load_payloads(ROW) == [{"v": 5}]
        backend.flush()
        assert backend.dropped_writes == 1
        assert backend.entries == 0  # nothing acknowledged

    def test_garbage_bytes_degrade_to_miss(self):
        def talk_nonsense(connection):
            _drain_request(connection)
            connection.sendall(b"PONY PONY PONY\r\n\r\n")

        server = _FaultServer(talk_nonsense)
        try:
            backend = RemoteBackend(
                f"remote://127.0.0.1:{server.port}",
                timeout=1.0,
                retries=0,
                breaker_threshold=100,
            )
            assert backend.load_payloads(ROW) == [None]
            assert backend.io_errors == 1
        finally:
            server.close()

    def test_valid_http_garbage_payload_degrades_to_miss(self):
        def http_nonsense(connection):
            _drain_request(connection)
            body = b"\x00\xff not any codec"
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )

        server = _FaultServer(http_nonsense)
        try:
            backend = RemoteBackend(
                f"remote://127.0.0.1:{server.port}",
                timeout=1.0,
                retries=0,
                breaker_threshold=100,
            )
            assert backend.load_payloads(ROW) == [None]
        finally:
            server.close()

    def test_json_reply_degrades_to_miss(self):
        # the data plane is binary only: a well-formed JSON answer is
        # still a foreign reply, never a hit
        def json_reply(connection):
            _drain_request(connection)
            body = b'{"e": [{"v": 5}]}'
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            )

        server = _FaultServer(json_reply)
        try:
            backend = RemoteBackend(
                f"remote://127.0.0.1:{server.port}",
                timeout=1.0,
                retries=0,
                breaker_threshold=100,
            )
            assert backend.load_payloads(ROW) == [None]
            assert backend.io_errors == 1
        finally:
            server.close()

    def test_decompression_bomb_reply_is_a_decode_miss(self):
        def bomb_reply(connection):
            _drain_request(connection)
            body = zlib_bomb()
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )

        obs_metrics.reset_registry()
        server = _FaultServer(bomb_reply)
        try:
            backend = RemoteBackend(
                f"remote://127.0.0.1:{server.port}",
                timeout=5.0,
                retries=0,
                breaker_threshold=100,
            )
            assert backend.load_payloads(ROW) == [None]
            assert backend.io_errors == 1
        finally:
            server.close()
        samples = parse_samples(obs_metrics.registry().render())
        assert sample_value(
            samples, "repro_remote_requests_total", {"op": "get", "outcome": "decode"}
        ) == 1

    def test_slow_server_times_out_within_budget(self):
        def stall(connection):
            _drain_request(connection)
            time.sleep(2.0)

        server = _FaultServer(stall)
        try:
            backend = RemoteBackend(
                f"remote://127.0.0.1:{server.port}",
                timeout=0.3,
                retries=0,
                breaker_threshold=100,
            )
            started = time.monotonic()
            assert backend.load_payloads(ROW) == [None]
            assert time.monotonic() - started < 1.5
        finally:
            server.close()

    def test_mid_body_disconnect_degrades_to_miss(self):
        def drop_mid_body(connection):
            _drain_request(connection)
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\npartial"
            )
            # close with most of the body unsent -> IncompleteRead

        server = _FaultServer(drop_mid_body)
        try:
            backend = RemoteBackend(
                f"remote://127.0.0.1:{server.port}",
                timeout=1.0,
                retries=0,
                breaker_threshold=100,
            )
            assert backend.load_payloads(ROW) == [None]
            assert backend.io_errors == 1
        finally:
            server.close()

    def test_corrupt_payloads_never_promote(self, cache):
        # a foreign/corrupt row in the tier is a row found, but the
        # cache reads it as a counted miss, never as a mangled entry
        # handed to the engine
        exact, terminal = (digest for _, digest, _ in literal_rows())
        cache.store.store_payload(EXACT, exact, {"junk": 1})
        cache.store.store_payload(TERMINAL, terminal, {"a": "junk", "e": None})
        backend = RemoteBackend(_cache_url(cache))
        reader = ExecutionCache(backend=backend)
        counters = CacheCounters()
        assert reader.get(*LITERAL_EXACT, counters) is None
        assert reader.get(*LITERAL_TERMINAL, counters) is None
        assert (counters.misses, counters.hits, counters.warm_hits) == (2, 0, 0)
        assert len(reader) == 0  # nothing promoted
        assert backend.load_hits == 2


class TestCircuitBreaker:
    def test_closed_to_open_to_half_open_to_closed(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, reset_after=1.0, clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # open: requests skip
        clock[0] = 1.5
        assert breaker.allow()  # exactly one half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # concurrent requests still skip
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=lambda: clock[0])
        breaker.record_failure()
        assert breaker.state == OPEN
        clock[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock[0] = 2.0
        assert breaker.allow()  # a fresh probe after another window

    def test_open_breaker_skips_the_wire(self):
        backend = RemoteBackend(
            f"remote://127.0.0.1:{_dead_port()}",
            timeout=0.3,
            retries=0,
            breaker_threshold=1,
            breaker_reset_s=60.0,
        )
        assert backend.load_payloads(ROW) == [None]
        assert backend.io_errors == 1
        started = time.monotonic()
        for _ in range(20):
            assert backend.load_payloads(ROW) == [None]
        # 20 skipped probes cost microseconds, not 20 connect timeouts
        assert time.monotonic() - started < 0.3
        assert backend.io_errors == 1


class TestWireRoundTrip:
    def test_warm_start_crosses_worker_processes(self, cache):
        url = _cache_url(cache)
        # every card scraped: the session writes execution rows (a
        # shorter demonstration's rows are all cheap to recompute)
        dom = cards_page(8)
        actions, snapshots = scrape_cards_trace(dom, 8)

        def drive():
            manager = SessionManager(
                replace(DEFAULT_CONFIG, cache_backend=url), timeout=5.0
            )
            sid = manager.create(snapshots[0])
            for position, action in enumerate(actions):
                manager.record_action(sid, action, snapshots[position + 1])
            programs = tuple(
                item.program for item in manager.candidates(sid).candidates
            )
            manager.close(sid)  # flushes the remote write buffer
            return programs, manager.stats()["totals"]

        cold, cold_totals = drive()
        assert cache.store.entries > 0  # the tier holds the session's rows
        # a "new worker process": fresh registry, fresh engine cache
        reset_backends()
        reset_process_cache()
        warm, warm_totals = drive()
        assert warm == cold  # byte-identical candidates over the tier
        assert warm_totals["warm_start_hits"] > 0
        backend = resolve_backend(url)
        assert backend.load_hits > 0
        assert backend.io_errors == 0

    def test_rows_earlier_builds_wrote_serve_warm_hits(self, cache):
        # literal rows put over the wire, as an earlier worker sent them
        host, port = cache.server_address[:2]
        body = STORE_CODEC.encode_payload(
            {"e": [[kind, digest.hex(), payload] for kind, digest, payload in literal_rows()]}
        )
        connection = HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("POST", "/v1/cache/put", body=body)
            response = connection.getresponse()
            assert response.status == 200
            assert STORE_CODEC.decode_payload(response.read())["stored"] == 2
        finally:
            connection.close()
        assert_serves_literal_rows(RemoteBackend(_cache_url(cache)))

    def test_request_histogram_pairs_with_the_cache_server(self, cache):
        obs_metrics.reset_registry()
        backend = RemoteBackend(_cache_url(cache))
        backend.store_payload(EXACT, KEY, {"v": 9})
        backend.flush()
        assert RemoteBackend(_cache_url(cache)).load_payloads(ROW) == [{"v": 9}]
        text = obs_metrics.registry().render()
        assert "# TYPE repro_remote_request_seconds histogram" in text
        samples = parse_samples(text)
        for op in ("get", "put"):
            worker = sample_value(
                samples, "repro_remote_request_seconds_count", {"op": op}
            )
            server = sample_value(
                samples, "repro_cache_server_seconds_count", {"op": op}
            )
            assert worker == server == 1
            assert sample_value(
                samples, "repro_remote_request_seconds_sum", {"op": op}
            ) >= sample_value(samples, "repro_cache_server_seconds_sum", {"op": op})

    def test_stats_duck_type_like_the_file_backend(self, cache):
        backend = RemoteBackend(_cache_url(cache))
        backend.store_payload(EXACT, KEY, {"v": 9})
        backend.flush()
        assert backend.persisted_bytes > 0
        assert backend.entries == 1
        assert backend.name == "remote"


class TestMidLoadKill:
    def test_cache_death_never_surfaces_and_the_worker_reattaches(
        self, tmp_path, monkeypatch
    ):
        store_path = str(tmp_path / "cache.sqlite")
        cache = make_cache_server(port=0, path=store_path)
        port = cache.server_address[1]
        threading.Thread(target=cache.serve_forever, daemon=True).start()

        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT", "0.3")
        monkeypatch.setenv("REPRO_REMOTE_RETRIES", "0")
        monkeypatch.setenv("REPRO_REMOTE_BREAKER_THRESHOLD", "2")
        monkeypatch.setenv("REPRO_REMOTE_BREAKER_RESET_S", "0.2")
        reset_backends()

        url = f"remote://127.0.0.1:{port}"
        worker = make_server(
            port=0,
            config=replace(DEFAULT_CONFIG, cache_backend=url),
            timeout=5.0,
        )
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        client = ServiceClient(f"http://127.0.0.1:{worker.server_address[1]}")
        try:
            # every card scraped: the demonstration's last calls write
            # terminal rows, so the revived tier receives some
            dom = cards_page(4)
            actions, snapshots = scrape_cards_trace(dom, 4)
            sid = client.create_session(snapshots[0])
            client.record_action(sid, actions[0], snapshots[1])

            # kill the cache tier mid-session
            cache.shutdown()
            cache.server_close()
            cache.store.close()

            for position in (1, 2):
                # the typed client raises on any non-2xx: surviving the
                # call IS the no-5xx assertion
                proposed = client.record_action(
                    sid, actions[position], snapshots[position + 1]
                )
                assert proposed.session == sid
            backend = resolve_backend(url)
            assert backend.io_errors > 0  # it did notice the outage

            # the tier comes back on the same port; the breaker window
            # passes and the worker re-attaches
            revived = make_cache_server(port=port, path=store_path)
            threading.Thread(target=revived.serve_forever, daemon=True).start()
            try:
                time.sleep(0.25)
                proposals = [
                    client.record_action(sid, actions[position], snapshots[position + 1])
                    for position in range(3, len(actions))
                ]
                # the session still converges (the last call, at the end
                # of the list, has nothing left to predict)
                assert all(proposed.programs > 0 for proposed in proposals[:-1])
                client.close_session(sid)  # close flushes to the tier
                assert backend.breaker.state == CLOSED
                assert revived.store.entries > 0
            finally:
                revived.shutdown()
                revived.server_close()
                revived.store.close()
        finally:
            worker.shutdown()
            worker.manager.close_all()
            worker.server_close()
