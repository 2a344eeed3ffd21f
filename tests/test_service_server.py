"""The HTTP service (repro.service.server) and its typed client.

Boots a real ThreadingHTTPServer on an ephemeral port (in a thread) and
drives it through :class:`repro.service.client.ServiceClient` — the
``/v1`` protocol wire path ``repro serve`` exposes, minus the process
boundary (the service and migration benches cover that).  Also pins
the :class:`ErrorEnvelope` status mapping, the server-to-server
migrate flow, and the observability surface: the Prometheus
``/v1/metrics`` route, per-route metric labels, and ``X-Repro-Trace``
adoption/echo — including that one trace id survives a migration push
through a second worker.
"""

import threading
from dataclasses import replace
from http.client import HTTPConnection

import pytest

from repro.engine.cache import reset_process_cache
from repro.fleet.metrics import parse_samples, sample_value
from repro.lang.pretty import format_program
from repro.lang import EMPTY_DATA
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.protocol import PROTOCOL_VERSION
from repro.protocol.messages import SessionSnapshot
from repro.synth.config import DEFAULT_CONFIG, no_execution_cache_config
from repro.synth.synthesizer import Synthesizer
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.server import _Handler, make_server

from helpers import cards_page, hold_after_reply, post_unbounded_body, scrape_cards_trace


def _boot():
    server = make_server(
        port=0,
        config=replace(DEFAULT_CONFIG, cache_backend="memory"),
        timeout=5.0,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    return server, client


def _teardown(server, client):
    client.close()
    server.shutdown()
    server.manager.close_all()
    server.server_close()


@pytest.fixture
def service():
    """A served worker on an ephemeral port, torn down afterwards."""
    reset_process_cache()
    server, client = _boot()
    try:
        yield client
    finally:
        _teardown(server, client)
        reset_process_cache()


@pytest.fixture
def two_workers():
    """Two independent workers (the migration topology)."""
    reset_process_cache()
    server_a, client_a = _boot()
    server_b, client_b = _boot()
    try:
        yield client_a, client_b
    finally:
        _teardown(server_a, client_a)
        _teardown(server_b, client_b)
        reset_process_cache()


class TestRoundTrip:
    def test_health_and_stats(self, service):
        assert service.health()
        assert service.protocol_version() == PROTOCOL_VERSION
        stats = service.stats()
        assert stats["sessions"] == 0
        assert stats["backend"] == "memory"
        assert stats["protocol"] == PROTOCOL_VERSION

    def test_full_session_over_http_matches_local_synthesis(self, service):
        dom = cards_page(5)
        actions, snapshots = scrape_cards_trace(dom, 4)
        sid = service.create_session(snapshots[0])
        proposed = None
        for position, action in enumerate(actions):
            proposed = service.record_action(sid, action, snapshots[position + 1])
        assert proposed.programs > 0
        assert proposed.predictions
        served = [item.program for item in service.candidates(sid).candidates]
        # the session is incremental: compare against an incrementally
        # driven synthesizer, not a one-shot call
        direct = Synthesizer(EMPTY_DATA, no_execution_cache_config())
        for cut in range(1, len(actions) + 1):
            expected = direct.synthesize(actions[:cut], snapshots[: cut + 1])
        assert served == [format_program(p) for p in expected.programs]
        accepted = service.accept(sid, 0)
        assert accepted.program == served[0]
        closed = service.close_session(sid)
        assert closed.stats.calls == len(actions)
        # the wire-level prediction matches the local best prediction
        assert proposed.predictions[0] == str(expected.best_prediction)

    def test_reject_round_trip(self, service):
        sid = service.create_session(cards_page(3))
        assert service.reject(sid).rejections == 1
        assert service.reject(sid).rejections == 2
        assert service.close_session(sid).stats.rejections == 2

    def test_drive_recording_helper(self, service):
        from repro.browser.recorder import Recording

        dom = cards_page(4)
        actions, snapshots = scrape_cards_trace(dom, 3)
        recording = Recording(
            actions=actions, snapshots=snapshots, outputs=[], truncated=False
        )
        sid, proposals = service.drive_recording(recording)
        assert len(proposals) == len(actions)
        assert proposals[-1].programs > 0
        service.close_session(sid)

def _raw_get(client, path, headers=None):
    """One GET outside the typed client (non-protocol bodies)."""
    connection = HTTPConnection(client.host, client.port, timeout=10.0)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response, response.read()
    finally:
        connection.close()


class TestObservability:
    def test_metrics_route_serves_prometheus_text(self, service):
        obs_metrics.reset_registry()
        sid = service.create_session(cards_page(3))
        service.candidates(sid)
        service.stats()
        response, body = _raw_get(service, "/v1/metrics")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain; version=0.0.4"
        )
        text = body.decode("utf-8")
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_requests_total{route="/v1/stats",code="200"} 1' in text
        # session ids collapse to :sid — no per-session label cardinality
        assert (
            'repro_http_requests_total{route="/v1/sessions/:sid/candidates",code="200"} 1'
            in text
        )
        assert sid not in text
        # synthesis instrumentation published through the same registry
        assert "repro_synth_calls_total" in text

    def test_client_histogram_pairs_with_the_server_histogram(self, service):
        obs_metrics.reset_registry()
        sid = service.create_session(cards_page(3))
        service.candidates(sid)
        assert service.health()
        text = obs_metrics.registry().render()
        assert "# TYPE repro_client_request_seconds histogram" in text
        samples = parse_samples(text)
        # one client-side sample per round trip, under the server's
        # normalized route label (session ids collapse to :sid)
        for route in ("/v1/sessions", "/v1/sessions/:sid/candidates", "/healthz"):
            client = sample_value(
                samples, "repro_client_request_seconds_count", {"route": route}
            )
            server = sample_value(
                samples, "repro_http_request_seconds_count", {"route": route}
            )
            assert client == server == 1
            assert sample_value(
                samples, "repro_client_request_seconds_sum", {"route": route}
            ) >= sample_value(
                samples, "repro_http_request_seconds_sum", {"route": route}
            )
        assert sid not in text

    def test_unknown_routes_do_not_mint_labels(self, service):
        obs_metrics.reset_registry()
        response, _ = _raw_get(service, "/v1/definitely/not/a/route")
        assert response.status == 404
        _, body = _raw_get(service, "/v1/metrics")
        text = body.decode("utf-8")
        assert 'route="other",code="404"' in text
        assert "definitely" not in text

    def test_metrics_publish_before_the_reply_leaves(self, service, monkeypatch):
        # a client that has read its reply and then scrapes on another
        # connection must find its own request, even while the server
        # thread that answered it has not yet returned
        obs_metrics.reset_registry()
        held, release = hold_after_reply(monkeypatch, _Handler, "/v1/stats")
        try:
            response, _ = _raw_get(service, "/v1/stats")
            assert response.status == 200
            assert held.wait(timeout=10.0)
            _, body = _raw_get(service, "/v1/metrics")
        finally:
            release.set()
        samples = parse_samples(body.decode("utf-8"))
        route = {"route": "/v1/stats"}
        assert sample_value(
            samples, "repro_http_requests_total", dict(route, code="200")
        ) == 1
        assert sample_value(samples, "repro_http_request_seconds_count", route) == 1

    def test_trace_header_is_adopted_and_echoed(self, service):
        root = obs_context.new_root()
        response, _ = _raw_get(
            service, "/v1/stats", headers={obs_context.HEADER: root.wire_value()}
        )
        assert response.getheader(obs_context.HEADER) == root.wire_value()
        # without a header the server mints (and echoes) a fresh root
        response, _ = _raw_get(service, "/v1/stats")
        minted = obs_context.parse(response.getheader(obs_context.HEADER))
        assert minted is not None
        assert minted.trace_id != root.trace_id

    def test_migration_spans_stitch_under_one_trace(self, two_workers):
        source, target = two_workers
        obs_tracing.enable()
        obs_tracing.reset()
        root = obs_context.new_root()
        try:
            dom = cards_page(4)
            actions, snapshots = scrape_cards_trace(dom, 3)
            with obs_context.use(root):
                sid = source.create_session(snapshots[0])
                source.record_action(sid, actions[0], snapshots[1])
                migrated = source.migrate_session(sid, target)
            spans = [
                e for e in obs_tracing.events() if e["name"] == "http_request"
            ]
            routes = {e["args"]["route"] for e in spans}
            # the client's push and the server-to-server import both ran
            assert "/v1/sessions/:sid/migrate" in routes
            assert "/v1/sessions/import" in routes
            # one demonstration, one trace id — across both workers
            assert {e["args"]["trace_id"] for e in spans} == {root.trace_id}
            # synthesis spans recorded on the serving side stitch too
            synth = [e for e in obs_tracing.events() if e["name"] == "synthesize"]
            assert synth
            assert {e["args"]["trace_id"] for e in synth} == {root.trace_id}
            # the migrated session still serves on the target
            assert target.candidates(migrated.target_session) is not None
        finally:
            obs_tracing.disable()
            obs_tracing.reset()


class TestMigration:
    def test_export_then_import_between_workers(self, two_workers):
        source, target = two_workers
        dom = cards_page(5)
        actions, snapshots = scrape_cards_trace(dom, 4)
        cut = len(actions) // 2
        sid = source.create_session(snapshots[0])
        for position in range(cut):
            source.record_action(sid, actions[position], snapshots[position + 1])
        reference = [item.program for item in source.candidates(sid).candidates]

        snapshot = source.export_session(sid)
        assert isinstance(snapshot, SessionSnapshot)
        # the exported session no longer serves on the source (409)
        with pytest.raises(ServiceClientError, match="migrated") as excinfo:
            source.candidates(sid)
        assert excinfo.value.status == 409

        new_sid = target.import_session(snapshot)
        resumed = [item.program for item in target.candidates(new_sid).candidates]
        assert resumed == reference
        # the remainder of the demonstration continues seamlessly
        for position in range(cut, len(actions)):
            target.record_action(new_sid, actions[position], snapshots[position + 1])
        assert target.candidates(new_sid).candidates
        assert target.stats()["sessions_imported"] == 1
        target.close_session(new_sid)

    def test_server_to_server_migrate(self, two_workers):
        source, target = two_workers
        dom = cards_page(5)
        actions, snapshots = scrape_cards_trace(dom, 3)
        sid = source.create_session(snapshots[0])
        for position, action in enumerate(actions):
            source.record_action(sid, action, snapshots[position + 1])
        reference = [item.program for item in source.candidates(sid).candidates]

        migrated = source.migrate_session(sid, target)
        assert migrated.session == sid
        assert migrated.target_session
        moved = [
            item.program
            for item in target.candidates(migrated.target_session).candidates
        ]
        assert moved == reference
        assert source.stats()["sessions"] == 0
        assert target.stats()["sessions"] == 1

    def test_migrate_to_unreachable_target_leaves_session_serving(self, service):
        sid = service.create_session(cards_page(3))
        with pytest.raises(ServiceClientError, match="migration_failed") as excinfo:
            service.migrate_session(sid, "http://127.0.0.1:1")
        assert excinfo.value.status == 502
        # the failed push must not have evicted the session
        assert service.candidates(sid).candidates == ()
        service.close_session(sid)


def _raw_post(client, path, body, content_type="application/json"):
    """One POST outside the typed client; the status and decoded envelope."""
    from repro.protocol.codec import DEFAULT_CODEC
    from repro.protocol.messages import ErrorEnvelope, from_wire

    if not isinstance(body, bytes):
        body = DEFAULT_CODEC.encode_payload(body)
    connection = HTTPConnection(client.host, client.port, timeout=10.0)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = connection.getresponse()
        assert response.getheader("Content-Type") == DEFAULT_CODEC.content_type
        envelope = from_wire(DEFAULT_CODEC.decode_payload(response.read()))
    finally:
        connection.close()
    assert isinstance(envelope, ErrorEnvelope)
    return response.status, envelope


class TestErrors:
    def test_unknown_session_is_a_404_envelope(self, service):
        with pytest.raises(ServiceClientError, match="unknown") as excinfo:
            service.candidates("s999")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_session"
        with pytest.raises(ServiceClientError):
            service.close_session("s999")

    def test_closed_session_is_a_409(self, service):
        dom = cards_page(3)
        actions, snapshots = scrape_cards_trace(dom, 2)
        sid = service.create_session(snapshots[0])
        service.close_session(sid)
        with pytest.raises(ServiceClientError, match="closed") as excinfo:
            service.record_action(sid, actions[0], snapshots[1])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "session_closed"

    def test_malformed_creation_is_a_400(self, service):
        status, envelope = _raw_post(service, "/v1/sessions", {"data": {}})
        assert status == 400
        assert envelope.code == "bad_request"
        assert "CreateSession" in envelope.message

    def test_version_mismatch_is_a_400(self, service):
        status, envelope = _raw_post(
            service, "/v1/sessions", {"v": 999, "type": "create_session"}
        )
        assert status == 400
        assert "version" in envelope.message

    @pytest.mark.parametrize(
        "route, body",
        [
            # pre-protocol bare dicts, including the two that used to
            # escape as 500s through the untyped fallbacks
            ("/v1/sessions", {"snapshot": 5}),
            ("/v1/sessions/s1/accept", {"index": {}}),
            ("/v1/sessions/s1/actions", {"action": {}, "snapshot": {}}),
            ("/v1/sessions/s1/reject", {}),
            ("/v1/sessions/s1/close", {}),
            ("/v1/sessions/s1/migrate", {"target": None}),
            ("/v1/sessions/import", {}),
            # typed envelopes with a malformed field
            ("/v1/sessions", {"v": PROTOCOL_VERSION, "type": "create_session",
                              "snapshot": 5, "data": None, "timeout": None}),
            ("/v1/sessions/s1/accept", {"v": PROTOCOL_VERSION, "type": "accept",
                                        "session": "s1", "index": {}}),
            ("/v1/sessions/s1/actions", {"v": PROTOCOL_VERSION,
                                         "type": "action_recorded",
                                         "session": "s1",
                                         "action": {"kind": "ScrapeText",
                                                    "selector": {}},
                                         "snapshot": {"tag": "html"}}),
            # the wrong message type for the route
            ("/v1/sessions/s1/close", {"v": PROTOCOL_VERSION, "type": "reject",
                                       "session": "s1"}),
            # no body, a non-object body, and a body that is not JSON
            ("/v1/sessions", b""),
            ("/v1/sessions", b"[]"),
            ("/v1/sessions", b"not json"),
        ],
    )
    def test_untyped_or_malformed_bodies_are_400s(self, service, route, body):
        status, envelope = _raw_post(service, route, body)
        assert status == 400
        assert envelope.code == "bad_request"

    def test_binary_body_is_a_400(self, service):
        from repro.protocol.codec import STORE_CODEC
        from repro.protocol.messages import CreateSession

        body = STORE_CODEC.encode(CreateSession(snapshot=cards_page(2)))
        status, envelope = _raw_post(
            service, "/v1/sessions", body, content_type=STORE_CODEC.content_type
        )
        assert status == 400
        assert envelope.code == "bad_request"
        assert service.stats()["sessions"] == 0

    def test_unbounded_body_is_a_prompt_413_and_the_server_keeps_serving(self, service):
        from repro.protocol.codec import DEFAULT_CODEC
        from repro.protocol.messages import ErrorEnvelope, from_wire

        status, headers, body, elapsed = post_unbounded_body(
            service.host, service.port, "/v1/sessions"
        )
        assert status == 413
        assert elapsed < 5.0
        assert headers["connection"] == "close"
        envelope = from_wire(DEFAULT_CODEC.decode_payload(body))
        assert isinstance(envelope, ErrorEnvelope)
        assert envelope.code == "too_large"
        response, _ = _raw_get(service, "/healthz")
        assert response.status == 200
        assert service.stats()["sessions"] == 0

    def test_unroutable_path_is_a_404(self, service):
        with pytest.raises(ServiceClientError) as excinfo:
            service._request("GET", "/v1/nothing")
        assert excinfo.value.code == "no_route"

    def test_accept_without_candidates_is_a_409(self, service):
        sid = service.create_session(cards_page(2))
        with pytest.raises(ServiceClientError, match="no candidate") as excinfo:
            service.accept(sid)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "session_state"
        service.close_session(sid)
