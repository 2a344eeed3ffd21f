"""Batched cache-tier reads (``CacheBackend.load_payloads``).

An execution-cache miss makes at most one backend read: its exact and
terminal rows in one batch, which over ``remote://`` is one
``POST /v1/cache/get``.  Consistency checks never reach a backend, and
no synthesis phase reads the tier on its own.  Pinned here against an
in-thread cache server, counting requests on the worker side and rows
through the server's own metrics:

* each probe costs at most one request, and an incremental session's
  executions at most one each: an extension step at most one per
  trailing loop, and a validation pop's validation runs ask for no row
  twice;
* no consistency row (kind 2) is read or written, cold or warm;
* a batch serves the worker's own pending writes locally and sends
  only the other rows;
* a reply with the wrong number of slots is a miss for every row;
* hit/miss counting is identical to a backend that reads one row per
  store read.
"""

import contextlib
import itertools
import threading
from dataclasses import asdict, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.engine import CacheCounters, ExecutionCache, ExecutionEngine
from repro.engine import cache as cache_module
from repro.engine.cache import TIER_COST, reset_process_cache
from repro.engine.rows import EXACT
from repro.fleet.cache_server import make_cache_server
from repro.fleet.metrics import parse_samples, sample_value
from repro.fleet.pool import reset_pool
from repro.fleet.remote import RemoteBackend
from repro.lang import EMPTY_DATA
from repro.lang.pretty import format_program
from repro.obs import metrics as obs_metrics
from repro.protocol.codec import STORE_CODEC
from repro.semantics.trace import DOMTrace
from repro.service.backends import (
    CacheBackend,
    FileBackend,
    flush_backends,
    register_backend_factory,
    reset_backends,
)
from repro.synth.config import DEFAULT_CONFIG
from repro.synth.scheduler import SerialScheduler
from repro.synth.synthesizer import Synthesizer

from helpers import TIMEOUT, cache_tier, cards_page, scrape_cards_trace

KEY_A = b"\x0a" * 16
KEY_B = b"\x0b" * 16


@pytest.fixture(autouse=True)
def _isolate():
    reset_process_cache()
    reset_pool()
    obs_metrics.reset_registry()
    yield
    reset_backends()
    reset_process_cache()
    reset_pool()


def _start_cache(path):
    server = make_cache_server(port=0, path=str(path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_cache(server, thread):
    server.shutdown()
    server.server_close()
    server.store.close()
    thread.join(timeout=5)


@pytest.fixture
def cache(tmp_path):
    server, thread = _start_cache(tmp_path / "cache.sqlite")
    try:
        yield server
    finally:
        _stop_cache(server, thread)


def _url(server) -> str:
    return f"remote://127.0.0.1:{server.server_address[1]}"


def _sample(name, labels):
    value = sample_value(parse_samples(obs_metrics.registry().render()), name, labels)
    return 0 if value is None else int(value)


def _get_requests() -> int:
    """``POST /v1/cache/get`` requests answered, counted by the worker
    before the call returns (the server's latency sample is observed
    after its reply is written)."""
    return _sample("repro_remote_requests_total", {"op": "get", "outcome": "ok"})


def _get_rows(outcome: str) -> int:
    """Rows the cache server answered with ``outcome`` (hit / miss)."""
    return _sample("repro_cache_server_requests_total", {"op": "get", "outcome": outcome})


class TestOneRequestPerProbe:
    def test_exact_miss_with_terminal_probe_is_one_request(self, cache):
        shared = ExecutionCache(backend=RemoteBackend(_url(cache)))
        counters = CacheCounters()
        assert shared.get(("base",), (1, 2, 3), 2, counters) is None
        assert _get_requests() == 1
        assert _get_rows("miss") == 2  # the exact row and the terminal row
        assert counters.misses == 1

    def test_memory_hit_on_the_full_key_reads_nothing(self, cache):
        dom = cards_page(4)
        actions, snapshots = scrape_cards_trace(dom, 3)
        window = DOMTrace(snapshots, 0, 6)
        engine = ExecutionEngine(
            EMPTY_DATA, cache=ExecutionCache(backend=RemoteBackend(_url(cache)))
        )
        engine.consistent_prefix_length(actions, actions, window)
        assert engine.consistent_prefix_length(actions, actions, window) == 6
        # the miss was recomputed in process: no check reads the tier
        assert _get_requests() == 0
        assert engine.counters().consistency_hits == 1


def _rows(*keys):
    return [(EXACT, key) for key in keys]


class TestRemoteBatches:
    def test_pending_rows_are_served_locally_and_the_rest_sent(self, cache):
        backend = RemoteBackend(_url(cache), flush_every=1000)
        backend.store_payload(EXACT, KEY_A, {"v": 5})
        assert backend.load_payloads(_rows(KEY_A, KEY_B)) == [{"v": 5}, None]
        assert _get_requests() == 1
        assert (_get_rows("hit"), _get_rows("miss")) == (0, 1)  # KEY_B only

    def test_an_all_pending_batch_sends_nothing(self, cache):
        backend = RemoteBackend(_url(cache), flush_every=1000)
        backend.store_payload(EXACT, KEY_A, {"v": 5})
        backend.store_payload(EXACT, KEY_B, {"v": 6})
        assert backend.load_payloads(_rows(KEY_B, KEY_A)) == [{"v": 6}, {"v": 5}]
        assert _get_requests() == 0

    def test_batch_answers_keep_row_order(self, cache):
        writer = RemoteBackend(_url(cache))
        writer.store_payload(EXACT, KEY_B, {"v": 7})
        writer.flush()
        reader = RemoteBackend(_url(cache))
        assert reader.load_payloads(_rows(KEY_A, KEY_B, KEY_A)) == [None, {"v": 7}, None]
        assert _get_requests() == 1
        assert reader.loads == 3
        assert reader.load_hits == 1


class _FixedReply(BaseHTTPRequestHandler):
    """Answers every POST with the same binary ``{"e": [...]}`` body."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    slots: list = []

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        body = STORE_CODEC.encode_payload({"e": self.slots})
        self.send_response(200)
        self.send_header("Content-Type", STORE_CODEC.content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def fixed_reply():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixedReply)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestMisshapenReplies:
    @pytest.mark.parametrize(
        "slots, keys",
        [
            ([{"v": 5}], [KEY_A, KEY_B]),  # too few slots
            ([{"v": 5}, {"v": 6}], [KEY_A]),  # too many slots
            ([], [KEY_A]),
        ],
    )
    def test_wrong_slot_count_is_an_all_miss(self, fixed_reply, monkeypatch, slots, keys):
        monkeypatch.setattr(_FixedReply, "slots", slots)
        backend = RemoteBackend(f"remote://127.0.0.1:{fixed_reply.server_address[1]}")
        assert backend.load_payloads(_rows(*keys)) == [None] * len(keys)
        assert backend.load_hits == 0

    def test_matching_slot_count_is_read(self, fixed_reply, monkeypatch):
        monkeypatch.setattr(_FixedReply, "slots", [{"v": 5}, None])
        backend = RemoteBackend(f"remote://127.0.0.1:{fixed_reply.server_address[1]}")
        assert backend.load_payloads(_rows(KEY_A, KEY_B)) == [{"v": 5}, None]


class _PerKey(CacheBackend):
    """A backend that answers a batch one store read per row."""

    name = "per-key"

    def __init__(self, inner: CacheBackend) -> None:
        self.inner = inner

    def load_payloads(self, rows):
        return [self.inner.load_payloads([row])[0] for row in rows]

    def store_payload(self, kind, key, payload):
        self.inner.store_payload(kind, key, payload)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


def _per_key_factory(name: str) -> CacheBackend:
    return _PerKey(RemoteBackend(name.split("://", 1)[1]))


register_backend_factory("per-key", _per_key_factory)


def _session(backend_name: str):
    """One incremental session: its candidates and predictions per call
    and its engine's cache counters.  Every card is scraped, so the
    session writes execution rows (a shorter demonstration's are all
    cheap to recompute, and none persist)."""
    dom = cards_page(8)
    actions, snapshots = scrape_cards_trace(dom, 8)
    synthesizer = Synthesizer(EMPTY_DATA, replace(DEFAULT_CONFIG, cache_backend=backend_name))
    programs = []
    for cut in range(1, len(actions) + 1):
        # a generous deadline: a timed-out call would differ by timing alone
        result = synthesizer.synthesize(actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT)
        programs.append(
            (
                tuple(format_program(program) for program in result.programs),
                tuple(result.predictions),
            )
        )
    flush_backends()
    return programs, asdict(synthesizer.engine.counters())


def _cold_then_warm(backend_name: str):
    """A cold session, then the same session in a "new process" (fresh
    backend objects and memory, same store)."""
    cold = _session(backend_name)
    reset_backends()
    warm = _session(backend_name)
    reset_backends()
    return cold, warm


def test_counters_match_a_per_key_backend(tmp_path):
    outcomes = {}
    for variant in ("batched", "per-key"):
        with cache_tier(tmp_path / f"{variant}.sqlite") as name:
            if variant == "per-key":
                name = f"per-key://{name}"
            outcomes[variant] = _cold_then_warm(name)
    cold, warm = outcomes["batched"]
    assert warm[1]["warm_hits"] > 0  # the warm session read the store
    assert warm[0] == cold[0]
    assert outcomes["batched"] == outcomes["per-key"]


def test_no_consistency_row_reaches_a_backend(tmp_path, monkeypatch):
    """Cold then warm, every row a worker or the cache server reads or
    writes is an execution row: consistency checks stay in process."""
    kinds = []
    for cls in (FileBackend, RemoteBackend):
        load, store = cls.load_payloads, cls.store_payload

        def spy_load(backend, rows, load=load):
            kinds.extend(kind for kind, _ in rows)
            return load(backend, rows)

        def spy_store(backend, kind, key, payload, store=store):
            kinds.append(kind)
            store(backend, kind, key, payload)

        monkeypatch.setattr(cls, "load_payloads", spy_load)
        monkeypatch.setattr(cls, "store_payload", spy_store)
    with cache_tier(tmp_path / "tier.sqlite") as name:
        cold, warm = _cold_then_warm(name)
    assert warm[0] == cold[0]
    assert warm[1]["warm_hits"] > 0
    assert kinds
    assert set(kinds) <= {0, 1}


def _exact_bounds(monkeypatch) -> dict:
    """Spy on every execution lookup an engine makes over a backend:
    exact-row digest -> recompute bound (the static cost hint when it
    is bounded, else the action budget)."""
    bounds = {}

    def note(engine, statements, doms, env, max_actions, data):
        budget = len(doms) if max_actions is None else min(max_actions, len(doms))
        if engine.cache is None or engine.cache.backend is None or budget <= 0:
            return
        statements = tuple(statements)
        base = engine._base_key(statements, env, engine.data if data is None else data)
        hint = engine._cost_hint(base[0], statements)
        digest = engine.cache._store_digest("exact", base, doms.value_key(), budget)
        bounds[digest] = budget if hint is None else hint

    execute = ExecutionEngine.execute

    def spy_execute(engine, program, doms, env=None, max_actions=None, data=None, **kwargs):
        note(engine, program, doms, env, max_actions, data)
        return execute(engine, program, doms, env, max_actions, data, **kwargs)

    monkeypatch.setattr(ExecutionEngine, "execute", spy_execute)
    return bounds


def test_a_store_holding_every_exact_row_serves_under_the_tier_policy(
    tmp_path, monkeypatch
):
    """A store written with every exact row persisted, as untiered and
    adaptive-threshold stores of earlier builds are, serves a reader
    under the tier policy: the memory backend's candidates and
    predictions on every call, warm hits, and no request for an exact
    row whose bound is at most ``TIER_COST``."""
    expected = _session("memory")[0]
    with cache_tier(tmp_path / "tier.sqlite") as name:
        with monkeypatch.context() as writer:
            writer.setattr(cache_module, "TIER_COST", -1)
            _session(name)
        reset_backends()  # a new process: fresh backends and memory
        requested = []
        for cls in (FileBackend, RemoteBackend):

            def spy_load(backend, rows, load=cls.load_payloads):
                requested.extend(digest for kind, digest in rows if kind == EXACT)
                return load(backend, rows)

            monkeypatch.setattr(cls, "load_payloads", spy_load)
        bounds = _exact_bounds(monkeypatch)
        programs, counters = _session(name)
    assert programs == expected
    assert counters["warm_hits"] > 0
    assert requested  # the expensive exact rows are still read
    assert set(requested) <= set(bounds)
    assert all(bounds[digest] > TIER_COST for digest in requested)


class _Phases:
    """Tags every ``remote://`` batch a session sends with the synthesis
    phases it was sent from: a ``synthesize`` call, a validation pop
    inside it, a ``_try_generalize`` inside that, and the engine
    execution that read it, if any."""

    def __init__(self, monkeypatch) -> None:
        self.stack: list = []
        self.serial = itertools.count()
        self.reads: list = []  # (phases on the stack, rows) at each read
        self.generalized: list = []  # phases on the stack at each check
        self.store_loops: dict = {}  # call -> trailing loops in its store
        self.snapshots: dict = {}  # call -> snapshots it was given
        self.validations: dict = {}  # pop -> validations it ran
        load = RemoteBackend.load_payloads
        execute = ExecutionEngine.execute
        synthesize = Synthesizer.synthesize
        process_pop = SerialScheduler.process_pop
        generalize = Synthesizer._try_generalize

        def logged_load(backend, rows):
            self.reads.append((tuple(self.stack), tuple(rows)))
            return load(backend, rows)

        def logged_execute(engine, *args, **kwargs):
            with self._phase("execute"):
                return execute(engine, *args, **kwargs)

        def logged_synthesize(synthesizer, actions, snapshots, *args, **kwargs):
            with self._phase("call") as call:
                self.store_loops[call] = sum(
                    stored.ends_with_loop() for stored in synthesizer._store.values()
                )
                self.snapshots[call] = len(snapshots)
                return synthesize(synthesizer, actions, snapshots, *args, **kwargs)

        def logged_pop(scheduler, current, candidates, context, deadline, stats, push):
            before = stats.validations
            with self._phase("pop") as pop:
                process_pop(scheduler, current, candidates, context, deadline, stats, push)
            self.validations[pop] = stats.validations - before

        def logged_generalize(synthesizer, *args):
            self.generalized.append(tuple(self.stack))
            with self._phase("generalize"):
                return generalize(synthesizer, *args)

        monkeypatch.setattr(RemoteBackend, "load_payloads", logged_load)
        monkeypatch.setattr(ExecutionEngine, "execute", logged_execute)
        monkeypatch.setattr(Synthesizer, "synthesize", logged_synthesize)
        monkeypatch.setattr(SerialScheduler, "process_pop", logged_pop)
        monkeypatch.setattr(Synthesizer, "_try_generalize", logged_generalize)

    @contextlib.contextmanager
    def _phase(self, name):
        entry = (name, next(self.serial))
        self.stack.append(entry)
        try:
            yield entry
        finally:
            self.stack.pop()

    def extension_reads(self, call) -> list:
        """The reads ``call`` sent outside its pops: its extension step."""
        return [
            (stack, rows)
            for stack, rows in self.reads
            if call in stack and not any(name == "pop" for name, _ in stack)
        ]

    def pop_reads(self, pop) -> list:
        """The reads ``pop`` sent."""
        return [(stack, rows) for stack, rows in self.reads if pop in stack]


def _execution(stack):
    """The innermost execution on ``stack``, None outside any."""
    executions = [entry for entry in stack if entry[0] == "execute"]
    return executions[-1] if executions else None


def _each_execution_reads_once(reads) -> bool:
    """Every one of ``reads`` was sent by an execution, and no execution
    sent two."""
    executions = [_execution(stack) for stack, _ in reads]
    return None not in executions and len(set(executions)) == len(executions)


def _rows_read(reads) -> list:
    return [row for _, batch in reads for row in batch]


@pytest.fixture
def phases(monkeypatch):
    return _Phases(monkeypatch)


class TestSessionReads:
    """Requests per synthesis phase in a cold incremental session."""

    def test_an_extension_step_reads_at_most_once(self, cache, phases):
        """Each trailing loop's run in an extension step reads at most
        once, and none while no run can emit more than ``TIER_COST``
        actions."""
        _session(_url(cache))
        steps = [call for call, loops in phases.store_loops.items() if loops]
        assert max(phases.store_loops[call] for call in steps) >= 2
        reads = {call: phases.extension_reads(call) for call in steps}
        for call in steps:
            assert _each_execution_reads_once(reads[call])
            rows = _rows_read(reads[call])
            assert len(set(rows)) == len(rows)
            # one batch at most per loop's run, however many loops
            assert len(reads[call]) <= phases.store_loops[call]
            if phases.snapshots[call] <= TIER_COST:
                # no exact row could have been written, and the loops'
                # terminal rows are this process's own
                assert reads[call] == []
        assert {bool(step_reads) for step_reads in reads.values()} == {False, True}

    def test_a_validation_pop_reads_its_executions_once(self, cache, phases):
        """Each execution a validation pop makes reads at most once, and
        its validation runs request no row twice."""
        _session(_url(cache))
        pops = [pop for pop, count in phases.validations.items() if count >= 2]
        assert pops
        for pop in pops:
            reads = phases.pop_reads(pop)
            assert reads
            assert _each_execution_reads_once(reads)
            validating = _rows_read(
                (stack, rows)
                for stack, rows in reads
                if not any(name == "generalize" for name, _ in stack)
            )
            assert len(set(validating)) == len(validating) >= 2
        # rewrites that end the tuple reached the generalization check
        assert any(
            pop in stack for stack in phases.generalized for pop in pops
        )


def test_an_execution_reads_the_tier_at_most_once(cache, phases):
    """A cold incremental session over ``remote://``: every execution
    sends at most one batch, and no synthesis phase reads the tier
    outside an execution."""
    _session(_url(cache))
    assert phases.reads
    assert _each_execution_reads_once(phases.reads)
