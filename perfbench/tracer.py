"""Span recording by wrapping the program's public functions.

The traced run replaces functions and methods *where they are looked
up* — ``repro.synth.synthesizer.speculate`` as well as the defining
module's name — with a wrapper that records one span per call: layer
name, start and end (``perf_counter_ns``, one system-wide monotonic
clock, so spans from different processes line up), its own id, its
parent's id and the trace id of the action it serves.

Parentage nests through a per-thread stack.  The first span on a thread
falls back to the program's propagated trace context
(``repro.obs.context.current()``): a served request adopts the client's
``X-Repro-Trace`` header, so worker spans parent under the client span
of the same action.  Spans stay in memory and are written to
``<dir>/spans-<pid>.json`` when the process receives ``SIGUSR1`` —
forked ``serve --workers N`` children leave through ``os._exit`` and
never run atexit hooks.

A target that no longer exists is skipped and listed in the span file,
so the benchmark keeps running when the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import threading
import time
from contextlib import contextmanager

class Tracer:
    """In-memory span store with a per-thread parent stack.

    A span is the tuple ``(name, start_ns, end_ns, span id, parent id,
    trace id, attrs)``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.enabled = True
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._restart_ids()
        # forked workers must not mint the ids their parent mints
        os.register_at_fork(after_in_child=self._restart_ids)

    def _restart_ids(self) -> None:
        self._ids = iter(range(1, 1 << 62))
        self._prefix = f"{os.getpid():x}"

    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        with self._id_lock:
            return f"{self._prefix}.{next(self._ids)}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ambient(self) -> tuple:
        """``(trace id, parent span id)`` for a span with no local parent."""
        from repro.obs import context

        ctx = context.current()
        if ctx is None:
            return None, None
        return ctx.trace_id, ctx.span_id

    def call(self, name: str, fn, args, kwargs, attrs_of=None):
        """Run ``fn`` under a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            trace, parent = stack[-1][0], stack[-1][1]
        else:
            trace, parent = self._ambient()
        span_id = self._new_id()
        stack.append((trace, span_id))
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of is not None else None
            self.spans.append((name, start, end, span_id, parent, trace, attrs))

    @contextmanager
    def root(self, name: str):
        """One action's root span, under a fresh trace.

        The trace context is activated too, so a ``ServiceClient`` call
        inside sends it as ``X-Repro-Trace`` and the worker's spans join
        this action.
        """
        from repro.obs import context

        ctx = context.new_root()
        stack = self._stack()
        stack.append((ctx.trace_id, ctx.span_id))
        token = context.activate(ctx)
        start = time.perf_counter_ns()
        try:
            yield ctx
        finally:
            end = time.perf_counter_ns()
            context.deactivate(token)
            stack.pop()
            self.spans.append((name, start, end, ctx.span_id, None, ctx.trace_id, None))

    # ------------------------------------------------------------------
    def wrap(self, target: str, name: str, attrs_of=None) -> bool:
        """Replace ``module:Owner.attr`` (or ``module:function``) in place."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return False
        if getattr(original, "__perfbench__", False):
            return True
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs_of)

        wrapper.__perfbench__ = True
        setattr(owner, attr, wrapper)
        return True

    def dump(self, path: str) -> None:
        payload = {"pid": os.getpid(), "missing": self.missing, "spans": self.spans}
        partial = path + ".part"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(partial, path)


def dump_on_signal(tracer: Tracer, directory: str) -> None:
    """Write this process's spans when it receives ``SIGUSR1``."""

    def handler(signum, frame):
        tracer.dump(os.path.join(directory, f"spans-{os.getpid()}.json"))

    signal.signal(signal.SIGUSR1, handler)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _nbytes_out(args, kwargs, result):
    return {"bytes": len(result)} if isinstance(result, (bytes, bytearray)) else None


def _nbytes_in(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    return {"bytes": len(payload)} if isinstance(payload, (bytes, bytearray)) else None


def _synth_stats(args, kwargs, result):
    stats = getattr(result, "stats", None)
    if stats is None:
        return None
    return {
        name: getattr(stats, field, 0)
        for name, field in (
            ("pops", "pops"),
            ("speculated", "speculated"),
            ("validations", "validations"),
            ("validated", "validated"),
            ("pruned", "pruned"),
            ("extend_s", "extend_s"),
            ("hits", "cache_hits"),
            ("misses", "cache_misses"),
            ("cross", "cache_cross_session_hits"),
            ("warm", "cache_warm_hits"),
            ("resume", "cache_resume_hits"),
            ("evictions", "cache_evictions"),
            ("index_builds", "index_builds"),
            ("cache_bytes", "cache_bytes"),
            ("timed_out", "timed_out"),
        )
    }


def _remote_op(args, kwargs, result):
    op = kwargs.get("op", args[3] if len(args) > 3 else "")
    return {"op": op, "ok": result is not None}


CODEC_CLASSES = ("JsonCodec", "BinaryCodec")

#: ``(target, span name, attrs)`` wrapped in every program process.
SERVER_TARGETS = [
    ("repro.service.sessions:SessionManager.record_action", "sessions.record_action", None),
    ("repro.protocol.session:Session.proposal", "sessions.proposal", None),
    ("repro.protocol.session:analyze_program", "analysis.summary", None),
    ("repro.synth.synthesizer:Synthesizer.synthesize", "synth.call", _synth_stats),
    ("repro.synth.synthesizer:speculate", "synth.speculate", None),
    ("repro.synth.speculate:speculate", "synth.speculate", None),
    ("repro.engine.engine:ExecutionEngine.execute", "engine.execute", None),
    ("repro.fleet.remote:RemoteBackend._post", "remote.request", _remote_op),
    ("repro.service.backends:FileBackend.load_payload", "store.load", None),
    ("repro.service.backends:FileBackend.store_payload", "store.write", None),
    ("repro.service.backends:FileBackend.flush", "store.write", None),
    ("repro.service.server:from_wire", "codec.decode", None),
]

#: Wrapped in the benchmark's own client process (served and fleet).
CLIENT_TARGETS = [
    ("repro.service.client:from_wire", "codec.decode", None),
]


def _codec_targets() -> list:
    targets = []
    for cls in CODEC_CLASSES:
        for method, name, attrs in (
            ("encode", "codec.encode", _nbytes_out),
            ("encode_payload", "codec.encode", _nbytes_out),
            ("decode_payload", "codec.decode", _nbytes_in),
        ):
            targets.append((f"repro.protocol.codec:{cls}.{method}", name, attrs))
    return targets


def _scheduler_targets() -> list:
    """``process_pop`` of every scheduler class the program defines."""
    try:
        module = importlib.import_module("repro.synth.scheduler")
    except ImportError:
        return []
    return [
        (f"repro.synth.scheduler:{name}.process_pop", "synth.validate", None)
        for name, value in vars(module).items()
        if isinstance(value, type) and "process_pop" in vars(value)
    ]


def install(tracer: Tracer, side: str) -> Tracer:
    """Wrap the program functions of one side (``server`` or ``client``)."""
    targets = list(SERVER_TARGETS) + _scheduler_targets() if side == "server" else list(CLIENT_TARGETS)
    for target, name, attrs in targets + _codec_targets():
        tracer.wrap(target, name, attrs)
    return tracer
