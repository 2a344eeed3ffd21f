"""The session manager (repro.service.sessions).

Covers the session lifecycle (create / record-action / candidates /
accept / reject / close) over the typed protocol messages, parity with
driving a Synthesizer directly, concurrent sessions, error paths, idle
eviction, and the stats aggregation the service reports.
"""

import threading
from dataclasses import replace

import pytest

from repro.engine.cache import reset_process_cache
from repro.lang import EMPTY_DATA
from repro.lang.data import DataSource
from repro.lang.pretty import format_program
from repro.protocol.messages import (
    Accepted,
    CandidateList,
    ProgramProposed,
    SessionClosed,
)
from repro.protocol.session import SessionClosedError, UnknownSessionError
from repro.synth.config import DEFAULT_CONFIG, no_execution_cache_config
from repro.synth.synthesizer import Synthesizer
from repro.service.sessions import SessionError, SessionManager

from helpers import cards_page, scrape_cards_trace


def memory_manager(**kwargs):
    """A manager pinned to the in-process backend (parity-run safe)."""
    config = replace(DEFAULT_CONFIG, cache_backend="memory")
    return SessionManager(config, **kwargs)


def served_programs(manager, sid):
    return [item.program for item in manager.candidates(sid).candidates]


class TestLifecycle:
    def test_create_record_candidates_accept_close(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 4)
            sid = manager.create(snapshots[0])
            proposed = None
            for position, action in enumerate(actions):
                proposed = manager.record_action(sid, action, snapshots[position + 1])
                assert isinstance(proposed, ProgramProposed)
                assert proposed.session == sid
                assert proposed.actions == position + 1
            assert proposed.programs > 0
            assert proposed.predictions
            listed = manager.candidates(sid)
            assert isinstance(listed, CandidateList)
            assert len(listed.candidates) == proposed.programs
            assert listed.candidates[0].index == 0
            accepted = manager.accept(sid, 0)
            assert isinstance(accepted, Accepted)
            assert accepted.program == listed.candidates[0].program
            closed = manager.close(sid)
            assert isinstance(closed, SessionClosed)
            assert closed.stats.calls == len(actions)
            assert closed.stats.actions == len(actions)
            manager.close_all()
        finally:
            reset_process_cache()

    def test_matches_a_directly_driven_synthesizer(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 4)
            direct = Synthesizer(EMPTY_DATA, no_execution_cache_config())
            sid = manager.create(snapshots[0])
            for position, action in enumerate(actions):
                manager.record_action(sid, action, snapshots[position + 1])
                expected = direct.synthesize(
                    actions[: position + 1], snapshots[: position + 2]
                )
                served = served_programs(manager, sid)
                assert served == [format_program(p) for p in expected.programs]
            manager.close_all()
        finally:
            reset_process_cache()

    def test_sessions_carry_their_own_data_sources(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(3)
            with_data = manager.create(dom, data=DataSource({"q": ["a"]}))
            without = manager.create(dom)
            assert with_data != without
            assert set(manager.session_ids()) == {with_data, without}
            manager.close_all()
            assert manager.session_ids() == ()
        finally:
            reset_process_cache()

    def test_reject_counts_into_stats(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(3)
            sid = manager.create(dom)
            rejected = manager.reject(sid)
            assert rejected.rejections == 1
            assert manager.reject(sid).rejections == 2
            closed = manager.close(sid)
            assert closed.stats.rejections == 2
            assert manager.stats()["totals"]["rejections"] == 2
        finally:
            reset_process_cache()


class TestErrors:
    def test_unknown_session_rejected(self):
        manager = memory_manager()
        with pytest.raises(UnknownSessionError):
            manager.record_action("nope", None, None)
        with pytest.raises(UnknownSessionError):
            manager.candidates("nope")
        with pytest.raises(UnknownSessionError):
            manager.close("nope")

    def test_closed_session_is_distinguishable_from_unknown(self):
        reset_process_cache()
        try:
            manager = memory_manager()
            sid = manager.create(cards_page(2))
            manager.close(sid)
            with pytest.raises(SessionClosedError, match="closed"):
                manager.record_action(sid, None, None)
            with pytest.raises(SessionClosedError):
                manager.close(sid)
        finally:
            reset_process_cache()

    def test_accept_requires_candidates(self):
        reset_process_cache()
        try:
            manager = memory_manager()
            sid = manager.create(cards_page(3))
            with pytest.raises(SessionError):
                manager.accept(sid)
        finally:
            reset_process_cache()

    def test_accept_index_bounds(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 4)
            sid = manager.create(snapshots[0])
            for position, action in enumerate(actions):
                manager.record_action(sid, action, snapshots[position + 1])
            with pytest.raises(SessionError):
                manager.accept(sid, 10_000)
        finally:
            reset_process_cache()


class TestEviction:
    def test_idle_sessions_evicted_and_counted(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0, max_idle_s=1000.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 2)
            idle = manager.create(snapshots[0])
            manager.record_action(idle, actions[0], snapshots[1])
            fresh = manager.create(snapshots[0])
            # push the idle session past the TTL without sleeping
            manager._session(idle).last_used -= 2000.0
            evicted = manager.evict_idle()
            assert evicted == 1
            stats = manager.stats()
            assert stats["sessions_evicted"] == 1
            assert stats["sessions"] == 1
            # the evicted session's work is not lost from the totals
            assert stats["totals"]["calls"] == 1
            # and touching it now reports "evicted", not "unknown"
            with pytest.raises(SessionClosedError, match="evicted"):
                manager.candidates(idle)
            assert manager.session_ids() == (fresh,)
        finally:
            reset_process_cache()

    def test_ttl_resolution(self):
        from repro.service.sessions import resolved_session_ttl

        # only the argument decides: unset or non-positive is never
        assert resolved_session_ttl(None) is None
        assert resolved_session_ttl(12.5) == 12.5
        assert resolved_session_ttl(0) is None
        assert resolved_session_ttl(-1.0) is None

    def test_busy_sessions_survive_the_sweep(self):
        reset_process_cache()
        try:
            manager = memory_manager(max_idle_s=0.001)
            sid = manager.create(cards_page(2))
            session = manager._session(sid)
            session.last_used -= 100.0
            with session.lock:  # mid-request: the sweep must skip it
                assert manager.evict_idle() == 0
            assert sid in manager.session_ids()
        finally:
            reset_process_cache()


class TestConcurrency:
    def test_concurrent_sessions_synthesize_independently(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 3)
            errors = []
            served: dict[str, list] = {}

            def drive(worker: int):
                try:
                    sid = manager.create(snapshots[0])
                    for position, action in enumerate(actions):
                        manager.record_action(sid, action, snapshots[position + 1])
                    served[sid] = served_programs(manager, sid)
                    manager.close(sid)
                except Exception as exc:  # pragma: no cover - the assertion
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            outputs = list(served.values())
            assert all(output == outputs[0] for output in outputs)
            assert outputs[0]  # the workload synthesizes programs
        finally:
            reset_process_cache()


class TestStats:
    def test_manager_stats_aggregate_live_and_closed(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 3)
            first = manager.create(snapshots[0])
            for position, action in enumerate(actions):
                manager.record_action(first, action, snapshots[position + 1])
            manager.close(first)
            second = manager.create(snapshots[0])
            for position, action in enumerate(actions):
                manager.record_action(second, action, snapshots[position + 1])
            stats = manager.stats()
            assert stats["sessions"] == 1
            assert stats["closed_sessions"] == 1
            assert stats["sessions_evicted"] == 0
            assert (stats["backend"], stats["persisted_bytes"]) == ("memory", 0)
            assert stats["totals"]["calls"] == 2 * len(actions)
            # the second session reuses the first's executions through
            # the process-level shared cache
            assert stats["totals"]["cross_session_hits"] > 0
        finally:
            reset_process_cache()


class TestAnalysisAnnotations:
    def test_proposal_and_candidates_carry_analysis(self):
        reset_process_cache()
        try:
            manager = memory_manager(timeout=5.0)
            dom = cards_page(5)
            actions, snapshots = scrape_cards_trace(dom, 4)
            sid = manager.create(snapshots[0])
            proposed = None
            for position, action in enumerate(actions):
                proposed = manager.record_action(sid, action, snapshots[position + 1])
            assert proposed.analysis is not None
            assert proposed.analysis.effect == "read-only"
            assert proposed.analysis.safe_replay is True
            assert proposed.analysis.termination == "terminating"
            listed = manager.candidates(sid)
            assert all(item.analysis is not None for item in listed.candidates)
            manager.close_all()
        finally:
            reset_process_cache()

    def test_accept_guard_refuses_mutating_program(self):
        from repro.lang import parse_program
        from repro.protocol.session import Session
        from repro.synth.synthesizer import SynthesisResult

        session = Session("s1", EMPTY_DATA)
        session.start(cards_page(2))
        mutating = parse_program('SendKeys(//input[@name=\'q\'][1], "term")')
        session.last_result = SynthesisResult(programs=[mutating])
        with pytest.raises(SessionError, match="refusing"):
            session.accept(0, require_safe_replay=True)
        # the plain accept is the explicit override
        accepted = session.accept(0)
        assert accepted.index == 0
        session.close()

    def test_accept_guard_passes_read_only_program(self):
        from repro.lang import parse_program
        from repro.protocol.session import Session
        from repro.synth.synthesizer import SynthesisResult

        session = Session("s1", EMPTY_DATA)
        session.start(cards_page(2))
        session.last_result = SynthesisResult(
            programs=[parse_program("ScrapeText(//h3[1])")]
        )
        accepted = session.accept(0, require_safe_replay=True)
        assert accepted.program == "ScrapeText(//h3[1])"
        session.close()
