"""Parity of index-backed vs ancestor-walk candidate enumeration.

Selector search reads the per-snapshot DOM index whenever
:func:`repro.engine.index.index_for` returns one, and walks ancestor
chains otherwise (mutable DOMs, or indexes switched off with
:func:`repro.engine.index.set_dom_indexes`).  Both paths have to
produce the *same* candidate lists in the *same* order — anything else
would change speculation order and, through the per-span caps, the
synthesized programs.  These tests pin that contract three ways:
exhaustively over the generated benchmark sites, property-based over
random DOMs, and end-to-end over incremental synthesis sessions, each
against the ancestor walk under ``set_dom_indexes(False)``.  They also
pin that every snapshot producer hands out indexable snapshots, so the
indexed path is the one production actually takes.
"""

import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import io as repro_io
from repro.benchmarks.suite import benchmark_by_id
from repro.dom import E, raw_path, resolve
from repro.engine.cache import reset_process_cache
from repro.engine.index import index_for, set_dom_indexes
from repro.lang import EMPTY_DATA
from repro.lang.ast import canonical_program
from repro.protocol import DEFAULT_CODEC
from repro.protocol.messages import CreateSession
from repro.synth.alternatives import (
    alternative_selectors,
    decompositions,
    relative_step_candidates,
)
from repro.synth.config import DEFAULT_CONFIG
from repro.synth.synthesizer import Synthesizer

from helpers import cards_page, scrape_cards_trace

#: One benchmark per site family (news, match, wiki, numbered jobs,
#: plain lists, forum, next-button jobs, catalog, sectioned, fixed
#: store) — the generated sites whose selector shapes the enumeration
#: actually sees.
FAMILY_SAMPLE = ("b1", "b6", "b11", "b9", "b12", "b16", "b38", "b41", "b50", "b33")


@contextmanager
def ancestor_walk():
    """Snapshot indexes off: selector search takes the ancestor walk."""
    previous = set_dom_indexes(False)
    try:
        yield
    finally:
        set_dom_indexes(previous)


def both_paths(query):
    """``query()`` answered by the snapshot index, then by the walk."""
    indexed = query()
    with ancestor_walk():
        walked = query()
    return indexed, walked


def recorded_queries(bid):
    """Distinct (selector, snapshot) pairs a benchmark's trace poses."""
    recording = benchmark_by_id(bid).record()
    pairs = []
    seen = set()
    for position, action in enumerate(recording.actions):
        if action.selector is None:
            continue
        key = (action.selector, id(recording.snapshots[position]))
        if key not in seen:
            seen.add(key)
            pairs.append((action.selector, recording.snapshots[position]))
    return pairs


@pytest.mark.parametrize("bid", FAMILY_SAMPLE)
@pytest.mark.parametrize("use_alternatives", [True, False])
def test_benchmark_parity(bid, use_alternatives):
    for selector, dom in recorded_queries(bid):
        assert index_for(dom) is not None
        for token_predicates in (False, True):
            indexed, walked = both_paths(
                lambda: decompositions(
                    selector,
                    dom,
                    use_alternatives=use_alternatives,
                    token_predicates=token_predicates,
                )
            )
            assert indexed == walked  # same set AND same ranking order
        indexed, walked = both_paths(
            lambda: alternative_selectors(selector, dom, use_alternatives)
        )
        assert indexed == walked


@pytest.mark.parametrize("bid", FAMILY_SAMPLE[:4])
def test_benchmark_relative_parity(bid):
    for selector, dom in recorded_queries(bid):
        target = resolve(selector, dom)
        if target is None:
            continue
        base = target
        while base is not None:
            if base is not target:
                for token_predicates in (False, True):
                    indexed, walked = both_paths(
                        lambda: relative_step_candidates(
                            base, target, token_predicates=token_predicates
                        )
                    )
                    assert indexed == walked
            base = base.parent


TAGS = ("div", "span", "li", "h3")
CLASSES = ("", "card", "row", "row extra", "meta")


@st.composite
def dom_trees(draw, max_depth=3):
    """Random small frozen pages (multi-token classes included)."""

    def node(depth):
        tag = draw(st.sampled_from(TAGS))
        cls = draw(st.sampled_from(CLASSES))
        attrs = {"class": cls} if cls else {}
        children = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 3))):
                children.append(node(depth + 1))
        return E(tag, attrs, *children)

    body = node(0)
    return E("html", E("body", body)).freeze()


class TestRandomDomParity:
    @given(dom_trees(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decompositions_agree_for_every_node(
        self, root, use_alternatives, token_predicates
    ):
        for node in root.iter_subtree():
            selector = raw_path(node)
            indexed, walked = both_paths(
                lambda: decompositions(
                    selector,
                    root,
                    use_alternatives=use_alternatives,
                    token_predicates=token_predicates,
                )
            )
            assert indexed == walked

    @given(dom_trees(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_relative_candidates_agree_for_root_anchors(self, root, token_predicates):
        for node in root.iter_subtree():
            if node is root:
                continue
            indexed, walked = both_paths(
                lambda: relative_step_candidates(
                    root, node, token_predicates=token_predicates
                )
            )
            assert indexed == walked


#: Sites whose recordings the producer check samples: news, numbered
#: jobs, nested lists and a fixed store.
PRODUCER_SAMPLE = ("b1", "b9", "b12", "b33")


def assert_indexable(snapshots):
    for snapshot in {id(item): item for item in snapshots}.values():
        assert snapshot.frozen
        assert index_for(snapshot) is not None


@pytest.mark.parametrize("bid", PRODUCER_SAMPLE)
def test_produced_snapshots_take_the_indexed_path(bid):
    # enumeration reads the index only when index_for answers, so a
    # producer that started emitting mutable snapshots would silently
    # send every query to the ancestor walk
    recording = benchmark_by_id(bid).record()
    assert_indexable(recording.snapshots)
    document = json.loads(json.dumps(repro_io.recording_to_json(recording)))
    assert_indexable(repro_io.recording_from_json(document).snapshots)
    assert_indexable(
        DEFAULT_CODEC.decode(DEFAULT_CODEC.encode(CreateSession(snapshot))).snapshot
        for snapshot in recording.snapshots[:3]
    )


class TestSynthesizerParity:
    def test_sessions_agree_program_for_program(self):
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 4)
        assert_indexable(snapshots)
        indexed = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        walked = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        for cut in range(1, len(actions) + 1):
            r_indexed = indexed.synthesize(actions[:cut], snapshots[: cut + 1])
            with ancestor_walk():
                r_walked = walked.synthesize(actions[:cut], snapshots[: cut + 1])
            assert [canonical_program(p) for p in r_indexed.programs] == [
                canonical_program(p) for p in r_walked.programs
            ]
            assert [str(a) for a in r_indexed.predictions] == [
                str(a) for a in r_walked.predictions
            ]

    def test_interleaved_sessions_attribute_their_own_index_builds(self):
        # two sessions over different sites, alternating calls: each
        # call reports exactly the builds its own snapshots forced.
        # Recording the traces resolves selectors (which would pre-build
        # the index), so each session gets a fresh clone of its page —
        # and a cold process cache, whose snapshot interning would
        # otherwise map the clones onto roots earlier tests indexed.
        reset_process_cache()
        actions_a, _ = scrape_cards_trace(cards_page(4), 3)
        actions_b, _ = scrape_cards_trace(cards_page(5), 3)
        dom_a = cards_page(4).clone().freeze()
        dom_b = cards_page(5).clone().freeze()
        snaps_a = [dom_a] * (len(actions_a) + 1)
        snaps_b = [dom_b] * (len(actions_b) + 1)
        session_a = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        session_b = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        first_a = session_a.synthesize(actions_a[:2], snaps_a[:3]).stats
        first_b = session_b.synthesize(actions_b[:2], snaps_b[:3]).stats
        assert first_a.index_builds == 1  # one shared snapshot per site
        assert first_b.index_builds == 1
        # extending over the already-indexed snapshots forces nothing new
        second_a = session_a.synthesize(actions_a, snaps_a).stats
        assert second_a.index_builds == 0
