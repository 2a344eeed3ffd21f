"""Shared test fixtures: hand-built pages and recorded traces.

These helpers mimic what the front-end recorder produces: actions carry
absolute raw XPaths (as §7.1 prescribes) and every action is paired with
the snapshot it executed on, plus one trailing snapshot.
"""

from __future__ import annotations

import contextlib
import functools
import socket
import threading
import time
import zlib

from hypothesis import strategies as st

from repro.dom import DOMNode, E, page, raw_path, resolve, parse_selector
from repro.engine.cache import CacheCounters, ExecutionCache
from repro.engine.keys import stable_digest
from repro.lang import Action, X, click, enter_data, scrape_text
from repro.lang.ast import canonical_program
from repro.protocol.codec import MAX_DECODED_BYTES

#: Generous per-call deadline for parity tests: output is only compared
#: for calls that finish within their budget.
TIMEOUT = 30.0


def cards_page(count: int, with_next: bool = False, next_cls: str = "next") -> DOMNode:
    """A result page: ``count`` cards (h3 + phone div) and a sidebar.

    The sidebar div comes first so card raw paths start at ``div[2]`` —
    generalizing to a loop *requires* attribute-based alternative
    selectors, exactly like the paper's motivating example.
    """
    cards = [
        E("div", {"class": "card"},
          E("h3", text=f"Store {index}"),
          E("div", {"class": "phone"}, text=f"555-01{index:02d}"))
        for index in range(1, count + 1)
    ]
    extra = [E("button", {"class": next_cls}, text="next")] if with_next else []
    return page(E("div", {"class": "sidebar"}, text="ads"), *cards, *extra)


def plain_list_page(count: int) -> DOMNode:
    """A page whose items are the first children: raw paths alone suffice."""
    items = [
        E("li", E("span", text=f"item {index}"), E("b", text=f"meta {index}"))
        for index in range(1, count + 1)
    ]
    return page(E("ul", *items))


def node_at(dom: DOMNode, selector_text: str) -> DOMNode:
    """Resolve a selector string; assert it denotes a node."""
    node = resolve(parse_selector(selector_text), dom)
    assert node is not None, f"no node at {selector_text}"
    return node


def raw_action(kind_fn, dom: DOMNode, selector_text: str, **kwargs) -> Action:
    """Build an action addressing a node by its *raw* absolute path."""
    node = node_at(dom, selector_text)
    return kind_fn(raw_path(node), **kwargs)


def scrape_cards_trace(dom: DOMNode, count: int):
    """Record scraping h3+phone for the first ``count`` cards of ``dom``.

    Returns ``(actions, snapshots)`` with ``len(snapshots) ==
    len(actions) + 1`` — scrapes do not mutate the page, so all snapshots
    are the same object.
    """
    actions = []
    for index in range(1, count + 1):
        actions.append(
            raw_action(scrape_text, dom, f"//div[@class='card'][{index}]/h3[1]")
        )
        actions.append(
            raw_action(
                scrape_text, dom, f"//div[@class='card'][{index}]/div[@class='phone'][1]"
            )
        )
    snapshots = [dom] * (len(actions) + 1)
    return actions, snapshots


@functools.lru_cache(maxsize=1)
def zlib_bomb() -> bytes:
    """A ~66 KB zlib stream that inflates past ``MAX_DECODED_BYTES``.

    Its content is a valid JSON object, so only the decode cap stands
    between it and a 65 MiB allocation.  Built chunk by chunk so the
    test process never holds the inflated text.
    """
    chunk = b"a" * (1 << 20)
    deflater = zlib.compressobj()
    parts = [deflater.compress(b'{"v":"')]
    parts += [deflater.compress(chunk) for _ in range(MAX_DECODED_BYTES // len(chunk) + 1)]
    parts += [deflater.compress(b'"}'), deflater.flush()]
    return b"".join(parts)


#: Payload rows exactly as earlier builds wrote them, with the lookups
#: that address them: an exact row and a terminal row (examined prefix
#: and budget flag).  Stores outlive builds, so the row schema and its
#: addressing are a compatibility contract.
_LITERAL_ACTIONS = [["ScrapeText", [[True, "h3", None, None, False, 1]], None, None]]
LITERAL_EXACT = (("base",), (101, 102), 1)
LITERAL_TERMINAL = (("terminal-base",), (101, 102, 103), 3)
#: A consistency memo as earlier builds wrote it (kind 2): the memo key
#: it addressed, and its row.  Stores may still hold such rows; they are
#: never read again.
LEGACY_CONSISTENCY_KEY = ((1, 2), (3, 4), (5,))
LEGACY_CONSISTENCY_ROW = [2, stable_digest(("consistency", LEGACY_CONSISTENCY_KEY)), {"v": 3}]


def literal_rows() -> list:
    """``[kind, digest, payload]`` for each literal row."""
    base, window, budget = LITERAL_EXACT
    exact = stable_digest(("exact", stable_digest(base), window, budget))
    base, window, _ = LITERAL_TERMINAL
    terminal = stable_digest(("terminal", stable_digest(base), window[0]))
    return [
        [0, exact, {"a": _LITERAL_ACTIONS, "e": []}],
        [1, terminal, {"a": _LITERAL_ACTIONS, "e": [], "x": [101, 102], "ok": True}],
    ]


def assert_serves_literal_rows(backend) -> None:
    """A cold cache over ``backend`` serves every literal row as a warm hit."""
    cache = ExecutionCache(backend=backend)
    counters = CacheCounters()
    expected = ((scrape_text(parse_selector("//h3[1]")),), ())
    for lookup in (LITERAL_EXACT, LITERAL_TERMINAL):
        actions, env = cache.get(*lookup, counters)
        assert (actions, env.fingerprint()) == expected
    assert (counters.exact_hits, counters.prefix_hits) == (1, 1)
    assert (counters.warm_hits, counters.misses) == (2, 0)


def hold_after_reply(monkeypatch, handler_cls, path: str):
    """Park the server thread answering ``path`` right after its reply
    is written, until the returned ``release`` event is set.

    Returns ``(held, release)``: ``held`` is set once the thread is
    parked, so whatever the handler still does after writing its reply
    has not happened yet while the client reads that reply.
    """
    held, release = threading.Event(), threading.Event()
    original = handler_cls._reply_bytes

    def reply_then_hold(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.path == path:
            held.set()
            release.wait(timeout=10.0)

    monkeypatch.setattr(handler_cls, "_reply_bytes", reply_then_hold)
    return held, release


def post_unbounded_body(host: str, port: int, path: str):
    """POST a request declaring a 1 TiB body and send none of it.

    Reads the reply until the server closes the connection (a server
    that kept it open, waiting for the body, fails the read's 10 s
    timeout).  Returns ``(status, lowercased headers, body, seconds)``.
    """
    started = time.perf_counter()
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Length: 1099511627776\r\n\r\n".encode("ascii")
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    elapsed = time.perf_counter() - started
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body, elapsed


@contextlib.contextmanager
def cache_tier(path):
    """A cache server over the store file ``path``, serving in a thread.

    Yields the ``remote://`` backend name that reaches it.  Leaving the
    block stops the server and closes (flushes) its store, so a second
    ``cache_tier`` over the same path is a restarted ``repro
    cache-serve`` over the same ``--cache-dir``.
    """
    from repro.fleet.cache_server import make_cache_server

    server = make_cache_server(port=0, path=str(path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"remote://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        server.store.close()
        thread.join(timeout=5)


def _session_outputs(synthesizer, actions, snapshots):
    """Ranked programs, predictions and search counts for every prefix."""
    outputs = []
    for cut in range(1, len(actions) + 1):
        result = synthesizer.synthesize(
            actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
        )
        outputs.append(
            (
                tuple(canonical_program(p) for p in result.programs),
                tuple(str(a) for a in result.predictions),
                result.stats.pops,
                result.stats.speculated,
                result.stats.validated,
            )
        )
    return outputs


CLASSES = ("card", "row", "item")


@st.composite
def random_traces(draw):
    """A randomized list-scrape demonstration (actions + snapshots).

    Pages vary in item count, per-item fields, sidebar noise, and CSS
    class; traces scrape a random number of fields of a random number
    of leading items — the span/pivot structure speculation feeds on.
    """
    cls = draw(st.sampled_from(CLASSES))
    items = draw(st.integers(3, 6))
    fields = draw(st.integers(1, 2))
    sidebar = draw(st.booleans())
    cards = [
        E(
            "div",
            {"class": cls},
            E("h3", text=f"Item {index}"),
            *( [E("span", {"class": "meta"}, text=f"meta {index}")] if fields > 1 else [] ),
        )
        for index in range(1, items + 1)
    ]
    extra = [E("div", {"class": "sidebar"}, text="ads")] if sidebar else []
    dom = page(*extra, *cards)
    scraped_items = draw(st.integers(2, items))
    actions = []
    targets = []
    for card in dom.iter_subtree():
        if card.attrs.get("class") == cls:
            targets.append(card)
    for item in targets[:scraped_items]:
        for child in item.children[:fields]:
            actions.append(scrape_text(raw_path(child)))
    snapshots = [dom] * (len(actions) + 1)
    return actions, snapshots
