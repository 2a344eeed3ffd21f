"""Shared test fixtures: hand-built pages and recorded traces.

These helpers mimic what the front-end recorder produces: actions carry
absolute raw XPaths (as §7.1 prescribes) and every action is paired with
the snapshot it executed on, plus one trailing snapshot.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.dom import DOMNode, E, page, raw_path, resolve, parse_selector
from repro.lang import Action, X, click, enter_data, scrape_text
from repro.lang.ast import canonical_program

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
