"""The binary payload codec, adversarially.

Property tests pin the codec's contract from three sides: round-trips
over random payload values (binary and JSON must decode to the *same*
value), byte stability (re-encoding a decoded value reproduces the
bytes), and corruption (every truncation or bit flip of a valid blob
raises :class:`ProtocolError` or decodes cleanly — never any other
exception, and through the file backend never anything but a miss).

``tests/data/codec_golden.json`` holds committed wire bytes.  Those
fixtures are the compatibility gate for the preset dictionary and
``FORMAT_VERSION``: if an edit to the codec changes how the recorded
values encode, or stops decoding the recorded bytes, these tests fail
— bump ``FORMAT_VERSION`` and regenerate deliberately, never silently.

The back half covers the store-side machinery the codec feeds: the
per-backend :class:`StepInterner` LRU, the size-tier persistence
policy, the decoded-entry cache, and mixed-codec stores (a store that
still holds JSON rows from older writers keeps serving next to new
binary rows, row by row, via the sniff).
"""

import json
import os
import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dom.xpath import parse_selector
from repro.engine.keys import stable_digest
from repro.lang import X, click, enter_data, scrape_text, send_keys
from repro.lang.ast import SEL_VAR, Var
from repro.protocol.codec import (
    FORMAT_VERSION,
    HEADER,
    BinaryCodec,
    JsonCodec,
    decode_value,
    encode_value,
    sniff_codec,
)
from repro.protocol.messages import ProtocolError
from repro.semantics.env import Env
from repro.service.backends import (
    CONSISTENCY,
    EXACT,
    TERMINAL,
    DEFAULT_TIER_COST,
    TIER_COST_CEIL,
    TIER_COST_FLOOR,
    TIER_RECALC_EVERY,
    FileBackend,
    StepInterner,
    entry_from_payload,
    entry_to_payload,
)

GOLDEN = Path(__file__).parent / "data" / "codec_golden.json"


# ----------------------------------------------------------------------
# Strategies: the value universe both codecs must agree on — JSON's
# (None/bool/int/float/str, lists, str-keyed dicts), with big ints and
# without NaN (x != x breaks equality, and the store never writes one).
# ----------------------------------------------------------------------
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


def _sample_entry(interner=None):
    """A realistic store entry payload (selectors, env, examined set)."""
    actions = (
        click(parse_selector("/html[1]/body[1]//div[@class='card'][2]")),
        scrape_text(parse_selector("//div[@class~='match'][1]/h3[1]")),
        send_keys(parse_selector("//input[@name='q'][1]"), "laptops"),
        enter_data(parse_selector("//input[1]"), X.extend("zips").extend(3)),
    )
    env = Env().bind(Var(SEL_VAR, 1), parse_selector("/html[1]/body[1]/div[2]"))
    return entry_to_payload(actions, env, (0, 3), True, interner or StepInterner())


class TestRoundTrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_binary_round_trips_every_payload_value(self, value):
        assert decode_value(encode_value(value)) == value

    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_binary_and_json_decode_to_the_same_value(self, value):
        binary, text = BinaryCodec(), JsonCodec()
        via_binary = binary.decode_payload(binary.encode_payload(value))
        via_json = text.decode_payload(text.encode_payload(value))
        assert via_binary == via_json == value

    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_encoding_is_byte_stable(self, value):
        blob = encode_value(value)
        assert encode_value(decode_value(blob)) == blob

    def test_big_ints_survive(self):
        for n in (1 << 200, -(1 << 200), (1 << 62) - 1, 1 << 62, -(1 << 62)):
            assert decode_value(encode_value(n)) == n

    def test_entry_payloads_agree_across_codecs(self):
        payload = _sample_entry()
        binary, text = BinaryCodec(), JsonCodec()
        assert binary.decode_payload(binary.encode_payload(payload)) == payload
        assert binary.decode_payload(
            binary.encode_payload(payload)
        ) == text.decode_payload(text.encode_payload(payload))

    def test_decoded_entries_rebuild_identical_objects(self):
        interner = StepInterner()
        payload = _sample_entry(interner)
        blob = encode_value(payload)
        actions, env, examined, ok = entry_from_payload(
            decode_value(blob), StepInterner()
        )
        ref_actions, ref_env, ref_examined, ref_ok = entry_from_payload(
            payload, StepInterner()
        )
        assert actions == ref_actions
        assert env.fingerprint() == ref_env.fingerprint()
        assert (examined, ok) == (ref_examined, ref_ok)

    def test_sniff_and_content_types_identify_each_codec(self):
        blob = encode_value({"a": []})
        assert sniff_codec(blob).name == "binary"
        assert sniff_codec(b'{"a": []}').name == "json"
        assert JsonCodec.content_type == "application/json"
        assert BinaryCodec.content_type != JsonCodec.content_type


class TestCorruption:
    """No corrupt payload may ever raise anything but ProtocolError."""

    def _blobs(self):
        return [
            encode_value(_sample_entry()),
            encode_value([None, True, 1 << 70, -3, 2.5, "x" * 40, {"k": [1]}]),
            encode_value("ScrapeText"),
        ]

    def test_every_truncation_is_a_protocol_error(self):
        for blob in self._blobs():
            for cut in range(len(blob)):
                with pytest.raises(ProtocolError):
                    decode_value(blob[:cut])

    def test_trailing_garbage_is_a_protocol_error(self):
        blob = encode_value([1, 2])
        with pytest.raises(ProtocolError):
            decode_value(blob + b"\x00")

    def test_bad_magic_and_version_are_protocol_errors(self):
        blob = encode_value(None)
        with pytest.raises(ProtocolError):
            decode_value(b"\xc4" + blob[1:])
        with pytest.raises(ProtocolError):
            decode_value(bytes((HEADER[0], FORMAT_VERSION + 1)) + blob[2:])

    def test_bit_flips_never_escape_as_other_exceptions(self):
        # A flip may still decode (it can form a different valid
        # payload); it must decode or raise ProtocolError, nothing else.
        for blob in self._blobs():
            for pos in range(len(blob)):
                for bit in (0x01, 0x10, 0x80):
                    mutated = bytearray(blob)
                    mutated[pos] ^= bit
                    try:
                        decode_value(bytes(mutated))
                    except ProtocolError:
                        pass

    @given(st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_decode_or_raise_protocol_error(self, junk):
        try:
            decode_value(junk)
        except ProtocolError:
            pass

    def test_corrupt_store_rows_degrade_to_misses(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = FileBackend(path, tier_cost=-1)
        key = stable_digest(("exact", "flip"))
        actions = (scrape_text(parse_selector("//h3[1]")),)
        writer.store_entry(EXACT, key, actions, Env(), None, True)
        writer.flush()

        conn = sqlite3.connect(path)
        (payload,) = conn.execute(
            "SELECT payload FROM entries WHERE key = ?", (key,)
        ).fetchone()
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0x40
        conn.execute(
            "UPDATE entries SET payload = ? WHERE key = ?", (bytes(mutated), key)
        )
        conn.commit()
        conn.close()

        reader = FileBackend(path, tier_cost=-1)
        assert reader.load_entry(EXACT, key) is None  # a miss, not a crash


class TestGoldenFixtures:
    """Committed wire bytes: the dictionary/FORMAT_VERSION compat gate."""

    def _load(self):
        document = json.loads(GOLDEN.read_text())
        assert document["format_version"] == FORMAT_VERSION, (
            "golden fixtures were generated for another format version — "
            "regenerate tests/data/codec_golden.json deliberately"
        )
        return document["cases"]

    def test_recorded_bytes_still_decode_to_the_recorded_values(self):
        for case in self._load():
            assert decode_value(bytes.fromhex(case["hex"])) == case["value"], (
                f"golden case {case['name']!r} no longer decodes — "
                "this breaks stores written by earlier builds"
            )

    def test_recorded_values_still_encode_to_the_recorded_bytes(self):
        for case in self._load():
            if not case["stable_encode"]:
                continue  # value had shared-identity back-references
            assert encode_value(case["value"]).hex() == case["hex"], (
                f"golden case {case['name']!r} encodes differently — "
                "dictionary or tag changes require a FORMAT_VERSION bump"
            )

    def test_shared_rows_decode_as_equal_lists(self):
        case = {c["name"]: c for c in self._load()}["shared-backref"]
        decoded = decode_value(bytes.fromhex(case["hex"]))
        assert decoded == case["value"]
        assert decoded[0] == decoded[1] == decoded[2]


class TestStepInterner:
    def _steps(self, count):
        return [
            parse_selector(f"//div[@class='c{i}'][1]").steps[-1] for i in range(count)
        ]

    def test_encode_side_shares_one_row_per_step(self):
        interner = StepInterner()
        step = self._steps(1)[0]
        assert interner.step_to_row(step) is interner.step_to_row(step)

    def test_decode_side_shares_one_step_per_row(self):
        interner = StepInterner()
        row = [False, "div", "class", "c0", False, 1]
        assert interner.row_to_step(row) is interner.row_to_step(list(row))

    def test_capacity_bounds_both_tables(self):
        interner = StepInterner(capacity=4)
        for step in self._steps(10):
            row = interner.step_to_row(step)
            interner.row_to_step(row)
        assert len(interner._rows) <= 4
        assert len(interner._steps) <= 4

    def test_hot_entries_survive_an_overflow(self):
        interner = StepInterner(capacity=4)
        steps = self._steps(6)
        hot = steps[0]
        hot_row = interner.step_to_row(hot)
        for step in steps[1:4]:
            interner.step_to_row(step)
        interner.step_to_row(hot)  # touch: migrates to the back
        for step in steps[4:]:
            interner.step_to_row(step)
        assert interner.step_to_row(hot) is hot_row

    def test_each_backend_owns_its_interner(self, tmp_path):
        a = FileBackend(tmp_path / "a.sqlite")
        b = FileBackend(tmp_path / "b.sqlite")
        assert a.interner is not b.interner


class TestTierPolicy:
    def test_terminal_and_consistency_always_persist(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite", tier_cost=5)
        assert backend.should_persist(TERMINAL, 0)
        assert backend.should_persist(CONSISTENCY, 0)
        assert backend.tier_skips == 0

    def test_cheap_exact_entries_are_skipped(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite", tier_cost=5)
        assert not backend.should_persist(EXACT, 5)
        assert not backend.should_persist(EXACT, 0)
        assert backend.tier_skips == 2

    def test_expensive_and_unbounded_exact_entries_persist(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite", tier_cost=5)
        assert backend.should_persist(EXACT, 6)
        assert backend.should_persist(EXACT, None)
        assert backend.tier_skips == 0

    def test_negative_threshold_disables_tiering(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite", tier_cost=-1)
        assert backend.should_persist(EXACT, 0)
        assert backend.tier_skips == 0

    def test_environment_selects_the_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TIERING", "off")
        assert FileBackend(tmp_path / "b.sqlite").tier_cost == -1
        monkeypatch.delenv("REPRO_STORE_TIERING")
        assert FileBackend(tmp_path / "c.sqlite").tier_cost == DEFAULT_TIER_COST

    def test_default_threshold_is_the_environment_default(self, tmp_path):
        assert FileBackend(tmp_path / "s.sqlite").tier_cost == DEFAULT_TIER_COST


class TestAdaptiveTierCost:
    """Unpinned stores derive ``tier_cost`` from observed recompute costs."""

    def _observe(self, backend, cost, count):
        for _ in range(count):
            backend.should_persist(EXACT, cost)

    def test_unpinned_stores_adapt_pinned_stores_do_not(self, tmp_path):
        adaptive = FileBackend(tmp_path / "a.sqlite")
        assert adaptive.tier_adaptive
        assert adaptive.tier_cost == DEFAULT_TIER_COST  # the seed
        pinned = FileBackend(tmp_path / "b.sqlite", tier_cost=5)
        assert not pinned.tier_adaptive
        self._observe(pinned, 200, TIER_RECALC_EVERY)
        assert pinned.tier_cost == 5

    def test_expensive_population_raises_the_threshold(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite")
        self._observe(backend, 40, TIER_RECALC_EVERY)
        # p75 of an all-40 population is 40: cheap-relative-to-the-store
        # entries below it stop persisting
        assert backend.tier_cost == 40
        assert backend.should_persist(EXACT, 41)
        assert not backend.should_persist(EXACT, 13)

    def test_derived_threshold_is_clamped(self, tmp_path):
        cheap = FileBackend(tmp_path / "cheap.sqlite")
        self._observe(cheap, 1, TIER_RECALC_EVERY)
        assert cheap.tier_cost == TIER_COST_FLOOR
        dear = FileBackend(tmp_path / "dear.sqlite")
        # pools in the overflow bucket, then clamps to the ceiling —
        # genuinely expensive entries must keep persisting
        self._observe(dear, 100_000, TIER_RECALC_EVERY)
        assert dear.tier_cost == TIER_COST_CEIL
        assert dear.should_persist(EXACT, TIER_COST_CEIL + 1)

    def test_mixed_population_takes_the_percentile(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite")
        # 96 cheap + 32 expensive = 128 samples; p75 lands on the cheap
        # bucket's cumulative edge
        self._observe(backend, 5, 96)
        self._observe(backend, 200, 32)
        assert backend.tier_cost == 5

    def test_recalc_happens_every_batch_not_every_call(self, tmp_path):
        backend = FileBackend(tmp_path / "s.sqlite")
        self._observe(backend, 2, TIER_RECALC_EVERY - 1)
        assert backend.tier_cost == DEFAULT_TIER_COST  # still the seed
        backend.should_persist(EXACT, 2)
        assert backend.tier_cost == TIER_COST_FLOOR

    def test_disabled_tiering_never_observes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TIERING", "off")
        backend = FileBackend(tmp_path / "s.sqlite")
        self._observe(backend, 2, TIER_RECALC_EVERY)
        assert backend.tier_cost == -1
        assert backend.tier_skips == 0


class TestMixedCodecStores:
    def test_json_rows_keep_serving_after_the_switch_to_binary(self, tmp_path):
        path = tmp_path / "store.sqlite"
        # a JSON row as older writers stored it, written straight into
        # the table the file backend creates
        FileBackend(path, tier_cost=-1).close()
        old_key = stable_digest(("exact", "old"))
        old_actions = (click(parse_selector("//a[1]")),)
        old_row = JsonCodec().encode_payload(
            entry_to_payload(old_actions, Env(), None, False, StepInterner())
        )
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO entries (key, kind, payload, nbytes) VALUES (?, ?, ?, ?)",
            (old_key, EXACT, old_row, len(old_row) + len(old_key)),
        )
        conn.commit()
        conn.close()

        binary = FileBackend(path, tier_cost=-1)
        new_key = stable_digest(("exact", "new"))
        new_actions = (scrape_text(parse_selector("//h2[1]")),)
        binary.store_entry(EXACT, new_key, new_actions, Env(), None, True)
        binary.flush()

        reader = FileBackend(path, tier_cost=-1)
        assert reader.load_entry(EXACT, old_key)[0] == old_actions
        assert reader.load_entry(EXACT, new_key)[0] == new_actions

        conn = sqlite3.connect(path)
        rows = dict(conn.execute("SELECT key, payload FROM entries").fetchall())
        conn.close()
        assert sniff_codec(bytes(rows[old_key])).name == "json"
        assert sniff_codec(bytes(rows[new_key])).name == "binary"

    def test_binary_rows_shrink_the_same_entry(self, tmp_path):
        entry = _sample_entry()
        assert len(BinaryCodec().encode_payload(entry)) < len(
            JsonCodec().encode_payload(entry)
        )
