"""The store codec (zlib-compressed canonical JSON), adversarially.

Property tests pin the codec's contract from three sides: round-trips
over random payload values (binary and JSON must decode to the *same*
value), byte stability (re-encoding a decoded value reproduces the
bytes), and corruption (every truncation, trailing byte, bit flip or
decompression bomb raises :class:`ProtocolError` or decodes cleanly —
never any other exception, and through the cache server's store never
anything but a miss).

``tests/data/codec_golden.json`` holds committed store rows.  The
decode check reads the recorded bytes back to the recorded values, so
rows written by earlier builds keep serving; the encode check pins the
canonical JSON text inside each stream rather than the compressed
bytes, which may differ between zlib builds.  A change to either must
land as a deliberate ``format_version`` bump with regenerated fixtures.

The back half covers the store-side machinery the codec feeds: the
per-cache :class:`StepInterner` LRU, the execution cache's tier
policy, and mixed-format stores (a store that still holds plain JSON
rows from older writers keeps serving next to new rows, row by row,
via the sniff, also to workers of a cache server restarted over it;
rows in the deleted 0xC3 format are misses).
"""

import json
import sqlite3
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dom.xpath import parse_selector
from repro.engine import cache as cache_module
from repro.engine.cache import (
    TIER_COST,
    CacheCounters,
    ExecutionCache,
    reset_process_cache,
)
from repro.engine.keys import stable_digest
from repro.engine.rows import (
    EXACT,
    TERMINAL,
    StepInterner,
    decode_entry,
    entry_from_payload,
    entry_to_payload,
)
from repro.lang import X, click, enter_data, scrape_text, send_keys
from repro.lang.ast import SEL_VAR, Var, canonical_program
from repro.lang.data import EMPTY_DATA
from repro.protocol.codec import STORE_CODEC, BinaryCodec, JsonCodec, sniff_codec
from repro.protocol.messages import ProtocolError
from repro.semantics.env import Env
from repro.service.backends import (
    CacheBackend,
    FileBackend,
    flush_backends,
    reset_backends,
)
from repro.synth.config import DEFAULT_CONFIG
from repro.synth.synthesizer import Synthesizer

from helpers import cache_tier, cards_page, scrape_cards_trace, zlib_bomb

GOLDEN = Path(__file__).parent / "data" / "codec_golden.json"

#: The store-row format the golden fixtures were recorded in.
GOLDEN_FORMAT_VERSION = 2

#: One entry row as the deleted 0xC3 binary format wrote it.
LEGACY_BINARY_ROW = bytes.fromhex(
    "c30108040b01070307040b0a07030b280b290706020b050b0c050463617264010304"
    "000007040b0207010706020b0f0b270b17010302000007040b1507010706020b2300"
    "0001030605076c6170746f7073000b03070107030b04030207030b280b290706010b"
    "1800000103020b12020b11070203000308"
)

encode = STORE_CODEC.encode_payload
decode = STORE_CODEC.decode_payload


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


def _sample_entry():
    """A realistic store entry payload (selectors, env, examined set)."""
    actions = (
        click(parse_selector("/html[1]/body[1]//div[@class='card'][2]")),
        scrape_text(parse_selector("//div[@class~='match'][1]/h3[1]")),
        send_keys(parse_selector("//input[@name='q'][1]"), "laptops"),
        enter_data(parse_selector("//input[1]"), X.extend("zips").extend(3)),
    )
    env = Env().bind(Var(SEL_VAR, 1), parse_selector("/html[1]/body[1]/div[2]"))
    return entry_to_payload(actions, env, (0, 3), True)


def _insert_row(path, key, blob, kind=EXACT):
    """Write one raw row straight into the table the file backend creates."""
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT OR REPLACE INTO entries (key, kind, payload, nbytes) "
        "VALUES (?, ?, ?, ?)",
        (key, kind, blob, len(blob) + len(key)),
    )
    conn.commit()
    conn.close()


def _rows(path):
    conn = sqlite3.connect(path)
    rows = {
        bytes(key): (kind, bytes(blob))
        for key, kind, blob in conn.execute(
            "SELECT key, kind, payload FROM entries ORDER BY rowid"
        )
    }
    conn.close()
    return rows


class TestRoundTrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_binary_round_trips_every_payload_value(self, value):
        assert decode(encode(value)) == value

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
        blob = encode(value)
        assert encode(decode(blob)) == blob

    def test_big_ints_survive(self):
        for n in (1 << 200, -(1 << 200), (1 << 62) - 1, 1 << 62, -(1 << 62)):
            assert decode(encode(n)) == n

    def test_entry_payloads_agree_across_codecs(self):
        payload = _sample_entry()
        binary, text = BinaryCodec(), JsonCodec()
        assert binary.decode_payload(binary.encode_payload(payload)) == payload
        assert binary.decode_payload(
            binary.encode_payload(payload)
        ) == text.decode_payload(text.encode_payload(payload))

    def test_decoded_entries_rebuild_identical_objects(self):
        payload = _sample_entry()
        actions, env, examined, ok = entry_from_payload(
            decode(encode(payload)), StepInterner()
        )
        ref_actions, ref_env, ref_examined, ref_ok = entry_from_payload(
            payload, StepInterner()
        )
        assert actions == ref_actions
        assert env.fingerprint() == ref_env.fingerprint()
        assert (examined, ok) == (ref_examined, ref_ok)

    def test_sniff_and_content_types_identify_each_codec(self):
        blob = encode({"a": []})
        assert sniff_codec(blob).name == "binary"
        assert sniff_codec(b'{"a": []}').name == "json"
        assert sniff_codec(LEGACY_BINARY_ROW).name == "json"  # undecodable
        assert JsonCodec.content_type == "application/json"
        assert BinaryCodec.content_type != JsonCodec.content_type


class TestCorruption:
    """No corrupt payload may ever raise anything but ProtocolError."""

    def _blobs(self):
        return [
            encode(_sample_entry()),
            encode([None, True, 1 << 70, -3, 2.5, "x" * 40, {"k": [1]}]),
            encode("ScrapeText"),
        ]

    def test_every_truncation_is_a_protocol_error(self):
        for blob in self._blobs():
            for cut in range(len(blob)):
                with pytest.raises(ProtocolError):
                    decode(blob[:cut])

    def test_trailing_garbage_is_a_protocol_error(self):
        for blob in self._blobs():
            for tail in (b"\x00", b"x", blob):
                with pytest.raises(ProtocolError, match="trailing"):
                    decode(blob + tail)

    def test_bad_magic_and_version_are_protocol_errors(self):
        blob = encode(None)
        # 0x77: compression method 7 in the zlib header, not deflate
        with pytest.raises(ProtocolError):
            decode(b"\x77" + blob[1:])
        # a row in the deleted 0xC3 format, by either codec
        with pytest.raises(ProtocolError):
            decode(LEGACY_BINARY_ROW)
        with pytest.raises(ProtocolError):
            sniff_codec(LEGACY_BINARY_ROW).decode_payload(LEGACY_BINARY_ROW)
        # a well-formed stream whose content is not JSON
        with pytest.raises(ProtocolError):
            decode(zlib.compress(b"not json"))

    def test_bit_flips_never_escape_as_other_exceptions(self):
        # Adler-32 catches nearly every flip, and a flip in the padding
        # bits after the final block decodes to the original value.  A
        # flip must decode or raise ProtocolError, nothing else.
        for blob in self._blobs():
            for pos in range(len(blob)):
                for bit in (0x01, 0x10, 0x80):
                    mutated = bytearray(blob)
                    mutated[pos] ^= bit
                    try:
                        decode(bytes(mutated))
                    except ProtocolError:
                        pass

    @given(st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_decode_or_raise_protocol_error(self, junk):
        for candidate in (junk, b"\x78\x9c" + junk):
            try:
                decode(candidate)
            except ProtocolError:
                pass

    def test_bombs_are_protocol_errors(self):
        with pytest.raises(ProtocolError, match="inflates past"):
            decode(zlib_bomb())
        nested = b"[" * 100_000 + b"]" * 100_000
        for codec in (BinaryCodec(), JsonCodec()):
            blob = zlib.compress(nested) if codec.name == "binary" else nested
            with pytest.raises(ProtocolError):
                codec.decode_payload(blob)

    def test_corrupt_store_rows_degrade_to_misses(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = FileBackend(path, )
        key = stable_digest(("exact", "flip"))
        bomb_key = stable_digest(("exact", "bomb"))
        actions = (scrape_text(parse_selector("//h3[1]")),)
        writer.store_payload(EXACT, key, entry_to_payload(actions, Env(), None, True))
        writer.flush()

        [(_, payload)] = _rows(path).values()
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0x40
        _insert_row(path, key, bytes(mutated))
        _insert_row(path, bomb_key, zlib_bomb())

        reader = FileBackend(path, )
        # misses, not crashes
        assert reader.load_payloads([(EXACT, key), (EXACT, bomb_key)]) == [None, None]


class TestGoldenFixtures:
    """Committed store rows: the format compatibility gate."""

    def _load(self):
        document = json.loads(GOLDEN.read_text())
        assert document["format_version"] == GOLDEN_FORMAT_VERSION, (
            "golden fixtures were generated for another format version — "
            "regenerate tests/data/codec_golden.json deliberately"
        )
        return document["cases"]

    def test_recorded_bytes_still_decode_to_the_recorded_values(self):
        for case in self._load():
            assert decode(bytes.fromhex(case["hex"])) == case["value"], (
                f"golden case {case['name']!r} no longer decodes — "
                "this breaks stores written by earlier builds"
            )

    def test_recorded_values_still_encode_to_the_recorded_json(self):
        for case in self._load():
            recorded = zlib.decompress(bytes.fromhex(case["hex"])).decode("utf-8")
            encoded = zlib.decompress(encode(case["value"])).decode("utf-8")
            assert recorded == encoded == case["json"], (
                f"golden case {case['name']!r} encodes differently — "
                "a change to the canonical text requires a format_version bump"
            )


class TestStepInterner:
    def _steps(self, count):
        return [
            parse_selector(f"//div[@class='c{i}'][1]").steps[-1] for i in range(count)
        ]

    def test_rows_rebuild_equal_steps(self):
        interner = StepInterner()
        for step in self._steps(3):
            assert interner.row_to_step(StepInterner.step_to_row(step)) == step

    def test_decode_side_shares_one_step_per_row(self):
        interner = StepInterner()
        row = [False, "div", "class", "c0", False, 1]
        assert interner.row_to_step(row) is interner.row_to_step(list(row))

    def test_capacity_bounds_the_step_table(self):
        interner = StepInterner(capacity=4)
        for step in self._steps(10):
            interner.row_to_step(StepInterner.step_to_row(step))
        assert len(interner._steps) <= 4

    def test_hot_entries_survive_an_overflow(self):
        interner = StepInterner(capacity=4)
        rows = [StepInterner.step_to_row(step) for step in self._steps(6)]
        hot = interner.row_to_step(rows[0])
        for row in rows[1:4]:
            interner.row_to_step(row)
        interner.row_to_step(rows[0])  # touch: migrates to the back
        for row in rows[4:]:
            interner.row_to_step(row)
        assert interner.row_to_step(rows[0]) is hot

    def test_each_cache_owns_its_interner(self, tmp_path):
        backend = FileBackend(tmp_path / "a.sqlite")
        a = ExecutionCache(backend=backend)
        b = ExecutionCache(backend=backend)
        assert a._interner is not b._interner


class _Recorder(CacheBackend):
    """An empty store that records every row asked for and written."""

    name = "recorder"

    def __init__(self):
        self.reads: list = []
        self.writes: list = []

    def load_payloads(self, rows):
        self.reads.append(list(rows))
        return [None] * len(rows)

    def store_payload(self, kind, digest, payload):
        self.writes.append(kind)


class TestTierPolicy:
    """The execution cache's one tier rule, on writes and on reads."""

    ACTIONS = (scrape_text(parse_selector("//h3[1]")),)

    def _put(self, cache, cost, window=(1, 2, 3), budget=2):
        counters = CacheCounters()
        cache.put(("base", cost), window, budget, self.ACTIONS, Env(), counters, cost=cost)

    def test_terminal_rows_always_persist(self):
        backend = _Recorder()
        cache = ExecutionCache(backend=backend)
        self._put(cache, 0)  # one action, budget to spare: terminated
        assert backend.writes == [TERMINAL]
        assert cache.tier_skips == 1

    def test_cheap_exact_entries_are_skipped(self):
        backend = _Recorder()
        cache = ExecutionCache(backend=backend)
        for cost in (0, TIER_COST):
            self._put(cache, cost, window=(1,), budget=1)  # absorbed: exact only
        assert backend.writes == []
        assert cache.tier_skips == 2

    def test_expensive_and_unbounded_exact_entries_persist(self):
        backend = _Recorder()
        cache = ExecutionCache(backend=backend)
        for cost in (TIER_COST + 1, None):
            self._put(cache, cost, window=(1,), budget=1)
        assert backend.writes == [EXACT, EXACT]
        assert cache.tier_skips == 0

    def test_negative_threshold_disables_tiering(self, monkeypatch):
        monkeypatch.setattr(cache_module, "TIER_COST", -1)
        backend = _Recorder()
        cache = ExecutionCache(backend=backend)
        self._put(cache, 0)
        assert backend.writes == [EXACT, TERMINAL]
        assert cache.tier_skips == 0

    def test_a_cheap_lookup_reads_only_its_terminal_row(self):
        backend = _Recorder()
        cache = ExecutionCache(backend=backend)
        counters = CacheCounters()
        assert cache.get(("base",), (1, 2, 3), 2, counters, cost=TIER_COST) is None
        assert [[kind for kind, _ in rows] for rows in backend.reads] == [[TERMINAL]]
        assert cache.get(("other",), (1, 2, 3), 2, counters, cost=TIER_COST + 1) is None
        assert [kind for kind, _ in backend.reads[-1]] == [EXACT, TERMINAL]
        assert counters.misses == 2

    def test_a_probe_with_no_row_left_reads_nothing(self):
        backend = _Recorder()
        cache = ExecutionCache(backend=backend)
        self._put(cache, 0)  # an in-memory terminal entry of (1, 2, 3)
        counters = CacheCounters()
        # a budget equal to its action count: the terminal entry does
        # not apply, so only an exact row could answer — and a cheap
        # one is never written
        assert cache.get(("base", 0), (1, 2, 3), 1, counters, cost=0) is None
        assert backend.reads == []
        assert counters.misses == 1

    def test_the_memory_backend_counts_no_skips(self):
        cache = ExecutionCache()
        self._put(cache, 0)
        assert cache.tier_skips == 0


class TestMixedCodecStores:
    def test_json_rows_keep_serving_after_the_switch_to_binary(self, tmp_path):
        path = tmp_path / "store.sqlite"
        # a plain JSON row as older writers stored it, and a row in the
        # deleted 0xC3 format, written straight into the table
        FileBackend(path, ).close()
        old_key = stable_digest(("exact", "old"))
        legacy_key = stable_digest(("exact", "legacy"))
        old_actions = (click(parse_selector("//a[1]")),)
        _insert_row(
            path,
            old_key,
            JsonCodec().encode_payload(
                entry_to_payload(old_actions, Env(), None, False)
            ),
        )
        _insert_row(path, legacy_key, LEGACY_BINARY_ROW)

        binary = FileBackend(path, )
        new_key = stable_digest(("exact", "new"))
        new_actions = (scrape_text(parse_selector("//h2[1]")),)
        new_row = entry_to_payload(new_actions, Env(), None, True)
        binary.store_payload(EXACT, new_key, new_row)
        binary.flush()

        def actions_at(backend, key):
            return decode_entry(backend.load_payload(EXACT, key))[0]

        reader = FileBackend(path, )
        assert actions_at(reader, old_key) == old_actions
        assert actions_at(reader, new_key) == new_actions
        assert reader.load_payload(EXACT, legacy_key) is None  # a miss

        # the recomputed entry overwrites the legacy row in the new format
        reader.store_payload(EXACT, legacy_key, new_row)
        reader.flush()
        rows = _rows(path)
        assert sniff_codec(rows[old_key][1]).name == "json"
        assert sniff_codec(rows[new_key][1]).name == "binary"
        assert sniff_codec(rows[legacy_key][1]).name == "binary"
        again = FileBackend(path, )
        assert actions_at(again, legacy_key) == new_actions

    def test_a_mixed_format_store_proposes_the_memory_backend_programs(
        self, tmp_path, monkeypatch
    ):
        # tiering off so every entry persists and all three row formats
        # meet the warm run's probes
        monkeypatch.setattr(cache_module, "TIER_COST", -1)
        path = tmp_path / "execution-cache.sqlite"
        actions, snapshots = scrape_cards_trace(cards_page(5), 4)

        def synthesize_all(backend_name):
            synthesizer = Synthesizer(
                EMPTY_DATA, replace(DEFAULT_CONFIG, cache_backend=backend_name)
            )
            programs, warm = [], 0
            for cut in range(1, len(actions) + 1):
                result = synthesizer.synthesize(actions[:cut], snapshots[: cut + 1])
                programs.append([canonical_program(p) for p in result.programs])
                warm += result.stats.cache_warm_hits
            return programs, warm

        def run(backend_name=None):
            """A fresh worker process; without a name, one over a cache
            server (re)started on the store, stopped (and its store
            flushed) before this returns."""
            reset_process_cache()
            reset_backends()
            if backend_name is not None:
                return synthesize_all(backend_name)
            with cache_tier(path) as name:
                outcome = synthesize_all(name)
                flush_backends()
            return outcome

        try:
            expected, _ = run("memory")
            run()
            # age the store: every third row back to plain JSON, every
            # third to the deleted 0xC3 format, the rest stay new
            for index, (key, (kind, blob)) in enumerate(_rows(path).items()):
                if index % 3 == 0:
                    _insert_row(path, key, JsonCodec().encode_payload(decode(blob)), kind)
                elif index % 3 == 1:
                    _insert_row(path, key, LEGACY_BINARY_ROW, kind)
            legacy_before = sum(
                blob == LEGACY_BINARY_ROW for _, blob in _rows(path).values()
            )
            programs, warm = run()
            legacy_after = sum(
                blob == LEGACY_BINARY_ROW for _, blob in _rows(path).values()
            )
        finally:
            reset_process_cache()
            reset_backends()
        assert programs == expected
        assert warm > 0  # the JSON and new rows served
        assert legacy_after < legacy_before  # missed legacy rows were rewritten

    def test_binary_rows_shrink_the_same_entry(self, tmp_path):
        entry = _sample_entry()
        assert len(BinaryCodec().encode_payload(entry)) < len(
            JsonCodec().encode_payload(entry)
        )
