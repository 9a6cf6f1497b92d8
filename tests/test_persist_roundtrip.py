"""Persist schema v2 round-trip: aliases, sections, version stamping.

The summary cache trusts the on-disk format version to detect stale
entries, so this suite pins the schema: the payload round-trips with
alias pairs intact, a payload that carries the regular-section block
earlier builds could embed still loads and verifies, and any payload
stamped with another version is rejected — by the loader and by the
cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct

import pytest

from repro import analyze_side_effects
from repro.core.persist import (
    _T_LIST,
    BINARY_FORMAT_VERSION,
    FORMAT_VERSION,
    SECTION_DEP_INDEX,
    SECTION_LANE_REFALIAS,
    SECTION_LANE_SECTIONS,
    SECTION_RESULT_META,
    SECTION_SESSION_META,
    LoadedSummary,
    decode_summary_container,
    decode_summary_payload,
    load_summary_container_file,
    loads_summary_payload,
    read_container_trailer,
    summary_to_bytes,
    summary_to_dict,
    summary_to_json,
    verify_against,
)
from repro.lang.semantic import compile_source
from repro.service.cache import SummaryCache, _meta_crc, content_key, encode_record
from tests.container_reference import encode_summary_payload

#: Nested procedures (an up-level formal modified from below), a
#: global array reached through a reference formal (regular sections),
#: and a global passed by reference (a formal↔global alias pair).
SOURCE = """
program ledger
  global total, slot
  global array book[4][4]

  proc post(amt, t)
    local j

    proc stamp(v)
    begin
      amt := amt + v
      total := total + v
    end

  begin
    call stamp(1)
    for j := 0 to 3 do
      t[amt][j] := amt
    end
  end

begin
  slot := 2
  call post(slot, book)
  call post(1, book)
end
"""


@pytest.fixture(scope="module")
def summary():
    return analyze_side_effects(compile_source(SOURCE))


#: SHA-256 of the container an earlier build wrote for :data:`SOURCE`
#: with its ``sections`` block embedded; :func:`with_sections` encodes
#: to the same bytes.
EARLIER_SECTIONS_CONTAINER = (
    "3cc8e62c4e63c4fc88c2bbe5173ae7e00f2c77202f34e7de451a47816e973fce"
)


def with_sections(summary):
    """The payload with the ``sections`` block earlier builds could
    embed: Figure 3 MOD sections rendered per call site, as the last
    key."""
    from repro.sections import analyze_sections

    resolved = summary.resolved
    analysis = analyze_sections(resolved)
    payload = dict(summary_to_dict(summary))
    payload["sections"] = {
        "lattice": "figure3",
        "sites": [analysis.describe_site(site) for site in resolved.call_sites],
    }
    return payload


class TestSchemaV2:
    def test_version_stamp(self, summary):
        assert FORMAT_VERSION == 2
        assert summary_to_dict(summary)["version"] == 2

    def test_alias_pairs_serialized(self, summary):
        payload = summary_to_dict(summary)
        assert "aliases" in payload
        # `call post(slot, book)` binds globals `slot` and `book` by
        # reference to formals — both pairs must survive the round trip,
        # each pair in canonical name order.
        post_pairs = payload["aliases"]["post"]
        assert ["post::amt", "slot"] in post_pairs
        assert ["book", "post::t"] in post_pairs
        assert payload["aliases"]["ledger"] == []

    def test_alias_pairs_round_trip(self, summary):
        loaded = LoadedSummary.from_json(summary_to_json(summary))
        assert loaded.alias_pairs("post") == summary_to_dict(summary)["aliases"]["post"]
        # Nested procedures inherit the enclosing alias environment.
        assert loaded.alias_pairs("post.stamp") == loaded.alias_pairs("post")

    def test_sections_round_trip_and_verify(self, summary):
        rich = with_sections(summary)
        # Some call site touches the book array with a known section.
        rendered = [s for site in rich["sections"]["sites"] for s in site]
        assert any(s.startswith("book") for s in rendered)
        loaded = LoadedSummary.from_json(json.dumps(rich))
        assert loaded.has_sections
        assert loaded.site_section_names(0) == rich["sections"]["sites"][0]
        assert verify_against(loaded, summary)
        assert "sections" not in summary_to_dict(summary)

    def test_verify_without_sections_still_works(self, summary):
        loaded = LoadedSummary.from_json(summary_to_json(summary))
        assert not loaded.has_sections
        assert verify_against(loaded, summary)

    def test_payload_is_json_deterministic(self, summary):
        first = summary_to_json(summary, indent=2)
        second = summary_to_json(
            analyze_side_effects(compile_source(SOURCE)), indent=2
        )
        assert first == second


class TestSchemaDrift:
    def test_loader_rejects_other_versions(self, summary):
        stale = dict(summary_to_dict(summary))  # The payload is read-only.
        stale["version"] = 1
        with pytest.raises(ValueError):
            LoadedSummary(stale)
        stale["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            LoadedSummary(stale)

    def test_loader_rejects_a_payload_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            LoadedSummary.from_json("[]")
        with pytest.raises(ValueError, match="JSON object"):
            LoadedSummary(7)

    def test_cache_key_depends_on_format_version(self, monkeypatch):
        key_now = content_key(SOURCE)
        import repro.service.cache as cache_module

        monkeypatch.setattr(cache_module, "FORMAT_VERSION", FORMAT_VERSION + 1)
        assert cache_module.content_key(SOURCE) != key_now

    def test_cache_rejects_entry_with_stale_format(self, tmp_path, summary):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        cache.put(key, encode_record(summary))
        record, meta = cache.get(key)

        # Rewrite the stored record as if an older build had written
        # it: same key on disk, older format stamp inside, CRC intact.
        meta["format_version"] = FORMAT_VERSION - 1
        meta["crc32"] = _meta_crc(meta, read_container_trailer(record)[1])
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        with open(cache.path_for(key), "wb") as handle:
            handle.write(summary_to_bytes(summary, sections={SECTION_RESULT_META: blob}))

        fresh = SummaryCache(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.stats.invalid == 1
        assert fresh.stats.misses == 1

    def test_cache_rejects_torn_entry(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        with open(cache.path_for(key), "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None
        assert cache.stats.invalid == 1


class TestBinaryContainer:
    """The binary summary container and its JSON fallback: v5 as this
    package writes it, v3 as the reference writer
    (``tests/container_reference.py``) does."""

    def test_payload_round_trips_exactly(self, summary):
        payload = with_sections(summary)
        assert decode_summary_payload(encode_summary_payload(payload)) == payload

    def test_summary_to_bytes_loads(self, summary):
        loaded = LoadedSummary.from_bytes(summary_to_bytes(summary))
        assert verify_against(loaded, summary)
        blob = encode_summary_payload(with_sections(summary))
        assert hashlib.sha256(blob).hexdigest() == EARLIER_SECTIONS_CONTAINER
        rich = LoadedSummary.from_bytes(blob)
        assert rich.has_sections
        assert verify_against(rich, summary)

    def test_binary_is_much_smaller_than_json(self, summary):
        blob = summary_to_bytes(summary)
        text = summary_to_json(summary)
        assert len(blob) < len(text.encode("utf-8"))

    def test_from_bytes_accepts_v2_json(self, summary):
        loaded = LoadedSummary.from_bytes(
            summary_to_json(summary).encode("utf-8")
        )
        assert verify_against(loaded, summary)

    def test_loads_sniffs_both_formats(self, summary):
        payload = summary_to_dict(summary)
        assert loads_summary_payload(encode_summary_payload(payload)) == payload
        assert (
            loads_summary_payload(json.dumps(payload).encode("utf-8"))
            == payload
        )

    def test_container_version_mismatch_is_explicit(self, summary):
        blob = bytearray(encode_summary_payload(summary_to_dict(summary)))
        blob[4:6] = (BINARY_FORMAT_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(ValueError, match="container version"):
            decode_summary_payload(bytes(blob))

    def test_name_list_layouts_are_pinned(self):
        """The on-disk layout rule, as literal bytes: a bit mask while it
        costs at most a byte per member (span 16 for 2 names still is),
        delta varints past that, the generic list when indices are not
        ascending."""
        payload = {
            "fill": ["s%d" % i for i in range(16)],
            "dense": ["s0", "s15"],
            "sparse": ["fill", "s15"],
            "shuffled": ["s1", "s0"],
            "empty": [],
        }
        body = bytes.fromhex(
            "0705"
            "00" "090102ffff"  # fill: MASK from index 1, 16 bits
            "11" "0901020180"  # dense: MASK from 1, bits 0 and 15
            "12" "0802000f"  # sparse: DELTA, 2 names, from 0, gap 15
            "13" "060205020501"  # shuffled: LIST of STR 2, STR 1
            "14" "0600"  # empty: LIST of 0
        )
        blob = encode_summary_payload(payload)
        assert blob.endswith(body)
        assert decode_summary_payload(blob) == payload

    def test_wrong_magic_is_explicit(self):
        with pytest.raises(ValueError, match="magic"):
            decode_summary_payload(b"NOPE" + b"\0" * 20)

    def test_truncated_container_is_rejected(self, summary):
        blob = encode_summary_payload(summary_to_dict(summary))
        with pytest.raises(ValueError):
            decode_summary_payload(blob[: len(blob) // 2])

    def test_payload_version_inside_container_still_checked(self, summary):
        payload = dict(summary_to_dict(summary))  # The payload is read-only.
        payload["version"] = FORMAT_VERSION + 1
        blob = encode_summary_payload(payload)
        with pytest.raises(ValueError, match="payload version"):
            LoadedSummary.from_bytes(blob)

    def test_indent_parameter(self, summary):
        compact = summary_to_json(summary)
        pretty = summary_to_json(summary, indent=2)
        assert "\n" not in compact
        assert "\n" in pretty
        assert json.loads(compact) == json.loads(pretty)

    def test_cache_ignores_earlier_builds_entries(self, tmp_path, summary):
        """No record an earlier build wrote is served: a JSON entry at
        ``<key>.json`` is never read, and a v3 record envelope at
        ``<key>.ckb`` has no metadata section, so it is an ``invalid``
        miss that the next store overwrites."""
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        record = {
            "cache_schema": 1,
            "format_version": FORMAT_VERSION,
            "key": key,
            "result": {"summary": summary_to_dict(summary)},
        }
        with open(os.path.join(str(tmp_path), key + ".json"), "w") as handle:
            json.dump(record, handle)
        assert cache.get(key) is None
        assert (cache.stats.misses, cache.stats.invalid) == (1, 0)

        with open(cache.path_for(key), "wb") as handle:
            handle.write(encode_summary_payload(record))
        assert cache.get(key) is None
        assert (cache.stats.misses, cache.stats.invalid) == (2, 1)
        cache.put(key, encode_record(summary))
        container, _meta = cache.get(key)
        assert decode_summary_payload(container) == summary_to_dict(summary)
        assert cache.stats.hits == 1


def nested_lists_container(depth: int) -> bytes:
    """A v3 container, two bytes per level, whose body is ``depth``
    lists each holding the next."""
    body = bytes((_T_LIST, 1)) * (depth - 1) + bytes((_T_LIST, 0))
    table = b"\x00"  # No strings.
    return b"CKSB" + struct.pack("<HQQ", 3, len(table), len(body)) + table + body


def flip_outcomes(blob: bytes, start: int, seed: int, flips: int = 400):
    """Decode ``flips`` seeded single-bit flips of ``blob`` at or past
    byte ``start``: the decoded ``(payload, sections)`` or the
    :class:`ValueError`, one per flip.  Any other exception escapes."""
    rng = random.Random(seed)
    outcomes = []
    for _ in range(flips):
        damaged = bytearray(blob)
        damaged[rng.randrange(start, len(blob))] ^= 1 << rng.randrange(8)
        try:
            outcomes.append(decode_summary_container(bytes(damaged)))
        except ValueError as error:
            outcomes.append(error)
    return outcomes


class TestDeepNesting:
    """Nesting far past anything this package writes ends in
    :class:`ValueError` on every loading route, never in
    :class:`RecursionError`."""

    def test_nested_container(self, tmp_path):
        blob = nested_lists_container(5000)
        assert len(blob) < 11_000
        for load in (decode_summary_container, loads_summary_payload,
                     LoadedSummary.from_bytes):
            with pytest.raises(ValueError, match="nest"):
                load(blob)
        path = tmp_path / "deep.ckb"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="nest"):
            load_summary_container_file(str(path))

    def test_nesting_up_to_the_cap_decodes(self):
        from repro.core.persist import _MAX_DEPTH

        payload = decode_summary_payload(nested_lists_container(_MAX_DEPTH))
        for _ in range(_MAX_DEPTH - 1):
            (payload,) = payload
        assert payload == []
        with pytest.raises(ValueError, match="nest"):
            decode_summary_payload(nested_lists_container(_MAX_DEPTH + 1))

    def test_nested_json(self, tmp_path):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ValueError, match="nest"):
            loads_summary_payload(text.encode("utf-8"))
        with pytest.raises(ValueError, match="nest"):
            LoadedSummary.from_json(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="nest"):
            load_summary_container_file(str(path))

    def test_cache_counts_a_nested_entry_invalid(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        with open(cache.path_for(key), "wb") as handle:
            handle.write(nested_lists_container(5000))
        assert cache.get(key) is None
        assert cache.stats.invalid == 1


#: A daemon state file an earlier build wrote for :data:`SOURCE`, as
#: ``.cki``, and its payload, as ``.json``: container v4 (the payload as
#: tagged values, then the dependency index, the session metadata
#: naming session ``golden`` and the ``sections`` and ``refalias`` lane
#: sections).
GOLDEN_V4 = os.path.join(os.path.dirname(__file__), "golden", "ledger-v4")


class TestGoldenV4:
    """The earlier build's v4 state file still loads, to the payload
    recorded beside it."""

    def test_decodes_to_its_recorded_payload(self, summary):
        with open(GOLDEN_V4 + ".json") as handle:
            recorded = json.load(handle)
        with open(GOLDEN_V4 + ".cki", "rb") as handle:
            blob = handle.read()
        assert blob[4] == 4
        payload, sections = decode_summary_container(blob)
        assert payload == recorded
        assert json.dumps(payload) == json.dumps(recorded)  # Key order too.
        assert load_summary_container_file(GOLDEN_V4 + ".cki") == (payload, sections)
        assert payload == summary_to_dict(summary)
        assert set(sections) == {
            SECTION_DEP_INDEX, SECTION_SESSION_META,
            SECTION_LANE_SECTIONS, SECTION_LANE_REFALIAS,
        }
        assert read_container_trailer(blob)[0] == sections


class TestDamagedContainer:
    """A truncated or corrupt container ends in :class:`ValueError` or
    a decoded payload — never another exception class, never a section
    quietly cut short."""

    @pytest.fixture(scope="class")
    def laned(self):
        return analyze_side_effects(
            compile_source(SOURCE), lanes=("sections", "refalias")
        )

    @pytest.fixture(scope="class")
    def indexed_blob(self, laned):
        """A v5 container with the index, session metadata naming the
        lanes and result metadata carrying their blocks."""
        from repro.core.depindex import index_section
        from repro.core.pipeline import result_meta

        return summary_to_bytes(
            laned,
            sections={
                SECTION_DEP_INDEX: index_section(laned),
                SECTION_SESSION_META: b'{"lanes": ["sections", "refalias"]}',
                SECTION_RESULT_META: json.dumps(result_meta(laned)).encode("utf-8"),
            },
        )

    @pytest.fixture(scope="class")
    def rich_blob(self, indexed_blob):
        """The same payload and sections in an earlier writer's v4
        container."""
        return encode_summary_payload(*decode_summary_container(indexed_blob))

    def test_header_cut_short(self, summary):
        blob = summary_to_bytes(summary)
        for cut in range(4, 22):
            with pytest.raises(ValueError, match="truncated"):
                decode_summary_container(blob[:cut])

    def test_every_cut_of_a_v4_container(self, rich_blob):
        _payload, sections = decode_summary_container(rich_blob)
        assert rich_blob[4] == 4
        assert set(sections) == {
            SECTION_DEP_INDEX, SECTION_SESSION_META, SECTION_RESULT_META
        }
        for cut in range(len(rich_blob)):
            with pytest.raises(ValueError):
                decode_summary_container(rich_blob[:cut])
            with pytest.raises(ValueError):
                read_container_trailer(rich_blob[:cut])

    @pytest.mark.parametrize("with_trailer", [False, True], ids=["v3", "v4"])
    def test_bit_flips(self, summary, rich_blob, with_trailer):
        """Seeded single-bit flips: in the body of a v3 container, and
        anywhere past the header of a v4 one."""
        if with_trailer:
            blob, start = rich_blob, 22
        else:
            blob = encode_summary_payload(summary_to_dict(summary))
            _version, table_len, _body_len = struct.unpack_from("<HQQ", blob, 4)
            start = 22 + table_len
        outcomes = flip_outcomes(blob, start, 4242)
        assert any(isinstance(item, ValueError) for item in outcomes)
        assert not all(isinstance(item, ValueError) for item in outcomes)

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_every_cut_of_a_v5_container(self, summary, indexed_blob, indexed):
        """Through the full decoder and the trailer-only reader."""
        blob = indexed_blob if indexed else summary_to_bytes(summary)
        assert blob[4] == BINARY_FORMAT_VERSION == 5
        assert read_container_trailer(blob)[0] == decode_summary_container(blob)[1]
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode_summary_container(blob[:cut])
            with pytest.raises(ValueError):
                read_container_trailer(blob[:cut])

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_v5_bit_flips(self, summary, indexed_blob, indexed):
        """Seeded single-bit flips anywhere past the header of a v5
        container, with and without the index trailer."""
        blob = indexed_blob if indexed else summary_to_bytes(summary)
        outcomes = flip_outcomes(blob, 22, 5005)
        assert any(isinstance(item, ValueError) for item in outcomes)
        assert not all(isinstance(item, ValueError) for item in outcomes)

    def test_flipped_sets_stay_in_the_variable_table(self):
        """A flip in the body of a v5 container cannot name a variable
        the table does not hold: every set is read with the variable
        count as its width, so a flipped sparse gap that jumps past the
        table ends in :class:`ValueError`."""
        from repro.workloads.generator import GeneratorConfig, generate_resolved

        summary = analyze_side_effects(generate_resolved(GeneratorConfig(
            seed=5, num_procs=40, num_globals=30, max_depth=2)))
        blob = summary_to_bytes(summary)
        _version, table_len, _body_len = struct.unpack_from("<HQQ", blob, 4)
        variables = set(summary.universe.names)
        past_the_table = 0
        for outcome in flip_outcomes(blob, 22 + table_len, 77, flips=1000):
            if isinstance(outcome, ValueError):
                past_the_table += "past the width" in str(outcome)
                continue
            payload, _sections = outcome
            for entry in payload["procedures"].values():
                for key in ("gmod", "guse"):
                    assert set(entry[key]) <= variables
            for entry in payload["call_sites"]:
                for key in ("dmod", "mod", "duse", "use"):
                    assert set(entry[key]) <= variables
        assert past_the_table

    def test_cache_counts_a_torn_entry_invalid(self, tmp_path, summary):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        cache.put(key, encode_record(summary))
        path = cache.path_for(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:10])
        assert cache.get(key) is None
        assert cache.stats.invalid == 1
        assert cache.stats.misses == 1
