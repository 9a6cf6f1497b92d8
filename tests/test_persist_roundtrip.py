"""Persist schema v2 round-trip: aliases, sections, version stamping.

The summary cache trusts the on-disk format version to detect stale
entries, so this suite pins the schema: the payload round-trips with
alias pairs and the optional regular-section block intact, and any
payload stamped with another version is rejected — by the loader and
by the cache.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro import analyze_side_effects
from repro.core.persist import (
    BINARY_FORMAT_VERSION,
    FORMAT_VERSION,
    SECTION_DEP_INDEX,
    SECTION_LANE_REFALIAS,
    SECTION_LANE_SECTIONS,
    SECTION_LANE_SECTIONS_USE,
    LoadedSummary,
    decode_lane_sections,
    decode_summary_container,
    decode_summary_payload,
    encode_summary_payload,
    loads_summary_payload,
    summary_to_bytes,
    summary_to_dict,
    summary_to_json,
    verify_against,
)
from repro.lang.semantic import compile_source
from repro.service.cache import SummaryCache, content_key

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

    def test_sections_opt_in(self, summary):
        plain = summary_to_dict(summary)
        assert "sections" not in plain
        rich = summary_to_dict(summary, include_sections=True)
        assert rich["sections"]["lattice"] == "figure3"
        assert len(rich["sections"]["sites"]) == len(summary.resolved.call_sites)
        # Some call site touches the book array with a known section.
        rendered = [s for site in rich["sections"]["sites"] for s in site]
        assert any(s.startswith("book") for s in rendered)

    def test_sections_round_trip_and_verify(self, summary):
        text = json.dumps(summary_to_dict(summary, include_sections=True))
        loaded = LoadedSummary.from_json(text)
        assert loaded.has_sections
        assert loaded.site_section_names(0) == summary_to_dict(
            summary, include_sections=True
        )["sections"]["sites"][0]
        assert verify_against(loaded, summary)

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
        stale = summary_to_dict(summary)
        stale["version"] = 1
        with pytest.raises(ValueError):
            LoadedSummary(stale)
        stale["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            LoadedSummary(stale)

    def test_cache_key_depends_on_format_version(self, monkeypatch):
        key_now = content_key(SOURCE)
        import repro.service.cache as cache_module

        monkeypatch.setattr(cache_module, "FORMAT_VERSION", FORMAT_VERSION + 1)
        assert cache_module.content_key(SOURCE) != key_now

    def test_cache_rejects_entry_with_stale_format(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        cache.put(key, {"summary": {"version": FORMAT_VERSION}})
        assert cache.get(key) is not None

        # Rewrite the stored record as if an older build had written
        # it: same key on disk, older format stamp inside.
        path = cache.path_for(key)
        with open(path, "rb") as handle:
            record = loads_summary_payload(handle.read())
        record["format_version"] = FORMAT_VERSION - 1
        with open(path, "wb") as handle:
            handle.write(encode_summary_payload(record))

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
    """Persist v3: the binary summary container and its JSON fallback."""

    def test_payload_round_trips_exactly(self, summary):
        payload = summary_to_dict(summary, include_sections=True)
        assert decode_summary_payload(encode_summary_payload(payload)) == payload

    def test_summary_to_bytes_loads(self, summary):
        loaded = LoadedSummary.from_bytes(summary_to_bytes(summary))
        assert verify_against(loaded, summary)
        rich = LoadedSummary.from_bytes(
            summary_to_bytes(summary, include_sections=True)
        )
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
        payload = summary_to_dict(summary)
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

    def test_cache_reads_legacy_json_entries(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        record = {
            "cache_schema": 1,
            "format_version": FORMAT_VERSION,
            "key": key,
            "result": {"summary": {"version": FORMAT_VERSION}},
        }
        # Simulate an entry written by a pre-binary build: JSON at the
        # legacy path, nothing at the binary path.
        with open(cache.legacy_path_for(key), "w") as handle:
            json.dump(record, handle)
        assert cache.get(key) == record["result"]
        assert cache.stats.hits == 1


class TestDamagedContainer:
    """A truncated or corrupt container ends in :class:`ValueError` or
    a decoded payload — never another exception class, never a section
    quietly cut short."""

    @pytest.fixture(scope="class")
    def rich_blob(self):
        summary = analyze_side_effects(
            compile_source(SOURCE), lanes=("sections", "refalias")
        )
        return summary_to_bytes(summary, include_index=True, include_lanes=True)

    def test_header_cut_short(self, summary):
        blob = summary_to_bytes(summary)
        for cut in range(4, 22):
            with pytest.raises(ValueError, match="truncated"):
                decode_summary_container(blob[:cut])

    def test_every_cut_of_a_v4_container(self, rich_blob):
        _payload, sections = decode_summary_container(rich_blob)
        assert rich_blob[4] == BINARY_FORMAT_VERSION
        assert {
            SECTION_DEP_INDEX, SECTION_LANE_SECTIONS, SECTION_LANE_REFALIAS
        } <= set(sections)
        for cut in range(len(rich_blob)):
            with pytest.raises(ValueError):
                decode_summary_container(rich_blob[:cut])

    @pytest.mark.parametrize("with_trailer", [False, True], ids=["v3", "v4"])
    def test_bit_flips(self, summary, rich_blob, with_trailer):
        """Seeded single-bit flips: in the body of a v3 container, and
        anywhere past the header of a v4 one."""
        blob = rich_blob if with_trailer else summary_to_bytes(summary)
        _version, table_len, _body_len = struct.unpack_from("<HQQ", blob, 4)
        start = 22 if with_trailer else 22 + table_len
        rng = random.Random(4242)
        decoded = rejected = 0
        for _ in range(400):
            damaged = bytearray(blob)
            damaged[rng.randrange(start, len(blob))] ^= 1 << rng.randrange(8)
            try:
                decode_summary_container(bytes(damaged))
            except ValueError:
                rejected += 1
            else:
                decoded += 1
        assert rejected and decoded

    @pytest.fixture(scope="class")
    def lane_blobs(self):
        from repro.lanes.driver import lane_blobs

        summary = analyze_side_effects(
            compile_source(SOURCE),
            lanes=("sections", "refalias", "sections-use"),
        )
        return lane_blobs(summary.lanes)

    @pytest.mark.parametrize(
        "tag",
        [SECTION_LANE_SECTIONS, SECTION_LANE_REFALIAS, SECTION_LANE_SECTIONS_USE],
        ids=["sections", "refalias", "sections-use"],
    )
    def test_lane_blob_cuts_and_flips(self, lane_blobs, tag):
        """Every cut of a lane trailer blob, and 400 seeded bit flips,
        end in ``ValueError`` or a decoded value — never the
        ``IndexError`` of a read off the end."""
        blob = lane_blobs[tag]
        assert decode_lane_sections({tag: blob})
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode_lane_sections({tag: blob[:cut]})
        rng = random.Random(tag)
        decoded = rejected = 0
        for _ in range(400):
            damaged = bytearray(blob)
            damaged[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                decode_lane_sections({tag: bytes(damaged)})
            except ValueError:
                rejected += 1
            else:
                decoded += 1
        assert rejected and decoded

    def test_cache_counts_a_torn_entry_invalid(self, tmp_path, summary):
        cache = SummaryCache(str(tmp_path))
        key = content_key(SOURCE)
        cache.put(key, {"summary": summary_to_dict(summary)})
        path = cache.path_for(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:10])
        assert cache.get(key) is None
        assert cache.stats.invalid == 1
        assert cache.stats.misses == 1
