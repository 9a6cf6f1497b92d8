"""Dependency-index persistence: blob round-trips, container
embedding, version fencing, and the restored-index update path.

The index is what lets a *different process* run demand-driven
incremental updates: everything the invalidation algorithm reads —
fingerprints, the variable universe, the solved rows, the per-β-node
verdicts and β's component count, the alias partner tables and the
per-site tables — must survive ``index_to_bytes`` → ``index_from_bytes``
exactly, and an update driven by the deserialized index must produce
the same bytes as one driven by the live summary.  Only format 3 is
read: an earlier format ends in :class:`ValueError`, which the daemon
turns into a full re-solve.  The edit-sequence fuzz
(``tests/test_incremental_fuzz.py``) drives the reloaded path after
every step.
"""

from __future__ import annotations

import pytest

from repro.core.binio import read_partner_rows, write_mask_adaptive, write_varint
from repro.core.depindex import (
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    build_dependency_index,
    index_from_bytes,
    index_to_bytes,
)
from repro.core.incremental import (
    incremental_update,
    incremental_update_from_index,
)
from repro.core.persist import (
    BINARY_FORMAT_VERSION,
    SECTION_DEP_INDEX,
    decode_summary_container,
    summary_to_bytes,
)
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_program

NESTED = GeneratorConfig(seed=5, num_procs=30, num_globals=9,
                         max_depth=3, nesting_prob=0.5)


def _indexed_summary(source):
    summary = analyze_side_effects(source)
    index = build_dependency_index(summary)
    summary.dep_index = index
    return summary, index


class TestBlobRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [patterns.chain(5), patterns.two_sccs_bridged(4),
         pretty(generate_program(NESTED))],
        ids=["chain", "two-sccs", "generated-nested"],
    )
    def test_all_fields_survive(self, source):
        _summary, index = _indexed_summary(source)
        again = index_from_bytes(index_to_bytes(index))
        assert again == index  # Dataclass equality covers every field.

    def test_universe_fields_survive(self):
        _summary, index = _indexed_summary(patterns.chain(4))
        again = index_from_bytes(index_to_bytes(index))
        assert again.universe_global == index.universe_global
        assert again.universe_local == index.universe_local
        assert again.universe_formal == index.universe_formal
        assert again.universe_level == index.universe_level

    def test_serialization_is_deterministic(self):
        _summary, index = _indexed_summary(patterns.chain(4))
        assert index_to_bytes(index) == index_to_bytes(index)

    def test_magic_mismatch_is_loud(self):
        with pytest.raises(ValueError, match="magic"):
            index_from_bytes(b"NOPE" + b"\x00" * 16)

    def test_every_cut_is_a_value_error(self):
        """A truncated blob fails cleanly at every cut point, never with
        an ``IndexError`` from a read off its end."""
        _summary, index = _indexed_summary(pretty(generate_program(NESTED)))
        blob = index_to_bytes(index)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                index_from_bytes(blob[:cut])

    def test_mask_bit_past_the_width_is_a_value_error(self):
        """Every index mask is over the variable uids: a sparse gap
        pointing past ``len(var_names)`` is corruption, rejected before
        the mask is built (a flipped high bit in the gap varint would
        otherwise allocate a mask billions of bits wide)."""
        _summary, index = _indexed_summary(patterns.chain(3))
        width = len(index.var_names)
        index.universe_global = 1 << (width + 5000)  # Sparse: one set bit.
        with pytest.raises(ValueError, match="past the width"):
            index_from_bytes(index_to_bytes(index))

    def test_alias_pair_past_the_width_is_a_value_error(self):
        """A partner table row at or past the variable count is
        corruption."""
        _summary, index = _indexed_summary(patterns.chain(3))
        width = len(index.var_names)
        index.partner_mask[0] = {width - 1: 1 << width, width: 1 << (width - 1)}
        with pytest.raises(ValueError, match="alias row %d past" % width):
            index_from_bytes(index_to_bytes(index))

    @pytest.mark.parametrize("row, partner", [(0, 0), (3, 3), (3, 4), (3, 9)])
    def test_alias_partner_at_or_past_its_row_is_a_value_error(self, row, partner):
        """Rows hold each pair once, under its higher uid: a partner at
        or above its own row is corruption."""
        out = bytearray()
        write_varint(out, 1)  # One row,
        write_varint(out, row)  # at uid ``row``,
        write_mask_adaptive(out, 1 << partner)  # naming ``partner``.
        with pytest.raises(ValueError, match="past the width %d" % row):
            read_partner_rows(bytes(out), 0, 10)

    def test_partner_tables_come_back_symmetric(self):
        """The blob stores each pair once; the reader rebuilds both
        halves, equal to the live tables."""
        summary, index = _indexed_summary(_aliased_source())
        tables = index_from_bytes(index_to_bytes(index)).partner_mask
        assert tables == summary.aliases.partner_mask
        assert any(tables)

    def test_bit_flips_end_in_value_error_or_an_index(self):
        """400 seeded single-bit flips of a nested program's index, in
        a child process capped at 2 GiB of address space: each ends in
        ``ValueError`` or a decoded index, never a ``MemoryError``."""
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent(
            """
            import random
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from repro.core.depindex import (
                build_dependency_index, index_from_bytes, index_to_bytes)
            from repro.core.pipeline import analyze_side_effects
            from repro.workloads.generator import (
                GeneratorConfig, generate_resolved)

            resolved = generate_resolved(GeneratorConfig(
                seed=3, num_procs=30, max_depth=3, nesting_prob=0.4,
                prob_arg_global=0.4))
            blob = index_to_bytes(
                build_dependency_index(analyze_side_effects(resolved)))
            rng = random.Random(1)
            decoded = rejected = 0
            for _ in range(400):
                damaged = bytearray(blob)
                damaged[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                try:
                    index_from_bytes(bytes(damaged))
                except ValueError:
                    rejected += 1
                else:
                    decoded += 1
            assert rejected and decoded, (rejected, decoded)
            """
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=300)

    def test_version_mismatch_is_loud(self):
        _summary, index = _indexed_summary(patterns.chain(3))
        blob = bytearray(index_to_bytes(index))
        assert blob[len(INDEX_MAGIC)] == INDEX_FORMAT_VERSION
        blob[len(INDEX_MAGIC)] = INDEX_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            index_from_bytes(bytes(blob))

    def test_writer_emits_format_3(self):
        """Version 3, ending at its last field: no trailer byte, and a
        byte past the end is corruption."""
        _summary, index = _indexed_summary(pretty(generate_program(NESTED)))
        blob = index_to_bytes(index)
        assert blob[len(INDEX_MAGIC)] == INDEX_FORMAT_VERSION == 3
        assert index_from_bytes(blob) == index
        with pytest.raises(ValueError, match="1 bytes past its last field"):
            index_from_bytes(blob + b"\x00")

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_earlier_format_is_refused(self, version):
        """The format-2 index an earlier build wrote into the golden
        state file, and the same blob as format 1 (no trailer byte),
        end in a :class:`ValueError` naming the version."""
        blob = _golden_index_blob()
        assert blob[len(INDEX_MAGIC)] == 2
        if version == 1:
            blob = bytearray(blob[:-1])
            blob[len(INDEX_MAGIC)] = 1
        with pytest.raises(ValueError, match="version %d " % version):
            index_from_bytes(bytes(blob))


class TestContainerEmbedding:
    def test_plain_summary_has_no_sections(self):
        summary, _index = _indexed_summary(patterns.chain(4))
        blob = summary_to_bytes(summary)
        version = int.from_bytes(blob[4:6], "little")
        assert version == BINARY_FORMAT_VERSION
        _payload, sections = decode_summary_container(blob)
        assert sections == {}

    def test_include_index_writes_v4_trailer(self):
        summary, index = _indexed_summary(patterns.chain(4))
        blob = summary_to_bytes(summary, include_index=True)
        version = int.from_bytes(blob[4:6], "little")
        assert version == BINARY_FORMAT_VERSION
        _payload, sections = decode_summary_container(blob)
        assert index_from_bytes(sections[SECTION_DEP_INDEX]) == index

    def test_v3_and_v4_payloads_agree(self):
        summary, _index = _indexed_summary(patterns.chain(4))
        plain, _ = decode_summary_container(summary_to_bytes(summary))
        rich, _ = decode_summary_container(
            summary_to_bytes(summary, include_index=True))
        assert plain == rich


class TestRestoredIndexUpdates:
    """An update driven by a deserialized index (no live old summary,
    fresh process simulation) must be byte-identical to both the live
    warm path and a from-scratch solve."""

    def test_reloaded_update_matches_warm_and_scratch(self):
        base = patterns.chain(6)
        edited = base.replace(
            "proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9")
        old, index = _indexed_summary(base)
        blob = index_to_bytes(index)

        warm, warm_stats = incremental_update(old, compile_source(edited))
        reloaded, stats = incremental_update_from_index(
            index_from_bytes(blob), compile_source(edited), reloaded=True)

        scratch_bytes = summary_to_bytes(analyze_side_effects(edited))
        assert summary_to_bytes(warm) == scratch_bytes
        assert summary_to_bytes(reloaded) == scratch_bytes
        assert stats.index_reloaded and not stats.full_resolve
        assert not warm_stats.index_reloaded
        assert stats.reuse_fraction > 0.0

    def test_reloaded_update_reports_region_counters(self):
        source = pretty(generate_program(NESTED))
        old, index = _indexed_summary(source)
        edited = source.replace(":= 1", ":= 4", 1)
        assert edited != source
        reloaded, stats = incremental_update_from_index(
            index_from_bytes(index_to_bytes(index)),
            compile_source(edited), reloaded=True)
        assert summary_to_bytes(reloaded) == summary_to_bytes(
            analyze_side_effects(edited))
        assert stats.total_sccs > 0
        assert stats.affected_sccs + stats.cutoff_sccs >= 0
        assert stats.region_procs <= stats.total_procs
        assert 0.0 <= stats.reuse_fraction <= 1.0
        assert stats.to_dict()["index_reloaded"] is True

    @pytest.mark.parametrize(
        "indexed, requested",
        [((EffectKind.MOD,), (EffectKind.MOD, EffectKind.USE)),
         ((EffectKind.MOD, EffectKind.USE), (EffectKind.MOD,))],
        ids=["mod-index-drives-mod-use", "mod-use-index-drives-mod"],
    )
    def test_kinds_mismatch_downgrades_to_a_full_solve(self, indexed, requested):
        """An index solved for other kinds than the update asks for
        cannot drive it: the update solves from scratch and says so,
        whether the index is live or came back from its blob."""
        source = pretty(generate_program(NESTED))
        edited = source.replace(":= 1", ":= 4", 1)
        assert edited != source
        index = build_dependency_index(
            analyze_side_effects(source, kinds=indexed))
        scratch = summary_to_bytes(analyze_side_effects(edited, kinds=requested))
        for reloaded, driver in ((False, index),
                                 (True, index_from_bytes(index_to_bytes(index)))):
            updated, stats = incremental_update_from_index(
                driver, compile_source(edited), kinds=requested,
                reloaded=reloaded)
            assert stats.full_resolve is True
            assert stats.to_dict()["full_resolve"] is True
            assert stats.index_reloaded is reloaded
            assert summary_to_bytes(updated) == scratch

    def test_reloaded_update_re_solves_one_island(self):
        """Two disjoint call chains: an edit in one re-solves a region
        inside that island only, and the reloaded update equals a
        scratch solve."""
        base = _two_island_source(12)
        edited = base.replace("ga := 1", "ga := 1\n    gc := 1")
        assert edited != base
        _old, index = _indexed_summary(base)
        updated, stats = incremental_update_from_index(
            index_from_bytes(index_to_bytes(index)),
            compile_source(edited), reloaded=True)
        assert summary_to_bytes(updated) == summary_to_bytes(
            analyze_side_effects(edited))
        assert stats.index_reloaded and not stats.full_resolve
        assert 0 < stats.region_procs < stats.total_procs


def _two_island_source(length: int = 40) -> str:
    """Two disjoint call chains under one main: edits in island ``a``
    can never affect island ``b``."""
    lines = ["program islands", "  global ga", "  global gb",
             "  global gc", ""]
    for side in ("a", "b"):
        for i in range(1, length + 1):
            lines.append("  proc %s%d()" % (side, i))
            lines.append("  begin")
            if i < length:
                lines.append("    call %s%d()" % (side, i + 1))
            else:
                lines.append("    g%s := 1" % side)
            lines.append("  end")
            lines.append("")
    lines += ["begin", "  call a1()", "  call b1()", "end"]
    return "\n".join(lines) + "\n"


def _golden_index_blob() -> bytes:
    """The format-2 dependency index inside ``tests/golden/ledger-v4.cki``."""
    from repro.core.persist import read_container_trailer
    from tests.test_persist_roundtrip import GOLDEN_V4

    with open(GOLDEN_V4 + ".cki", "rb") as handle:
        sections, _crc = read_container_trailer(handle.read())
    return sections[SECTION_DEP_INDEX]


def _aliased_source() -> str:
    """Globals and formals bound together by reference, so every alias
    rule fires and the partner tables are not empty."""
    return pretty(generate_program(GeneratorConfig(
        seed=3, num_procs=30, max_depth=3, nesting_prob=0.4,
        prob_arg_global=0.4)))
