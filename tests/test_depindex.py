"""Dependency-index persistence: container round-trips, version
fencing, and the restored-index update path.

The index is what lets a *different process* run demand-driven
incremental updates: everything the invalidation algorithm reads —
fingerprints, the variable universe, the solved rows, the per-β-node
verdicts and β's component count, the alias partner tables and the
per-site tables — must come back from the summary's container exactly,
and an update driven by the reloaded index must produce the same bytes
as one driven by the live summary.  The index blob (format 4) holds
only what the container's body lacks; the variable names, the G rows,
the partner tables and every site's DMOD/MOD are read from the body.
Only format 4 is read: an earlier format, an index written against
another body and a damaged body end in :class:`ValueError`, which the
daemon turns into a full re-solve.  The edit-sequence fuzz
(``tests/test_incremental_fuzz.py``) drives the reloaded path after
every step.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.aliases import AliasResult
from repro.core.arena import peek_arena
from repro.core.binio import read_partner_rows, write_mask_adaptive, write_varint
from repro.core.depindex import (
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    build_dependency_index,
    index_from_container,
    index_section,
    index_to_bytes,
)
from repro.core.incremental import (
    _full_resolve,
    incremental_update,
    incremental_update_from_index,
)
from repro.core.persist import (
    _HEADER,
    BINARY_FORMAT_VERSION,
    SECTION_DEP_INDEX,
    _container,
    _head,
    decode_summary_container,
    read_container_trailer,
    summary_crc32,
    summary_to_bytes,
    summary_to_dict,
)
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_program
from tests.test_persist_roundtrip import SOURCE as LEDGER

NESTED = GeneratorConfig(seed=5, num_procs=30, num_globals=9,
                         max_depth=3, nesting_prob=0.5)


def _indexed_summary(source):
    summary = analyze_side_effects(source)
    index = build_dependency_index(summary)
    summary.dep_index = index
    return summary, index


def _container_of(summary, blob=None):
    """``summary``'s container with its index section (or ``blob`` in
    its place), as the daemon writes a state file."""
    if blob is None:
        blob = index_section(summary)
    return summary_to_bytes(summary, sections={SECTION_DEP_INDEX: blob})


def _reload(summary):
    return index_from_container(_container_of(summary))


def _collision_source() -> str:
    """A program named after its level-1 procedure ``p0``."""
    program = generate_program(NESTED)
    program.name = "p0"
    return pretty(program)


class TestBlobRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [patterns.chain(5), patterns.two_sccs_bridged(4),
         pretty(generate_program(NESTED)), _collision_source()],
        ids=["chain", "two-sccs", "generated-nested", "collision"],
    )
    def test_all_fields_survive(self, source):
        summary, index = _indexed_summary(source)
        assert _reload(summary) == index  # Dataclass equality covers every field.

    def test_universe_fields_survive(self):
        summary, index = _indexed_summary(patterns.chain(4))
        again = _reload(summary)
        assert again.universe_global == index.universe_global
        assert again.universe_local == index.universe_local
        assert again.universe_formal == index.universe_formal
        assert again.universe_level == index.universe_level

    def test_serialization_is_deterministic(self):
        summary, index = _indexed_summary(patterns.chain(4))
        crc = summary_crc32(summary)
        assert index_to_bytes(index, crc) == index_to_bytes(index, crc)

    def test_a_tail_of_other_fields_is_written_afresh(self):
        """An index keeps the bytes it wrote past its fingerprints, and
        one that shares that memo but not every field behind it (or is
        written against another CRC) writes its own bytes."""
        summary, index = _indexed_summary(patterns.chain(4))
        crc = summary_crc32(summary)
        blob = index_to_bytes(index, crc)
        assert index.tail is not None and index.tail[0] == crc
        _other, other = _indexed_summary(patterns.chain(4).replace("x := 1", "g := 1"))
        for name in ("imod_plus", "imod_ext", "gmod", "site_luse", "proc_parent"):
            mixed = dataclasses.replace(index, **{name: getattr(other, name)})
            assert mixed.tail is index.tail
            fresh = dataclasses.replace(mixed, tail=None)
            assert index_to_bytes(mixed, crc) == index_to_bytes(fresh, crc), name
        assert index_to_bytes(index, crc ^ 1)[9:] == blob[9:]
        assert index.tail[0] == crc ^ 1

    def test_magic_mismatch_is_loud(self):
        summary, _index = _indexed_summary(patterns.chain(3))
        with pytest.raises(ValueError, match="magic"):
            index_from_container(_container_of(summary, b"NOPE" + b"\x00" * 16))

    def test_every_cut_is_a_value_error(self):
        """A truncated blob, in a well-framed container, fails cleanly
        at every cut point, never with an ``IndexError`` from a read off
        its end; so does the container itself cut anywhere."""
        summary, _index = _indexed_summary(pretty(generate_program(NESTED)))
        blob = index_section(summary)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                index_from_container(_container_of(summary, blob[:cut]))
        data = _container_of(summary)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                index_from_container(data[:cut])

    def test_mask_bit_past_the_width_is_a_value_error(self):
        """Every index mask is over the variable uids: a sparse gap
        pointing past the body's variable count is corruption, rejected
        before the mask is built (a flipped high bit in the gap varint
        would otherwise allocate a mask billions of bits wide)."""
        summary, index = _indexed_summary(patterns.chain(3))
        width = len(index.var_names)
        index.universe_global = 1 << (width + 5000)  # Sparse: one set bit.
        with pytest.raises(ValueError, match="past the width"):
            _reload(summary)

    def test_alias_pair_past_the_width_is_a_value_error(self):
        """A partner table row at or past the variable count is
        corruption of the body the index reads its tables from."""
        summary, index = _indexed_summary(patterns.chain(3))
        width = len(index.var_names)
        tables = list(summary.aliases.partner_mask)
        tables[0] = {width - 1: 1 << width, width: 1 << (width - 1)}
        damaged = dataclasses.replace(
            summary,
            aliases=AliasResult(tables, summary.aliases.domain_mask),
            head=None,
        )
        with pytest.raises(ValueError, match="alias row %d past" % width):
            _reload(damaged)

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
        """The body stores each pair once; the reader rebuilds both
        halves, equal to the live tables."""
        summary, _index = _indexed_summary(_aliased_source())
        tables = _reload(summary).partner_mask
        assert tables == summary.aliases.partner_mask
        assert any(tables)

    def test_bit_flips_end_in_value_error_or_an_index(self):
        """400 seeded single-bit flips of a nested program's index blob,
        in a well-framed container, in a child process capped at 2 GiB
        of address space: each ends in ``ValueError`` or a decoded
        index, never a ``MemoryError``."""
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent(
            """
            import random
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from repro.core.depindex import index_from_container, index_section
            from repro.core.persist import SECTION_DEP_INDEX, summary_to_bytes
            from repro.core.pipeline import analyze_side_effects
            from repro.workloads.generator import (
                GeneratorConfig, generate_resolved)

            summary = analyze_side_effects(generate_resolved(GeneratorConfig(
                seed=3, num_procs=30, max_depth=3, nesting_prob=0.4,
                prob_arg_global=0.4)))
            blob = index_section(summary)
            rng = random.Random(1)
            decoded = rejected = 0
            for _ in range(400):
                damaged = bytearray(blob)
                damaged[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                data = summary_to_bytes(
                    summary, sections={SECTION_DEP_INDEX: bytes(damaged)})
                try:
                    index_from_container(data)
                except ValueError:
                    rejected += 1
                else:
                    decoded += 1
            assert rejected and decoded, (rejected, decoded)
            """
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=300)

    def test_version_mismatch_is_loud(self):
        summary, _index = _indexed_summary(patterns.chain(3))
        blob = bytearray(index_section(summary))
        assert blob[len(INDEX_MAGIC)] == INDEX_FORMAT_VERSION
        blob[len(INDEX_MAGIC)] = INDEX_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            index_from_container(_container_of(summary, bytes(blob)))

    def test_writer_emits_format_4(self):
        """Version 4, ending at its last field: no trailer byte, and a
        byte past the end is corruption."""
        summary, index = _indexed_summary(pretty(generate_program(NESTED)))
        blob = index_section(summary)
        assert blob[len(INDEX_MAGIC)] == INDEX_FORMAT_VERSION == 4
        assert index_from_container(_container_of(summary, blob)) == index
        with pytest.raises(ValueError, match="1 bytes past its last field"):
            index_from_container(_container_of(summary, blob + b"\x00"))

    @pytest.mark.parametrize("version", [1, 2, 3], ids=["v1", "v2", "v3"])
    def test_earlier_format_is_refused(self, version):
        """The format-2 index an earlier build wrote into the golden v4
        state file and the same blob as format 1 (no trailer byte) end
        in a :class:`ValueError` naming the version, as does the
        format-3 state file an earlier build wrote."""
        if version == 3:
            data = _golden_state(INDEX3_GOLDEN)
        else:
            blob = _golden_index_blob()
            assert blob[len(INDEX_MAGIC)] == 2
            if version == 1:
                blob = bytearray(blob[:-1])
                blob[len(INDEX_MAGIC)] = 1
            data = _container_of(analyze_side_effects(LEDGER), bytes(blob))
        sections, _crc = read_container_trailer(data)
        assert sections[SECTION_DEP_INDEX][len(INDEX_MAGIC)] == version
        with pytest.raises(ValueError, match="version %d " % version):
            index_from_container(data)


class TestBlobHoldsWhatTheBodyLacks:
    """Format 4 stores each solved set once: the variable names, the
    alias tables and the sites' DMOD/MOD live in the container's body,
    and so do the G rows of every pid the body shows."""

    def _blob_and_summary(self, source):
        summary, _index = _indexed_summary(source)
        return index_section(summary), summary

    def test_no_variable_names(self):
        blob, summary = self._blob_and_summary(_aliased_source())
        for name in summary.universe.names:
            assert name.encode("utf-8") not in blob

    def test_g_rows_only_for_hidden_pids(self, monkeypatch):
        """Every mask the writer writes: the universe's, the IMOD rows,
        the IMOD+ deltas and the site tables, and one G row per kind for
        each hidden pid — none for alias tables or site DMOD/MOD."""
        import repro.core.depindex as depindex

        for source, hidden in ((pretty(generate_program(NESTED)), 0),
                               (_collision_source(), 1)):
            summary, index = _indexed_summary(source)
            calls = []
            real = depindex.write_mask_adaptive
            monkeypatch.setattr(
                depindex, "write_mask_adaptive",
                lambda out, mask: calls.append(mask) or real(out, mask),
            )
            index_section(summary)
            monkeypatch.undo()
            procs, sites = index.num_procs, len(index.site_caller)
            kinds = len(index.kinds)
            structural = 1 + 2 * procs + len(index.universe_level)
            rows = (2 + 2 * kinds) * procs + kinds * hidden
            assert len(calls) == structural + rows + 2 * sites

    def test_other_summarys_body_is_refused(self, monkeypatch):
        """The index vouches for the body it was written against: the
        same blob beside another summary's head is refused on its CRC,
        before the body is read."""
        import repro.core.persist as persist

        summary, _index = _indexed_summary(patterns.chain(5))
        other = analyze_side_effects(patterns.chain(5).replace(
            "proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9"))
        assert summary_to_bytes(other) != summary_to_bytes(summary)
        data = _container_of(other, index_section(summary))

        def refuse(*_args, **_kwargs):
            raise AssertionError("the body was read before the CRC check")

        monkeypatch.setattr(persist, "_read_summary_body", refuse)
        with pytest.raises(ValueError, match="another summary body"):
            index_from_container(data)


class TestDamagedStateFile:
    """A state file whose body is cut, bit-flipped or another summary's
    ends, on reload, in :class:`ValueError` — which the daemon turns into
    a full re-solve — or in an index whose update is byte-identical to a
    scratch solve.  Never in another exception class."""

    def _check(self, data, edited):
        scratch = summary_to_bytes(analyze_side_effects(edited))
        try:
            index = index_from_container(data)
        except ValueError:
            updated, stats = _full_resolve(
                compile_source(edited), [EffectKind.MOD, EffectKind.USE],
                set(), reloaded=True)
            assert stats.full_resolve
            outcome = "re-solved"
        else:
            updated, stats = incremental_update_from_index(
                index, compile_source(edited), reloaded=True)
            assert not stats.full_resolve
            outcome = "updated"
        assert summary_to_bytes(updated) == scratch
        return outcome

    def _damaged(self):
        source = pretty(generate_program(NESTED))
        summary, _index = _indexed_summary(source)
        edited = source.replace(":= 1", ":= 4", 1)
        assert edited != source
        table, body = _head(summary)
        return summary, table, body, edited

    def test_body_cut(self):
        summary, table, body, edited = self._damaged()
        sections = {SECTION_DEP_INDEX: index_section(summary)}
        outcomes = {
            self._check(_container(table, body[:cut], sections), edited)
            for cut in range(0, len(body), 7)
        }
        assert outcomes == {"re-solved"}

    def test_body_bit_flips(self):
        summary, table, body, edited = self._damaged()
        data = _container_of(summary)
        body_start = 4 + _HEADER.size + len(table)
        rng = random.Random(7)
        outcomes = set()
        for _ in range(60):
            damaged = bytearray(data)
            damaged[rng.randrange(body_start, body_start + len(body))] ^= (
                1 << rng.randrange(8))
            outcomes.add(self._check(bytes(damaged), edited))
        assert outcomes == {"re-solved"}

    def test_body_of_another_summary(self):
        summary, _table, _body, edited = self._damaged()
        other = analyze_side_effects(pretty(generate_program(
            dataclasses.replace(NESTED, seed=6))))
        sections = {SECTION_DEP_INDEX: index_section(summary)}
        data = _container(*_head(other), sections)
        assert self._check(data, edited) == "re-solved"

    def test_intact_file_updates(self):
        summary, _table, _body, edited = self._damaged()
        assert self._check(_container_of(summary), edited) == "updated"


class TestDaemonReload:
    """What a restarted daemon makes of a state file it did not write:
    a format-3 index (an earlier build's) or a damaged body degrades
    the next update to a full re-solve, reported as such."""

    def _update(self, tmp_path, data, edited):
        from repro.server import ServerClient, ServerConfig, ServerThread

        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as handle:
            with open(handle.server._session_state_path("golden"), "wb") as out:
                out.write(data)
            with ServerClient(port=handle.port) as client:
                reply = client.update("golden", edited)
        assert reply["summary"] == summary_to_dict(analyze_side_effects(edited))
        return reply["update_stats"]

    def test_format_3_state_file_is_a_full_resolve(self, tmp_path):
        edited = LEDGER.replace("  slot := 2\n", "  slot := 3\n")
        assert edited != LEDGER
        stats = self._update(tmp_path, _golden_state(INDEX3_GOLDEN), edited)
        assert stats["index_reloaded"] is True
        assert stats["full_resolve"] is True

    def test_flipped_body_is_a_full_resolve(self, tmp_path):
        summary = analyze_side_effects(LEDGER)
        table, _body = _head(summary)
        data = bytearray(_container_of(summary))
        data[4 + _HEADER.size + len(table) + 3] ^= 0x10
        edited = LEDGER.replace("  slot := 2\n", "  slot := 3\n")
        stats = self._update(tmp_path, bytes(data), edited)
        assert stats["full_resolve"] is True

    def test_intact_state_file_drives_the_update(self, tmp_path):
        summary = analyze_side_effects(LEDGER)
        edited = LEDGER.replace("  slot := 2\n", "  slot := 3\n")
        stats = self._update(tmp_path, _container_of(summary), edited)
        assert stats["index_reloaded"] is True
        assert stats["full_resolve"] is False


class TestBetaCount:
    def test_build_after_a_literal_edit_runs_no_beta_pass(self):
        """An update that carried every β verdict knows β's component
        count without condensing β; the index build takes that count."""
        source = pretty(generate_program(NESTED))
        old, _index = _indexed_summary(source)
        edited = source.replace(":= 1", ":= 4", 1)
        assert edited != source
        new, stats = incremental_update(old, compile_source(edited))
        arena = peek_arena(new.resolved)
        assert "beta" not in arena.condensation_counts
        index = build_dependency_index(new)
        assert "beta" not in arena.condensation_counts
        assert index.beta_sccs == stats.beta_total_sccs
        assert index.beta_sccs == len(arena.beta_condensation()[1])


class TestContainerEmbedding:
    def test_plain_summary_has_no_sections(self):
        summary, _index = _indexed_summary(patterns.chain(4))
        blob = summary_to_bytes(summary)
        version = int.from_bytes(blob[4:6], "little")
        assert version == BINARY_FORMAT_VERSION
        _payload, sections = decode_summary_container(blob)
        assert sections == {}

    def test_index_section_rides_the_trailer(self):
        summary, index = _indexed_summary(patterns.chain(4))
        blob = _container_of(summary)
        version = int.from_bytes(blob[4:6], "little")
        assert version == BINARY_FORMAT_VERSION
        _payload, sections = decode_summary_container(blob)
        assert sections == {SECTION_DEP_INDEX: index_section(summary)}
        assert index_from_container(blob) == index

    def test_v3_and_v4_payloads_agree(self):
        summary, _index = _indexed_summary(patterns.chain(4))
        plain, _ = decode_summary_container(summary_to_bytes(summary))
        rich, _ = decode_summary_container(_container_of(summary))
        assert plain == rich


class TestRestoredIndexUpdates:
    """An update driven by a deserialized index (no live old summary,
    fresh process simulation) must be byte-identical to both the live
    warm path and a from-scratch solve."""

    def test_reloaded_update_matches_warm_and_scratch(self):
        base = patterns.chain(6)
        edited = base.replace(
            "proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9")
        old, _index = _indexed_summary(base)
        data = _container_of(old)

        warm, warm_stats = incremental_update(old, compile_source(edited))
        reloaded, stats = incremental_update_from_index(
            index_from_container(data), compile_source(edited), reloaded=True)

        scratch_bytes = summary_to_bytes(analyze_side_effects(edited))
        assert summary_to_bytes(warm) == scratch_bytes
        assert summary_to_bytes(reloaded) == scratch_bytes
        assert stats.index_reloaded and not stats.full_resolve
        assert not warm_stats.index_reloaded
        assert stats.reuse_fraction > 0.0

    def test_reloaded_update_reports_region_counters(self):
        source = pretty(generate_program(NESTED))
        old, _index = _indexed_summary(source)
        edited = source.replace(":= 1", ":= 4", 1)
        assert edited != source
        reloaded, stats = incremental_update_from_index(
            _reload(old), compile_source(edited), reloaded=True)
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
        old = analyze_side_effects(source, kinds=indexed)
        index = build_dependency_index(old)
        old.dep_index = index
        scratch = summary_to_bytes(analyze_side_effects(edited, kinds=requested))
        for reloaded, driver in ((False, index), (True, _reload(old))):
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
        old, _index = _indexed_summary(base)
        updated, stats = incremental_update_from_index(
            _reload(old), compile_source(edited), reloaded=True)
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


#: A daemon state file an earlier build wrote for session ``golden``
#: over :data:`tests.test_persist_roundtrip.SOURCE`: container v5 with
#: a format-3 dependency index and session metadata naming no lanes.
INDEX3_GOLDEN = "ledger-index3.cki"


def _golden_state(name: str) -> bytes:
    import os

    with open(os.path.join(os.path.dirname(__file__), "golden", name), "rb") as handle:
        return handle.read()


def _golden_index_blob() -> bytes:
    """The format-2 dependency index inside ``tests/golden/ledger-v4.cki``."""
    sections, _crc = read_container_trailer(_golden_state("ledger-v4.cki"))
    return sections[SECTION_DEP_INDEX]


def _aliased_source() -> str:
    """Globals and formals bound together by reference, so every alias
    rule fires and the partner tables are not empty."""
    return pretty(generate_program(GeneratorConfig(
        seed=3, num_procs=30, max_depth=3, nesting_prob=0.4,
        prob_arg_global=0.4)))

