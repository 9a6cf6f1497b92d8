"""Dependency-index persistence: blob round-trips, container
embedding, version fencing, and the restored-index update path.

The index is what lets a *different process* run demand-driven
incremental updates: everything the invalidation algorithm needs —
fingerprints, condensation shapes, per-SCC verdicts, the variable
universe — must survive ``index_to_bytes`` → ``index_from_bytes``
exactly, and an update driven by the deserialized index must produce
the same bytes as one driven by the live summary.
"""

from __future__ import annotations

import pytest

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
        _summary, index = _indexed_summary(patterns.chain(3))
        width = len(index.var_names)
        for bad in [(width - 1, width), (1, 0), (0, 0)]:
            index.alias_pairs[0] = [bad]
            with pytest.raises(ValueError, match="alias pair"):
                index_from_bytes(index_to_bytes(index))

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


#: The separator tree an older writer persisted for
#: ``_two_island_source(12)``, verbatim: node → parent (-1 the root),
#: node → kind (0 region, 1 group, 3 leaf), shard → leaf, pid → shard,
#: and each shard's scope.
ISLANDS_TREE = (
    [-1, 0, 1, 1, 3, 3, 0, 6, 7, 7, 9, 9, 6, 12, 12],
    [0, 0, 3, 1, 3, 3, 1, 0, 3, 0, 3, 3, 0, 3, 3],
    [2, 4, 5, 8, 10, 11, 13, 14],
    [0, 0, 1, 1, 1, 3, 3, 3, 4, 4, 5, 5, 5,
     0, 2, 2, 2, 6, 6, 6, 7, 7, 7, 7, 7],
    [[0], [0, 1], [0, 2], [1, 3], [3, 4], [4, 5], [2, 6], [6, 7]],
)


def _root_over_leaves(shard_of_pid, num_shards: int):
    """A one-level tree: a root region over one leaf per shard, each
    shard its own scope."""
    return ([-1] + [0] * num_shards, [0] + [3] * num_shards,
            list(range(1, num_shards + 1)), shard_of_pid,
            [[shard] for shard in range(num_shards)])


def _with_legacy_tree(blob: bytes, tree) -> bytes:
    """``blob`` with the separator-tree trailer an older writer put
    behind the version-2 presence byte: the parent, kind, shard → leaf
    and pid → shard lists of ``tree``, then its scopes.  Every int
    list is a count then ``value + 1`` varints."""
    from repro.core.binio import write_varint

    def int_list(out, items):
        write_varint(out, len(items))
        for item in items:
            write_varint(out, item + 1)

    parent, kind, node_of_shard, shard_of_pid, scopes = tree
    out = bytearray(blob)
    assert out[-1] == 0  # This writer's tree-absent presence byte.
    out[-1] = 1
    for items in (parent, kind, node_of_shard, shard_of_pid):
        int_list(out, items)
    write_varint(out, len(scopes))
    for scope in scopes:
        int_list(out, scope)
    return bytes(out)


class TestSeparatorTreeTrailer:
    """The version-2 trailer once held the call graph's separator
    tree.  The writer emits only the presence byte, as 0; the reader
    accepts version-1 blobs (no byte) and never interprets a tree an
    older writer left behind."""

    def test_writer_emits_no_tree(self):
        _summary, index = _indexed_summary(pretty(generate_program(NESTED)))
        blob = index_to_bytes(index)
        assert blob[len(INDEX_MAGIC)] == INDEX_FORMAT_VERSION == 2
        assert blob[-1] == 0  # The tree-absent presence byte.

    def test_version_1_blob_reads_with_tree_fields_none(self):
        """A version-1 blob, which never had tree fields, reads back
        as the same index."""
        _summary, index = _indexed_summary(patterns.chain(5))
        blob = bytearray(index_to_bytes(index))
        # A version-1 blob is exactly this minus the presence byte.
        blob[len(INDEX_MAGIC)] = 1
        assert index_from_bytes(bytes(blob[:-1])) == index

    def test_tree_fields_populated_and_sound(self):
        """A populated, sound tree an older writer persisted loads as
        the tree-less index: no tree field survives the read."""
        from dataclasses import fields

        parent, kind, node_of_shard, shard_of_pid, scopes = ISLANDS_TREE
        _summary, index = _indexed_summary(_two_island_source(12))
        # The recorded tree is the well-formed one an older writer
        # built for this program, not a corrupt trailer.
        num_shards = len(node_of_shard)
        assert parent.count(-1) == 1 and len(parent) == len(kind)
        assert all(kind[node] == 3 for node in node_of_shard)
        assert len(shard_of_pid) == len(index.proc_names)
        assert all(0 <= shard < num_shards for shard in shard_of_pid)
        assert all(shard in scope for shard, scope in enumerate(scopes))

        loaded = index_from_bytes(
            _with_legacy_tree(index_to_bytes(index), ISLANDS_TREE))
        assert loaded == index
        assert not any(f.name.startswith("tree_") for f in fields(loaded))

    def test_tree_scoped_update_matches_full_scan_region(self):
        """An update from a blob carrying an older writer's tree and
        one from the same blob without it agree on the re-solve region
        and the bytes: the caller scan is the whole call graph either
        way."""
        base = _two_island_source(12)
        edited = base.replace("ga := 1", "ga := 1\n    gc := 1")
        assert edited != base
        _old, index = _indexed_summary(base)
        blob = index_to_bytes(index)

        treed, treed_stats = incremental_update_from_index(
            index_from_bytes(_with_legacy_tree(blob, ISLANDS_TREE)),
            compile_source(edited), reloaded=True)
        full, full_stats = incremental_update_from_index(
            index_from_bytes(blob), compile_source(edited), reloaded=True)

        assert summary_to_bytes(treed) == summary_to_bytes(full)
        assert summary_to_bytes(full) == summary_to_bytes(
            analyze_side_effects(edited))
        assert treed_stats.region_procs == full_stats.region_procs
        assert 0 < full_stats.region_procs < full_stats.total_procs

    def test_out_of_range_legacy_tree_is_ignored(self):
        """A well-formed trailer whose pid → shard map names a shard
        past its two scopes once crashed the next update with an
        ``IndexError``.  Now it loads as the tree-less index, and an
        update from it equals a scratch solve."""
        source = pretty(generate_program(NESTED))
        _summary, index = _indexed_summary(source)
        num_procs = len(index.proc_names)
        shard_of_pid = [0] * (num_procs - 1) + [num_procs + 6]
        blob = _with_legacy_tree(
            index_to_bytes(index), _root_over_leaves(shard_of_pid, 2))
        loaded = index_from_bytes(blob)
        assert loaded == index

        edited = source.replace(":= 1", ":= 4", 1)
        assert edited != source
        updated, stats = incremental_update_from_index(
            loaded, compile_source(edited), reloaded=True)
        assert summary_to_bytes(updated) == summary_to_bytes(
            analyze_side_effects(edited))
        assert stats.index_reloaded and not stats.full_resolve
        assert "tree_scoped" not in stats.to_dict()
        assert "tree_scan_procs" not in stats.to_dict()
