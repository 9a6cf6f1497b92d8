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
from repro.shard.separator import KIND_LEAF
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
        assert index.tree_shard_of_pid is not None  # The v2 tree trailer too.
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                index_from_bytes(blob[:cut])

    def test_version_mismatch_is_loud(self):
        _summary, index = _indexed_summary(patterns.chain(3))
        blob = bytearray(index_to_bytes(index))
        assert blob[len(INDEX_MAGIC)] == INDEX_FORMAT_VERSION
        blob[len(INDEX_MAGIC)] = INDEX_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            index_from_bytes(bytes(blob))


class TestContainerEmbedding:
    def test_plain_summary_stays_v3(self):
        summary, _index = _indexed_summary(patterns.chain(4))
        blob = summary_to_bytes(summary)
        version = int.from_bytes(blob[4:6], "little")
        assert version == BINARY_FORMAT_VERSION - 1
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
    can never affect island ``b``, so a tree-scoped caller scan has a
    real region to cut away."""
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


class TestSeparatorTreeTrailer:
    """The version-2 trailer: the call-graph separator tree ships with
    the index and bounds the incremental caller scan."""

    def test_tree_fields_populated_and_sound(self):
        _summary, index = _indexed_summary(pretty(generate_program(NESTED)))
        num_procs = len(index.proc_names)
        assert index.tree_parent is not None
        assert len(index.tree_parent) == len(index.tree_kind)
        assert index.tree_parent.count(-1) == 1  # One root.
        num_shards = len(index.tree_node_of_shard)
        assert len(index.tree_scopes) == num_shards
        assert len(index.tree_shard_of_pid) == num_procs
        assert all(0 <= s < num_shards for s in index.tree_shard_of_pid)
        for shard_id, node_id in enumerate(index.tree_node_of_shard):
            assert index.tree_kind[node_id] == KIND_LEAF
        for shard_id, scope in enumerate(index.tree_scopes):
            assert shard_id in scope  # Every shard is in its own scope.
            assert all(0 <= s < num_shards for s in scope)

    def test_version_1_blob_reads_with_tree_fields_none(self):
        from dataclasses import replace

        _summary, index = _indexed_summary(patterns.chain(5))
        bare = replace(index, tree_parent=None, tree_kind=None,
                       tree_node_of_shard=None, tree_shard_of_pid=None,
                       tree_scopes=None)
        blob = bytearray(index_to_bytes(bare))
        assert blob[-1] == 0  # The tree-absent presence byte.
        # A version-1 blob is exactly this minus the trailer.
        blob[len(INDEX_MAGIC)] = 1
        again = index_from_bytes(bytes(blob[:-1]))
        assert again == bare
        # And the presence byte alone round-trips a tree-less v2 blob.
        assert index_from_bytes(index_to_bytes(bare)) == bare

    def test_tree_scoped_update_bounds_the_caller_scan(self):
        base = _two_island_source(40)
        edited = base.replace("ga := 1", "ga := 1\n    gc := 1")
        assert edited != base
        old, index = _indexed_summary(base)
        reloaded, stats = incremental_update_from_index(
            index_from_bytes(index_to_bytes(index)),
            compile_source(edited), reloaded=True)
        assert summary_to_bytes(reloaded) == summary_to_bytes(
            analyze_side_effects(edited))
        # The edit lives in island ``a``; the persisted tree proves
        # island ``b``'s shards are outside every affected scope, so
        # the reverse-adjacency build skips them.
        assert stats.tree_scoped
        assert 0 < stats.tree_scan_procs < stats.total_procs
        assert stats.to_dict()["tree_scan_procs"] == stats.tree_scan_procs

    def test_tree_scoped_update_matches_full_scan_region(self):
        """Tree-scoped and unscoped paths must agree on the re-solve
        region and the bytes — the tree only prunes the scan."""
        base = _two_island_source(12)
        edited = base.replace("ga := 1", "ga := 1\n    gc := 1")
        old, index = _indexed_summary(base)
        blob = index_to_bytes(index)

        from dataclasses import replace

        scoped, scoped_stats = incremental_update_from_index(
            index_from_bytes(blob), compile_source(edited), reloaded=True)
        stripped = replace(
            index_from_bytes(blob), tree_parent=None, tree_kind=None,
            tree_node_of_shard=None, tree_shard_of_pid=None,
            tree_scopes=None)
        full, full_stats = incremental_update_from_index(
            stripped, compile_source(edited), reloaded=True)

        assert summary_to_bytes(scoped) == summary_to_bytes(full)
        assert not full_stats.tree_scoped
        assert full_stats.tree_scan_procs in (0, full_stats.total_procs)
        assert scoped_stats.region_procs == full_stats.region_procs
