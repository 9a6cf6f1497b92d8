"""Differential oracle for the fused middle-end path.

The fused solver (``analyze_side_effects``) must be **bit-identical**
to the paper's per-kind solvers run one kind at a time
(:func:`repro.baselines.per_kind.analyze_per_kind`) under ``auto``,
the walk production runs — every set (RMOD, IMOD+, GMOD, DMOD, MOD),
per site and per procedure, *and* every per-kind
:class:`~repro.core.bitvec.OpCounter` tally, so the Theorem 2/4
exact-equality guards in ``test_linearity_guard.py`` speak for the
production path.  Its GMOD sets must also equal those of every other
per-kind solver.  Any fused-path optimisation that changes an answer
or a tally fails here first.

Also covered: the arena's condensation accounting (exactly one
``tarjan_scc``-equivalent pass per graph per analysis, shared across
kinds and across subsystems — the GMOD walk's components *are* the
call graph's condensation), the arena's lowering against the paper's
reference graph constructions, arena pickling, and a 50k-procedure
deep-chain regression guarding the iterative (non-recursive) graph
traversals.
"""

from __future__ import annotations

import pickle

import pytest

from repro.baselines.per_kind import analyze_per_kind
from repro.core.arena import ProgramArena, clear_arena_cache, get_arena
from repro.core.depindex import build_dependency_index
from repro.core.local import lmod_of, luse_of
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.graphs.scc import tarjan_scc_csr
from repro.lang.semantic import compile_source
from repro.sections.dependence import DependenceTester
from repro.workloads.generator import GeneratorConfig, generate_resolved
from repro.workloads.patterns import chain
from tests.test_differential import CONFIGS, _config_id

KINDS = (EffectKind.MOD, EffectKind.USE)


def _methods_for(resolved):
    methods = ["multilevel", "per-level", "reference", "auto"]
    if resolved.max_nesting_level <= 1:
        methods.append("figure2")
    return methods


def _assert_summaries_identical(fused, legacy, resolved, tag_base):
    for kind in KINDS:
        fast = fused.solutions[kind]
        slow = legacy.solutions[kind]
        tag = tag_base + (kind,)
        assert fast.rmod.node_value == slow.rmod.node_value, (tag, "RMOD")
        assert fast.rmod.proc_mask == slow.rmod.proc_mask, (tag, "RMOD mask")
        assert fast.imod_plus == slow.imod_plus, (tag, "IMOD+")
        assert fast.gmod == slow.gmod, (tag, "GMOD")
        assert fast.dmod == slow.dmod, (tag, "DMOD")
        assert fast.mod == slow.mod, (tag, "MOD")
        assert fast.gmod_method == slow.gmod_method, tag
        # The linearity theorems are stated as exact operation counts:
        # the fused path must charge each kind precisely the steps the
        # per-kind solver would have executed.
        assert fused.kind_counters[kind] == legacy.kind_counters[kind], (
            tag, fused.kind_counters[kind], legacy.kind_counters[kind]
        )
    assert fused.counter == legacy.counter, tag_base
    for site in resolved.call_sites:
        assert fused.mod(site) == legacy.mod(site), (tag_base, site)
        assert fused.use(site) == legacy.use(site), (tag_base, site)


def _assert_fused_identical(resolved):
    """Sets and tallies against the oracle's ``auto``; GMOD sets against
    each of its solvers."""
    fused = analyze_side_effects(resolved)
    for method in _methods_for(resolved):
        legacy = analyze_per_kind(resolved, gmod_method=method)
        if method == "auto":
            _assert_summaries_identical(fused, legacy, resolved, (method, "legacy"))
            continue
        for kind in KINDS:
            assert fused.solutions[kind].gmod == legacy.solutions[kind].gmod, (
                method, kind
            )


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_fused_matches_legacy_generated(config):
    """Bit-identity over the 30-program structural sweep."""
    _assert_fused_identical(generate_resolved(config))


def test_fused_matches_legacy_corpus(corpus_programs):
    """Bit-identity over the hand-written corpus (includes the deeply
    nested and aliasing-heavy programs)."""
    for resolved in corpus_programs.values():
        _assert_fused_identical(resolved)


def test_single_kind_slices_match_the_fused_pair():
    """Packing is per-slot independent: solving one kind alone gives
    the same masks and the same tallies as that kind's slot of the
    fused MOD+USE run."""
    resolved = generate_resolved(CONFIGS[0])
    both = analyze_side_effects(resolved)
    for kind in KINDS:
        alone = analyze_side_effects(resolved, kinds=(kind,))
        assert alone.solutions[kind].gmod == both.solutions[kind].gmod
        assert alone.solutions[kind].mod == both.solutions[kind].mod
        assert alone.kind_counters[kind] == both.kind_counters[kind]


def _flat_config():
    return GeneratorConfig(
        num_procs=16, num_globals=6, seed=77, max_depth=1, nesting_prob=0.0
    )


def _nested_config():
    return GeneratorConfig(
        num_procs=16, num_globals=6, seed=78, max_depth=3, nesting_prob=0.7
    )


def test_condensation_counts_walk_methods():
    """One β Tarjan and one call-graph walk per analysis; the β pass is
    cached on the arena, so a second analysis re-runs only the embedded
    Figure 2 / multi-level walk."""
    for config, method in (
        (_flat_config(), "figure2"),
        (_nested_config(), "multilevel"),
    ):
        resolved = generate_resolved(config)
        clear_arena_cache()
        first = analyze_side_effects(resolved)
        assert first.solutions[EffectKind.MOD].gmod_method == method
        assert first.condensations == {"beta": 1, "call": 1}, method
        second = analyze_side_effects(resolved)
        assert second.condensations == {"call": 1}, method


def _assert_one_call_condensation(resolved, tag):
    """After one analysis, the consumers of the call graph's
    condensation read the GMOD walk's record: no further pass, and the
    record is exactly Tarjan's."""
    clear_arena_cache()
    summary = analyze_side_effects(resolved)
    assert summary.condensations == {"beta": 1, "call": 1}, tag
    arena = get_arena(resolved)
    counts = dict(arena.condensation_counts)
    record = arena.call_condensation()
    build_dependency_index(summary)  # Reads the cached arena.
    DependenceTester(resolved)
    assert arena.condensation_counts == counts, tag
    csr = arena.call_csr
    assert record == tarjan_scc_csr(csr.num_nodes, csr.heads, csr.succ), tag


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_one_call_graph_condensation_per_analysis(config):
    _assert_one_call_condensation(generate_resolved(config), _config_id(config))


def test_one_call_graph_condensation_per_analysis_corpus(corpus_programs):
    for name, resolved in corpus_programs.items():
        _assert_one_call_condensation(resolved, name)


def test_sections_and_partitioner_share_the_arena_condensation():
    """The §6 sections solver reuses the arena's call-graph
    condensation instead of running its own.  (The shard partitioner
    that once shared it too is gone; the sections half stays.)"""
    from repro.sections.dependence import DependenceTester

    resolved = generate_resolved(_flat_config())
    clear_arena_cache()
    arena = get_arena(resolved)
    analyze_side_effects(resolved, arena=arena)
    base = arena.snapshot_condensations()
    assert base == {"beta": 1, "call": 1}

    tester = DependenceTester(resolved)  # Solves both MOD and USE.
    assert arena.snapshot_condensations() == base
    assert tester.mod.grs and tester.use.grs


def _flatten(successors, edge_sites):
    """CSR arrays of a list-of-lists graph, in its successor order."""
    heads = [0]
    succ = []
    edge_site = []
    for targets, sites in zip(successors, edge_sites):
        succ.extend(targets)
        edge_site.extend(sites)
        heads.append(len(succ))
    return heads, succ, edge_site


def _assert_arena_matches_references(resolved, tag):
    """A fresh arena equals the paper's reference constructions
    (``build_call_graph``, ``build_binding_graph``) and a direct walk of
    the call sites: graphs, both CSRs and the flat site tables."""
    arena = ProgramArena(resolved)
    calls = build_call_graph(resolved)
    beta = build_binding_graph(resolved)

    got = arena.call_graph
    call_sites = [[s.site_id for s in sites] for sites in calls.edge_sites]
    assert got.successors == calls.successors, tag
    assert got.predecessors == calls.predecessors, tag
    assert [[s.site_id for s in sites] for sites in got.edge_sites] == call_sites, tag
    csr = arena.call_csr
    assert csr.num_nodes == resolved.num_procs, tag
    assert (csr.heads, csr.succ, csr.edge_site) == _flatten(
        calls.successors, call_sites
    ), tag

    got = arena.binding_graph
    assert got.formals == beta.formals, tag
    assert got.node_of_uid == beta.node_of_uid, tag
    assert got.successors == beta.successors, tag
    assert got.edges == beta.edges, tag
    assert arena.beta_formal_pid == [f.proc.pid for f in beta.formals], tag
    assert arena.beta_formal_uid == [f.uid for f in beta.formals], tag
    # β's CSR in binding-event order: each node's edges in the order
    # its events occur, each with its site id.
    targets = [[] for _ in beta.formals]
    sites = [[] for _ in beta.formals]
    for edge in beta.edges:
        source = beta.node_of(edge.source)
        targets[source].append(beta.node_of(edge.target))
        sites[source].append(edge.site.site_id)
    assert targets == beta.successors, tag
    csr = arena.beta_csr
    assert csr.num_nodes == len(beta.formals), tag
    assert (csr.heads, csr.succ, csr.edge_site) == _flatten(targets, sites), tag

    num_sites = resolved.num_call_sites
    assert len(arena.site_ref_heads) == num_sites + 1, tag
    assert arena.site_ref_heads[0] == 0, tag
    assert arena.site_ref_heads[-1] == len(arena.ref_formal_uid), tag
    assert len(arena.ref_base_uid) == len(arena.ref_formal_node) == len(
        arena.ref_formal_uid
    ), tag
    for site in resolved.call_sites:
        sid = site.site_id
        where = (tag, sid)
        assert arena.site_caller[sid] == site.caller.pid, where
        assert arena.site_callee[sid] == site.callee.pid, where
        assert arena.site_lmod[sid] == lmod_of(site.stmt), where
        assert arena.site_luse[sid] == luse_of(site.stmt), where
        formals = site.callee.formals
        refs = [
            (formals[b.position].uid, b.base.uid)
            for b in site.bindings
            if b.by_reference
        ]
        lo, hi = arena.site_ref_heads[sid], arena.site_ref_heads[sid + 1]
        assert list(zip(arena.ref_formal_uid[lo:hi],
                        arena.ref_base_uid[lo:hi])) == refs, where
        assert arena.ref_formal_node[lo:hi] == [
            beta.node_of_uid[formal_uid] for formal_uid, _ in refs
        ], where


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_arena_matches_reference_graphs(config):
    _assert_arena_matches_references(
        generate_resolved(config), _config_id(config)
    )


def test_arena_matches_reference_graphs_corpus(corpus_programs):
    for name, resolved in corpus_programs.items():
        _assert_arena_matches_references(resolved, name)


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_arena_matches_reference_graphs_nested(seed):
    config = GeneratorConfig(
        num_procs=30, num_globals=8, seed=seed, max_depth=4, nesting_prob=0.7
    )
    resolved = generate_resolved(config)
    assert resolved.max_nesting_level >= 2
    _assert_arena_matches_references(resolved, seed)


def test_arena_pickle_round_trip():
    """The arena crosses process boundaries: a pickled clone carries
    the same lowering and produces the same analysis."""
    resolved = generate_resolved(_nested_config())
    clear_arena_cache()
    arena = get_arena(resolved)
    baseline = analyze_side_effects(resolved, arena=arena)

    clone = pickle.loads(pickle.dumps(arena))
    assert clone is not arena
    assert clone.call_csr.heads == arena.call_csr.heads
    assert clone.call_csr.succ == arena.call_csr.succ
    assert clone.beta_csr.heads == arena.beta_csr.heads
    assert clone.beta_csr.succ == arena.beta_csr.succ
    assert clone.site_ref_heads == arena.site_ref_heads
    assert clone.ref_base_uid == arena.ref_base_uid
    assert clone.width == arena.width

    redo = analyze_side_effects(clone.resolved, arena=clone)
    for kind in KINDS:
        assert redo.solutions[kind].gmod == baseline.solutions[kind].gmod
        assert redo.solutions[kind].mod == baseline.solutions[kind].mod
        assert redo.kind_counters[kind] == baseline.kind_counters[kind]


def test_deep_chain_50k_procs_stays_iterative():
    """``main → c1 → … → c50000``: every graph walk (Tarjan over β and
    the call graph, Figure 2's DFS, the RMOD sweep) must be iterative —
    a recursive formulation dies at Python's recursion limit three
    orders of magnitude earlier.  Closed form: RMOD(ci) = {x} all the
    way up and MOD of main's call is exactly {g}."""
    resolved = compile_source(chain(50_000))
    clear_arena_cache()
    try:
        summary = analyze_side_effects(resolved, kinds=(EffectKind.MOD,))
        solution = summary.solutions[EffectKind.MOD]
        assert all(solution.rmod.node_value)
        (main_site,) = [
            site for site in resolved.call_sites
            if site.caller is resolved.main
        ]
        assert {v.qualified_name for v in summary.mod(main_site)} == {"g"}
        assert summary.condensations == {"beta": 1, "call": 1}
    finally:
        clear_arena_cache()  # Drop the 50k-node arena.
