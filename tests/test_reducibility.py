"""T1-T2 reducibility testing and the paper's no-reducibility claim."""

import pytest

from repro.core.varsets import EffectKind
from repro.graphs.callgraph import build_call_graph
from repro.graphs.reducibility import call_graph_reducible, t1_t2_reduce
from repro.lang.semantic import compile_source
from repro.workloads import corpus, patterns
from repro.workloads.generator import GeneratorConfig, generate_resolved


def result_of(source):
    return call_graph_reducible(build_call_graph(compile_source(source)))


class TestReduction:
    def test_single_node(self):
        result = t1_t2_reduce(1, [[]], 0)
        assert result.reducible
        assert result.t1_count == 0 and result.t2_count == 0

    def test_self_loop_removed_by_t1(self):
        result = t1_t2_reduce(2, [[1], [1]], 0)
        assert result.reducible
        assert result.t1_count == 1

    def test_chain_reducible(self):
        assert result_of(patterns.chain(8)).reducible

    def test_single_entry_ring_reducible(self):
        assert result_of(patterns.ring(6)).reducible

    def test_tree_reducible(self):
        assert result_of(patterns.call_tree(3, 2)).reducible

    def test_acyclic_always_reducible(self):
        for seed in range(5):
            resolved = generate_resolved(
                GeneratorConfig(seed=seed, num_procs=25, allow_recursion=False)
            )
            assert call_graph_reducible(build_call_graph(resolved)).reducible

    def test_corpus_reducibility(self, corpus_programs):
        for name, resolved in corpus_programs.items():
            result = call_graph_reducible(build_call_graph(resolved))
            # All hand corpus programs happen to be reducible; assert it
            # so a corpus change that silently flips this is noticed.
            assert result.reducible, name

    def test_two_entry_loop_irreducible(self):
        result = result_of(patterns.irreducible(1))
        assert not result.reducible
        assert result.residual_nodes > 1

    def test_many_irreducible_pairs(self):
        result = result_of(patterns.irreducible(4))
        assert not result.reducible
        # Each stuck pair leaves its two members in the residual core.
        assert result.residual_nodes >= 8

    def test_unreachable_nodes_ignored(self):
        # Node 2 unreachable: reduction works on the reachable part.
        result = t1_t2_reduce(3, [[1], [], [0]], 0)
        assert result.reducible


class TestNoReducibilityAssumption:
    """The closing claim of sections 2-4: the new algorithms do not
    need reducible graphs (unlike swift / elimination frameworks)."""

    @pytest.mark.parametrize("pairs", [1, 3, 6])
    def test_analysis_exact_on_irreducible_graphs(self, pairs):
        from repro import analyze_side_effects
        from repro.baselines.per_kind import analyze_per_kind

        resolved = compile_source(patterns.irreducible(pairs))
        assert not call_graph_reducible(build_call_graph(resolved)).reducible
        fast = analyze_side_effects(resolved)
        assert fast.solutions[EffectKind.MOD].gmod_method == "figure2"
        reference = analyze_per_kind(resolved, gmod_method="reference")
        for kind in (EffectKind.MOD, EffectKind.USE):
            assert fast.solutions[kind].gmod == reference.solutions[kind].gmod
            assert fast.solutions[kind].mod == reference.solutions[kind].mod

    def test_theorem2_bound_holds_on_irreducible_graphs(self):
        from repro.core.gmod import findgmod
        from repro.core.imod_plus import compute_imod_plus
        from repro.core.local import LocalAnalysis
        from repro.core.rmod import solve_rmod
        from repro.core.varsets import VariableUniverse
        from repro.graphs.binding import build_binding_graph

        resolved = compile_source(patterns.irreducible(5))
        universe = VariableUniverse(resolved)
        graph = build_call_graph(resolved)
        local = LocalAnalysis(resolved, universe)
        rmod = solve_rmod(build_binding_graph(resolved), local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        result = findgmod(graph, imod_plus, universe)
        assert result.line17_count <= graph.num_edges
        assert result.line22_count == graph.num_nodes

    def test_dynamic_soundness_on_irreducible_graph(self):
        from repro import analyze_side_effects
        from repro.lang.interp import run_program
        from tests.helpers import assert_trace_sound

        resolved = compile_source(patterns.irreducible(2))
        summary = analyze_side_effects(resolved)
        trace = run_program(resolved)
        assert trace.completed
        assert_trace_sound(resolved, trace, summary)
