"""findgmod (Figure 2) tests: correctness, Theorem 2 bounds, structure."""

import pytest

from repro.baselines.iterative import solve_gmod_iterative
from repro.baselines.naive import solve_gmod_naive
from repro.core.gmod import findgmod
from repro.baselines.gmod_oracles import solve_equation4_reference
from repro.core.imod_plus import compute_imod_plus
from repro.core.local import LocalAnalysis
from repro.core.rmod import solve_rmod
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.lang.semantic import compile_source
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_resolved


def setup(source_or_resolved, kind=EffectKind.MOD):
    if isinstance(source_or_resolved, str):
        resolved = compile_source(source_or_resolved)
    else:
        resolved = source_or_resolved
    universe = VariableUniverse(resolved)
    call_graph = build_call_graph(resolved)
    local = LocalAnalysis(resolved, universe)
    rmod = solve_rmod(build_binding_graph(resolved), local, kind)
    imod_plus = compute_imod_plus(resolved, local, rmod, kind)
    return resolved, universe, call_graph, imod_plus


def gmod_names(resolved, universe, gmod, proc_name):
    return set(universe.to_names(gmod[resolved.proc_named(proc_name).pid]))


class TestKnownAnswers:
    def test_straight_line(self):
        resolved, universe, graph, imod_plus = setup(
            """
            program t
              global g, h
              proc a() begin g := 1 call b() end
              proc b() begin h := 2 end
            begin call a() end
            """
        )
        result = findgmod(graph, imod_plus, universe)
        assert gmod_names(resolved, universe, result.gmod, "a") == {"g", "h"}
        assert gmod_names(resolved, universe, result.gmod, "b") == {"h"}

    def test_locals_filtered_on_propagation(self):
        resolved, universe, graph, imod_plus = setup(
            """
            program t
              global g
              proc a() begin call b() end
              proc b() local v begin v := 1 g := 2 end
            begin call a() end
            """
        )
        result = findgmod(graph, imod_plus, universe)
        assert gmod_names(resolved, universe, result.gmod, "b") == {"b::v", "g"}
        assert gmod_names(resolved, universe, result.gmod, "a") == {"g"}

    def test_formals_filtered_on_propagation(self):
        # b's formal is in GMOD(b) but must not leak into a caller that
        # passed a constant.
        resolved, universe, graph, imod_plus = setup(
            """
            program t
              global g
              proc a() begin call b(5) end
              proc b(y) begin y := 1 end
            begin call a() end
            """
        )
        result = findgmod(graph, imod_plus, universe)
        assert gmod_names(resolved, universe, result.gmod, "b") == {"b::y"}
        assert gmod_names(resolved, universe, result.gmod, "a") == set()

    def test_scc_members_share_global_effects(self):
        resolved, universe, graph, imod_plus = setup(patterns.ring(5))
        result = findgmod(graph, imod_plus, universe)
        shared = None
        for index in range(1, 6):
            mask = result.gmod[resolved.proc_named("r%d" % index).pid]
            globals_only = mask & universe.global_mask
            if shared is None:
                shared = globals_only
            assert globals_only == shared

    def test_bridged_sccs_one_way_flow(self):
        resolved, universe, graph, imod_plus = setup(patterns.two_sccs_bridged(3))
        result = findgmod(graph, imod_plus, universe)
        a_gmod = gmod_names(resolved, universe, result.gmod, "a1")
        b_gmod = gmod_names(resolved, universe, result.gmod, "b1")
        assert "gb" in a_gmod  # Downstream effects flow upstream.
        assert "ga" not in b_gmod  # But not the reverse.

    def test_call_tree_unions_leaf_effects(self):
        resolved, universe, graph, imod_plus = setup(patterns.call_tree(3, 2))
        result = findgmod(graph, imod_plus, universe)
        root = gmod_names(resolved, universe, result.gmod, "t0")
        assert {"lg0", "lg1", "lg2", "lg3"} <= root
        left = gmod_names(resolved, universe, result.gmod, "t1")
        assert {"lg0", "lg1"} <= left
        assert "lg2" not in left

    def test_fortran_style_suffix_union(self):
        resolved, universe, graph, imod_plus = setup(patterns.fortran_style(5, 10, 2))
        result = findgmod(graph, imod_plus, universe)
        # p3 modifies g3, g4 and calls p4 (g4, g5).
        assert gmod_names(resolved, universe, result.gmod, "p3") == {"g3", "g4", "g5"}

    def test_gmod_of_main_allowed_nonempty(self):
        # Footnote 3: GMOD(main) may be non-empty in this formulation.
        resolved, universe, graph, imod_plus = setup(patterns.fortran_style(3, 5))
        result = findgmod(graph, imod_plus, universe)
        main_name = resolved.main.qualified_name
        assert gmod_names(resolved, universe, result.gmod, main_name) != set()


class TestTheorem2:
    @pytest.mark.parametrize("seed", range(6))
    def test_step_bounds_exact(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(seed=seed, num_procs=40, recursion_prob=0.5)
        )
        resolved_, universe, graph, imod_plus = setup(resolved)
        result = findgmod(graph, imod_plus, universe)
        # Line 17 executes at most once per edge; line 22 exactly once
        # per vertex; line 8 exactly once per vertex.
        assert result.line17_count <= graph.num_edges
        assert result.line22_count == graph.num_nodes
        assert result.line8_count == graph.num_nodes
        assert (
            result.counter.bit_vector_steps
            == result.line8_count + result.line17_count + result.line22_count
        )

    def test_dense_scc_still_linear_steps(self):
        resolved, universe, graph, imod_plus = setup(patterns.ring(30))
        result = findgmod(graph, imod_plus, universe)
        assert result.line17_count <= graph.num_edges


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_on_random_flat_programs(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(seed=seed + 300, num_procs=35, recursion_prob=0.4)
        )
        for kind in (EffectKind.MOD, EffectKind.USE):
            _, universe, graph, imod_plus = setup(resolved, kind)
            fast = findgmod(graph, imod_plus, universe, kind)
            reference = solve_equation4_reference(graph, imod_plus, universe, kind)
            iterative = solve_gmod_iterative(graph, imod_plus, universe, kind)
            assert fast.gmod == reference.gmod == iterative

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_reachability_closure(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(seed=seed + 400, num_procs=25, recursion_prob=0.5)
        )
        _, universe, graph, imod_plus = setup(resolved)
        fast = findgmod(graph, imod_plus, universe)
        naive = solve_gmod_naive(graph, imod_plus, universe)
        assert fast.gmod == naive

    def test_restart_covers_unreachable_procs(self):
        resolved, universe, graph, imod_plus = setup(
            """
            program t
              global g
              proc used() begin g := 1 end
              proc orphan() begin g := 2 call used() end
            begin call used() end
            """
        )
        result = findgmod(graph, imod_plus, universe)
        assert gmod_names(resolved, universe, result.gmod, "orphan") == {"g"}

    def test_paper_exact_mode_skips_unreachable(self):
        resolved, universe, graph, imod_plus = setup(
            """
            program t
              global g
              proc used() begin g := 1 end
              proc orphan() begin g := 2 end
            begin call used() end
            """
        )
        result = findgmod(graph, imod_plus, universe, restart=False)
        orphan = resolved.proc_named("orphan")
        assert result.dfn[orphan.pid] == 0
        assert result.gmod[orphan.pid] == 0

    def test_dfn_assignment_order(self):
        resolved, universe, graph, imod_plus = setup(
            """
            program t
              proc a() begin call b() end
              proc b() begin end
            begin call a() end
            """
        )
        result = findgmod(graph, imod_plus, universe)
        main_pid = resolved.main.pid
        assert result.dfn[main_pid] == 1
        assert result.dfn[resolved.proc_named("a").pid] == 2
        assert result.dfn[resolved.proc_named("b").pid] == 3

    def test_components_assigned(self):
        resolved, universe, graph, imod_plus = setup(patterns.ring(4))
        result = findgmod(graph, imod_plus, universe)
        ring_components = {
            result.component_of[resolved.proc_named("r%d" % i).pid]
            for i in range(1, 5)
        }
        assert len(ring_components) == 1

    def test_naive_rejects_nested_programs(self):
        resolved = compile_source(patterns.deep_nest(3))
        _, universe, graph, imod_plus = setup(resolved)
        with pytest.raises(ValueError):
            solve_gmod_naive(graph, imod_plus, universe)
