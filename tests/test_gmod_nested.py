"""Multi-level nesting tests — the Section 4 extension."""

import pytest

from repro.baselines.gmod_oracles import findgmod_per_level, solve_equation4_reference
from repro.core.gmod_nested import findgmod_multilevel
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


class TestDeepNestClosedForm:
    def check(self, solver):
        depth = 4
        resolved, universe, graph, imod_plus = setup(patterns.deep_nest(depth))
        result = solver(graph, imod_plus, universe)
        qualified = "n1"
        for level in range(2, depth + 1):
            qualified += ".n%d" % level
            owner_level = level - 1
            gmod = gmod_names(resolved, universe, result.gmod, qualified)
            # The level-λ local v{λ} (owned by n{λ}) is visible to the
            # deeper procedures and modified by the innermost, so it is
            # in GMOD of every procedure strictly deeper than n{λ} and
            # of n{λ} itself — but must be filtered above n{λ}.
            for var_level in range(1, depth + 1):
                var = "v%d" % var_level
                present = any(var in name for name in gmod)
                assert present == (var_level <= level), (qualified, var, gmod)
        # The global g is everywhere; level-2 locals never reach n1's
        # callers (main).
        main_gmod = gmod_names(
            resolved, universe, result.gmod, resolved.main.qualified_name
        )
        assert "g" in main_gmod
        assert not any("::v2" in name for name in main_gmod)

    def test_reference_solver(self):
        self.check(solve_equation4_reference)

    def test_per_level_solver(self):
        self.check(findgmod_per_level)

    def test_multilevel_solver(self):
        self.check(findgmod_multilevel)


class TestUpLevelFiltering:
    SOURCE = """
        program t
          global g
          proc owner()
            local v
            proc worker()
            begin
              v := 1
              g := 2
            end
          begin
            call worker()
          end
          proc outsider() begin call owner() end
        begin call outsider() end
        """

    @pytest.mark.parametrize(
        "solver", [solve_equation4_reference, findgmod_per_level, findgmod_multilevel]
    )
    def test_uplevel_local_stops_at_owner(self, solver):
        resolved, universe, graph, imod_plus = setup(self.SOURCE)
        result = solver(graph, imod_plus, universe)
        assert gmod_names(resolved, universe, result.gmod, "owner.worker") == {
            "owner::v",
            "g",
        }
        assert gmod_names(resolved, universe, result.gmod, "owner") == {
            "owner::v",
            "g",
        }
        # v is LOCAL(owner): the outsider must not see it.
        assert gmod_names(resolved, universe, result.gmod, "outsider") == {"g"}


class TestRecursiveNest:
    SOURCE = """
        program t
          global g
          proc outer(x)
            local state
            proc helper(n)
            begin
              state := state + n
              if n > 0 then
                call outer(n - 1)
              end
            end
          begin
            state := 0
            call helper(x)
            g := state
          end
        begin call outer(2) end
        """

    @pytest.mark.parametrize(
        "solver", [solve_equation4_reference, findgmod_per_level, findgmod_multilevel]
    )
    def test_cycle_spanning_levels(self, solver):
        # outer -> helper -> outer is an SCC spanning nesting levels 1
        # and 2 — the case the lowlink *vector* exists for.
        resolved, universe, graph, imod_plus = setup(self.SOURCE)
        result = solver(graph, imod_plus, universe)
        helper_gmod = gmod_names(resolved, universe, result.gmod, "outer.helper")
        outer_gmod = gmod_names(resolved, universe, result.gmod, "outer")
        assert "outer::state" in helper_gmod
        assert "outer::state" in outer_gmod
        assert "g" in helper_gmod and "g" in outer_gmod
        # A *different* activation's state must still be reported for
        # the recursive call, but main only sees the global.
        main_gmod = gmod_names(
            resolved, universe, result.gmod, resolved.main.qualified_name
        )
        assert main_gmod == {"g"}


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", range(15))
    def test_all_three_agree(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(
                seed=seed + 900,
                num_procs=45,
                max_depth=5,
                nesting_prob=0.6,
                recursion_prob=0.5,
            )
        )
        for kind in (EffectKind.MOD, EffectKind.USE):
            _, universe, graph, imod_plus = setup(resolved, kind)
            reference = solve_equation4_reference(graph, imod_plus, universe, kind).gmod
            per_level = findgmod_per_level(graph, imod_plus, universe, kind).gmod
            multilevel = findgmod_multilevel(graph, imod_plus, universe, kind).gmod
            assert per_level == reference
            assert multilevel == reference

    def test_two_level_degenerates_to_figure2_answer(self):
        from repro.core.gmod import findgmod

        resolved = generate_resolved(GeneratorConfig(seed=77, num_procs=30))
        _, universe, graph, imod_plus = setup(resolved)
        assert (
            findgmod_multilevel(graph, imod_plus, universe).gmod
            == findgmod(graph, imod_plus, universe).gmod
        )

    def test_main_only_program(self):
        resolved, universe, graph, imod_plus = setup(
            "program t global g begin g := 1 end"
        )
        result = findgmod_multilevel(graph, imod_plus, universe)
        assert gmod_names(resolved, universe, result.gmod, "t") == {"g"}


class TestCostShape:
    def test_multilevel_does_one_vector_op_per_edge(self):
        resolved = generate_resolved(
            GeneratorConfig(seed=5, num_procs=60, max_depth=5, nesting_prob=0.6)
        )
        _, universe, graph, imod_plus = setup(resolved)
        result = findgmod_multilevel(graph, imod_plus, universe)
        d_p = max(p.level for p in resolved.procs)
        # O(E + d_P * N) bit-vector steps, with small constants.
        bound = graph.num_edges + (d_p + 2) * graph.num_nodes
        assert result.counter.bit_vector_steps <= bound

    def test_per_level_cost_scales_with_levels(self):
        resolved = generate_resolved(
            GeneratorConfig(seed=6, num_procs=60, max_depth=5, nesting_prob=0.7)
        )
        _, universe, graph, imod_plus = setup(resolved)
        multi = findgmod_multilevel(graph, imod_plus, universe)
        per_level = findgmod_per_level(graph, imod_plus, universe)
        assert multi.counter.bit_vector_steps <= per_level.counter.bit_vector_steps
