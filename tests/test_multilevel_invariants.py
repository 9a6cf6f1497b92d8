"""Structural invariants of the §4 lowlink-vector algorithm.

The paper's sketch rests on two properties: per-level lowlinks are
ordered ("the lowlink for the problem at level i less than or equal to
the lowlink for the problem at level i+1") and level-i regions nest, so
a node closes a suffix of levels, deepest first.  The implementation
can assert both at every node exit; these tests run it in that mode on
every nesting shape we have."""

import pytest

from repro.baselines.gmod_oracles import solve_equation4_reference
from repro.core.gmod_nested import findgmod_multilevel
from repro.core.imod_plus import compute_imod_plus
from repro.core.local import LocalAnalysis
from repro.core.rmod import solve_rmod
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.lang.semantic import compile_source
from repro.workloads import corpus, patterns
from repro.workloads.generator import GeneratorConfig, generate_resolved


def run_checked(resolved, kind=EffectKind.MOD):
    universe = VariableUniverse(resolved)
    graph = build_call_graph(resolved)
    local = LocalAnalysis(resolved, universe)
    rmod = solve_rmod(build_binding_graph(resolved), local, kind)
    imod_plus = compute_imod_plus(resolved, local, rmod, kind)
    checked = findgmod_multilevel(
        graph, imod_plus, universe, kind, check_invariants=True
    )
    reference = solve_equation4_reference(graph, imod_plus, universe, kind)
    assert checked.gmod == reference.gmod
    return checked


class TestInvariantsHold:
    def test_deep_nest(self):
        run_checked(compile_source(patterns.deep_nest(5)))

    def test_scheduler_corpus(self, corpus_programs):
        run_checked(corpus_programs["scheduler"])

    def test_cross_level_recursion(self):
        run_checked(
            compile_source(
                """
                program t
                  global g
                  proc outer(x)
                    proc helper(n)
                    begin
                      g := n
                      if n > 0 then
                        call outer(n - 1)
                      end
                    end
                  begin
                    call helper(x)
                  end
                begin call outer(2) end
                """
            )
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_random_nested_programs(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(
                seed=seed + 55_000,
                num_procs=30,
                max_depth=1 + seed % 6,
                nesting_prob=0.6,
                recursion_prob=0.5,
            )
        )
        for kind in (EffectKind.MOD, EffectKind.USE):
            run_checked(resolved, kind)

    def test_flat_program_trivial_vector(self):
        run_checked(compile_source(patterns.ring(5)))
