"""Pins every set derived by hand in TUTORIAL.md (so the tutorial
cannot rot) and confirms the interpreter observes exactly the
aliasing-dependent effect the tutorial highlights."""

import pytest

from repro import analyze_side_effects, compile_source
from repro.core.aliases import compute_aliases
from repro.core.arena import get_arena
from repro.core.varsets import EffectKind
from repro.graphs.binding import build_binding_graph
from repro.lang.interp import run_program

from tests.helpers import gmod_names, names, rmod_names

SOURCE = """
program tutor
  global total, errors

  proc accumulate(amount, sink)
  begin
    sink := sink + amount
  end

  proc audit(value)
  begin
    if value < 0 then
      errors := errors + 1
    end
  end

  proc post(amount)
  begin
    call audit(amount)
    call accumulate(2, amount)
    call accumulate(amount, total)
  end

begin
  total := 0
  errors := 0
  call post(total)
end
"""


@pytest.fixture(scope="module")
def tutor():
    resolved = compile_source(SOURCE)
    return resolved, analyze_side_effects(resolved)


class TestStep1LocalSets:
    def test_imod(self, tutor):
        resolved, summary = tutor
        universe = summary.universe
        assert set(universe.to_names(summary.local.imod[
            resolved.proc_named("accumulate").pid])) == {"accumulate::sink"}
        assert set(universe.to_names(summary.local.imod[
            resolved.proc_named("audit").pid])) == {"errors"}
        assert set(universe.to_names(summary.local.imod[
            resolved.proc_named("post").pid])) == set()
        assert set(universe.to_names(summary.local.imod[
            resolved.main.pid])) == {"total", "errors"}


class TestStep2Beta:
    def test_edges(self, tutor):
        resolved, _ = tutor
        beta = build_binding_graph(resolved)
        edges = {
            (e.source.qualified_name, e.target.qualified_name)
            for e in beta.edges
        }
        assert edges == {
            ("post::amount", "audit::value"),
            ("post::amount", "accumulate::sink"),
            ("post::amount", "accumulate::amount"),
        }
        assert beta.num_edges == 3
        assert beta.nodes_with_edges == 4
        assert 2 * beta.num_edges >= beta.nodes_with_edges


class TestStep3Rmod:
    def test_rmod(self, tutor):
        _, summary = tutor
        assert rmod_names(summary, "accumulate") == {"sink"}
        assert rmod_names(summary, "audit") == set()
        assert rmod_names(summary, "post") == {"amount"}

    def test_ruse_mirror(self, tutor):
        _, summary = tutor
        assert rmod_names(summary, "accumulate", EffectKind.USE) == {
            "amount", "sink"}
        assert rmod_names(summary, "audit", EffectKind.USE) == {"value"}
        assert rmod_names(summary, "post", EffectKind.USE) == {"amount"}


class TestStep4ImodPlus:
    def test_imod_plus(self, tutor):
        resolved, summary = tutor
        solution = summary.solutions[EffectKind.MOD]
        universe = summary.universe
        assert set(universe.to_names(solution.imod_plus[
            resolved.proc_named("post").pid])) == {"post::amount", "total"}
        assert set(universe.to_names(solution.imod_plus[
            resolved.main.pid])) == {"total", "errors"}


class TestStep5Gmod:
    def test_gmod(self, tutor):
        _, summary = tutor
        assert gmod_names(summary, "accumulate") == {"accumulate::sink"}
        assert gmod_names(summary, "audit") == {"errors"}
        assert gmod_names(summary, "post") == {"post::amount", "total", "errors"}
        assert gmod_names(summary, "tutor") == {"total", "errors"}


class TestStep6DmodAliasesMod:
    def test_dmod(self, tutor):
        resolved, summary = tutor
        expected = {
            0: {"total", "errors"},
            1: {"errors"},
            2: {"post::amount"},
            3: {"total"},
        }
        for site in resolved.call_sites:
            assert names(summary.dmod(site)) == expected[site.site_id], site

    def test_alias_pairs(self, tutor):
        resolved, _ = tutor
        aliases = compute_aliases(get_arena(resolved))
        post_pairs = {
            tuple(sorted(resolved.variables[u].qualified_name for u in pair))
            for pair in aliases.pairs_of(resolved.proc_named("post"))
        }
        assert post_pairs == {("post::amount", "total")}
        acc_pairs = {
            tuple(sorted(resolved.variables[u].qualified_name for u in pair))
            for pair in aliases.pairs_of(resolved.proc_named("accumulate"))
        }
        assert ("accumulate::amount", "accumulate::sink") in acc_pairs

    def test_mod(self, tutor):
        resolved, summary = tutor
        expected = {
            0: {"total", "errors"},
            1: {"errors"},
            2: {"post::amount", "total"},
            3: {"total", "post::amount"},
        }
        for site in resolved.call_sites:
            assert names(summary.mod(site)) == expected[site.site_id], site

    def test_theorem2_counts_on_this_program(self, tutor):
        from repro.core.gmod import findgmod
        from repro.core.imod_plus import compute_imod_plus
        from repro.core.local import LocalAnalysis
        from repro.core.rmod import solve_rmod
        from repro.graphs.callgraph import build_call_graph

        resolved, summary = tutor
        universe = summary.universe
        local = LocalAnalysis(resolved, universe)
        rmod = solve_rmod(build_binding_graph(resolved), local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        result = findgmod(build_call_graph(resolved), imod_plus, universe)
        assert result.line8_count == 4
        assert result.line22_count == 4
        assert result.line17_count <= 4

    def test_interpreter_confirms_alias_effect(self, tutor):
        resolved, summary = tutor
        trace = run_program(resolved)
        assert trace.completed
        # Site 2 (`call accumulate(2, amount)`): at runtime amount IS
        # total, so total's storage is observed modified — exactly what
        # the alias factoring added to MOD.
        observed = names(trace.observed_mod[2])
        assert "total" in observed
        assert observed <= names(summary.mod(resolved.call_sites[2]))
