"""Alias-pair analysis and the DMOD → MOD factoring step (Section 5).

The production solver keeps partner masks only; the pair-set worklist
(:func:`repro.baselines.alias_pairs.compute_alias_pairs`) is its
oracle, table for table, on the 30-program sweep and the corpus.
"""

import pytest

from repro.baselines.alias_pairs import compute_alias_pairs
from repro.core.aliases import compute_aliases
from repro.core.arena import clear_arena_cache, get_arena
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.lang.semantic import compile_source
from repro.workloads import corpus
from repro.workloads.generator import generate_resolved
from repro.workloads.patterns import deep_nest

from tests.helpers import names
from tests.test_differential import CONFIGS, _config_id


def alias_pairs(source, proc_name):
    resolved = compile_source(source)
    result = compute_aliases(get_arena(resolved))
    assert_matches_oracle(resolved, result)
    proc = resolved.proc_named(proc_name)
    rendered = set()
    for pair in result.pairs_of(proc):
        first, second = sorted(
            resolved.variables[uid].qualified_name for uid in pair
        )
        rendered.add((first, second))
    return rendered


def assert_matches_oracle(resolved, result, universe=None):
    """Production tables equal the pair-set oracle's, and the pairs
    derived from them equal the oracle's own pair sets."""
    if universe is None:
        universe = get_arena(resolved).universe
    oracle = compute_alias_pairs(resolved, universe)
    assert result.partner_mask == oracle.partner_mask
    assert result.domain_mask == oracle.domain_mask
    for proc in resolved.procs:
        assert result.pairs_of(proc) == oracle.pairs[proc.pid]
    assert result.total_pairs() == oracle.total_pairs()


class TestIntroductionRules:
    def test_rule1_same_actual_twice(self):
        assert alias_pairs(
            """
            program t
              global g
              proc f(x, y) begin end
            begin call f(g, g) end
            """,
            "f",
        ) >= {("f::x", "f::y")}

    def test_rule3_visible_global_passed(self):
        assert alias_pairs(
            """
            program t
              global g
              proc f(x) begin end
            begin call f(g) end
            """,
            "f",
        ) == {("f::x", "g")}

    def test_local_passed_introduces_nothing(self):
        # A caller's local is invisible in the callee: no pair.
        assert alias_pairs(
            """
            program t
              proc p() local v begin call q(v) end
              proc q(y) begin end
            begin call p() end
            """,
            "q",
        ) == set()

    def test_rule2_aliased_actuals_propagate(self):
        # f's x,y are aliased (same global); passing both onward makes
        # h's formals aliased too.
        assert alias_pairs(
            """
            program t
              global g
              proc f(x, y) begin call h(x, y) end
              proc h(u, v) begin end
            begin call f(g, g) end
            """,
            "h",
        ) >= {("h::u", "h::v")}

    def test_rule4_alias_to_visible_variable_propagates(self):
        # x aliased to global g in f; passing x to h aliases h's formal
        # to g (still visible there).
        assert alias_pairs(
            """
            program t
              global g
              proc f(x) begin call h(x) end
              proc h(u) begin end
            begin call f(g) end
            """,
            "h",
        ) == {("g", "h::u")}

    def test_uplevel_local_visible_in_nested_callee(self):
        assert alias_pairs(
            """
            program t
              proc outer()
                local v
                proc inner(w) begin end
              begin
                call inner(v)
              end
            begin call outer() end
            """,
            "outer.inner",
        ) == {("outer.inner::w", "outer::v")}

    def test_recursive_propagation_reaches_fixpoint(self):
        pairs = alias_pairs(
            """
            program t
              global g
              proc f(x, n)
              begin
                if n > 0 then
                  call f(x, n - 1)
                end
              end
            begin call f(g, 3) end
            """,
            "f",
        )
        assert ("f::x", "g") in pairs

    def test_rule5_nested_procs_inherit_pairs(self):
        # The pair <outer::x, outer::y> holds on entry to outer (same
        # global passed twice) and must therefore also hold inside the
        # nested procedure — without it, the inner call to q would
        # not report y as modifiable (regression: fuzz seed 6003).
        pairs = alias_pairs(
            """
            program t
              global g
              proc outer(x, y)
                proc inner() begin call q(x) end
              begin call inner() end
              proc q(z) begin z := 1 end
            begin call outer(g, g) end
            """,
            "outer.inner",
        )
        assert ("outer::x", "outer::y") in pairs

    def test_rule5_makes_inner_call_mod_sound(self):
        summary = analyze_side_effects(
            compile_source(
                """
                program t
                  global g
                  proc outer(x, y)
                    proc inner() begin call q(x) end
                  begin call inner() end
                  proc q(z) begin z := 1 end
                begin call outer(g, g) end
                """
            )
        )
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "q"
        ][0]
        assert {"outer::x", "outer::y", "g"} <= names(summary.mod(site))

    def test_rule3_extant_but_shadowed_variable(self):
        # p passes its v to q; q declares its own v (shadowing the
        # name) but the outer instance is extant, so the pair must
        # still be introduced.
        pairs = alias_pairs(
            """
            program t
              proc p()
                local v
                proc q(w)
                  local v
                begin
                  w := 1
                end
              begin
                call q(v)
              end
            begin call p() end
            """,
            "p.q",
        )
        assert ("p.q::w", "p::v") in pairs

    def test_no_aliases_in_clean_program(self):
        assert alias_pairs(
            """
            program t
              global g, h
              proc f(x, y) begin end
            begin call f(g, h) end
            """,
            "f",
        ) == {("f::x", "g"), ("f::y", "h")}


class TestModFactoring:
    def test_mod_includes_alias_partners(self):
        summary = analyze_side_effects(
            compile_source(
                """
                program t
                  global g
                  proc p(x, y) begin call q(x) end
                  proc q(z) begin z := 1 end
                begin call p(g, g) end
                """
            )
        )
        site = summary.resolved.call_sites[1]  # p -> q.
        dmod = names(summary.dmod(site))
        mod = names(summary.mod(site))
        # q modifies only its formal, so DMOD maps it to the actual x.
        assert dmod == {"p::x"}
        # x is aliased to both y and g in p; factoring adds them.
        assert mod == {"p::x", "p::y", "g"}

    def test_mod_equals_dmod_without_aliases(self):
        summary = analyze_side_effects(
            compile_source(
                """
                program t
                  global g, h
                  proc f(x) begin x := 1 end
                begin call f(g) call f(h) end
                """
            )
        )
        for site in summary.resolved.call_sites:
            assert summary.mod(site) == summary.dmod(site)

    def test_one_step_not_transitive(self):
        # The paper specifies a single expansion step, not a closure:
        # only pairs involving a DMOD member fire.
        resolved = compile_source(
            """
            program t
              global g, h
              proc f(x, y) begin call q(x) end
              proc q(z) begin z := 1 end
            begin
              call f(g, g)
              call f(h, h)
            end
            """
        )
        summary = analyze_side_effects(resolved)
        site = [s for s in resolved.call_sites if s.callee.qualified_name == "q"][0]
        mod = names(summary.mod(site))
        # x's partners are y, g, h (x aliased to g at one site and to h
        # at the other): all legitimate one-step partners of a DMOD
        # member.  But h's partner-of-partner relationships must not
        # chain further than one step from the DMOD set.
        assert "f::x" in mod and "f::y" in mod

    def test_swaplib_corpus_aliasing(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["swaplib"])
        resolved = summary.resolved
        # order2 calls swap(x, y); swap modifies both formals, so DMOD
        # maps back to order2's formals; alias factoring then adds the
        # globals a, b, c that reach those formals through sort3 on
        # some call chain (flow-insensitive, so all three).
        site = [
            s for s in resolved.call_sites if s.callee.qualified_name == "swap"
        ][0]
        assert names(summary.dmod(site)) == {"order2::x", "order2::y"}
        assert names(summary.mod(site)) == {"order2::x", "order2::y", "a", "b", "c"}

    def test_alias_partner_masks_are_symmetric(self):
        resolved = compile_source(
            """
            program t
              global g
              proc f(x) begin end
            begin call f(g) end
            """
        )
        result = compute_aliases(get_arena(resolved))
        f = resolved.proc_named("f")
        x = resolved.var_named("f::x")
        g = resolved.var_named("g")
        partners = result.partner_mask[f.pid]
        assert partners[x.uid] >> g.uid & 1
        assert partners[g.uid] >> x.uid & 1
        assert result.may_alias(f, x, g)
        assert result.total_pairs() == 1


class TestOneSolver:
    """The mask drain against the pair-set oracle, and the shapes it
    pins."""

    @pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
    def test_sweep_matches_oracle(self, config):
        resolved = generate_resolved(config)
        clear_arena_cache()
        summary = analyze_side_effects(resolved)
        assert_matches_oracle(resolved, summary.aliases, summary.universe)

    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    def test_corpus_matches_oracle(self, name, corpus_programs):
        resolved = corpus_programs[name]
        clear_arena_cache()
        summary = analyze_side_effects(resolved)
        assert_matches_oracle(resolved, summary.aliases, summary.universe)

    @pytest.mark.parametrize("depth", [1, 2, 5, 13, 40, 80])
    def test_deep_nest_pair_count(self, depth):
        """Tower level k aliases every pair of {g, x_1..x_k}: the total
        is the tetrahedral number d(d+1)(d+2)/6."""
        resolved = compile_source(deep_nest(depth))
        result = compute_aliases(get_arena(resolved))
        assert result.total_pairs() == depth * (depth + 1) * (depth + 2) // 6
        if depth <= 13:
            assert_matches_oracle(resolved, result)

    def test_warm_start_matches_cold(self):
        """Carrying final tables and seeding a cone gives the cold
        result; carried tables are used by reference, never written."""
        resolved = generate_resolved(CONFIGS[7])
        arena = get_arena(resolved)
        cold = compute_aliases(arena)
        nested = [proc for proc in resolved.procs if proc.parent is not None]
        cone = {nested[0].pid} if nested else {resolved.procs[-1].pid}
        carried = [
            None if pid in cone else (dict(cold.partner_mask[pid]),
                                      cold.domain_mask[pid])
            for pid in range(resolved.num_procs)
        ]
        snapshot = [None if entry is None else dict(entry[0])
                    for entry in carried]
        seeds = set(cone)
        for proc in resolved.procs:
            if proc.pid in cone and proc.parent is not None:
                seeds.add(proc.parent.pid)
        for site in resolved.call_sites:
            if site.callee.pid in cone:
                seeds.add(site.caller.pid)
        warm = compute_aliases(arena, carried, seeds)
        assert warm.partner_mask == cold.partner_mask
        assert warm.domain_mask == cold.domain_mask
        for pid, entry in enumerate(carried):
            if entry is not None:
                assert warm.partner_mask[pid] is entry[0]
                assert entry[0] == snapshot[pid]
