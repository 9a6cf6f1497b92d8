"""End-to-end pipeline tests: API surface, determinism, and the GMOD
walk production picks against every oracle solver."""

import pytest

from repro import analyze_side_effects, compile_source
from repro.baselines.per_kind import analyze_per_kind
from repro.core.varsets import EffectKind
from repro.workloads import corpus, patterns
from repro.workloads.generator import GeneratorConfig, generate_resolved

from tests.helpers import gmod_names, mod_names, rmod_names


class TestApi:
    def test_accepts_source_text(self):
        summary = analyze_side_effects(patterns.chain(3))
        assert summary.resolved.num_procs == 4

    def test_accepts_resolved_program(self):
        resolved = compile_source(patterns.chain(3))
        summary = analyze_side_effects(resolved)
        assert summary.resolved is resolved

    def test_both_kinds_by_default(self):
        summary = analyze_side_effects(patterns.chain(3))
        assert set(summary.solutions) == {EffectKind.MOD, EffectKind.USE}

    def test_single_kind_selection(self):
        summary = analyze_side_effects(patterns.chain(3), kinds=(EffectKind.MOD,))
        assert set(summary.solutions) == {EffectKind.MOD}

    def test_report_renders(self):
        summary = analyze_side_effects(patterns.chain(2))
        report = summary.report()
        assert "GMOD" in report
        assert "site 0" in report

    def test_mask_and_symbol_accessors_agree(self):
        summary = analyze_side_effects(patterns.chain(3))
        site = summary.resolved.call_sites[0]
        mask = summary.mod_mask(site)
        symbols = summary.mod(site)
        assert set(summary.universe.to_symbols(mask)) == symbols

    def test_names_helper(self):
        summary = analyze_side_effects(patterns.chain(2))
        site = summary.resolved.call_sites[0]
        assert summary.names(summary.mod_mask(site)) == ["g"]


class TestMethodEquivalence:
    """Production runs one walk per nesting depth; every per-kind
    solver of the oracle must reach the same sets."""

    @pytest.mark.parametrize(
        "method", ["figure2", "multilevel", "per-level", "reference"]
    )
    def test_all_methods_same_answer_flat(self, method):
        resolved = generate_resolved(GeneratorConfig(seed=9, num_procs=25))
        production = analyze_side_effects(resolved)
        other = analyze_per_kind(resolved, gmod_method=method)
        for kind in (EffectKind.MOD, EffectKind.USE):
            assert production.solutions[kind].gmod == other.solutions[kind].gmod
            assert production.solutions[kind].mod == other.solutions[kind].mod

    @pytest.mark.parametrize(
        "method", ["multilevel", "per-level", "reference"]
    )
    def test_nested_methods_same_answer(self, method):
        resolved = generate_resolved(
            GeneratorConfig(seed=10, num_procs=25, max_depth=4, nesting_prob=0.5)
        )
        production = analyze_side_effects(resolved)
        other = analyze_per_kind(resolved, gmod_method=method)
        assert (
            production.solutions[EffectKind.MOD].gmod
            == other.solutions[EffectKind.MOD].gmod
        )

    def test_auto_picks_figure2_for_flat(self):
        summary = analyze_side_effects(patterns.chain(3))
        assert summary.solutions[EffectKind.MOD].gmod_method == "figure2"

    def test_auto_picks_multilevel_for_nested(self):
        summary = analyze_side_effects(patterns.deep_nest(3))
        assert summary.solutions[EffectKind.MOD].gmod_method == "multilevel"


class TestDeterminism:
    def test_repeated_analysis_identical(self):
        source = patterns.ring(5)
        first = analyze_side_effects(source)
        second = analyze_side_effects(source)
        for kind in (EffectKind.MOD, EffectKind.USE):
            assert first.solutions[kind].mod == second.solutions[kind].mod
            assert first.solutions[kind].gmod == second.solutions[kind].gmod

    def test_generator_is_deterministic(self):
        from repro.lang.pretty import pretty

        a = generate_resolved(GeneratorConfig(seed=42, num_procs=15))
        b = generate_resolved(GeneratorConfig(seed=42, num_procs=15))
        assert pretty(a.program) == pretty(b.program)


class TestCorpusFacts:
    def test_stats_summarize_mod(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["stats"])
        # main's call to summarize() may modify every accumulator
        # global but not n (only load() writes n) nor data.
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "summarize" and s.caller.is_main
        ][0]
        assert mod_names(summary, site.site_id) == {
            "total",
            "mean",
            "varsum",
            "variance",
            "minval",
            "maxval",
            "errflag",
        }

    def test_stats_load_mod(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["stats"])
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "load"
        ][0]
        assert mod_names(summary, site.site_id) == {"n", "data"}

    def test_stats_use_sets(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["stats"])
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "accumulate"
        ][0]
        assert mod_names(summary, site.site_id, EffectKind.USE) >= {"n", "data"}

    def test_bank_session_effects(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["bank"])
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "session"
        ][0]
        mod = mod_names(summary, site.site_id)
        assert {"balance", "fees", "audit"} <= mod
        # session's locals must not leak to main.
        assert not any(name.startswith("session::") for name in mod)

    def test_evaluator_scc_gmod(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["evaluator"])
        # expr/term/factor form one SCC: identical global effects.
        expected = {"pos", "value", "err"}
        for name in ("expr", "term", "factor"):
            gmod = gmod_names(summary, name)
            assert expected <= gmod

    def test_swaplib_rmod(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["swaplib"])
        assert rmod_names(summary, "swap") == {"x", "y"}
        assert rmod_names(summary, "order2") == {"x", "y"}
        assert rmod_names(summary, "sort3") == {"x", "y", "z"}
        assert rmod_names(summary, "clamp") == {"v"}

    def test_matrix_whole_array_mod(self, corpus_programs):
        summary = analyze_side_effects(corpus_programs["matrix"])
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "clear_row"
        ][0]
        assert mod_names(summary, site.site_id) == {"m"}
