"""Corpus-wide facts and invariants (every hand-written program)."""

import pytest

from repro import analyze_side_effects
from repro.baselines.per_kind import analyze_per_kind
from repro.core.varsets import EffectKind
from repro.lang.interp import run_program
from repro.workloads import corpus

from tests.helpers import assert_trace_sound, gmod_names, names, rmod_names


@pytest.fixture(scope="module")
def summaries(corpus_programs):
    return {
        name: analyze_side_effects(resolved)
        for name, resolved in corpus_programs.items()
    }


class TestCorpusWideInvariants:
    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    def test_runs_to_completion(self, name, corpus_programs):
        trace = run_program(corpus_programs[name], inputs=[3, 1, 4, 1, 5])
        assert trace.completed, (name, trace.reason)

    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    def test_dynamically_sound(self, name, corpus_programs, summaries):
        trace = run_program(corpus_programs[name], inputs=[3, 1, 4, 1, 5])
        assert_trace_sound(corpus_programs[name], trace, summaries[name])

    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    def test_all_procedures_reachable(self, name, summaries):
        assert summaries[name].call_graph.unreachable_procs() == []

    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    def test_every_solver_agrees(self, name, corpus_programs, summaries):
        production = summaries[name]
        for method in ("reference", "multilevel", "per-level"):
            other = analyze_per_kind(corpus_programs[name], gmod_method=method)
            for kind in (EffectKind.MOD, EffectKind.USE):
                assert other.solutions[kind].gmod == production.solutions[kind].gmod


class TestSchedulerFacts:
    """The three-level nested scheduler (multi-level GMOD in the wild)."""

    def test_nesting_levels(self, corpus_programs):
        resolved = corpus_programs["scheduler"]
        assert resolved.max_nesting_level == 3

    def test_charge_reaches_up_two_levels(self, summaries):
        # charge writes its grandparent's formal (budget) and its
        # parent's local (steps) plus a global.
        assert gmod_names(summaries["scheduler"], "dispatch.run_one.charge") == {
            "clock",
            "dispatch::budget",
            "dispatch.run_one::steps",
        }

    def test_run_one_filters_charge_locals_keeps_uplevels(self, summaries):
        gmod = gmod_names(summaries["scheduler"], "dispatch.run_one")
        assert "dispatch::budget" in gmod
        assert "dispatch.run_one::steps" in gmod
        # The cross-level recursion (run_one -> dispatch) brings in
        # done, but head/count of the *inner* activation are dispatch's
        # locals and must be filtered.
        assert "done" in gmod
        assert "dispatch::head" not in gmod

    def test_dispatch_rmod(self, summaries):
        assert rmod_names(summaries["scheduler"], "dispatch") == {"budget"}

    def test_main_sees_only_globals(self, summaries):
        summary = summaries["scheduler"]
        site = [
            s
            for s in summary.resolved.call_sites
            if s.caller.is_main and s.callee.qualified_name == "dispatch"
        ][0]
        assert names(summary.mod(site)) == {"clock", "done"}

    def test_scc_spans_levels(self, summaries):
        # dispatch and run_one are mutually recursive across levels 1/2.
        summary = summaries["scheduler"]
        from repro.graphs.scc import tarjan_scc

        graph = summary.call_graph
        component_of, _ = tarjan_scc(graph.num_nodes, graph.successors)
        dispatch = summary.resolved.proc_named("dispatch")
        run_one = summary.resolved.proc_named("dispatch.run_one")
        assert component_of[dispatch.pid] == component_of[run_one.pid]


class TestFormatterFacts:
    def test_put_line_mod(self, summaries):
        summary = summaries["formatter"]
        site = [
            s
            for s in summary.resolved.call_sites
            if s.callee.qualified_name == "put_line"
        ][0]
        assert names(summary.mod(site)) >= {"page", "dirty"}
        assert "width" not in names(summary.mod(site))

    def test_measure_is_parameter_only(self, summaries):
        assert gmod_names(summaries["formatter"], "measure") == {
            "measure::result"
        }
        assert rmod_names(summaries["formatter"], "measure") == {"result"}

    def test_render_use_includes_config(self, summaries):
        guse = gmod_names(summaries["formatter"], "render", EffectKind.USE)
        assert {"lines", "width"} <= guse

    def test_sections_row_vs_column(self, corpus_programs):
        from repro.sections import analyze_sections

        resolved = corpus_programs["formatter"]
        analysis = analyze_sections(resolved, EffectKind.MOD)
        page_uid = resolved.var_named("page").uid
        clear_site = [
            s for s in resolved.call_sites
            if s.callee.qualified_name == "clear_column"
        ][0]
        section = analysis.site_sections[clear_site.site_id][page_uid]
        assert section.classify() == "column"
        assert section.subs[1].value == 71

    def test_purity_grades(self, summaries):
        from repro.extensions.purity import Purity, classify_purity

        summary = summaries["formatter"]
        classified = classify_purity(summary)
        resolved = summary.resolved
        measure = classified[resolved.proc_named("measure").pid]
        put_line = classified[resolved.proc_named("put_line").pid]
        assert measure.grade is Purity.MUTATOR  # Writes its ref formal.
        assert put_line.grade is Purity.MUTATOR  # Writes page/dirty.


class TestBfsFacts:
    def test_runs_and_finds_target(self, corpus_programs):
        trace = run_program(corpus_programs["bfs"])
        assert trace.completed
        assert trace.output == [1, 4]  # Found, at distance 4.

    def test_search_effects(self, summaries):
        summary = summaries["bfs"]
        site = [
            s for s in summary.resolved.call_sites
            if s.callee.qualified_name == "search"
        ][0]
        assert names(summary.mod(site)) == {
            "dist", "found", "head", "queue", "tail"
        }
        assert names(summary.use(site)) == {
            "adj", "dist", "head", "queue", "tail", "target"
        }
        # The adjacency matrix is read-only through the whole search.
        assert "adj" not in names(summary.mod(site))

    def test_enqueue_is_queue_only(self, summaries):
        assert gmod_names(summaries["bfs"], "enqueue") == {"queue", "tail"}

    def test_dequeue_mod_and_use_split(self, summaries):
        summary = summaries["bfs"]
        assert gmod_names(summary, "dequeue") == {"head", "dequeue::out"}
        assert gmod_names(summary, "dequeue", EffectKind.USE) >= {
            "queue", "head"
        }

    def test_visit_reaches_enqueue(self, summaries):
        gmod = gmod_names(summaries["bfs"], "visit")
        assert {"dist", "queue", "tail"} <= gmod
        assert "adj" not in gmod
