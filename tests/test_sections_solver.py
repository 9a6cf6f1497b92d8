"""Interprocedural regular-section analysis tests (Section 6)."""

import pytest

from repro import analyze_side_effects
from repro.baselines.sections_sweep import analyze_sections_sweep
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.semantic import compile_source
from repro.sections import analyze_sections
from repro.sections.descriptors import local_sections_of
from repro.sections.lattice import Section, SubKind
from repro.workloads import corpus
from repro.workloads.generator import GeneratorConfig, generate_resolved

ROW_COL_SOURCE = """
program demo
  global array m[8][8]
  global g
  proc touch_col(t, c)
    local i
  begin
    for i := 0 to 7 do
      t[i][c] := 1
    end
  end
  proc touch_row(t, r)
    local j
  begin
    for j := 0 to 7 do
      t[r][j] := 2
    end
  end
  proc one(t, r, c)
  begin
    t[r][c] := 3
  end
  proc both(t, k)
  begin
    call touch_row(t, k)
    call touch_col(t, k)
  end
begin
  call touch_col(m, 2)
  call touch_row(m, 5)
  call one(m, 1, 1)
  call both(m, g)
end
"""


def section_at_site(analysis, resolved, callee_name, var_name):
    site = [
        s for s in resolved.call_sites if s.callee.qualified_name == callee_name
    ][0]
    return analysis.site_section(site, var_name)


class TestLocalExtraction:
    def test_constant_and_formal_subscripts(self):
        resolved = compile_source(
            """
            program t
              global array m[4][4]
              proc f(i) begin m[i][3] := 0 end
            begin call f(1) end
            """
        )
        proc = resolved.proc_named("f")
        table = local_sections_of(proc, EffectKind.MOD)
        section = table[resolved.var_named("m").uid]
        assert section.subs[0].kind is SubKind.FORMAL
        assert section.subs[1].kind is SubKind.CONST
        assert section.subs[1].value == 3

    def test_local_variable_subscript_is_star(self):
        resolved = compile_source(
            """
            program t
              global array m[4]
              proc f() local i begin m[i] := 0 end
            begin call f() end
            """
        )
        proc = resolved.proc_named("f")
        table = local_sections_of(proc, EffectKind.MOD)
        assert table[resolved.var_named("m").uid].subs[0].is_unknown

    def test_multiple_accesses_meet(self):
        resolved = compile_source(
            """
            program t
              global array m[4][4]
              proc f(i, j)
              begin
                m[i][j] := 1
                m[2][j] := 2
              end
            begin call f(0, 1) end
            """
        )
        table = local_sections_of(resolved.proc_named("f"), EffectKind.MOD)
        section = table[resolved.var_named("m").uid]
        assert section.subs[0].is_unknown  # i ∧ 2 = *.
        assert section.subs[1].kind is SubKind.FORMAL

    def test_use_side_extraction(self):
        resolved = compile_source(
            """
            program t
              global array m[4]
              global g
              proc f(i) begin g := m[i] end
            begin call f(1) end
            """
        )
        table = local_sections_of(resolved.proc_named("f"), EffectKind.USE)
        assert resolved.var_named("m").uid in table
        assert resolved.var_named("g").uid not in table


class TestRowColumnElement:
    def setup_method(self):
        self.resolved = compile_source(ROW_COL_SOURCE)
        self.analysis = analyze_sections(self.resolved, EffectKind.MOD)

    def test_column_call(self):
        section = section_at_site(self.analysis, self.resolved, "touch_col", "m")
        assert section.classify() == "column"
        assert section.subs[1].kind is SubKind.CONST
        assert section.subs[1].value == 2

    def test_row_call(self):
        section = section_at_site(self.analysis, self.resolved, "touch_row", "m")
        assert section.classify() == "row"
        assert section.subs[0].value == 5

    def test_element_call(self):
        section = section_at_site(self.analysis, self.resolved, "one", "m")
        assert section.classify() == "element"

    def test_row_meet_column_is_whole(self):
        section = section_at_site(self.analysis, self.resolved, "both", "m")
        assert section.is_whole

    def test_grs_keeps_symbolic_formals(self):
        touch_col = self.resolved.proc_named("touch_col")
        section = self.analysis.section_of(touch_col, "touch_col::t")
        assert section.classify() == "column"
        assert section.subs[1].kind is SubKind.FORMAL
        assert section.render("t", ("t", "c")) == "t(*,c)"

    def test_describe_site(self):
        site = self.resolved.call_sites[0]
        rendered = self.analysis.describe_site(site)
        assert rendered == ["m(*,2)"]


class TestTransitiveTranslation:
    def test_formal_subscript_translates_through_two_calls(self):
        resolved = compile_source(
            """
            program t
              global array m[8][8]
              proc outer(t, k) begin call inner(t, k) end
              proc inner(u, c)
                local i
              begin
                for i := 0 to 7 do
                  u[i][c] := 0
                end
              end
            begin call outer(m, 3) end
            """
        )
        analysis = analyze_sections(resolved, EffectKind.MOD)
        outer = resolved.proc_named("outer")
        section = analysis.section_of(outer, "outer::t")
        # inner's u(*,c) must translate to outer's t(*,k).
        assert section.classify() == "column"
        assert section.subs[1].kind is SubKind.FORMAL
        # And at main's site, k := 3 makes it m(*,3).
        site_section = section_at_site(analysis, resolved, "outer", "m")
        assert site_section.subs[1].kind is SubKind.CONST
        assert site_section.subs[1].value == 3

    def test_element_binding_embeds_scalar_access(self):
        resolved = compile_source(
            """
            program t
              global array m[8]
              proc set(x) begin x := 1 end
              proc driver(a, i) begin call set(a[i]) end
            begin call driver(m, 2) end
            """
        )
        analysis = analyze_sections(resolved, EffectKind.MOD)
        driver = resolved.proc_named("driver")
        section = analysis.section_of(driver, "driver::a")
        assert section.rank == 1
        assert section.subs[0].kind is SubKind.FORMAL  # a(i).

    def test_recursive_column_walk_stays_column(self):
        # The divide-and-conquer shape the paper's cycle restriction is
        # about: recursion passes the same array and column onward, so
        # the fixpoint must stay at "column", not widen to whole.
        resolved = compile_source(
            """
            program t
              global array m[8][8]
              proc walk(t, c, n)
                local i
              begin
                for i := 0 to 7 do
                  t[i][c] := n
                end
                if n > 0 then
                  call walk(t, c, n - 1)
                end
              end
            begin call walk(m, 4, 3) end
            """
        )
        analysis = analyze_sections(resolved, EffectKind.MOD)
        walk = resolved.proc_named("walk")
        section = analysis.section_of(walk, "walk::t")
        assert section.classify() == "column"
        site_section = section_at_site(analysis, resolved, "walk", "m")
        assert site_section.render("m") == "m(*,4)"

    def test_recursive_shifting_column_widens(self):
        # Passing c+1 (an expression, by value) breaks the symbolic
        # link: the recursive contribution's column becomes '*'.
        resolved = compile_source(
            """
            program t
              global array m[8][8]
              proc walk(t, c, n)
                local i
              begin
                for i := 0 to 7 do
                  t[i][c] := n
                end
                if n > 0 then
                  call walk(t, c + 1, n - 1)
                end
              end
            begin call walk(m, 0, 3) end
            """
        )
        analysis = analyze_sections(resolved, EffectKind.MOD)
        walk = resolved.proc_named("walk")
        section = analysis.section_of(walk, "walk::t")
        assert section.is_whole


class TestConsistencyWithBitAnalysis:
    @pytest.mark.parametrize("seed", range(8))
    def test_nonbottom_set_equals_gmod(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(
                seed=seed + 700,
                num_procs=20,
                max_depth=3,
                nesting_prob=0.4,
                array_global_fraction=0.3,
            )
        )
        summary = analyze_side_effects(resolved)
        for kind in (EffectKind.MOD, EffectKind.USE):
            analysis = analyze_sections(resolved, kind)
            for proc in resolved.procs:
                assert analysis.nonbottom_mask(proc.pid) == summary.solutions[kind].gmod[proc.pid], (
                    proc.qualified_name, kind)

    def test_corpus_matrix_consistency(self, corpus_programs):
        resolved = corpus_programs["matrix"]
        summary = analyze_side_effects(resolved)
        analysis = analyze_sections(resolved, EffectKind.MOD)
        for proc in resolved.procs:
            assert analysis.nonbottom_mask(proc.pid) == summary.solutions[
                EffectKind.MOD
            ].gmod[proc.pid]

    def test_iteration_counts_small(self, corpus_programs):
        for resolved in corpus_programs.values():
            analysis = analyze_sections(resolved, EffectKind.MOD)
            assert all(count <= 4 for count in analysis.component_iterations)


class TestSweepOracle:
    """The delta-driven solve against the whole-map sweep it replaced:
    the same sections and site tables, the same sweeps per component,
    and never more meets."""

    @pytest.mark.parametrize("lattice", ["figure3", "ranges"])
    @pytest.mark.parametrize("kind", [EffectKind.MOD, EffectKind.USE],
                             ids=["mod", "use"])
    def test_corpus_matches_sweep(self, corpus_programs, kind, lattice):
        for name, resolved in corpus_programs.items():
            solved = analyze_sections(resolved, kind, lattice)
            sweep = analyze_sections_sweep(resolved, kind, lattice)
            assert solved.grs == sweep.grs, name
            assert solved.site_sections == sweep.site_sections, name
            assert solved.component_iterations == sweep.component_iterations, name
            assert (solved.counter.meet_operations
                    <= sweep.counter.meet_operations), name

    def test_evaluator_and_scheduler_meet_fewer(self, corpus_programs):
        """Where a component is swept more than once, each fact is
        translated once per change instead of once per sweep."""
        for name, solved_meets, sweep_meets in (("evaluator", 16, 30),
                                                ("scheduler", 11, 21)):
            resolved = corpus_programs[name]
            solved = analyze_sections(resolved, EffectKind.MOD)
            sweep = analyze_sections_sweep(resolved, EffectKind.MOD)
            assert solved.counter.meet_operations == solved_meets, name
            assert sweep.counter.meet_operations == sweep_meets, name
