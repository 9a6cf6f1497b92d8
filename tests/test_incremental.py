"""Incremental re-analysis tests: equality with from-scratch + reuse."""

import copy

import pytest

from repro import analyze_side_effects
from repro.core import incremental as engine
from repro.core.depindex import build_dependency_index
from repro.core.incremental import _dirty_from_index, incremental_update
from repro.core.pipeline import result_meta
from repro.core.varsets import EffectKind
from repro.lang.builder import ProgramBuilder
from repro.lang.nodes import Assign, IntLit, VarRef
from repro.lang.semantic import analyze, compile_source
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_program


def reparse(source):
    return compile_source(source)


def assert_same_solution(incremental, scratch):
    for kind in (EffectKind.MOD, EffectKind.USE):
        left = incremental.solutions[kind]
        right = scratch.solutions[kind]
        assert left.gmod == right.gmod
        assert left.dmod == right.dmod
        assert left.mod == right.mod
        assert left.rmod.node_value == right.rmod.node_value


def dirty_procedures(old, new):
    """The index diff an update runs: ``new`` against the index of
    ``old``'s analysis."""
    return _dirty_from_index(
        build_dependency_index(analyze_side_effects(old)), new
    )


class TestDirtyDetection:
    def test_identical_versions_nothing_dirty(self):
        old = reparse(patterns.chain(4))
        new = reparse(patterns.chain(4))
        assert dirty_procedures(old, new) == set()

    def test_changed_body_detected(self):
        old = reparse(patterns.chain(4))
        new = reparse(patterns.chain(4).replace("x := 1", "x := 2"))
        assert dirty_procedures(old, new) == {"c4"}

    def test_added_procedure_detected(self):
        old = reparse("program t proc a() begin end begin call a() end")
        new = reparse(
            "program t proc a() begin end proc b() begin end "
            "begin call a() call b() end"
        )
        dirty = dirty_procedures(old, new)
        assert "b" in dirty
        assert "t" in dirty  # Main body changed too.

    def test_removed_procedure_dirties_parent(self):
        old = reparse(
            """
            program t
              proc outer()
                proc gone() begin end
              begin call gone() end
            begin call outer() end
            """
        )
        new = reparse(
            """
            program t
              proc outer()
              begin end
            begin call outer() end
            """
        )
        assert "outer" in dirty_procedures(old, new)

    def test_signature_change_detected(self):
        old = reparse("program t proc f(a) begin end begin call f(1) end")
        new = reparse("program t proc f(a, b) begin end begin call f(1, 2) end")
        assert "f" in dirty_procedures(old, new)


def edit_chain_tail(length):
    """chain(length) with the tail's assignment changed."""
    return patterns.chain(length).replace("x := 1", "x := 41")


def edit_chain_head(length):
    """chain(length) with a global write added to the first link."""
    return patterns.chain(length).replace(
        "proc c1(x)\n  begin",
        "proc c1(x)\n  begin\n    g := 9",
    )


class TestEquivalence:
    def test_tail_edit(self):
        old = analyze_side_effects(reparse(patterns.chain(6)))
        new_resolved = reparse(edit_chain_tail(6))
        incremental, stats = incremental_update(old, new_resolved)
        scratch = analyze_side_effects(new_resolved)
        assert_same_solution(incremental, scratch)
        assert stats.dirty_procs == ["c6"]

    def test_semantic_tail_edit_propagates(self):
        # Remove the modification entirely: every RMOD/GMOD up the
        # chain must shrink, and incremental must track that shrink.
        old = analyze_side_effects(reparse(patterns.chain(6)))
        new_resolved = reparse(patterns.chain(6).replace("x := 1", "g := 1"))
        incremental, stats = incremental_update(old, new_resolved)
        scratch = analyze_side_effects(new_resolved)
        assert_same_solution(incremental, scratch)
        c1 = new_resolved.proc_named("c1")
        assert incremental.solutions[EffectKind.MOD].rmod.formals_of(c1.pid) == []

    def test_head_edit(self):
        old = analyze_side_effects(reparse(patterns.chain(6)))
        incremental, stats = incremental_update(old, reparse(edit_chain_head(6)))
        scratch = analyze_side_effects(reparse(edit_chain_head(6)))
        assert_same_solution(incremental, scratch)

    def test_identity_edit_full_reuse(self):
        old = analyze_side_effects(reparse(patterns.chain(6)))
        incremental, stats = incremental_update(old, reparse(patterns.chain(6)))
        scratch = analyze_side_effects(reparse(patterns.chain(6)))
        assert_same_solution(incremental, scratch)
        assert stats.dirty_procs == []
        assert stats.affected_procs == 0
        assert stats.reuse_fraction == 1.0

    def test_nested_program_edit(self):
        source = patterns.deep_nest(4)
        old = analyze_side_effects(reparse(source))
        edited = source.replace("g := x", "g := x + 1")
        incremental, stats = incremental_update(old, reparse(edited))
        scratch = analyze_side_effects(reparse(edited))
        assert_same_solution(incremental, scratch)

    def test_ring_edit_hits_whole_scc(self):
        source = patterns.ring(5)
        old = analyze_side_effects(reparse(source))
        edited = source.replace("h := 1", "h := 2")
        incremental, stats = incremental_update(old, reparse(edited))
        scratch = analyze_side_effects(reparse(edited))
        assert_same_solution(incremental, scratch)
        # The edit is inside the SCC, so the whole ring re-solves as
        # one region — but its GMOD exports come out unchanged, so the
        # demand cutoff spares main's component.
        assert stats.affected_procs == stats.total_procs - 1
        assert stats.affected_sccs == 1
        assert stats.cutoff_sccs == 1
        assert "main" not in stats.affected_names

    @pytest.mark.parametrize("seed", range(8))
    def test_random_program_random_edit(self, seed):
        config = GeneratorConfig(
            seed=seed + 3000, num_procs=25, max_depth=3, nesting_prob=0.4,
            recursion_prob=0.3,
        )
        program = generate_program(config)
        old_resolved = analyze(copy.deepcopy(program))
        old = analyze_side_effects(old_resolved)

        # Edit: append `g0 := 7` to a pseudo-random procedure's body.
        edited = copy.deepcopy(program)
        target = edited.procs[seed % len(edited.procs)]
        while target.nested and seed % 2:
            target = target.nested[0]
        target.body.append(Assign(target=VarRef("g0"), value=IntLit(7)))
        new_resolved = analyze(edited)

        incremental, stats = incremental_update(old, new_resolved)
        scratch = analyze_side_effects(new_resolved)
        assert_same_solution(incremental, scratch)
        assert len(stats.dirty_procs) == 1


class TestReuse:
    def test_tail_edit_reuses_unrelated_procs(self):
        # In a chain, editing the tail affects everything upstream, but
        # editing the head leaves the downstream procedures reusable.
        old = analyze_side_effects(reparse(patterns.chain(10)))
        incremental, stats = incremental_update(old, reparse(edit_chain_head(10)))
        # Only c1 and its callers (main) are affected: 2 of 11.
        assert stats.affected_procs == 2
        assert stats.reused_procs == 9

    def test_stats_fields(self):
        old = analyze_side_effects(reparse(patterns.chain(3)))
        _, stats = incremental_update(old, reparse(edit_chain_tail(3)))
        assert stats.total_procs == 4
        assert 0.0 <= stats.reuse_fraction <= 1.0


class TestKernels:
    """An update runs the fresh analysis's phase kernels (warm-started
    on what it re-derives) and reports their tallies like one."""

    KERNELS = (
        "solve_rmod_fused",
        "compute_imod_plus_fused",
        "compute_dmod_fused",
        "factor_aliases_fused",
        "compute_aliases",
    )

    def count_kernel_calls(self, monkeypatch):
        calls = dict.fromkeys(self.KERNELS, 0)
        for name in self.KERNELS:
            kernel = getattr(engine, name)

            def counted(*args, _name=name, _kernel=kernel, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        return calls

    def test_literal_edit_runs_each_kernel_once(self, monkeypatch):
        old = analyze_side_effects(reparse(patterns.chain(6)))
        calls = self.count_kernel_calls(monkeypatch)
        updated, stats = incremental_update(old, reparse(edit_chain_tail(6)))
        assert calls == dict.fromkeys(self.KERNELS, 1)
        # No formal's IMOD bit and no binding moved: β is not condensed.
        assert "beta" not in updated.condensations
        assert stats.beta_affected_sccs == 0
        assert_same_solution(
            updated, analyze_side_effects(reparse(edit_chain_tail(6)))
        )

    def test_rewired_call_condenses_beta_once(self, monkeypatch):
        edited = patterns.chain(6).replace("call c2(x)", "call c3(x)")
        old = analyze_side_effects(reparse(patterns.chain(6)))
        calls = self.count_kernel_calls(monkeypatch)
        updated, stats = incremental_update(old, reparse(edited))
        assert calls == dict.fromkeys(self.KERNELS, 1)
        assert updated.condensations["beta"] == 1
        assert stats.beta_affected_sccs > 0
        assert_same_solution(updated, analyze_side_effects(reparse(edited)))

    def test_counter_folds_kind_tallies(self):
        old = analyze_side_effects(reparse(patterns.chain(6)))
        updated, _ = incremental_update(old, reparse(edit_chain_head(6)))
        tallies = list(updated.kind_counters.values())
        ops = result_meta(updated)["ops"]
        assert ops == {
            field: sum(getattr(tally, field) for tally in tallies)
            for field in ("bit_vector_steps", "single_bit_steps",
                          "meet_operations")
        }
        assert ops["bit_vector_steps"] > 0
