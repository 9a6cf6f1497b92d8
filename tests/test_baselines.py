"""Baseline solver tests: equivalence and cost-model shape."""

import pytest

from repro.baselines.iterative import (
    solve_direct_equation1,
    solve_gmod_iterative,
    solve_rmod_iterative,
)
from repro.baselines.gmod_oracles import solve_equation4_reference
from repro.baselines.naive import solve_gmod_naive
from repro.baselines.swift import solve_rmod_swift
from repro.core.bitvec import OpCounter
from repro.core.gmod import findgmod
from repro.core.imod_plus import compute_imod_plus
from repro.core.local import LocalAnalysis
from repro.core.rmod import solve_rmod
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.lang.semantic import compile_source
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_resolved


def setup(resolved, kind=EffectKind.MOD):
    universe = VariableUniverse(resolved)
    call_graph = build_call_graph(resolved)
    binding_graph = build_binding_graph(resolved)
    local = LocalAnalysis(resolved, universe)
    return universe, call_graph, binding_graph, local


class TestDirectEquation1:
    """The undecomposed classical system is the correctness ground
    truth for the whole decomposition (given reachable programs)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_decomposition_matches_direct_solution(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(
                seed=seed + 1000,
                num_procs=30,
                max_depth=4,
                nesting_prob=0.5,
                recursion_prob=0.4,
            )
        )
        for kind in (EffectKind.MOD, EffectKind.USE):
            universe, call_graph, binding_graph, local = setup(resolved, kind)
            rmod = solve_rmod(binding_graph, local, kind)
            imod_plus = compute_imod_plus(resolved, local, rmod, kind)
            decomposed = solve_equation4_reference(
                call_graph, imod_plus, universe, kind
            ).gmod
            direct = solve_direct_equation1(resolved, local, universe, kind)
            assert decomposed == direct

    def test_direct_on_chain(self):
        resolved = compile_source(patterns.chain(5))
        universe, call_graph, binding_graph, local = setup(resolved)
        direct = solve_direct_equation1(resolved, local, universe)
        c1 = resolved.proc_named("c1")
        assert universe.to_names(direct[c1.pid]) == ["c1::x"]


class TestIterativeGmod:
    @pytest.mark.parametrize("source_fn,arg", [
        (patterns.ring, 6),
        (patterns.chain, 6),
        (patterns.two_sccs_bridged, 3),
        (lambda n: patterns.fortran_style(n, 8), 6),
    ])
    def test_matches_findgmod(self, source_fn, arg):
        resolved = compile_source(source_fn(arg))
        universe, call_graph, binding_graph, local = setup(resolved)
        rmod = solve_rmod(binding_graph, local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        fast = findgmod(call_graph, imod_plus, universe)
        iterative = solve_gmod_iterative(call_graph, imod_plus, universe)
        assert fast.gmod == iterative

    def test_findgmod_bound_is_guaranteed_iterative_is_not(self):
        # findgmod's step count is exactly 2N + line17 <= 2N + E on any
        # input (Theorem 2).  The worklist solver has no such per-input
        # guarantee — it merely happens to be fast on friendly
        # schedules; here we pin down the guaranteed bound.
        resolved = compile_source(patterns.ring(20))
        universe, call_graph, binding_graph, local = setup(resolved)
        rmod = solve_rmod(binding_graph, local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        fast_counter = OpCounter()
        findgmod(call_graph, imod_plus, universe, counter=fast_counter)
        assert (
            fast_counter.bit_vector_steps
            <= 2 * call_graph.num_nodes + call_graph.num_edges
        )
        slow_counter = OpCounter()
        solve_gmod_iterative(call_graph, imod_plus, universe, counter=slow_counter)
        # The iterative solver evaluates every edge at least once.
        assert slow_counter.bit_vector_steps >= call_graph.num_edges


class TestSwiftSubstitute:
    def test_same_answer_as_figure1(self):
        for seed in range(6):
            resolved = generate_resolved(
                GeneratorConfig(seed=seed + 2000, num_procs=25, recursion_prob=0.5)
            )
            universe, call_graph, binding_graph, local = setup(resolved)
            fig1 = solve_rmod(binding_graph, local).node_value
            swift = solve_rmod_swift(binding_graph, local)
            iterative = solve_rmod_iterative(binding_graph, local)
            assert fig1 == swift == iterative

    def test_cost_model_units_differ(self):
        # Figure 1 does single-bit steps; the swift substitute does
        # whole-vector steps — the Section 3.2 comparison in miniature.
        resolved = compile_source(patterns.chain(40))
        universe, call_graph, binding_graph, local = setup(resolved)
        fig1_counter = OpCounter()
        solve_rmod(binding_graph, local, counter=fig1_counter)
        swift_counter = OpCounter()
        solve_rmod_swift(binding_graph, local, counter=swift_counter)
        assert fig1_counter.bit_vector_steps == 0
        assert swift_counter.bit_vector_steps > 0
        assert fig1_counter.single_bit_steps > 0

    def test_swift_total_bit_work_superlinear(self):
        # Total bit operations = vector steps × Nβ grows faster than
        # Figure 1's single-bit steps as the program grows.
        def work(length):
            resolved = compile_source(patterns.chain(length))
            universe, call_graph, binding_graph, local = setup(resolved)
            fig1 = OpCounter()
            solve_rmod(binding_graph, local, counter=fig1)
            swift = OpCounter()
            solve_rmod_swift(binding_graph, local, counter=swift)
            n_beta = binding_graph.num_formals
            return fig1.single_bit_steps, swift.bit_vector_steps * n_beta

        small_fig1, small_swift = work(10)
        large_fig1, large_swift = work(80)
        fig1_growth = large_fig1 / small_fig1
        swift_growth = large_swift / small_swift
        assert swift_growth > fig1_growth * 3


class TestNaive:
    def test_matches_on_two_level(self):
        resolved = compile_source(patterns.fortran_style(8, 12))
        universe, call_graph, binding_graph, local = setup(resolved)
        rmod = solve_rmod(binding_graph, local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        assert (
            solve_gmod_naive(call_graph, imod_plus, universe)
            == findgmod(call_graph, imod_plus, universe).gmod
        )

    def test_quadratic_step_count(self):
        resolved = compile_source(patterns.chain(30))
        universe, call_graph, binding_graph, local = setup(resolved)
        rmod = solve_rmod(binding_graph, local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        naive_counter = OpCounter()
        solve_gmod_naive(call_graph, imod_plus, universe, counter=naive_counter)
        fast_counter = OpCounter()
        findgmod(call_graph, imod_plus, universe, counter=fast_counter)
        # Chain of n procs: naive does Θ(n²/2) steps, findgmod Θ(n).
        assert naive_counter.bit_vector_steps > 5 * fast_counter.bit_vector_steps


class TestRapidFramework:
    """The paper: equation (4)'s system 'is trivially rapid, so that
    both the iterative algorithm and the Graham-Wegman algorithm will
    achieve their fast time bounds' — for rapid frameworks, round-robin
    iteration converges in a few passes regardless of program size."""

    @pytest.mark.parametrize("seed", range(8))
    def test_roundrobin_converges_in_constant_passes(self, seed):
        from repro.baselines.iterative import solve_gmod_roundrobin

        resolved = generate_resolved(
            GeneratorConfig(seed=seed + 4000, num_procs=60,
                            recursion_prob=0.5)
        )
        universe, call_graph, binding_graph, local = setup(resolved)
        rmod = solve_rmod(binding_graph, local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        solution, passes = solve_gmod_roundrobin(call_graph, imod_plus, universe)
        assert solution == findgmod(call_graph, imod_plus, universe).gmod
        # Rapid: convergence in d(G) + 3 passes — a small constant even
        # on heavily recursive graphs, never a function of N.
        assert passes <= 6

    def test_passes_do_not_grow_with_size(self):
        from repro.baselines.iterative import solve_gmod_roundrobin

        counts = []
        for num_procs in (20, 80, 320):
            resolved = generate_resolved(
                GeneratorConfig(seed=9999, num_procs=num_procs,
                                recursion_prob=0.5)
            )
            universe, call_graph, binding_graph, local = setup(resolved)
            rmod = solve_rmod(binding_graph, local)
            imod_plus = compute_imod_plus(resolved, local, rmod)
            _, passes = solve_gmod_roundrobin(call_graph, imod_plus, universe)
            counts.append(passes)
        # Size independence: a 16x bigger program needs no more sweeps.
        assert max(counts) <= 6
        assert counts[-1] <= counts[0] + 2

    def test_ring_settles_quickly(self):
        from repro.baselines.iterative import solve_gmod_roundrobin

        resolved = compile_source(patterns.ring(40))
        universe, call_graph, binding_graph, local = setup(resolved)
        rmod = solve_rmod(binding_graph, local)
        imod_plus = compute_imod_plus(resolved, local, rmod)
        solution, passes = solve_gmod_roundrobin(call_graph, imod_plus, universe)
        assert passes <= 4
        assert solution == findgmod(call_graph, imod_plus, universe).gmod
