"""Regenerate every experiment table (E1–E15) in one run.

Usage::

    python benchmarks/run_all.py [--quick] [--out DIR]

Prints one table per experiment in DESIGN.md's index; EXPERIMENTS.md
records a captured run.  Timings are medians of repeated runs on
pre-built inputs (program generation excluded).

Besides the human-readable tables, a run leaves artifacts in ``--out``
(default: the repo root): ``bench_report.txt`` (the full table text),
the E12 run refreshes ``BENCH_core.json`` (fused vs legacy middle
end), the E13 run refreshes ``BENCH_incremental.json`` (demand-driven
update vs scratch), the E15 run refreshes ``BENCH_lanes.json``
(marginal cost per added effect lane), and ``BENCH_all.json``
aggregates per-experiment wall times plus the core, incremental and
lane records.  E10 (sharded solver) and E14 (fleet) are retired with
the code they measured; EXPERIMENTS.md keeps their last numbers.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import build_workload, flat_config, nested_config

from repro.baselines.iterative import solve_gmod_iterative, solve_rmod_iterative
from repro.baselines.naive import solve_gmod_naive
from repro.baselines.swift import solve_rmod_swift
from repro.core.bitvec import OpCounter, popcount
from repro.baselines.gmod_oracles import findgmod_per_level
from repro.core.gmod import findgmod
from repro.core.gmod_nested import findgmod_multilevel
from repro.core.pipeline import analyze_side_effects
from repro.core.rmod import solve_rmod
from repro.core.varsets import EffectKind
from repro.graphs.binding import build_binding_graph
from repro.lang.semantic import compile_source
from repro.sections import analyze_sections
from repro.workloads import corpus
from repro.workloads.generator import GeneratorConfig, generate_resolved


def timed(fn, *args, repeats=5, **kwargs):
    """Median wall time (seconds) and last result."""
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def header(experiment_id: str, claim: str) -> None:
    print()
    print("=" * 78)
    print("%s  %s" % (experiment_id, claim))
    print("=" * 78)


def e1_rmod_linear(sizes):
    header("E1", "RMOD via beta is O(N_beta + E_beta)  [Fig. 1, §3.2]")
    print(f"{'N_C':>6} {'N_beta':>7} {'E_beta':>7} {'time(ms)':>9} "
          f"{'bit-steps':>10} {'us/edge':>8}")
    base = None
    for num_procs in sizes:
        workload = build_workload(flat_config(num_procs))
        graph = workload["binding_graph"]
        seconds, result = timed(solve_rmod, graph, workload["local"])
        per_edge = seconds / max(graph.num_edges, 1) * 1e6
        print(f"{num_procs:>6} {graph.num_formals:>7} {graph.num_edges:>7} "
              f"{seconds * 1e3:>9.2f} {result.counter.single_bit_steps:>10} "
              f"{per_edge:>8.3f}")
    print("-> time/edge roughly constant across sizes = linear scaling.")


def e2_rmod_vs_swift(sizes):
    header("E2", "Figure 1 vs swift vs iterative  [§3.2 comparison]")
    print(f"{'N_C':>6} {'fig1(ms)':>9} {'swift(ms)':>10} {'iter(ms)':>9} "
          f"{'swift/fig1':>10} {'fig1 bitops':>12} {'swift bitops':>13}")
    for num_procs in sizes:
        workload = build_workload(flat_config(num_procs))
        graph, local = workload["binding_graph"], workload["local"]
        t_fig1, r_fig1 = timed(solve_rmod, graph, local)
        t_swift, _ = timed(solve_rmod_swift, graph, local)
        t_iter, _ = timed(solve_rmod_iterative, graph, local)
        # Total bit operations: fig1 counts single bits; swift counts
        # whole vectors of length N_beta (fresh counter, single run).
        c_swift = OpCounter()
        solve_rmod_swift(graph, local, counter=c_swift)
        fig1_bits = r_fig1.counter.single_bit_steps
        swift_bits = c_swift.bit_vector_steps * graph.num_formals
        print(f"{num_procs:>6} {t_fig1*1e3:>9.2f} {t_swift*1e3:>10.2f} "
              f"{t_iter*1e3:>9.2f} {t_swift/max(t_fig1,1e-9):>10.2f} "
              f"{fig1_bits:>12} {swift_bits:>13}")
    print("-> swift's modeled bit-work grows ~quadratically; the gap widens "
          "with size, as §3.2 argues.")


def e3_binding_sizes(sizes):
    header("E3", "Binding graph size bounds  [§3.1]")
    print(f"{'N_C':>6} {'E_C':>7} {'mu_f':>6} {'mu_a':>6} {'N_beta':>7} "
          f"{'mu_f*N_C':>9} {'E_beta':>7} {'mu_a*E_C':>9} {'2E>=N':>6} "
          f"{'build(ms)':>10}")
    for num_procs in sizes:
        workload = build_workload(flat_config(num_procs))
        resolved = workload["resolved"]
        call_graph = workload["call_graph"]
        seconds, beta = timed(build_binding_graph, resolved)
        total_formals = sum(len(p.formals) for p in resolved.procs)
        total_actuals = sum(len(s.bindings) for s in resolved.call_sites)
        mu_f = total_formals / call_graph.num_nodes
        mu_a = total_actuals / max(call_graph.num_edges, 1)
        holds = 2 * beta.num_edges >= beta.nodes_with_edges
        print(f"{num_procs:>6} {call_graph.num_edges:>7} {mu_f:>6.2f} "
              f"{mu_a:>6.2f} {beta.num_formals:>7} {mu_f*call_graph.num_nodes:>9.0f} "
              f"{beta.num_edges:>7} {mu_a*call_graph.num_edges:>9.0f} "
              f"{'yes' if holds else 'NO':>6} {seconds*1e3:>10.2f}")
    print("-> N_beta <= mu_f*N_C and E_beta <= mu_a*E_C hold everywhere; "
          "construction time tracks graph size.")


def e4_findgmod(sizes):
    header("E4", "findgmod: O(E_C + N_C) bit-vector steps  [Thm. 2]")
    print(f"{'N_C':>6} {'E_C':>7} {'line17':>7} {'line22':>7} {'steps':>7} "
          f"{'E+2N':>7} {'fast(ms)':>9} {'naive(ms)':>10} {'iter(ms)':>9}")
    for num_procs in sizes:
        workload = build_workload(flat_config(num_procs))
        graph = workload["call_graph"]
        args = (graph, workload["imod_plus"], workload["universe"])
        t_fast, result = timed(findgmod, *args)
        t_naive, _ = timed(solve_gmod_naive, *args, repeats=3)
        t_iter, _ = timed(solve_gmod_iterative, *args)
        steps = result.counter.bit_vector_steps
        print(f"{graph.num_nodes:>6} {graph.num_edges:>7} {result.line17_count:>7} "
              f"{result.line22_count:>7} {steps:>7} "
              f"{graph.num_edges + 2*graph.num_nodes:>7} {t_fast*1e3:>9.2f} "
              f"{t_naive*1e3:>10.2f} {t_iter*1e3:>9.2f}")
    print("-> steps == line8+line17+line22 <= E + 2N exactly; naive "
          "per-source closure grows ~quadratically.")


def e5_nested(depths, num_procs=800):
    header("E5", "Multi-level nesting: O(E + dP*N) vs O(dP*(E+N))  [§4]")
    print(f"{'d_P':>4} {'N_C':>6} {'E_C':>7} {'multi(ms)':>10} {'multi steps':>12} "
          f"{'perlvl(ms)':>11} {'perlvl steps':>13}")
    for depth in depths:
        # Dense call structure (E >> N) to separate the E-term from the
        # dP*N-term, which is where the two bounds differ.
        config = nested_config(num_procs, depth)
        config.calls_per_proc_range = (5, 7)
        workload = build_workload(config)
        graph = workload["call_graph"]
        args = (graph, workload["imod_plus"], workload["universe"])
        c_multi = OpCounter()
        t_multi, _ = timed(findgmod_multilevel, *args, counter=None)
        r_multi = findgmod_multilevel(*args, counter=c_multi)
        c_per = OpCounter()
        t_per, _ = timed(findgmod_per_level, *args)
        findgmod_per_level(*args, counter=c_per)
        print(f"{depth:>4} {graph.num_nodes:>6} {graph.num_edges:>7} "
              f"{t_multi*1e3:>10.2f} {c_multi.bit_vector_steps:>12} "
              f"{t_per*1e3:>11.2f} {c_per.bit_vector_steps:>13}")
    print("-> the single-DFS algorithm's step count stays near E + 2N while "
          "the repeated algorithm's grows with d_P.")


def e6_pipeline(sizes):
    header("E6", "Full pipeline: O(N(E+N)) with length-N vectors  [§5]")
    print(f"{'N_C':>6} {'E_C':>7} {'vars':>6} {'MOD+USE(ms)':>12} "
          f"{'ms/site':>8}")
    for num_procs in sizes:
        workload = build_workload(flat_config(num_procs))
        resolved = workload["resolved"]
        seconds, _ = timed(analyze_side_effects, resolved, repeats=3)
        sites = resolved.num_call_sites
        print(f"{num_procs:>6} {sites:>7} {len(resolved.variables):>6} "
              f"{seconds*1e3:>12.1f} {seconds/max(sites,1)*1e3:>8.3f}")
    print("-> step counts are linear, but vectors lengthen with the program, "
          "so wall time per site grows ~linearly in N: overall O(N(E+N)).")


def e7_precision():
    header("E7", "Precise MOD vs 'modifies everything visible'  [§2]")
    print(f"{'program':>12} {'sites':>6} {'avg|MOD|':>9} {'avg|visible|':>13} "
          f"{'ratio':>7}")
    rows = [(name, compile_source(source)) for name, source in sorted(corpus.ALL.items())]
    sparse = generate_resolved(GeneratorConfig(
        seed=11, num_procs=400, num_globals=400, allow_recursion=False,
        calls_per_proc_range=(1, 2), globals_modified_per_proc=0.5,
        prob_modify_formal=0.25))
    rows.append(("sparse-400", sparse))
    for name, resolved in rows:
        summary = analyze_side_effects(resolved)
        sites = resolved.call_sites
        mods = [popcount(summary.mod_mask(site)) for site in sites]
        visible = [popcount(summary.universe.visible_mask(site.caller))
                   for site in sites]
        ratio = sum(mods) / max(sum(visible), 1)
        print(f"{name:>12} {len(sites):>6} "
              f"{statistics.mean(mods):>9.2f} {statistics.mean(visible):>13.2f} "
              f"{ratio:>7.1%}")
    print("-> the analysis reports a small fraction of the worst-case "
          "assumption, the gap that motivates the paper.")


def e8_sections(ranks):
    header("E8", "Regular sections: cost independent of lattice depth  [§6]")
    sys.path.insert(0, str(Path(__file__).parent))
    from test_bench_sections import divide_and_conquer

    print(f"{'rank':>5} {'depth':>6} {'meets':>7} {'max sweeps':>11} "
          f"{'time(ms)':>9} {'result':>8}")
    for rank in ranks:
        resolved = compile_source(divide_and_conquer(rank))
        seconds, analysis = timed(analyze_sections, resolved, EffectKind.MOD)
        w0 = resolved.proc_named("w0")
        section = analysis.section_of(w0, "w0::t")
        print(f"{rank:>5} {rank + 2:>6} {analysis.counter.meet_operations:>7} "
              f"{max(analysis.component_iterations):>11} {seconds*1e3:>9.2f} "
              f"{section.classify():>8}")
    print("-> sweep count flat as rank (lattice depth) grows, and the "
          "recursive walk keeps its precise section (cycle restriction).")


def e9_section_precision():
    header("E9", "Sections recover loop parallelism  [§6 motivation]")
    from test_bench_section_precision import column_loop_program

    for workers in (8, 32):
        resolved = compile_source(column_loop_program(workers))
        analysis = analyze_sections(resolved, EffectKind.MOD)
        grid_uid = resolved.var_named("grid").uid
        sections = [analysis.site_sections[s.site_id][grid_uid]
                    for s in resolved.call_sites]
        pairs = 0
        conflicts = 0
        for i, a in enumerate(sections):
            for b in sections[i + 1:]:
                pairs += 1
                if a.intersects(b):
                    conflicts += 1
        print(f"workers={workers:>3}: whole-array verdict: {pairs}/{pairs} "
              f"iteration pairs conflict; sectioned verdict: "
              f"{conflicts}/{pairs} conflict -> loop parallelisable.")
    print("-> whole-array summaries serialise the loop; sections prove the "
          "column writes independent.")


def a1_incremental(num_procs=600):
    header("A1", "Incremental update vs from-scratch, by edit locality")
    import copy

    from repro.core.incremental import incremental_update
    from repro.lang.nodes import Assign, IntLit, VarRef
    from repro.lang.semantic import analyze
    from repro.workloads.generator import generate_program

    config = GeneratorConfig(seed=21, num_procs=num_procs,
                             allow_recursion=False,
                             calls_per_proc_range=(1, 2))
    program = generate_program(config)
    old_resolved = analyze(copy.deepcopy(program))
    old_summary = analyze_side_effects(old_resolved)
    t_scratch, _ = timed(analyze_side_effects, old_resolved, repeats=3)

    print(f"{'edit at':>8} {'affected':>9} {'reused':>7} {'incr(ms)':>9} "
          f"{'scratch(ms)':>12} {'speedup':>8}")
    for label, index in (("leaf", num_procs - 1), ("middle", num_procs // 2),
                         ("root", 0)):
        edited = copy.deepcopy(program)
        edited.procs[index].body.append(
            Assign(target=VarRef("g0"), value=IntLit(7))
        )
        new_resolved = analyze(edited)
        name = new_resolved.procs[index + 1].qualified_name
        t_incr, (summary, stats) = timed(
            incremental_update, old_summary, new_resolved,
            dirty_hint=[name], repeats=3,
        )
        print(f"{label:>8} {stats.affected_procs:>9} {stats.reused_procs:>7} "
              f"{t_incr*1e3:>9.1f} {t_scratch*1e3:>12.1f} "
              f"{t_scratch/max(t_incr,1e-9):>8.2f}x")

    # Phase profile: why the speedup is Amdahl-bounded.
    from repro.core.aliases import compute_aliases
    from repro.core.arena import get_arena
    from repro.core.local import LocalAnalysis
    from repro.core.gmod import findgmod
    from repro.core.imod_plus import compute_imod_plus
    from repro.core.rmod import solve_rmod
    from repro.core.varsets import VariableUniverse
    from repro.graphs.binding import build_binding_graph
    from repro.graphs.callgraph import build_call_graph

    universe = VariableUniverse(old_resolved)
    t_graphs, call_graph = timed(build_call_graph, old_resolved)
    t_beta, beta = timed(build_binding_graph, old_resolved)
    t_local, local = timed(LocalAnalysis, old_resolved, universe)
    t_alias, _ = timed(compute_aliases, get_arena(old_resolved))
    t_rmod, rmod = timed(solve_rmod, beta, local)
    t_iplus, imod_plus = timed(compute_imod_plus, old_resolved, local, rmod)
    t_gmod, _ = timed(findgmod, call_graph, imod_plus, universe)
    print()
    print("phase profile (one kind): graphs %.1f  local %.1f  aliases %.1f  "
          "rmod %.1f  imod+ %.1f  gmod %.1f  (ms)"
          % (1e3 * (t_graphs + t_beta), 1e3 * t_local, 1e3 * t_alias,
             1e3 * t_rmod, 1e3 * t_iplus, 1e3 * t_gmod))
    print("-> reuse tracks edit locality, but GMOD flows backward (callers "
          "of the edit recompute) while alias pairs flow forward (callees "
          "recompute), so one fixpoint always re-runs; with the mandatory "
          "linear phases this Amdahl-bounds the win to the fixpoints' share "
          "of the profile.  The durable benefit is the summary *diff* —")
    print("   unchanged annotations feed the recompilation analysis (see "
          "examples/environment.py), which is where edit locality pays off.")


def _config_chain(length: int) -> str:
    """Literal configuration values passed down a call chain that also
    makes harmless logging calls at every hop — the pass-through /
    kill-test stress shape."""
    lines = ["program cfg", "  global sink, audit", ""]
    lines += ["  proc log(x)", "  begin", "    audit := audit + x", "  end", ""]
    for index in range(1, length + 1):
        lines.append("  proc h%d(k, scale)" % index)
        lines.append("  begin")
        lines.append("    call log(k)")
        if index < length:
            lines.append("    call h%d(k, scale)" % (index + 1))
        else:
            lines.append("    sink := k * scale")
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  call h1(12, 3)", "end"]
    return "\n".join(lines) + "\n"


def a2_constprop():
    header("A2", "Constant propagation: precise MOD kill test vs worst case")
    from repro.extensions.constprop import solve_constants

    print(f"{'workload':>12} {'formals':>8} {'precise':>8} {'worstcase':>10} "
          f"{'recovered':>10}")
    rows = [(name, compile_source(source)) for name, source in sorted(corpus.ALL.items())]
    rows.append(("cfg-chain-50", compile_source(_config_chain(50))))
    rows.append((
        "random-400",
        generate_resolved(GeneratorConfig(
            seed=11, num_procs=400, num_globals=400, allow_recursion=False,
            calls_per_proc_range=(1, 2), globals_modified_per_proc=0.5,
            prob_modify_formal=0.25)),
    ))
    for name, resolved in rows:
        summary = analyze_side_effects(resolved)
        precise = solve_constants(resolved, summary=summary, kill_policy="precise")
        worst = solve_constants(resolved, kill_policy="worstcase")
        total = sum(len(p.formals) for p in resolved.procs)
        gained = precise.constants_found() - worst.constants_found()
        print(f"{name:>12} {total:>8} {precise.constants_found():>8} "
              f"{worst.constants_found():>10} {'+%d' % gained:>10}")
    print("-> the precise kill test keeps pass-through constants alive "
          "across harmless calls; the worst-case policy loses them.")


def a4_lattice_instances():
    header("A4", "One framework, two lattices: Figure 3 vs bounded ranges")
    sys.path.insert(0, str(Path(__file__).parent))
    from test_bench_sections import divide_and_conquer

    def blocked(procs, rows_per_proc=2):
        lines = ["program blocks", "  global array m[64][8]", ""]
        lines += ["  proc one(t, r, c) begin t[r][c] := 1 end", ""]
        for index in range(procs):
            lines.append("  proc blk%d(t)" % index)
            lines.append("  begin")
            base = index * rows_per_proc
            for row in range(base, base + rows_per_proc):
                for col in range(3):
                    lines.append("    call one(t, %d, %d)" % (row % 64, col))
            lines.append("  end")
            lines.append("")
        lines.append("begin")
        for index in range(procs):
            lines.append("  call blk%d(m)" % index)
        lines.append("end")
        return "\n".join(lines) + "\n"

    print(f"{'workload':>14} {'lattice':>8} {'meets':>7} {'sweeps':>7} "
          f"{'time(ms)':>9} {'whole':>6} {'precise':>8}")
    for label, source in (("dnc-rank2", divide_and_conquer(2)),
                          ("blocked-16", blocked(16))):
        resolved = compile_source(source)
        for lattice in ("figure3", "ranges"):
            seconds, analysis = timed(analyze_sections, resolved,
                                      EffectKind.MOD, lattice=lattice)
            whole = precise = 0
            for table in analysis.grs:
                for section in table.values():
                    if section.rank in (None, 0):
                        continue
                    if section.is_whole:
                        whole += 1
                    else:
                        precise += 1
            print(f"{label:>14} {lattice:>8} "
                  f"{analysis.counter.meet_operations:>7} "
                  f"{max(analysis.component_iterations):>7} "
                  f"{seconds*1e3:>9.2f} {whole:>6} {precise:>8}")
    print("-> same solver, same sweep counts; the instances differ only in "
          "meet cost and precision, exactly the §6 framework claim.  On the "
          "blocked workload, ranges keep row blocks (m(0:1,0:2)) where "
          "Figure 3 must widen rows to '*'.")


def e12_core(quick: bool):
    header("E12", "Fused arena solve vs legacy per-kind path  [core/arena]")
    from test_bench_core import measure_core_benchmark, write_bench_json

    result = measure_core_benchmark(
        scales=(("1k", 1000, 200),) if quick
        else (("1k", 1000, 200), ("10k", 10000, 2000)),
        repeats=2 if quick else 3,
        end_to_end=not quick,
    )
    write_bench_json(result)
    print(f"{'scale':>6} {'legacy solve(s)':>16} {'fused solve(s)':>15} "
          f"{'speedup':>8} {'condensations':>22}")
    for label, scale in sorted(result["scales"].items()):
        print(f"{label:>6} {scale['legacy']['solve_s']:>16.3f} "
              f"{scale['fused']['solve_s']:>15.3f} "
              f"{scale['solve_speedup']:>7.2f}x "
              f"{json.dumps(scale['condensations'], sort_keys=True):>22}")
    if "end_to_end" in result:
        e2e = result["end_to_end"]
        line = "end-to-end (from source, fused): %.3fs" % e2e["end_to_end_s"]
        if "end_to_end_speedup_vs_baseline" in e2e:
            line += " = %.2fx the pre-arena baseline (%.2fs)" % (
                e2e["end_to_end_speedup_vs_baseline"],
                e2e["baseline"]["end_to_end_s"],
            )
        print(line)
    print("-> one graph traversal, one condensation, and one site decode "
          "serve both MOD and USE; every mask and counter stays "
          "bit-identical to the per-kind path.")
    return result


def e13_incremental(quick: bool):
    header("E13", "Demand-driven update vs scratch, warm + reloaded  "
                  "[core/incremental]")
    from test_bench_incremental import (
        measure_incremental_benchmark,
        write_bench_json,
    )

    result = measure_incremental_benchmark(
        num_procs=1000 if quick else 10000,
        repeats=1 if quick else 2,
    )
    write_bench_json(result)
    warm = result["warm_stats"]
    print(f"{'path':>10} {'time(s)':>9} {'speedup':>8}")
    print(f"{'scratch':>10} {result['scratch_s']:>9.3f} {'1.00x':>8}")
    print(f"{'warm':>10} {result['warm_s']:>9.3f} "
          f"{result['warm_speedup']:>7.1f}x")
    print(f"{'reloaded':>10} {result['reloaded_s']:>9.3f} "
          f"{result['reloaded_speedup']:>7.1f}x")
    print("region: %d of %d procs re-solved (%d of %d SCCs), index %.2f MB"
          % (warm["region_procs"], warm["total_procs"],
             warm["affected_sccs"], warm["total_sccs"],
             result["index_bytes"] / 1e6))
    print("-> a leaf edit re-solves only its condensation region plus the "
          "downstream stitch; the summary bytes are identical to a "
          "from-scratch solve on every path, including after an index "
          "reload in a fresh process.")
    return result


def e15_lanes(quick: bool):
    header("E15", "Effect lanes: marginal cost per added lane  [lanes/]")
    from test_bench_lanes import SCHEMA, measure_lanes_benchmark, write_bench_json

    scales = [1000] if quick else [1000, 10000]
    records = []
    for num_procs in scales:
        result = measure_lanes_benchmark(
            num_procs=num_procs, repeats=1 if quick else 2
        )
        records.append(result)
        print(f"-- {num_procs} procs --")
        print(f"{'run':>24} {'best(s)':>9} {'delta(s)':>9}")
        print(f"{'base (MOD+USE)':>24} {result['base_s']:>9.3f} {'-':>9}")
        print(f"{'+refalias':>24} {result['one_lane_s']:>9.3f} "
              f"{result['refalias_delta_s']:>9.3f}")
        print(f"{'+sections':>24} {result['two_lane_s']:>9.3f} "
              f"{result['sections_delta_s']:>9.3f}")
        print(f"{'sweep oracle (sections)':>24} "
              f"{result['sweep_sections_s']:>9.3f} {'-':>9}")
        print("-> sections-lane delta is %.0f%% of a sweep sections "
              "solve; every run condensed the call graph exactly once."
              % (100.0 * result["sections_fraction"]))
    write_bench_json(records)
    return {"schema": SCHEMA, "scales": records}


class _Tee(io.TextIOBase):
    """Mirror writes to several streams (stdout + the report buffer)."""

    def __init__(self, *streams):
        self.streams = streams

    def write(self, text):
        for stream in self.streams:
            stream.write(text)
        return len(text)

    def flush(self):
        for stream in self.streams:
            stream.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps (for smoke testing)")
    parser.add_argument("--out", default=str(Path(__file__).parent.parent),
                        help="directory for bench_report.txt / BENCH_*.json")
    args = parser.parse_args()
    sizes = [200, 400, 800] if args.quick else [400, 800, 1600, 3200]
    depths = [2, 4] if args.quick else [2, 4, 6, 8]
    ranks = [1, 2, 3] if args.quick else [1, 2, 3, 4, 5]

    experiments = [
        ("E1", lambda: e1_rmod_linear(sizes)),
        ("E2", lambda: e2_rmod_vs_swift(sizes)),
        ("E3", lambda: e3_binding_sizes(sizes)),
        ("E4", lambda: e4_findgmod(sizes)),
        ("E5", lambda: e5_nested(depths)),
        ("E6", lambda: e6_pipeline(sizes[:-1] if not args.quick else sizes)),
        ("E7", e7_precision),
        ("E8", lambda: e8_sections(ranks)),
        ("E9", e9_section_precision),
        ("E12", lambda: e12_core(args.quick)),
        ("E13", lambda: e13_incremental(args.quick)),
        ("E15", lambda: e15_lanes(args.quick)),
        ("A1", a1_incremental),
        ("A2", a2_constprop),
        ("A4", a4_lattice_instances),
    ]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    original_stdout = sys.stdout
    sys.stdout = _Tee(original_stdout, buffer)
    wall: dict = {}
    core_result = None
    incremental_result = None
    lanes_result = None
    try:
        for name, run in experiments:
            tick = time.perf_counter()
            returned = run()
            wall[name] = time.perf_counter() - tick
            if name == "E12":
                core_result = returned
            elif name == "E13":
                incremental_result = returned
            elif name == "E15":
                lanes_result = returned
        print()
    finally:
        sys.stdout = original_stdout

    (out_dir / "bench_report.txt").write_text(buffer.getvalue())
    aggregate = {
        "schema": "ck-bench-all/1",
        "quick": args.quick,
        "experiment_seconds": wall,
        "core": core_result,
        "incremental": incremental_result,
        "lanes": lanes_result,
    }
    with open(out_dir / "BENCH_all.json", "w") as handle:
        json.dump(aggregate, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s, %s"
          % (out_dir / "bench_report.txt", out_dir / "BENCH_all.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
