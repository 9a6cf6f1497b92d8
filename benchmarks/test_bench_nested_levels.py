"""E5 — Multi-level nesting: O(E + d_P·N) vs O(d_P·(E + N)) (Section 4).

Paper claim: repeating the one-level algorithm per nesting level costs
``O(d_P(E_C + N_C))`` bit-vector steps; maintaining a vector of lowlink
values brings it down to ``O(E_C + d_P·N_C)``.  We benchmark both (plus
the condensation reference solver) while sweeping ``d_P``; the
single-DFS algorithm's per-edge work must stay flat as depth grows.
"""

import pytest

from repro.baselines.gmod_oracles import findgmod_per_level, solve_equation4_reference
from repro.core.gmod_nested import findgmod_multilevel

from bench_util import build_workload, nested_config

DEPTHS = [2, 4, 6]
NUM_PROCS = 800


@pytest.mark.parametrize("depth", DEPTHS)
def test_multilevel_single_dfs(benchmark, depth):
    workload = build_workload(nested_config(NUM_PROCS, depth))
    result = benchmark(
        findgmod_multilevel,
        workload["call_graph"],
        workload["imod_plus"],
        workload["universe"],
    )
    graph = workload["call_graph"]
    d_p = max(p.level for p in workload["resolved"].procs)
    # The Section 4 bound, as an exact per-run assertion.
    assert result.counter.bit_vector_steps <= graph.num_edges + (d_p + 2) * graph.num_nodes


@pytest.mark.parametrize("depth", DEPTHS)
def test_per_level_repetition(benchmark, depth):
    workload = build_workload(nested_config(NUM_PROCS, depth))
    benchmark(
        findgmod_per_level,
        workload["call_graph"],
        workload["imod_plus"],
        workload["universe"],
    )


@pytest.mark.parametrize("depth", [4])
def test_reference_condensation(benchmark, depth):
    workload = build_workload(nested_config(NUM_PROCS, depth))
    result = benchmark(
        solve_equation4_reference,
        workload["call_graph"],
        workload["imod_plus"],
        workload["universe"],
    )
    fast = findgmod_multilevel(
        workload["call_graph"], workload["imod_plus"], workload["universe"]
    )
    assert result.gmod == fast.gmod
