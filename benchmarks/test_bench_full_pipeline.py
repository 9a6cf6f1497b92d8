"""E6 — The whole MOD/USE pipeline: O(N_C(E_C + N_C)) (Section 5).

Paper claim: computing DMOD for all sites takes O(N_C·E_C); absent
aliasing the entire process is O(N_C(E_C + N_C)).  The dominant factor
is bit-vector *length* (interprocedural vectors grow with the program —
the Section 3.2 observation), so wall time grows roughly quadratically
even though the step counts stay linear.  Both the full pipeline and
its phases are benchmarked.
"""

import pytest

from repro.core.dmod import compute_dmod
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.core.aliases import compute_aliases
from repro.core.arena import get_arena

from bench_util import build_workload, flat_config

SIZES = [400, 800, 1600]


@pytest.mark.parametrize("num_procs", SIZES)
def test_full_pipeline_both_kinds(benchmark, num_procs):
    workload = build_workload(flat_config(num_procs))
    summary = benchmark(analyze_side_effects, workload["resolved"])
    assert summary.resolved.num_call_sites > 0


@pytest.mark.parametrize("num_procs", SIZES)
def test_dmod_projection_phase(benchmark, num_procs):
    from repro.core.gmod import findgmod

    workload = build_workload(flat_config(num_procs))
    gmod = findgmod(
        workload["call_graph"], workload["imod_plus"], workload["universe"]
    ).gmod
    benchmark(
        compute_dmod,
        workload["resolved"],
        gmod,
        workload["universe"],
        EffectKind.MOD,
    )


@pytest.mark.parametrize("num_procs", [800])
def test_alias_phase(benchmark, num_procs):
    workload = build_workload(flat_config(num_procs))
    result = benchmark(compute_aliases, get_arena(workload["resolved"]))
    assert result.total_pairs() >= 0
