"""A-series — ablations of the design choices DESIGN.md calls out.

* **A1 (incremental reuse)**: how much of the expensive GMOD phase does
  the incremental updater reuse as a function of edit locality, and
  what does that buy in wall time vs from-scratch re-analysis?
* **A2 (MOD-driven kill tests)**: interprocedural constant propagation
  with the precise GMOD-based kill test vs the worst-case "any call
  clobbers everything" assumption — the downstream-client value of the
  paper's analysis.
* **A3 (alias nesting inheritance)**: cost of the rule-5 fixpoint
  (inherited pairs) relative to the call-site-only rules.
"""

import copy

import pytest

from repro import analyze_side_effects
from repro.core.incremental import incremental_update
from repro.extensions.constprop import solve_constants
from repro.lang.nodes import Assign, IntLit, VarRef
from repro.lang.semantic import analyze
from repro.workloads.generator import GeneratorConfig, generate_program

from bench_util import build_workload, flat_config


def _program_pair(seed, num_procs, edit_index):
    """An (old_resolved, new_resolved) pair differing by one appended
    assignment in procedure ``edit_index``."""
    config = GeneratorConfig(
        seed=seed, num_procs=num_procs, allow_recursion=False,
        calls_per_proc_range=(1, 2),
    )
    program = generate_program(config)
    old_resolved = analyze(copy.deepcopy(program))
    edited = copy.deepcopy(program)
    edited.procs[edit_index].body.append(
        Assign(target=VarRef("g0"), value=IntLit(7))
    )
    return old_resolved, analyze(edited)


@pytest.mark.parametrize("edit_position", ["leaf", "root"])
def test_a1_incremental_update(benchmark, edit_position):
    num_procs = 300
    edit_index = num_procs - 1 if edit_position == "leaf" else 0
    old_resolved, new_resolved = _program_pair(21, num_procs, edit_index)
    old_summary = analyze_side_effects(old_resolved)
    edited_name = new_resolved.procs[edit_index + 1].qualified_name

    summary, stats = benchmark(
        incremental_update, old_summary, new_resolved,
        dirty_hint=[edited_name],
    )
    scratch = analyze_side_effects(new_resolved)
    from repro.core.varsets import EffectKind

    assert summary.solutions[EffectKind.MOD].gmod == scratch.solutions[EffectKind.MOD].gmod
    # A leaf edit in a mostly-acyclic forward-call program affects a
    # long caller chain; a root edit affects almost nothing upstream.
    if edit_position == "root":
        assert stats.reuse_fraction > 0.5


@pytest.mark.parametrize("edit_position", ["root"])
def test_a1_from_scratch_baseline(benchmark, edit_position):
    old_resolved, new_resolved = _program_pair(21, 300, 0)
    benchmark(analyze_side_effects, new_resolved)


@pytest.mark.parametrize("kill_policy", ["precise", "worstcase"])
def test_a2_constprop_kill_policy(benchmark, kill_policy):
    workload = build_workload(flat_config(400))
    resolved = workload["resolved"]
    summary = analyze_side_effects(resolved) if kill_policy == "precise" else None
    result = benchmark(
        solve_constants, resolved, summary=summary, kill_policy=kill_policy
    )
    # The precise policy can only find more (or equal) constants.
    other = solve_constants(
        resolved,
        summary=analyze_side_effects(resolved),
        kill_policy="precise",
    )
    assert other.constants_found() >= result.constants_found()


def test_a3_alias_fixpoint_cost(benchmark):
    from repro.core.aliases import compute_aliases
    from repro.core.arena import get_arena

    workload = build_workload(flat_config(800))
    result = benchmark(compute_aliases, get_arena(workload["resolved"]))
    assert result.total_pairs() >= 0


@pytest.mark.parametrize("lattice", ["figure3", "ranges"])
def test_a4_lattice_instances(benchmark, lattice):
    """§6 framework claim: instances differ only in lattice costs."""
    from repro.core.varsets import EffectKind
    from repro.lang.semantic import compile_source
    from repro.sections import analyze_sections

    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from test_bench_sections import divide_and_conquer

    resolved = compile_source(divide_and_conquer(3))
    analysis = benchmark(analyze_sections, resolved, EffectKind.MOD,
                         lattice=lattice)
    # Identical sweep structure across instances.
    assert max(analysis.component_iterations) <= 3
    assert analysis.lattice_name == lattice
