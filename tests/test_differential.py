"""Differential harness: the production GMOD walk against every baseline.

The standing oracle for all future performance work: across ~30 seeded
generator programs that sweep nesting depth, recursion, and aliasing
density, the pipeline's GMOD/DMOD/MOD sets must be *identical* to the
per-kind oracle's under ``multilevel`` and ``per-level``
(:func:`repro.baselines.per_kind.analyze_per_kind`), to the
closed-form reference (:func:`solve_equation4_reference`), and to the
iterative Kam–Ullman fixed points of :mod:`repro.baselines.iterative`.
Any fast-path optimisation that changes an answer fails here first.

``figure2`` is stated by the paper for two-level programs only (the
Section 4 algorithms exist precisely because it misses up-level
formals under deeper nesting), so it joins the comparison exactly when
the program is flat — the same guard the pipeline uses to pick its walk.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.iterative import solve_direct_equation1, solve_gmod_iterative
from repro.baselines.per_kind import analyze_per_kind
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.workloads.generator import GeneratorConfig, generate_resolved

MULTILEVEL_METHODS = ("multilevel", "per-level")

#: Structural sweep: (depth, recursion, global-by-ref density).  The
#: third axis drives how many formal↔global alias pairs arise.
_SHAPES = [
    (1, True, 0.2),
    (2, True, 0.2),
    (4, True, 0.2),
    (1, False, 0.0),
    (3, True, 0.45),
    (2, False, 0.45),
]
_SEEDS = range(5)

CONFIGS = [
    replace(
        GeneratorConfig(num_procs=14, num_globals=6, nesting_prob=0.6),
        seed=2000 + 100 * seed + index,
        max_depth=depth,
        allow_recursion=recursion,
        prob_arg_global=global_density,
    )
    for seed in _SEEDS
    for index, (depth, recursion, global_density) in enumerate(_SHAPES)
]


def _config_id(config: GeneratorConfig) -> str:
    return "seed%d-depth%d-%s-g%.2f" % (
        config.seed,
        config.max_depth,
        "rec" if config.allow_recursion else "acyclic",
        config.prob_arg_global,
    )


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_all_solvers_agree(config):
    resolved = generate_resolved(config)
    production = analyze_side_effects(resolved)
    methods = ["reference", *MULTILEVEL_METHODS]
    if resolved.max_nesting_level <= 1:
        methods.append("figure2")
    oracles = {
        method: analyze_per_kind(resolved, gmod_method=method)
        for method in methods
    }
    for kind in (EffectKind.MOD, EffectKind.USE):
        solution = production.solutions[kind]
        for method, summary in oracles.items():
            oracle = summary.solutions[kind]
            assert solution.gmod == oracle.gmod, (kind, method, "GMOD")
            assert solution.dmod == oracle.dmod, (kind, method, "DMOD")
            assert solution.mod == oracle.mod, (kind, method, "MOD")

        # The decomposed answers must also be fixed points of the
        # classical systems: equation (4) by worklist iteration, and
        # the undecomposed equation (1) with the full binding function.
        iterated = solve_gmod_iterative(
            production.call_graph, solution.imod_plus, production.universe, kind
        )
        assert iterated == solution.gmod, (kind, "iterative eq4")
        direct = solve_direct_equation1(
            resolved, production.local, production.universe, kind
        )
        assert direct == solution.gmod, (kind, "direct eq1")


def test_sweep_covers_the_claimed_shapes():
    """The oracle stays meaningful only if the sweep really varies the
    structure — guard the harness itself."""
    assert len(CONFIGS) == 30
    depths = {c.max_depth for c in CONFIGS}
    assert {1, 2, 3, 4} <= depths
    assert {c.allow_recursion for c in CONFIGS} == {True, False}
    assert len({c.prob_arg_global for c in CONFIGS}) >= 3
    nested = [c for c in CONFIGS if c.max_depth > 1]
    resolved = generate_resolved(nested[0])
    assert resolved.max_nesting_level >= 2
