"""The narrow carrier of equation (4).

``P(p) = GMOD(p) − LOCAL(p)`` is all a callee hands its callers, and
it only carries variables that outlive some procedure's strip: the
globals, plus the locals of procedures that have nested children
(visible to a descendant, stripped only at their owner).  That set,
the *narrow carrier*, is exactly the global mask for a flat program.
These tests pin the bound on the seeds (``IMOD+``) and on the solved
``GMOD`` sets.

The module keeps the name it had when the sharded solver, since
retired, used the carrier to size its boundary summaries.
"""

from __future__ import annotations

from repro.core.imod_plus import compute_imod_plus
from repro.core.local import LocalAnalysis
from repro.core.pipeline import analyze_side_effects
from repro.core.rmod import solve_rmod
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.lang.semantic import compile_source
from repro.workloads.generator import (
    GeneratorConfig,
    generate_resolved,
    large_scale_config,
)

KINDS = (EffectKind.MOD, EffectKind.USE)


def narrow_carrier(resolved, universe: VariableUniverse) -> int:
    """The globals plus the locals of every procedure with a nested
    child."""
    has_children = [False] * resolved.num_procs
    for proc in resolved.procs:
        if proc.parent is not None:
            has_children[proc.parent.pid] = True
    carrier = universe.global_mask
    for proc in resolved.procs:
        if has_children[proc.pid]:
            carrier |= universe.local_mask[proc.pid]
    return carrier


def _exports_within(summary, carrier: int) -> None:
    """Every ``GMOD(p) − LOCAL(p)`` of ``summary`` lies in ``carrier``."""
    local_mask = summary.universe.local_mask
    for kind in KINDS:
        gmod = summary.solutions[kind].gmod
        for proc in summary.resolved.procs:
            exported = gmod[proc.pid] & ~local_mask[proc.pid]
            assert exported & ~carrier == 0, (kind, proc.qualified_name)


class TestNarrowCarrier:
    def test_flat_program_carrier_is_global_mask(self):
        resolved = generate_resolved(large_scale_config(50, seed=5))
        universe = VariableUniverse(resolved)
        assert narrow_carrier(resolved, universe) == universe.global_mask
        _exports_within(analyze_side_effects(resolved), universe.global_mask)

    def test_nested_program_adds_parent_locals(self):
        resolved = compile_source(
            """
            program t
              global g
              proc outer(x)
                local shared
                proc inner(y)
                begin
                  shared := y
                  g := y
                end
              begin
                call inner(x)
              end
            begin
              call outer(1)
            end
            """
        )
        universe = VariableUniverse(resolved)
        carrier = narrow_carrier(resolved, universe)
        outer = resolved.proc_named("outer")
        assert carrier & universe.global_mask == universe.global_mask
        # outer has a nested child, so its locals join the carrier...
        assert carrier & universe.local_mask[outer.pid] == universe.local_mask[outer.pid]
        # ...while the leaf's locals do not.
        inner = resolved.proc_named("outer.inner")
        assert carrier & universe.local_mask[inner.pid] & ~universe.local_mask[outer.pid] == 0
        # The parent local crosses the inner → outer edge and stops
        # at its owner.
        summary = analyze_side_effects(resolved)
        gmod = summary.solutions[EffectKind.MOD].gmod
        local_mask = summary.universe.local_mask
        assert gmod[inner.pid] & ~local_mask[inner.pid] & local_mask[outer.pid]
        assert gmod[outer.pid] & ~local_mask[outer.pid] == summary.universe.global_mask
        _exports_within(summary, carrier)

    def test_carrier_covers_stripped_seeds(self):
        # IMOD+(p) & ~LOCAL(p) ⊆ carrier for every procedure, and so
        # for every GMOD(p) − LOCAL(p) the solve builds from them.
        config = GeneratorConfig(seed=31, num_procs=25, max_depth=3,
                                 nesting_prob=0.6)
        resolved = generate_resolved(config)
        universe = VariableUniverse(resolved)
        binding_graph = build_binding_graph(resolved)
        local = LocalAnalysis(resolved, universe)
        carrier = narrow_carrier(resolved, universe)
        assert carrier != universe.global_mask  # Nesting widens it.
        for kind in KINDS:
            rmod = solve_rmod(binding_graph, local, kind)
            imod_plus = compute_imod_plus(resolved, local, rmod, kind)
            for proc in resolved.procs:
                stripped = imod_plus[proc.pid] & ~universe.local_mask[proc.pid]
                assert stripped & ~carrier == 0, proc.qualified_name
        _exports_within(analyze_side_effects(resolved), carrier)
