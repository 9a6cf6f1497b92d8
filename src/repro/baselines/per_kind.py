"""The paper's per-kind solvers, run one effect kind at a time.

The production driver (:func:`repro.core.pipeline.analyze_side_effects`)
lowers the program into a :class:`~repro.core.arena.ProgramArena` and
advances every requested kind side by side, one pass per phase.  This
oracle runs the original transcriptions instead, once per kind, over
graphs built straight from the resolved program: Figure 1 ``RMOD``,
equation (5) ``IMOD+``, the named global-phase solver (Figure 2's
``findgmod`` or a Section 4 multi-level solver), equation (2) ``DMOD``
and Section 5 alias factoring over the pair-set alias oracle
(:func:`repro.baselines.alias_pairs.compute_alias_pairs`).

The differential suites hold the fused driver to this oracle: every
set, and every per-kind :class:`~repro.core.bitvec.OpCounter` tally,
must agree, so the Theorem 2/4 exact-step guards speak for the
production path too.  The ``rmod``/``imod_plus``/``gmod``/``dmod``
timing keys match the driver's, so benchmarks can compare the two
phase by phase.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable

from repro.baselines.alias_pairs import compute_alias_pairs
from repro.core.aliases import factor_aliases_into
from repro.core.bitvec import OpCounter
from repro.core.dmod import compute_dmod
from repro.core.gmod import findgmod
from repro.core.gmod_nested import (
    findgmod_multilevel,
    findgmod_per_level,
    solve_equation4_reference,
)
from repro.core.imod_plus import compute_imod_plus
from repro.core.local import LocalAnalysis
from repro.core.pipeline import GMOD_METHODS, mark_phase
from repro.core.rmod import solve_rmod
from repro.core.summary import EffectSolution, SideEffectSummary
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.lang.symbols import ResolvedProgram

#: The per-kind global-phase solver behind each named ``gmod_method``.
GMOD_SOLVERS = {
    "figure2": findgmod,
    "multilevel": findgmod_multilevel,
    "per-level": findgmod_per_level,
    "reference": solve_equation4_reference,
}


def analyze_per_kind(
    resolved: ResolvedProgram,
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    gmod_method: str = "auto",
) -> SideEffectSummary:
    """The full analysis of ``resolved``, one kind at a time.

    Returns the same :class:`SideEffectSummary` the production driver
    does, with the same per-kind counters; ``"auto"`` resolves the way
    the driver's lane-less run does.
    """
    if gmod_method not in GMOD_METHODS:
        raise ValueError(
            "gmod_method must be one of %s, got %r" % (GMOD_METHODS, gmod_method)
        )
    method = gmod_method
    if method == "auto":
        method = "figure2" if resolved.max_nesting_level <= 1 else "multilevel"
    solve_gmod = GMOD_SOLVERS[method]

    timings: Dict[str, float] = {}
    started = time.perf_counter()
    counter = OpCounter()
    universe = VariableUniverse(resolved)
    call_graph = build_call_graph(resolved)
    binding_graph = build_binding_graph(resolved)
    local = LocalAnalysis(resolved, universe)
    tick = mark_phase(timings, "graphs", started)
    aliases = compute_alias_pairs(resolved, universe)
    tick = mark_phase(timings, "aliases", tick)

    kind_list = list(kinds)
    kind_counters = [OpCounter() for _ in kind_list]
    solutions: Dict[EffectKind, EffectSolution] = {}
    for kind, kind_counter in zip(kind_list, kind_counters):
        rmod = solve_rmod(binding_graph, local, kind, kind_counter)
        tick = mark_phase(timings, "rmod", tick)
        imod_plus = compute_imod_plus(resolved, local, rmod, kind, kind_counter)
        tick = mark_phase(timings, "imod_plus", tick)
        gmod = solve_gmod(call_graph, imod_plus, universe, kind, kind_counter).gmod
        tick = mark_phase(timings, "gmod", tick)
        dmod = compute_dmod(resolved, gmod, universe, kind, kind_counter)
        mod = factor_aliases_into(dmod, aliases, resolved, kind_counter)
        tick = mark_phase(timings, "dmod", tick)
        solutions[kind] = EffectSolution(
            kind=kind,
            rmod=rmod,
            imod_plus=imod_plus,
            gmod=gmod,
            dmod=dmod,
            mod=mod,
            gmod_method=method,
        )

    for kind_counter in kind_counters:
        counter.merge(kind_counter)
    timings["total"] = time.perf_counter() - started

    return SideEffectSummary(
        resolved=resolved,
        universe=universe,
        call_graph=call_graph,
        binding_graph=binding_graph,
        local=local,
        aliases=aliases,
        solutions=solutions,
        counter=counter,
        timings=timings,
        kind_counters=dict(zip(kind_list, kind_counters)),
    )
