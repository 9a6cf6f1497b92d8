"""The paper's per-kind solvers, run one effect kind at a time.

The production driver (:func:`repro.core.pipeline.analyze_side_effects`)
lowers the program into a :class:`~repro.core.arena.ProgramArena` and
advances every requested kind side by side, one pass per phase.  This
oracle runs the original transcriptions instead, once per kind, over
graphs built straight from the resolved program: Figure 1 ``RMOD``,
equation (5) ``IMOD+``, the named global-phase solver (Figure 2's
``findgmod``, a Section 4 multi-level solver, or one of the oracles in
:mod:`repro.baselines.gmod_oracles`), equation (2) ``DMOD`` and
Section 5 alias factoring (:func:`factor_aliases_into`) over the
pair-set alias oracle
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
from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.alias_pairs import compute_alias_pairs
from repro.baselines.gmod_oracles import findgmod_per_level, solve_equation4_reference
from repro.core.aliases import AliasResult
from repro.core.bitvec import OpCounter
from repro.core.dmod import compute_dmod
from repro.core.gmod import findgmod
from repro.core.gmod_nested import findgmod_multilevel
from repro.core.imod_plus import compute_imod_plus
from repro.core.local import LocalAnalysis
from repro.core.pipeline import mark_phase
from repro.core.rmod import solve_rmod
from repro.core.summary import EffectSolution, SideEffectSummary
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.lang.symbols import ResolvedProgram

#: The per-kind global-phase solver behind each ``gmod_method`` name.
GMOD_SOLVERS = {
    "figure2": findgmod,
    "multilevel": findgmod_multilevel,
    "per-level": findgmod_per_level,
    "reference": solve_equation4_reference,
}


def factor_aliases_into(
    dmod_masks: Sequence[int],
    aliases: AliasResult,
    resolved: ResolvedProgram,
    counter: Optional[OpCounter] = None,
) -> List[int]:
    """Section 5 step (2): ``MOD(s)`` from ``DMOD(s)`` and the caller's
    alias pairs (one expansion step, as the paper specifies)."""
    if counter is None:
        counter = OpCounter()
    domains = aliases.domain_mask
    partner_mask = aliases.partner_mask
    result: List[int] = []
    for site in resolved.call_sites:
        mask = dmod_masks[site.site_id]
        caller_pid = site.caller.pid
        # One AND selects exactly the members of DMOD(s) that have an
        # alias partner; only those are expanded.  The counter charges
        # one bit-vector step per expanded member — the same tally as
        # walking the partner table and testing each key against the
        # mask, which is what this replaces.
        hits = mask & domains[caller_pid]
        expanded = mask
        if hits:
            partners = partner_mask[caller_pid]
            counter.bit_vector_steps += hits.bit_count()
            while hits:
                low = hits & -hits
                expanded |= partners[low.bit_length() - 1]
                hits ^= low
        result.append(expanded)
    return result


def analyze_per_kind(
    resolved: ResolvedProgram,
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    gmod_method: str = "auto",
) -> SideEffectSummary:
    """The full analysis of ``resolved``, one kind at a time.

    ``gmod_method`` names the global-phase solver (a key of
    :data:`GMOD_SOLVERS`); ``"auto"`` picks the walk production runs,
    so the summary then matches the production driver's, per-kind
    counters included.
    """
    if gmod_method != "auto" and gmod_method not in GMOD_SOLVERS:
        raise ValueError(
            "gmod_method must be 'auto' or one of %s, got %r"
            % (tuple(GMOD_SOLVERS), gmod_method)
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
