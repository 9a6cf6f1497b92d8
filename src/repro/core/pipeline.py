"""End-to-end driver: source / resolved program → full side-effect summary.

The pipeline follows the paper's decomposition in order:

1. build the call multi-graph and the binding multi-graph;
2. compute ``LMOD``/``IMOD`` (with the Section 3.3 nesting extension);
3. solve ``RMOD`` on β (Figure 1);
4. form ``IMOD+`` (equation (5));
5. solve the global-variable problem: Figure 2's ``findgmod`` when the
   program is two-level (no nested procedures), the Section 4
   multi-level algorithm otherwise — or any solver the caller names;
6. project ``DMOD`` per call site (equation (2));
7. compute alias pairs and factor them in (Section 5, step (2)).

Both ``MOD`` and ``USE`` are solved by default.

There is one solve path.  The program is lowered into a shared
:class:`~repro.core.arena.ProgramArena` and every requested kind is
solved in one pass per phase, one mask lane per kind advanced side by
side — one graph traversal and one SCC condensation per graph, not one
per kind.  Each kind's :class:`~repro.core.bitvec.OpCounter` tally in
``summary.kind_counters`` is exactly the step count of the paper's
per-kind solver (see each fused solver's docstring), and
``summary.counter`` is their fold.  The per-kind transcriptions stay
as the test oracle :func:`repro.baselines.per_kind.analyze_per_kind`,
which the differential suites hold this driver to, set for set and
tally for tally.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.aliases import compute_aliases, factor_aliases_fused
from repro.core.arena import ProgramArena, get_arena
from repro.core.bitvec import OpCounter
from repro.core.dmod import compute_dmod_fused
from repro.core.gmod import findgmod_fused
from repro.core.gmod_nested import (
    findgmod_multilevel_fused,
    findgmod_per_level_fused,
    solve_equation4_reference_fused,
)
from repro.core.imod_plus import compute_imod_plus_fused
from repro.core.rmod import solve_rmod_fused
from repro.core.summary import EffectSolution, SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.symbols import ResolvedProgram

#: Selectable global-phase solvers (benchmarks exercise all of them).
GMOD_METHODS = ("auto", "figure2", "multilevel", "per-level", "reference")


def mark_phase(timings: Dict[str, float], phase: str, since: float) -> float:
    """Add the wall time since ``since`` to ``timings[phase]``; returns
    the clock reading, which starts the next phase."""
    now = time.perf_counter()
    timings[phase] = timings.get(phase, 0.0) + (now - since)
    return now


def run_front_end(
    program: Union[str, ResolvedProgram], timings: Dict[str, float], since: float
) -> Tuple[ResolvedProgram, float]:
    """Lex, parse and resolve CK source; returns ``(resolved, now)``.

    Records ``lex``, ``parse``, ``resolve`` and their sum ``compile``
    in ``timings``.  A resolved program passes straight through and
    only ``compile`` is recorded.  The front-end entry points are
    looked up on their modules at call time, so rebinding one (as a
    tracer does) takes effect on every driver.
    """
    if not isinstance(program, str):
        return program, mark_phase(timings, "compile", since)
    from repro.lang.lexer import tokenize_stream
    from repro.lang.parser import parse_token_stream
    from repro.lang.semantic import analyze as semantic_analyze

    stream = tokenize_stream(program)
    tick = mark_phase(timings, "lex", since)
    ast = parse_token_stream(stream)
    tick = mark_phase(timings, "parse", tick)
    resolved = semantic_analyze(ast)
    tick = mark_phase(timings, "resolve", tick)
    timings["compile"] = timings["lex"] + timings["parse"] + timings["resolve"]
    return resolved, tick


def _solve_gmod_fused(method, arena, imod_plus_packed, num_kinds, counters):
    if method == "figure2":
        result = findgmod_fused(arena, imod_plus_packed, num_kinds, counters)
        return result.gmod, "figure2"
    if method == "multilevel":
        gmod = findgmod_multilevel_fused(arena, imod_plus_packed, num_kinds, counters)
        return gmod, "multilevel"
    if method == "per-level":
        gmod = findgmod_per_level_fused(arena, imod_plus_packed, num_kinds, counters)
        return gmod, "per-level"
    if method == "reference":
        gmod = solve_equation4_reference_fused(
            arena, imod_plus_packed, num_kinds, counters
        )
        return gmod, "reference"
    raise ValueError("unknown GMOD method %r" % method)


def analyze_side_effects(
    program: Union[str, ResolvedProgram],
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    gmod_method: str = "auto",
    arena: Optional[ProgramArena] = None,
    lanes: Sequence[str] = (),
) -> SideEffectSummary:
    """Run the complete analysis.

    ``program`` may be CK source text or an already-resolved program.
    ``gmod_method`` selects the global-phase solver; ``"auto"`` picks
    Figure 2 for two-level programs and the multi-level algorithm when
    procedures nest deeper.

    Every requested kind is solved in one shared pass per phase over
    the :class:`~repro.core.arena.ProgramArena`.  Pass ``arena`` to
    reuse an existing lowering (otherwise the arena cache supplies one
    keyed on the resolved program).

    ``lanes`` names extra effect lanes (:mod:`repro.lanes`, e.g.
    ``("sections", "refalias")``) advanced through the same arena after
    the MOD/USE phases; finalized lane states land in ``summary.lanes``.
    Lane mode resolves ``gmod_method "auto"`` to the
    condensation-consuming ``"reference"`` solver so the whole run —
    GMOD phase and every lane — shares **one** cached call-graph
    condensation (Figure 2's and the multi-level solver's embedded
    Tarjan-adapted walks are their own pass, which would make a lane
    run pay two).  An explicitly named method is honored as requested.
    """
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    resolved, tick = run_front_end(program, timings, started)

    if gmod_method not in GMOD_METHODS:
        raise ValueError(
            "gmod_method must be one of %s, got %r" % (GMOD_METHODS, gmod_method)
        )
    lane_names = list(lanes)

    counter = OpCounter()
    if arena is None or arena.resolved is not resolved:
        arena = get_arena(resolved)
    tick = mark_phase(timings, "graphs", tick)
    aliases = compute_aliases(resolved, arena.universe, counter)
    tick = mark_phase(timings, "aliases", tick)

    method = gmod_method
    if method == "auto":
        if lane_names:
            # Lane mode: the reference solver consumes the arena's
            # cached condensation, so GMOD and every lane share one
            # Tarjan pass per graph (see the docstring).
            method = "reference"
        else:
            method = "figure2" if resolved.max_nesting_level <= 1 else "multilevel"

    kind_list = list(kinds)
    num_kinds = len(kind_list)
    kind_counters = [OpCounter() for _ in kind_list]
    before = arena.snapshot_condensations()
    rmod_results, rmod_bits = solve_rmod_fused(arena, kind_list, kind_counters)
    tick = mark_phase(timings, "rmod", tick)
    imod_plus_rows = compute_imod_plus_fused(
        arena, rmod_bits, kind_list, kind_counters
    )
    tick = mark_phase(timings, "imod_plus", tick)
    gmod_rows, used_method = _solve_gmod_fused(
        method, arena, imod_plus_rows, num_kinds, kind_counters
    )
    tick = mark_phase(timings, "gmod", tick)
    dmod_rows = compute_dmod_fused(arena, gmod_rows, kind_list, kind_counters)
    mod_rows = factor_aliases_fused(
        dmod_rows, aliases, arena, num_kinds, kind_counters
    )
    mark_phase(timings, "dmod", tick)
    solutions: Dict[EffectKind, EffectSolution] = {
        kind: EffectSolution(
            kind=kind,
            rmod=rmod_results[k],
            imod_plus=imod_plus_rows[k],
            gmod=gmod_rows[k],
            dmod=dmod_rows[k],
            mod=mod_rows[k],
            gmod_method=used_method,
        )
        for k, kind in enumerate(kind_list)
    }
    lane_states: Optional[Dict[str, object]] = None
    if lane_names:
        from repro.lanes.driver import solve_lanes

        # Before the condensation snapshot: a lane that triggered an
        # extra pass would show up in ``summary.condensations``, which
        # the lane framework's counter test pins at one pass per graph.
        lane_states = solve_lanes(arena, lane_names, timings)
    after = arena.snapshot_condensations()
    condensations = {
        name: count - before.get(name, 0)
        for name, count in after.items()
        if count - before.get(name, 0)
    }

    for kind_counter in kind_counters:
        counter.merge(kind_counter)
    timings["total"] = time.perf_counter() - started

    return SideEffectSummary(
        resolved=resolved,
        universe=arena.universe,
        call_graph=arena.call_graph,
        binding_graph=arena.binding_graph,
        local=arena.local,
        aliases=aliases,
        solutions=solutions,
        counter=counter,
        timings=timings,
        kind_counters=dict(zip(kind_list, kind_counters)),
        condensations=condensations,
        lanes=lane_states,
    )


def payload_from_summary(summary: SideEffectSummary) -> Dict:
    """The JSON-safe service payload for one finished analysis.

    Shared by every serving surface — the batch workers, the summary
    cache, and the analysis daemon — so a payload is byte-identical no
    matter which path produced it.  Bundles the serialized summary
    (:func:`repro.core.persist.summary_to_dict`) with the per-phase
    wall times and the :class:`~repro.core.bitvec.OpCounter` tallies
    the corpus statistics aggregator consumes.
    """
    from repro.core.persist import summary_to_dict

    payload = {
        "summary": summary_to_dict(summary),
        "timings": dict(summary.timings),
        "ops": {
            "bit_vector_steps": summary.counter.bit_vector_steps,
            "single_bit_steps": summary.counter.single_bit_steps,
            "meet_operations": summary.counter.meet_operations,
        },
        "num_procs": summary.resolved.num_procs,
        "num_call_sites": summary.resolved.num_call_sites,
    }
    # Only sharded runs carry partition statistics; omitting the key
    # otherwise keeps monolithic payloads byte-identical to before.
    if summary.shard_info is not None:
        payload["shard_info"] = summary.shard_info
    # Same contract for effect lanes: the ``lanes`` block exists exactly
    # when the analysis ran with lanes, so lane-less payloads stay
    # byte-identical to pre-lane writers.
    if summary.lanes:
        from repro.lanes.driver import lane_payloads

        payload["lanes"] = lane_payloads(summary.lanes)
    return payload


def analyze_source_payload(
    source: str,
    gmod_method: str = "auto",
    shards: Optional[int] = None,
    shard_jobs: int = 1,
    shard_strategy: str = "greedy",
    lanes: Sequence[str] = (),
) -> Dict:
    """Analyze source text and return a JSON-safe, picklable payload.

    This is the per-unit entry point for the batch service layer: a
    plain module-level function whose argument and result both pickle,
    so :class:`concurrent.futures.ProcessPoolExecutor` workers can call
    it directly.

    ``shards`` routes the solve through the sharded subsystem
    (:func:`repro.shard.solve.analyze_side_effects_sharded`, which
    ignores ``gmod_method``); the ``summary`` field of the payload is
    bit-identical either way — only ``timings``/``shard_info`` differ.

    ``lanes`` adds the named effect lanes (:mod:`repro.lanes`) and their
    ``lanes`` payload block.  Sharded runs solve the lanes on the
    coordinator's arena after the stitch — lanes ride the whole-program
    condensation, which the sharded path shares.
    """
    lane_names = list(lanes)
    if shards is not None:
        from repro.shard.solve import analyze_side_effects_sharded

        summary = analyze_side_effects_sharded(
            source,
            num_shards=shards,
            jobs=shard_jobs,
            strategy=shard_strategy,
        )
        if lane_names:
            from repro.core.arena import get_arena
            from repro.lanes.driver import solve_lanes

            summary.lanes = solve_lanes(
                get_arena(summary.resolved), lane_names, summary.timings
            )
        return payload_from_summary(summary)
    return payload_from_summary(
        analyze_side_effects(source, gmod_method=gmod_method, lanes=lane_names)
    )


def analyze_file_payload(
    path: str,
    gmod_method: str = "auto",
    shards: Optional[int] = None,
    shard_jobs: int = 1,
    shard_strategy: str = "greedy",
    lanes: Sequence[str] = (),
) -> Dict:
    """:func:`analyze_source_payload` over a file path (picklable)."""
    with open(path) as handle:
        source = handle.read()
    return analyze_source_payload(
        source,
        gmod_method=gmod_method,
        shards=shards,
        shard_jobs=shard_jobs,
        shard_strategy=shard_strategy,
        lanes=lanes,
    )
