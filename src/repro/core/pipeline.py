"""End-to-end driver: source / resolved program → full side-effect summary.

The pipeline follows the paper's decomposition in order:

1. build the call multi-graph and the binding multi-graph;
2. compute ``LMOD``/``IMOD`` (with the Section 3.3 nesting extension);
3. solve ``RMOD`` on β (Figure 1);
4. form ``IMOD+`` (equation (5));
5. solve the global-variable problem: Figure 2's ``findgmod`` when the
   program is two-level (no nested procedures), the Section 4
   multi-level algorithm otherwise;
6. project ``DMOD`` per call site (equation (2));
7. compute alias pairs and factor them in (Section 5, step (2)).

Both ``MOD`` and ``USE`` are solved by default.

There is one solve path.  The program is lowered into a shared
:class:`~repro.core.arena.ProgramArena` and every requested kind is
solved in one pass per phase, one mask lane per kind advanced side by
side — one graph traversal and one SCC condensation per graph, not one
per kind.  The GMOD walk is itself Tarjan's algorithm over the call
graph, and its components become the arena's call-graph condensation,
so lanes and later consumers never condense that graph again.  Each
kind's :class:`~repro.core.bitvec.OpCounter` tally in
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
from repro.core.gmod_nested import findgmod_multilevel_fused
from repro.core.imod_plus import compute_imod_plus_fused
from repro.core.rmod import solve_rmod_fused
from repro.core.summary import EffectSolution, SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.symbols import ResolvedProgram


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


def analyze_side_effects(
    program: Union[str, ResolvedProgram],
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    arena: Optional[ProgramArena] = None,
    lanes: Sequence[str] = (),
) -> SideEffectSummary:
    """Run the complete analysis.

    ``program`` may be CK source text or an already-resolved program.
    The global phase runs Figure 2 for two-level programs and the
    multi-level algorithm when procedures nest deeper; each solution's
    ``gmod_method`` records which walk ran.

    Every requested kind is solved in one shared pass per phase over
    the :class:`~repro.core.arena.ProgramArena`.  Pass ``arena`` to
    reuse an existing lowering (otherwise the arena cache supplies one
    keyed on the resolved program).

    ``lanes`` names extra effect lanes (:mod:`repro.lanes`, e.g.
    ``("sections", "refalias")``) solved after the MOD/USE phases; their
    results land in ``summary.lanes``.  The ``refalias`` lane is this
    run's alias result, not a second fixpoint.  The sections solver
    walks the components the GMOD walk recorded, so a laned run still
    condenses each graph once.
    """
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    resolved, tick = run_front_end(program, timings, started)

    lane_names = list(lanes)

    counter = OpCounter()
    if arena is None or arena.resolved is not resolved:
        arena = get_arena(resolved)
    tick = mark_phase(timings, "graphs", tick)
    aliases = compute_aliases(arena)
    tick = mark_phase(timings, "aliases", tick)

    # The walks are looked up here, at call time, so rebinding one on
    # this module (as a tracer does) takes effect.
    if resolved.max_nesting_level <= 1:
        solve_gmod, used_method = findgmod_fused, "figure2"
    else:
        solve_gmod, used_method = findgmod_multilevel_fused, "multilevel"

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
    gmod_rows = solve_gmod(arena, imod_plus_rows, num_kinds, kind_counters)
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
    lane_results: Optional[Dict[str, object]] = None
    if lane_names:
        from repro.lanes.driver import solve_lanes

        # Before the condensation snapshot: a lane that triggered an
        # extra pass would show up in ``summary.condensations``, which
        # the lane tests pin at one pass per graph.
        lane_results = solve_lanes(resolved, lane_names, aliases, timings)
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
        lanes=lane_results,
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
    # The ``lanes`` block exists exactly when the analysis ran with
    # lanes, so lane-less payloads stay byte-identical to pre-lane
    # writers.
    if summary.lanes:
        from repro.lanes.driver import lane_payloads

        payload["lanes"] = lane_payloads(summary)
    return payload


def analyze_source_payload(source: str, lanes: Sequence[str] = ()) -> Dict:
    """Analyze source text and return a JSON-safe, picklable payload.

    This is the per-unit entry point for the batch service layer: a
    plain module-level function whose argument and result both pickle,
    so :class:`concurrent.futures.ProcessPoolExecutor` workers can call
    it directly.

    ``lanes`` adds the named effect lanes (:mod:`repro.lanes`) and their
    ``lanes`` payload block.
    """
    summary = analyze_side_effects(source, lanes=list(lanes))
    return payload_from_summary(summary)
