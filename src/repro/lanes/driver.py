"""Solve and render the effect lanes of one analysis.

``solve_lanes`` runs :func:`~repro.sections.solver.analyze_sections`
once per requested sections kind and hands back the run's
:class:`~repro.core.aliases.AliasResult` for ``refalias``, which runs
no fixpoint of its own.  The sections solver walks the call-graph
components the run's GMOD walk recorded in the arena, so a laned run
condenses each graph exactly once, like a lane-less one
(``tests/test_lanes.py`` counts the passes).
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from repro.core.varsets import EffectKind
from repro.lanes.refalias import refalias_payload
from repro.lanes.sections_lane import sections_payload
from repro.lanes.spec import parse_lane_names

#: The effect kind of each sections lane.
_SECTION_KINDS = {"sections": EffectKind.MOD, "sections-use": EffectKind.USE}


def solve_lanes(
    resolved,
    lane_names: Sequence[str],
    aliases,
    timings: Dict[str, float] = None,
) -> Dict[str, object]:
    """Every named lane's result for ``resolved``, in request order: a
    :class:`~repro.sections.solver.SectionAnalysis` per sections lane,
    and ``aliases`` itself (the run's alias result) for ``refalias``.

    ``timings``, when given, receives one ``lane.<name>`` entry per
    lane plus their total under ``lanes``.
    """
    from repro.sections.solver import analyze_sections

    started = time.perf_counter()
    results: Dict[str, object] = {}
    for name in parse_lane_names(lane_names):
        tick = time.perf_counter()
        if name == "refalias":
            results[name] = aliases
        else:
            results[name] = analyze_sections(resolved, _SECTION_KINDS[name])
        if timings is not None:
            key = "lane.%s" % name
            timings[key] = timings.get(key, 0.0) + (time.perf_counter() - tick)
    if timings is not None:
        timings["lanes"] = timings.get("lanes", 0.0) + (
            time.perf_counter() - started
        )
    return results


def lane_payloads(summary) -> Dict[str, Dict]:
    """JSON-safe ``lanes`` block of a laned summary: ``{name:
    payload}`` in solve order."""
    out: Dict[str, Dict] = {}
    for name, result in summary.lanes.items():
        if name == "refalias":
            out[name] = refalias_payload(
                result, summary.resolved, summary.universe.names
            )
        else:
            out[name] = sections_payload(result)
    return out
