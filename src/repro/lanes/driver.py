"""The multi-lane fused driver.

``solve_lanes`` advances every requested lane through **one** traversal
of the arena's cached call-graph condensation — the components the
run's GMOD walk recorded, which the standalone sections path consumes
too — so N lanes cost exactly the same number of condensation passes
as zero lanes: the counter-asserted invariant of the lane framework
(``tests/test_lanes.py``).

The shared walk structure:

* the per-caller site-id decode is built once and handed to every lane
  through the :class:`LaneContext`;
* all *up* lanes (callee → caller) advance together, component by
  component in the condensation's reverse-topological order, each
  component iterated until every still-active lane reports quiescence
  (a lane that stabilised early is not swept again — lanes are
  independent, so its facts cannot change);
* *down* lanes (caller → callee) then run once each; the shipped one,
  ``refalias``, adopts the run's :class:`~repro.core.aliases.AliasResult`
  handed in through the context instead of solving anything.

Trivial components (a single procedure with no self call) take exactly
one sweep, mirroring the standalone sections solver's early exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.lanes.spec import get_lane


@dataclass
class LaneContext:
    """Shared per-run structures every lane state receives."""

    arena: object
    component_of: Sequence[int]
    components: Sequence[Sequence[int]]
    #: Per pid: site ids of the procedure's call sites, in site order.
    sites_by_caller: List[List[int]]
    #: The run's alias result (:func:`repro.core.aliases.compute_aliases`).
    aliases: object

    @classmethod
    def build(cls, arena, aliases) -> "LaneContext":
        component_of, components = arena.call_condensation()
        sites_by_caller: List[List[int]] = [
            [] for _ in range(arena.resolved.num_procs)
        ]
        for sid, caller_pid in enumerate(arena.site_caller):
            sites_by_caller[caller_pid].append(sid)
        return cls(
            arena=arena,
            component_of=component_of,
            components=components,
            sites_by_caller=sites_by_caller,
            aliases=aliases,
        )

    def is_trivial_component(self, comp_index: int) -> bool:
        members = self.components[comp_index]
        if len(members) != 1:
            return False
        node = members[0]
        return not any(
            self.component_of[succ] == comp_index
            for succ in self.arena.call_csr.successors_of(node)
        )


def solve_lanes(
    arena,
    lane_names: Sequence[str],
    aliases,
    timings: Dict[str, float] = None,
) -> Dict[str, object]:
    """Advance every named lane to its fixpoint on the shared arena.

    ``aliases`` is the run's alias result, which lanes read instead of
    re-deriving.  Returns ``{lane name: finalized lane state}`` in
    request order.  ``timings``, when given, receives one
    ``lane.<name>`` entry per lane plus the shared-walk total under
    ``lanes``.
    """
    specs = [get_lane(name) for name in lane_names]
    started = time.perf_counter()
    ctx = LaneContext.build(arena, aliases)
    states = {spec.name: spec.make_state(arena) for spec in specs}
    lane_clock = {spec.name: 0.0 for spec in specs}

    up = [states[spec.name] for spec in specs if spec.direction == "up"]
    down = [states[spec.name] for spec in specs if spec.direction == "down"]

    if up:
        names_up = [
            spec.name for spec in specs if spec.direction == "up"
        ]
        for comp_index, members in enumerate(ctx.components):
            active = list(zip(names_up, up))
            sweeps = {name: 0 for name in names_up}
            trivial = ctx.is_trivial_component(comp_index)
            while active:
                still = []
                for name, state in active:
                    tick = time.perf_counter()
                    changed = state.sweep_component(comp_index, members, ctx)
                    lane_clock[name] += time.perf_counter() - tick
                    sweeps[name] += 1
                    if changed and not trivial:
                        still.append((name, state))
                active = still
            for name, state in zip(names_up, up):
                note = getattr(state, "note_component", None)
                if note is not None:
                    note(sweeps[name])
    for state in down:
        tick = time.perf_counter()
        state.solve_down(ctx)
        lane_clock[_name_of(states, state)] += time.perf_counter() - tick
    for spec in specs:
        state = states[spec.name]
        tick = time.perf_counter()
        state.finalize(ctx)
        lane_clock[spec.name] += time.perf_counter() - tick

    if timings is not None:
        for name, spent in lane_clock.items():
            timings["lane.%s" % name] = timings.get("lane.%s" % name, 0.0) + spent
        timings["lanes"] = timings.get("lanes", 0.0) + (
            time.perf_counter() - started
        )
    return states


def _name_of(states: Dict[str, object], state) -> str:
    for name, candidate in states.items():
        if candidate is state:
            return name
    raise KeyError("lane state not registered")


def lane_payloads(states: Dict[str, object]) -> Dict[str, Dict]:
    """JSON-safe ``lanes`` block: ``{name: payload}`` in solve order."""
    return {name: state.to_payload() for name, state in states.items()}


def lane_blobs(states: Dict[str, object]) -> Dict[int, bytes]:
    """v4 container trailer sections for every persistable lane."""
    out: Dict[int, bytes] = {}
    for name, state in states.items():
        tag = get_lane(name).section_tag
        if tag:
            out[tag] = state.to_blob()
    return out
