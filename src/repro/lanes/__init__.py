"""Pluggable effect lanes riding the fused :class:`ProgramArena`.

The paper's MOD/USE machinery is one instance of a family: any analysis
whose per-procedure state propagates along the call multi-graph can ride
the arena's single lowering and its single cached SCC condensation.
This package supplies the registry (:mod:`repro.lanes.spec`), the fused
multi-lane driver (:mod:`repro.lanes.driver`), and the two shipped
lanes:

* ``sections`` — the Section 6 regular-section solver re-hosted as a
  fused lane (:mod:`repro.lanes.sections_lane`), value-identical to the
  standalone :func:`repro.sections.solver.analyze_sections`;
* ``refalias`` — a GPG-lite reference-parameter alias lane
  (:mod:`repro.lanes.refalias`): a view of the run's
  :func:`repro.core.aliases.compute_aliases` result, handed in through
  the :class:`LaneContext`; it publishes the partner tables and runs
  no fixpoint of its own.

The Dyck-reachability alias baseline lives under
:mod:`repro.baselines.dyck` — it is a precision oracle only, never a
lane.
"""

from repro.lanes.driver import LaneContext, solve_lanes
from repro.lanes.spec import (
    LANE_NAMES,
    LaneSpec,
    get_lane,
    lane_specs,
    parse_lane_names,
    register_lane,
    validate_lane_names,
)

__all__ = [
    "LANE_NAMES",
    "LaneContext",
    "LaneSpec",
    "get_lane",
    "lane_specs",
    "parse_lane_names",
    "register_lane",
    "solve_lanes",
    "validate_lane_names",
]
