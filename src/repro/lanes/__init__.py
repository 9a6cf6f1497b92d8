"""Effect lanes: extra results an analysis carries next to MOD/USE.

There are three, fixed (:data:`LANE_NAMES`):

* ``sections`` / ``sections-use`` — the Section 6 regular sections of
  each kind, solved by :func:`repro.sections.solver.analyze_sections`
  over the arena's recorded call-graph components
  (:mod:`repro.lanes.sections_lane` renders them);
* ``refalias`` — the run's own
  :class:`~repro.core.aliases.AliasResult`, published as partner
  tables (:mod:`repro.lanes.refalias`); no second fixpoint runs.

:mod:`repro.lanes.driver` solves the requested lanes and renders their
``lanes`` payload blocks.  The Dyck-reachability alias baseline lives
under :mod:`repro.baselines.dyck` — it is a precision oracle only,
never a lane.
"""

from repro.lanes.driver import lane_payloads, solve_lanes
from repro.lanes.spec import LANE_NAMES, parse_lane_names

__all__ = [
    "LANE_NAMES",
    "lane_payloads",
    "parse_lane_names",
    "solve_lanes",
]
