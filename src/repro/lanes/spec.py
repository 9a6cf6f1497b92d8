"""The shipped effect-lane names and their one validator.

A *lane* is an extra result an analysis can carry next to MOD/USE.
There are three, fixed: ``sections`` and ``sections-use`` are the
Section 6 regular sections of each kind
(:func:`repro.sections.solver.analyze_sections`), and ``refalias`` is
the run's own alias result.  :func:`parse_lane_names` validates a
request against them for the CLI, the batch engine and the daemon
alike.
"""

from __future__ import annotations

from typing import List, Sequence, Union

#: Names of the shipped lanes, for CLI help and docs.
LANE_NAMES = ("sections", "refalias", "sections-use")


def parse_lane_names(lanes: Union[str, Sequence[str]]) -> List[str]:
    """Validate a lane request: a ``--lanes`` string (comma-separated)
    or a sequence of names.  Returns the names stripped, in request
    order, duplicates dropped; raises :class:`ValueError` on a name
    that is not in :data:`LANE_NAMES`."""
    tokens = lanes.split(",") if isinstance(lanes, str) else lanes
    names: List[str] = []
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        if token not in LANE_NAMES:
            raise ValueError(
                "unknown lane %r (known: %s)" % (token, ", ".join(LANE_NAMES))
            )
        if token not in names:
            names.append(token)
    return names
