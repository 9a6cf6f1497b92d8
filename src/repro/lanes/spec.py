"""The lane registry: what it takes to ride the fused arena.

A *lane* is one analysis kind advanced through the shared
:class:`~repro.core.arena.ProgramArena` traversal.  The MOD/USE solvers
are the built-in pair; a :class:`LaneSpec` describes any further kind
generically enough that the driver (:mod:`repro.lanes.driver`) can
advance all registered lanes through **one** cached call-graph
condensation, regardless of how many lanes are requested.

A spec names the lane, states which way its facts flow along call
edges, reports its mask width (every lane's per-procedure state is
bounded by masks over the variable universe — the arena's per-kind
lane discipline from PR 5, see ``core/arena.py``), and builds the
lane's mutable state from the arena.  The state object carries the
lane-specific transfer functions:

* ``direction == "up"`` (callee → caller, like ``GMOD``): the state
  must implement ``sweep_component(comp_index, members, ctx) -> bool``
  — one sweep over a component's call sites, returning whether any
  per-procedure fact changed.  The driver owns the component walk and
  the per-component fixpoint loop, shared across every up lane.
* ``direction == "down"`` (caller → callee, like alias pairs): the
  state must implement ``solve_down(ctx)`` — the driver calls it once
  with the shared context (condensation, per-caller sites and the
  run's alias result).

Both shapes then implement ``finalize(ctx)`` (post-fixpoint
projections), ``to_payload()`` (a JSON-safe block for the service
surfaces), and ``to_blob()`` (a compact binary form for the v4
container trailer, built on :mod:`repro.core.binio`'s signed-mask
strips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence


@dataclass(frozen=True)
class LaneSpec:
    """Registry entry for one pluggable analysis lane."""

    #: Registry key (the ``--lanes`` token).
    name: str
    #: One-line description for docs and ``--help``.
    description: str
    #: Which way facts flow along call edges: ``"up"`` (callee →
    #: caller) or ``"down"`` (caller → callee).
    direction: str
    #: Mask width of the lane's per-procedure state, in bits, as a
    #: function of the arena (every shipped lane is universe-wide).
    mask_width: Callable[[object], int]
    #: Build the lane's mutable state from the arena.  The state seeds
    #: itself (the lane's local extraction) and carries the binding
    #: transfer (its projection through call-site bindings).
    make_state: Callable[[object], object]
    #: Tag of this lane's v4 container trailer section
    #: (see :mod:`repro.core.persist`); 0 when the lane is not
    #: persisted.
    section_tag: int = 0


_REGISTRY: Dict[str, LaneSpec] = {}


def register_lane(spec: LaneSpec) -> LaneSpec:
    """Add a lane to the registry (idempotent per name)."""
    if spec.direction not in ("up", "down"):
        raise ValueError(
            "lane direction must be 'up' or 'down', got %r" % spec.direction
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_lane(name: str) -> LaneSpec:
    _ensure_builtin()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            "unknown lane %r (registered: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        )
    return spec


def lane_specs() -> List[LaneSpec]:
    """Every registered lane, in registration order."""
    _ensure_builtin()
    return list(_REGISTRY.values())


def parse_lane_names(text: str) -> List[str]:
    """Parse a ``--lanes`` argument (comma-separated, order-preserving,
    duplicates dropped) and validate every name against the registry."""
    names: List[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        get_lane(token)  # Raises on unknown names.
        if token not in names:
            names.append(token)
    return names


def validate_lane_names(names: Sequence[str]) -> List[str]:
    """Validate an already-split lane name list (service surfaces)."""
    out: List[str] = []
    for name in names:
        get_lane(name)
        if name not in out:
            out.append(name)
    return out


def _ensure_builtin() -> None:
    """Register the shipped lanes on first use (import cycle guard:
    the lane modules import the solvers, which never import us)."""
    if "sections" in _REGISTRY:
        return
    from repro.lanes import refalias, sections_lane  # noqa: F401  (self-registering)


#: Names of the shipped lanes, for CLI help and docs.
LANE_NAMES = ("sections", "refalias", "sections-use")
