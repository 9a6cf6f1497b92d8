"""Dyck-reachability alias baseline (differential precision oracle).

Banning-style pair propagation (:mod:`repro.core.aliases`, the fast
path) is *call-path sensitive in one respect*: a formal only aliases
what flows to it through an actual call chain, matched call/return
style.  The classic coarser alternative formulates reference-parameter
aliasing as reachability over the *binding* edges alone — the CFL-/
Dyck-reachability family — and simply ignores whether two flows can
share a call path.

This module implements that coarser solver as an *origin-set* closure:

* every variable starts as its own origin, ``O(v) = {v}``;
* every by-reference binding ``actual a → formal f`` at any call site
  adds ``O(f) ⊇ O(a)``;
* two extant variables of ``q`` may alias iff at least one is a formal
  and ``O(a) ∩ O(b) ≠ ∅``.

Origins only ever grow along binding edges, which is exactly the
"unbalanced parentheses" relaxation of Dyck reachability: every alias
pair Banning's rules can introduce shares an origin (rules 1/2 bind
two formals through one actual; rule 3 puts the actual itself in the
formal's origin set; rule 4 composes with an inductively-shared
origin; rule 5 only re-scopes existing pairs), so by induction over
rule applications ``ALIAS(q) ⊆ DYCK(q)`` for every procedure — the
property :func:`compare_precision` checks pair-by-pair and the lane
test suite pins across the differential sweep.

The reverse inclusion fails on purpose: Dyck reachability conflates
call sites, so a formal reached by two *different* actuals from two
*unrelated* call chains reports pairs the precise analysis rejects.
The gap (``dyck_only_pairs``) is the measured precision value of the
paper's pair propagation.

This solver is **never** on the fast path — no arena, no condensation,
no masks shared with the pipeline.  It exists to be differentially
compared against, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.aliases import AliasResult, Pair, _pair
from repro.core.varsets import VariableUniverse
from repro.lang.symbols import ResolvedProgram


def dyck_origins(resolved: ResolvedProgram) -> List[int]:
    """The origin-set closure: per uid, the mask of variables whose
    value can reach this one through by-reference bindings."""
    num_vars = len(resolved.variables)
    origin: List[int] = [1 << uid for uid in range(num_vars)]

    # actual base uid -> formal uids it binds to (across all sites).
    edges: Dict[int, List[int]] = {}
    for site in resolved.call_sites:
        formals = site.callee.formals
        for binding in site.bindings:
            if not binding.by_reference:
                continue
            formal_uid = formals[binding.position].uid
            targets = edges.setdefault(binding.base.uid, [])
            if formal_uid not in targets:
                targets.append(formal_uid)

    worklist = list(edges)
    queued = set(worklist)
    while worklist:
        source = worklist.pop()
        queued.discard(source)
        spread = origin[source]
        for formal_uid in edges.get(source, ()):
            merged = origin[formal_uid] | spread
            if merged != origin[formal_uid]:
                origin[formal_uid] = merged
                if formal_uid not in queued:
                    worklist.append(formal_uid)
                    queued.add(formal_uid)
    return origin


def compute_dyck_aliases(
    resolved: ResolvedProgram,
    universe: VariableUniverse = None,
) -> List[Set[Pair]]:
    """``DYCK(q)`` per pid: formal-involving extant pairs with
    intersecting origin sets."""
    if universe is None:
        universe = VariableUniverse(resolved)
    origin = dyck_origins(resolved)
    num_vars = len(resolved.variables)
    formal_uids = [
        uid
        for uid in range(num_vars)
        if resolved.variables[uid].is_formal
    ]

    out: List[Set[Pair]] = []
    for proc in resolved.procs:
        extant = universe.extant_mask(proc)
        pair_set: Set[Pair] = set()
        for a in formal_uids:
            if not (extant >> a) & 1:
                continue
            origin_a = origin[a]
            for b in range(num_vars):
                if b == a or not (extant >> b) & 1:
                    continue
                if origin_a & origin[b]:
                    pair_set.add(_pair(a, b))
        out.append(pair_set)
    return out


@dataclass
class PrecisionReport:
    """Differential comparison ``ALIAS(q)`` vs ``DYCK(q)``."""

    #: True iff ``ALIAS(q) ⊆ DYCK(q)`` held for every procedure.
    subset_holds: bool
    alias_pairs: int
    dyck_pairs: int
    #: Pairs the Dyck baseline reports that pair propagation rejects
    #: (its measured precision win), per pid.
    dyck_only: List[Set[Pair]] = field(default_factory=list)
    #: Any pairs the precise analysis has but Dyck misses — must stay
    #: empty; a non-empty entry is a soundness bug in one of the two.
    alias_only: List[Set[Pair]] = field(default_factory=list)

    @property
    def dyck_only_pairs(self) -> int:
        return sum(len(pair_set) for pair_set in self.dyck_only)

    def describe(self) -> str:
        return (
            "dyck-baseline: subset=%s alias=%d dyck=%d imprecision=+%d"
            % (
                self.subset_holds,
                self.alias_pairs,
                self.dyck_pairs,
                self.dyck_only_pairs,
            )
        )


def compare_precision(
    resolved: ResolvedProgram,
    aliases: AliasResult,
    universe: VariableUniverse = None,
) -> PrecisionReport:
    """Check ``ALIAS(q) ⊆ DYCK(q)`` per procedure and measure the gap."""
    dyck = compute_dyck_aliases(resolved, universe)
    dyck_only: List[Set[Pair]] = []
    alias_only: List[Set[Pair]] = []
    for proc in resolved.procs:
        precise = aliases.pairs_of(proc)
        coarse = dyck[proc.pid]
        dyck_only.append(coarse - precise)
        alias_only.append(precise - coarse)
    return PrecisionReport(
        subset_holds=all(not extra for extra in alias_only),
        alias_pairs=aliases.total_pairs(),
        dyck_pairs=sum(len(pair_set) for pair_set in dyck),
        dyck_only=dyck_only,
        alias_only=alias_only,
    )
