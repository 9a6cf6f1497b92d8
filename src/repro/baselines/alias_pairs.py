"""The pair-set alias worklist, kept as the test oracle.

The production solver (:func:`repro.core.aliases.compute_aliases`)
keeps only partner masks.  This is the earlier formulation it
replaced: a worklist over explicit ``frozenset`` pairs, mirrored into
partner masks as it goes.  It shares no code with the production
drain — it decodes call sites from the resolved program, not the
arena, and keeps its own pair sets — so the differential suites can
hold the production tables to it, table for table, and the per-kind
oracle (:func:`repro.baselines.per_kind.analyze_per_kind`) factors
``MOD`` through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.aliases import AliasResult, Pair
from repro.core.varsets import VariableUniverse
from repro.lang.symbols import ProcSymbol, ResolvedProgram


@dataclass
class AliasPairs(AliasResult):
    """An :class:`AliasResult` that also keeps the worklist's pair sets."""

    pairs: List[Set[Pair]] = field(default_factory=list)

    def pairs_of(self, proc: ProcSymbol) -> Set[Pair]:
        return self.pairs[proc.pid]

    def total_pairs(self) -> int:
        return sum(len(pair_set) for pair_set in self.pairs)


def compute_alias_pairs(
    resolved: ResolvedProgram, universe: VariableUniverse
) -> AliasPairs:
    """Fixpoint of the introduction rules over the call multi-graph,
    one pair at a time."""
    num_procs = resolved.num_procs
    pairs: List[Set[Pair]] = [set() for _ in range(num_procs)]

    # The pair sets are mirrored into per-procedure partner masks
    # (uid -> mask of alias partners) and a domain mask (the key set as
    # a mask), maintained incrementally.  Membership tests and rule 4's
    # "every caller pair containing actual_i" become single AND/shift
    # operations instead of scans over the whole pair set.
    partner_mask: List[Dict[int, int]] = [{} for _ in range(num_procs)]
    domain_mask: List[int] = [0] * num_procs

    def _add_pair(pid: int, a: int, b: int) -> None:
        pairs[pid].add(frozenset((a, b)))
        partners = partner_mask[pid]
        partners[a] = partners.get(a, 0) | (1 << b)
        partners[b] = partners.get(b, 0) | (1 << a)
        domain_mask[pid] |= (1 << a) | (1 << b)

    # Per-site by-reference bindings as uid pairs, derived once — the
    # worklist revisits a caller many times and the formal/base symbols
    # never change.
    sites_by_caller: List[List] = [[] for _ in range(num_procs)]
    for site in resolved.call_sites:
        callee = site.callee
        ref = [
            (callee.formals[b.position].uid, b.base.uid)
            for b in site.bindings
            if b.by_reference
        ]
        sites_by_caller[site.caller.pid].append((callee.pid, ref))

    extant_uid_mask: List[int] = [universe.extant_mask(p) for p in resolved.procs]

    # Worklist of pids whose ALIAS set changed (all procs first: rules
    # 1 and 3 fire without any caller pairs).
    worklist = list(range(num_procs))
    queued = [True] * num_procs
    while worklist:
        caller_pid = worklist.pop()
        queued[caller_pid] = False
        # Rule 5: nested procedures inherit the enclosing procedure's
        # pairs (every member is still extant one level down).
        for nested in resolved.procs[caller_pid].nested:
            new_pairs = pairs[caller_pid] - pairs[nested.pid]
            if new_pairs:
                for pair in new_pairs:
                    a, b = tuple(pair)
                    _add_pair(nested.pid, a, b)
                if not queued[nested.pid]:
                    queued[nested.pid] = True
                    worklist.append(nested.pid)
        # Snapshot: on self-recursive sites the caller's and callee's
        # partner tables are the same object, and rules 2/4 read one
        # while rule insertions grow the other.  New pairs are picked
        # up by the worklist requeue.
        caller_partners = dict(partner_mask[caller_pid])
        for callee_pid, ref in sites_by_caller[caller_pid]:
            callee_extant = extant_uid_mask[callee_pid]
            callee_partners = partner_mask[callee_pid]
            added = False
            for index, (formal_uid, actual_uid) in enumerate(ref):
                formal_partners = callee_partners.get(formal_uid, 0)
                # Rule 3: actual still extant inside the callee.
                if (
                    (callee_extant >> actual_uid) & 1
                    and actual_uid != formal_uid
                    and not (formal_partners >> actual_uid) & 1
                ):
                    _add_pair(callee_pid, formal_uid, actual_uid)
                    formal_partners |= 1 << actual_uid
                    added = True
                aliased_to_actual = caller_partners.get(actual_uid, 0)
                # Rules 1 and 2: two actuals aliased in the caller.
                for formal_j_uid, actual_j_uid in ref[index + 1:]:
                    same = actual_uid == actual_j_uid
                    known = (aliased_to_actual >> actual_j_uid) & 1
                    if (same or known) and formal_uid != formal_j_uid:
                        if not (formal_partners >> formal_j_uid) & 1:
                            _add_pair(callee_pid, formal_uid, formal_j_uid)
                            formal_partners |= 1 << formal_j_uid
                            added = True
                # Rule 4: actual aliased in the caller to a variable
                # still extant inside the callee.  One AND finds every
                # candidate; only genuinely new pairs are walked.
                new_bits = (
                    aliased_to_actual
                    & callee_extant
                    & ~formal_partners
                    & ~(1 << formal_uid)
                )
                while new_bits:
                    low = new_bits & -new_bits
                    other = low.bit_length() - 1
                    _add_pair(callee_pid, formal_uid, other)
                    formal_partners |= low
                    new_bits ^= low
                    added = True
            if added and not queued[callee_pid]:
                queued[callee_pid] = True
                worklist.append(callee_pid)

    return AliasPairs(
        partner_mask=partner_mask, domain_mask=domain_mask, pairs=pairs
    )
