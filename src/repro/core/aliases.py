"""Alias-pair analysis and the final ``DMOD`` → ``MOD`` step (Section 5).

The paper's algorithm is *alias-free*: aliasing is "ignored until late
in the computation; the method assumes that simple sets of alias pairs
are available for each procedure".  This module supplies those sets
with the classical Banning-style flow-insensitive computation for
languages whose only aliasing mechanism is reference-parameter passing:

``ALIAS(q)`` (pairs that may hold on entry to ``q``) is the least
fixpoint of the introduction rules over all call sites ``e = (p, q)``
with by-reference bindings ``a_i ↦ f_i``:

1. ``a_i`` and ``a_j`` are the same variable (``i ≠ j``)
   → ``⟨f_i, f_j⟩``;
2. ``⟨a_i, a_j⟩ ∈ ALIAS(p)``            → ``⟨f_i, f_j⟩``;
3. ``a_i = v`` and ``v`` is still *extant* inside ``q``
   (a global, or a variable of one of ``q``'s lexical ancestors —
   extant rather than name-visible, because shadowing hides a name
   without deallocating the instance) → ``⟨f_i, v⟩``;
4. ``⟨a_i, v⟩ ∈ ALIAS(p)`` and ``v`` extant inside ``q``
   → ``⟨f_i, v⟩``;
5. (lexical nesting) ``ALIAS(q) ⊇ ALIAS(parent(q))`` — a pair that may
   hold on entry to the enclosing procedure still holds, for the
   statically-linked instances, when a nested procedure is entered.

``ALIAS(p)`` is held as a *partner table* (uid → mask of the uids it
may be aliased to, symmetric) plus a *domain mask* (the table's key
set), the two structures the factoring step consumes.  Pairs are never
enumerated while solving: rules 2 and 4 read one table entry, rule 5
ORs the parent's table into the child's entry by entry, and
:meth:`AliasResult.pairs_of` derives pair sets only on demand.

Then, per the paper's step (2)::

    ∀ x ∈ DMOD(s):  if ⟨x, y⟩ ∈ ALIAS(p)  then  add y to MOD(s)

one introduction step, not a transitive closure — exactly as stated.
The cost of both phases is linear in the number of alias pairs, which
the paper notes is unavoidable for any summary computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.bitvec import OpCounter
from repro.lang.symbols import ProcSymbol, VarSymbol

Pair = FrozenSet[int]  # A pair of variable uids (frozenset of size 2).

#: One procedure's carried alias state: its partner table and domain.
Carried = Tuple[Dict[int, int], int]


def _pair(a: int, b: int) -> Pair:
    return frozenset((a, b))


def iter_pairs(table: Dict[int, int]) -> Iterator[Tuple[int, int]]:
    """The pairs of a partner table as ``(a, b)`` with ``a < b``, in
    ascending ``(a, b)`` order (each pair once)."""
    for a in sorted(table):
        higher = table[a] >> (a + 1)
        while higher:
            low = higher & -higher
            yield a, a + low.bit_length()
            higher ^= low


def named_pairs(
    pairs: Iterable[Tuple[int, int]], names: Sequence[str]
) -> List[List[str]]:
    """Uid pairs (a partner table's :func:`iter_pairs`) as name pairs:
    each pair sorted by name, the list sorted — the serialized
    ``aliases`` form."""
    out = []
    for a, b in pairs:
        first, second = names[a], names[b]
        out.append([first, second] if first < second else [second, first])
    out.sort()
    return out


@dataclass
class AliasResult:
    """``ALIAS(p)`` for every procedure, as partner tables."""

    #: Per pid: uid -> mask of uids it may be aliased to on entry.
    partner_mask: List[Dict[int, int]]
    #: Per pid: mask of uids that have at least one alias partner (the
    #: key set of ``partner_mask[pid]`` as a mask).  Lets the factoring
    #: step detect "no pair of this set is aliased" with one AND.
    domain_mask: List[int]

    def pairs_of(self, proc: ProcSymbol) -> Set[Pair]:
        return {_pair(a, b) for a, b in iter_pairs(self.partner_mask[proc.pid])}

    def total_pairs(self) -> int:
        return sum(
            mask.bit_count() for table in self.partner_mask for mask in table.values()
        ) // 2

    def may_alias(self, proc: ProcSymbol, a: VarSymbol, b: VarSymbol) -> bool:
        return bool((self.partner_mask[proc.pid].get(a.uid, 0) >> b.uid) & 1)


def compute_aliases(
    arena,
    carried: Optional[Sequence[Optional[Carried]]] = None,
    seeds: Optional[Iterable[int]] = None,
) -> AliasResult:
    """Least fixpoint of the introduction rules over the call
    multi-graph of ``arena`` (a :class:`~repro.core.arena.ProgramArena`).

    A worklist drains procedures whose table changed: every pid is
    pushed in ascending order and popped LIFO, so the highest pid
    drains first.  Popping ``p`` applies rule 5 to each procedure
    nested in ``p`` and rules 1–4 to each call site in ``p``.

    Warm starts, for incremental re-analysis: ``carried[pid]`` is
    ``None`` for a table to re-derive, or the ``(table, domain)`` known
    to be final for that procedure — used by reference and never
    written, since a final table gains nothing.  ``seeds`` then
    replaces the all-pid start with those pids (sorted, highest first);
    the caller is responsible for the region argument (see
    :mod:`repro.core.incremental`).  The least fixpoint is unique, so a
    warm start is value-identical to a cold one.
    """
    resolved = arena.resolved
    universe = arena.universe
    procs = resolved.procs
    num_procs = resolved.num_procs
    partner_mask: List[Dict[int, int]] = []
    domain_mask: List[int] = []
    if carried is None:
        partner_mask = [{} for _ in range(num_procs)]
        domain_mask = [0] * num_procs
    else:
        for entry in carried:
            table, domain = ({}, 0) if entry is None else entry
            partner_mask.append(table)
            domain_mask.append(domain)

    # Per-caller by-reference bindings as (formal uid, actual uid)
    # lists, decoded lazily from the arena's flat site tables: a warm
    # drain only touches its region and frontier.  Sites without a
    # by-reference binding introduce nothing and are dropped.
    site_callee = arena.site_callee
    ref_heads = arena.site_ref_heads
    ref_formal = arena.ref_formal_uid
    ref_base = arena.ref_base_uid
    site_ids: List[List[int]] = [[] for _ in range(num_procs)]
    for sid, caller_pid in enumerate(arena.site_caller):
        if ref_heads[sid] != ref_heads[sid + 1]:
            site_ids[caller_pid].append(sid)
    decoded: List[Optional[List]] = [None] * num_procs
    extant: List[Optional[int]] = [None] * num_procs

    if seeds is None:
        worklist = list(range(num_procs))
        queued = [True] * num_procs
    else:
        worklist = sorted(seeds)
        queued = [False] * num_procs
        for pid in worklist:
            queued[pid] = True
    while worklist:
        caller_pid = worklist.pop()
        queued[caller_pid] = False
        table = partner_mask[caller_pid]
        # Rule 5: nested procedures inherit the enclosing procedure's
        # pairs (every member is still extant one level down).  The
        # tables are symmetric, so an entry-wise OR adds both halves
        # of every pair.
        if table:
            for nested in procs[caller_pid].nested:
                nested_pid = nested.pid
                nested_table = partner_mask[nested_pid]
                added = False
                for a, mask in table.items():
                    old = nested_table.get(a, 0)
                    merged = old | mask
                    if merged != old:
                        nested_table[a] = merged
                        added = True
                if added:
                    domain_mask[nested_pid] |= domain_mask[caller_pid]
                    if not queued[nested_pid]:
                        queued[nested_pid] = True
                        worklist.append(nested_pid)

        sites = decoded[caller_pid]
        if sites is None:
            sites = decoded[caller_pid] = [
                (
                    site_callee[sid],
                    [
                        (ref_formal[r], ref_base[r])
                        for r in range(ref_heads[sid], ref_heads[sid + 1])
                    ],
                )
                for sid in site_ids[caller_pid]
            ]
        # The caller's table is read live: on a self-recursive site it
        # is also the table being grown, and any pair read early is in
        # the fixpoint anyway; the growth requeues the caller.
        for callee_pid, ref in sites:
            callee_extant = extant[callee_pid]
            if callee_extant is None:
                callee_extant = extant[callee_pid] = universe.extant_mask(
                    procs[callee_pid]
                )
            callee_table = partner_mask[callee_pid]
            added = False
            for index, (formal_uid, actual_uid) in enumerate(ref):
                aliased_to_actual = table.get(actual_uid, 0)
                # Rules 3 and 4: the actual itself and its partners in
                # the caller, where still extant inside the callee.
                new_bits = (aliased_to_actual | (1 << actual_uid)) & callee_extant
                # Rules 1 and 2: two actuals that are the same variable
                # or aliased in the caller.
                for formal_j_uid, actual_j_uid in ref[index + 1:]:
                    if actual_j_uid == actual_uid or (
                        (aliased_to_actual >> actual_j_uid) & 1
                    ):
                        new_bits |= 1 << formal_j_uid
                formal_bit = 1 << formal_uid
                old = callee_table.get(formal_uid, 0)
                new_bits &= ~(old | formal_bit)
                if not new_bits:
                    continue
                callee_table[formal_uid] = old | new_bits
                domain_mask[callee_pid] |= new_bits | formal_bit
                added = True
                while new_bits:
                    low = new_bits & -new_bits
                    other = low.bit_length() - 1
                    callee_table[other] = callee_table.get(other, 0) | formal_bit
                    new_bits ^= low
            if added and not queued[callee_pid]:
                queued[callee_pid] = True
                worklist.append(callee_pid)

    return AliasResult(partner_mask=partner_mask, domain_mask=domain_mask)


def factor_aliases_fused(
    dmod_rows: Sequence[Sequence[int]],
    aliases: AliasResult,
    arena,
    num_kinds: int,
    counters: Sequence[OpCounter],
    sites: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Section 5 step (2) over the per-kind per-site DMOD rows.

    The caller decode and domain lookup run once per site and feed
    every lane; expansion happens lane by lane (the partner tables are
    per-uid).

    ``sites`` restricts the expansion to those call sites; every other
    entry of the result is its ``DMOD`` row's, for an incremental update
    to overlay with the rows it carries.  ``None`` expands every site.

    Counter identity: each kind's counter is charged exactly the legacy
    tally, one bit-vector step per expanded member of that kind's set,
    summed over the expanded sites.
    """
    domains = aliases.domain_mask
    partner_mask = aliases.partner_mask
    site_caller = arena.site_caller
    if sites is None:
        sites = range(len(site_caller))
    result: List[List[int]] = [list(row) for row in dmod_rows]
    for sid in sites:
        caller_pid = site_caller[sid]
        domain = domains[caller_pid]
        if not domain:
            continue
        partners = partner_mask[caller_pid]
        for k in range(num_kinds):
            hits = dmod_rows[k][sid] & domain
            if hits:
                counters[k].bit_vector_steps += hits.bit_count()
                expanded = result[k][sid]
                while hits:
                    low = hits & -hits
                    expanded |= partners[low.bit_length() - 1]
                    hits ^= low
                result[k][sid] = expanded
    return result
