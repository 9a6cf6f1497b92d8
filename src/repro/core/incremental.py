"""Demand-driven incremental re-analysis after program edits.

The paper's lineage (Cooper's dissertation, the Rice programming
environment, Carroll & Ryder's incremental algorithms — all cited in
its introduction) is about keeping interprocedural summaries current
while a programmer edits one procedure at a time.  This module solves
that problem *by condensation region*, driven by a persisted
:class:`~repro.core.depindex.DependencyIndex`:

1. procedures of the indexed and edited versions are matched by
   qualified name and diffed by structural fingerprint (or a trusted
   ``dirty_hint`` skips the diff);
2. every solver re-runs only where its inputs changed, walking the SCC
   condensation of its graph in reverse topological order:

   * **binding signature** — a dirty procedure whose call sites kept
     their callee and by-reference bindings (ordinal for ordinal) is
     *binding-clean*: β and the alias fixpoint are functions of the
     binding structure alone, so a pure body edit — the dominant
     editor case — skips both re-solves outright;
   * **RMOD** over β — seeds are the formals whose own ``IMOD`` bit
     moved and the endpoints of binding edges at binding-dirty call
     sites; no seeds means every verdict is carried without even
     condensing β, and a strongly connected region whose solved boolean
     comes out equal to the indexed value stops the propagation;
   * **IMOD+** — recomputed only for procedures whose extended ``IMOD``
     or whose bound formals' ``RMOD`` verdicts changed, copied
     otherwise;
   * **GMOD** over the call multi-graph — components start *candidate*
     if they hold a changed equation; re-solving a candidate whose
     exports (``GMOD − LOCAL``, the only part a caller reads) come out
     unchanged stops the propagation (*cutoff*), otherwise the caller
     components are marked through a reverse adjacency built on first
     use; non-candidates copy indexed rows without scanning their
     edges, and shrinking edits are exact because affected regions
     restart from ``IMOD+``, never warm-start monotonically;
   * **aliases** — the re-derived cone is seeded by the binding-dirty
     procedures *and* the old callees of their (and removed
     procedures') former call sites — a rewired or deleted site starves
     its old callee of pair inflow, so pairs can shrink there; final
     partner tables outside the cone are carried into the one alias
     solver by reference, or remapped when the uid space changed
     (pairs only flow caller → callee and parent → nested);
   * **DMOD/MOD** — a call site is copied from the index unless its
     caller was edited, its callee's ``GMOD`` changed, or its caller's
     alias pairs changed.

The hard invariant, asserted by the fuzz oracle in
``tests/test_incremental_fuzz.py``: every incremental summary is
byte-identical to a from-scratch solve of the edited program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.aliases import AliasResult, Carried, compute_aliases
from repro.core.arena import (
    ProgramArena,
    get_arena,
    install_arena,
    patch_arena,
    peek_arena,
)
from repro.core.bitvec import OpCounter, iter_bits, mask_of
from repro.core.depindex import (
    DependencyIndex,
    build_dependency_index,
    fingerprint_digest,
    fingerprints_equal,
)
from repro.core.persist import carry_render
from repro.core.rmod import RmodResult
from repro.core.summary import EffectSolution, SideEffectSummary
from repro.core.varsets import EffectKind
from repro.graphs.dfs import reachable_from
from repro.lang.symbols import ResolvedProgram


@dataclass
class UpdateStats:
    """How much work the incremental update performed vs reused.

    The procedure-level fields count the *invalidation region*: every
    procedure whose facts were re-derived (members of re-solved call
    components, edited procedures, procedures with re-derived alias
    pairs, and callers of recomputed call sites).  The ``*_sccs``
    fields count condensation regions — :attr:`reuse_fraction` is the
    fraction of call-graph components whose solved sets were carried
    over unchanged, which is what "demand-driven" buys over the old
    whole-reachability invalidation.
    """

    dirty_procs: List[str] = field(default_factory=list)
    affected_procs: int = 0
    reused_procs: int = 0
    total_procs: int = 0
    #: Call-graph condensation accounting.
    total_sccs: int = 0
    affected_sccs: int = 0
    #: Re-solved components whose exports came out unchanged — the
    #: demand cutoff firing (propagation to caller components stops).
    cutoff_sccs: int = 0
    #: Members of re-solved call components.
    region_procs: int = 0
    #: β condensation accounting for the RMOD re-solve.
    beta_total_sccs: int = 0
    beta_affected_sccs: int = 0
    beta_region_nodes: int = 0
    #: Call sites copied from the index vs total.
    sites_total: int = 0
    sites_reused: int = 0
    #: True when the driving index was deserialized (server restart).
    index_reloaded: bool = False
    #: True when no index was usable and a full solve ran instead.
    full_resolve: bool = False
    #: Qualified names of the invalidation region (sorted).
    affected_names: List[str] = field(default_factory=list)

    @property
    def reuse_fraction(self) -> float:
        if self.total_sccs == 0:
            return 0.0
        return 1.0 - self.affected_sccs / self.total_sccs

    def to_dict(self) -> Dict:
        return {
            "dirty_procs": list(self.dirty_procs),
            "affected_procs": self.affected_procs,
            "reused_procs": self.reused_procs,
            "total_procs": self.total_procs,
            "total_sccs": self.total_sccs,
            "affected_sccs": self.affected_sccs,
            "cutoff_sccs": self.cutoff_sccs,
            "region_procs": self.region_procs,
            "beta_total_sccs": self.beta_total_sccs,
            "beta_affected_sccs": self.beta_affected_sccs,
            "beta_region_nodes": self.beta_region_nodes,
            "sites_total": self.sites_total,
            "sites_reused": self.sites_reused,
            "index_reloaded": self.index_reloaded,
            "full_resolve": self.full_resolve,
            "reuse_fraction": self.reuse_fraction,
        }


def dirty_procedures(old: ResolvedProgram, new: ResolvedProgram) -> Set[str]:
    """Qualified names of procedures that differ between versions
    (changed body/signature, added, or removed — a removed procedure
    dirties its former parent so the region is grown from a node that
    still exists)."""
    old_procs = {proc.qualified_name: proc for proc in old.procs}
    new_procs = {proc.qualified_name: proc for proc in new.procs}
    dirty: Set[str] = set()
    for name, new_proc in new_procs.items():
        old_proc = old_procs.get(name)
        if old_proc is None:
            dirty.add(name)
        elif not fingerprints_equal(old_proc, new_proc):
            dirty.add(name)
    for name, old_proc in old_procs.items():
        if name not in new_procs:
            parent = old_proc.parent
            while parent is not None and parent.qualified_name not in new_procs:
                parent = parent.parent
            if parent is not None:
                dirty.add(parent.qualified_name)
            else:
                dirty.add(new.main.qualified_name)
    return dirty


def _dirty_from_index(index: DependencyIndex, new: ResolvedProgram) -> Set[str]:
    """:func:`dirty_procedures` against an index instead of the old AST
    — the fingerprints were hashed at index-build time."""
    dirty: Set[str] = set()
    old_pid_of = {name: pid for pid, name in enumerate(index.proc_names)}
    new_names = set()
    for proc in new.procs:
        name = proc.qualified_name
        new_names.add(name)
        old_pid = old_pid_of.get(name)
        if old_pid is None or index.fingerprints[old_pid] != fingerprint_digest(proc):
            dirty.add(name)
    for old_pid, name in enumerate(index.proc_names):
        if name not in new_names:
            parent = index.proc_parent[old_pid]
            while parent >= 0 and index.proc_names[parent] not in new_names:
                parent = index.proc_parent[parent]
            if parent >= 0:
                dirty.add(index.proc_names[parent])
            else:
                dirty.add(new.main.qualified_name)
    return dirty


def _uid_permutation(old_var_names: List[str],
                     new_var_names: List[str]) -> Optional[List[int]]:
    """old uid -> new uid (or -1 for vanished variables), or None when
    the two uid spaces are identical (the common case for a body edit
    that declares nothing) so masks can be reused verbatim."""
    if old_var_names == new_var_names:
        return None
    name_to_new_uid = {name: uid for uid, name in enumerate(new_var_names)}
    return [name_to_new_uid.get(name, -1) for name in old_var_names]


def _remap_mask(mask: int, permutation: Optional[List[int]]) -> int:
    """Translate a variable mask between uid spaces (identity when the
    permutation is None).

    The ``iter_bits`` walk here is inherent, not a hot-path oversight:
    an arbitrary uid permutation moves each bit independently, so there
    is no whole-vector operation that applies it — in the paper's cost
    model this is one single-bit step per member, charged only on the
    rare edits that change the uid space (``permutation is None`` — the
    common body edit — never enters the loop).
    """
    if permutation is None:
        return mask
    out = 0
    for uid in iter_bits(mask):
        new_uid = permutation[uid]
        if new_uid >= 0:
            out |= 1 << new_uid
    return out


def _remap_table(
    table: Dict[int, int], permutation: Optional[List[int]]
) -> Dict[int, int]:
    """Translate an alias partner table between uid spaces, dropping
    every pair with a vanished member (the table itself when the
    permutation is None)."""
    if permutation is None:
        return table
    remapped: Dict[int, int] = {}
    for uid, partners in table.items():
        new_uid = permutation[uid]
        if new_uid >= 0:
            new_partners = _remap_mask(partners, permutation)
            if new_partners:
                remapped[new_uid] = new_partners
    return remapped


def _tables_from_pairs(pair_lists) -> List[Dict[int, int]]:
    """Partner tables from the dependency index's ``(a, b)`` lists."""
    tables: List[Dict[int, int]] = []
    for pairs in pair_lists:
        table: Dict[int, int] = {}
        for a, b in pairs:
            table[a] = table.get(a, 0) | (1 << b)
            table[b] = table.get(b, 0) | (1 << a)
        tables.append(table)
    return tables


def _full_resolve(
    new_resolved: ResolvedProgram,
    kind_list: List[EffectKind],
    dirty_names: Set[str],
    reloaded: bool,
) -> Tuple[SideEffectSummary, UpdateStats]:
    """The downgrade path: no usable index, solve from scratch."""
    from repro.core.pipeline import analyze_side_effects

    summary = analyze_side_effects(new_resolved, kinds=kind_list)
    total = new_resolved.num_procs
    stats = UpdateStats(
        dirty_procs=sorted(dirty_names),
        affected_procs=total,
        reused_procs=0,
        total_procs=total,
        sites_total=new_resolved.num_call_sites,
        index_reloaded=reloaded,
        full_resolve=True,
        affected_names=sorted(p.qualified_name for p in new_resolved.procs),
    )
    return summary, stats


def incremental_update_from_index(
    index: DependencyIndex,
    new_resolved: ResolvedProgram,
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    dirty_hint: Optional[Iterable[str]] = None,
    reloaded: bool = False,
    live_aliases: Optional[AliasResult] = None,
) -> Tuple[SideEffectSummary, UpdateStats]:
    """Re-analyse ``new_resolved`` against a dependency index.

    The index is self-contained: this function runs without the old
    program version in memory, which is what keeps the server's
    ``update`` verb warm across process restarts.  ``live_aliases``
    optionally donates the previous summary's in-memory alias tables,
    so tables outside the re-derived cone are shared instead of
    rebuilt from the index.

    Returns the new summary — byte-identical to a from-scratch solve —
    and the reuse statistics.
    """
    t_start = time.perf_counter()
    timings: Dict[str, float] = {}
    kind_list = list(kinds)
    num_kinds = len(kind_list)

    if dirty_hint is not None:
        dirty_names = set(dirty_hint)
    else:
        dirty_names = _dirty_from_index(index, new_resolved)
    timings["dirty"] = time.perf_counter() - t_start

    if [kind.value for kind in kind_list] != list(index.kinds):
        return _full_resolve(new_resolved, kind_list, dirty_names, reloaded)

    new_procs = new_resolved.procs
    num_procs = new_resolved.num_procs
    new_names = [proc.qualified_name for proc in new_procs]
    new_name_set = set(new_names)
    old_pid_of = {name: pid for pid, name in enumerate(index.proc_names)}
    new_var_names = [var.qualified_name for var in new_resolved.variables]
    permutation = _uid_permutation(index.var_names, new_var_names)
    patchable = permutation is None and index.proc_names == new_names

    dirty_pids = [
        proc.pid for proc in new_procs if proc.qualified_name in dirty_names
    ]
    dirty_pid_set = set(dirty_pids)
    #: Procedures whose *extended* IMOD may differ: the edited ones plus
    #: their lexical ancestors (§3.3 pulls a nested procedure's IMOD up).
    initial_dirty = set(dirty_pids)
    for pid in dirty_pids:
        for ancestor in new_procs[pid].lexical_chain():
            initial_dirty.add(ancestor.pid)

    # -- site identity map (new sid -> old sid, or -1) ------------------------
    old_sites_by_caller = index.sites_by_caller()
    new_sites_by_caller: List[List[int]] = [[] for _ in range(num_procs)]
    for site in new_resolved.call_sites:
        new_sites_by_caller[site.caller.pid].append(site.site_id)
    num_sites = new_resolved.num_call_sites
    site_map = [-1] * num_sites
    for pid in range(num_procs):
        name = new_names[pid]
        if name in dirty_names:
            continue
        old_pid = old_pid_of.get(name)
        if old_pid is None:
            continue
        old_list = old_sites_by_caller[old_pid]
        new_list = new_sites_by_caller[pid]
        if len(old_list) != len(new_list):
            continue
        for new_sid, old_sid in zip(new_list, old_list):
            site_map[new_sid] = old_sid

    # -- binding signature: which dirty procedures moved β/alias inputs -------
    # β and the alias fixpoint are functions of the binding structure
    # alone: call sites (callee + by-reference bindings, in order),
    # formal lists, and nesting.  Under ``patchable`` the variable and
    # procedure name lists are pinned, so formals and nesting cannot
    # have changed and the call-site signatures are the whole story.  A
    # dirty procedure whose signature is intact is *binding-clean* —
    # its edit cannot perturb RMOD or aliases anywhere.  Computed from
    # the edited AST (dirty procedures only) *before* the arena, so the
    # arena patch itself can exploit an all-clean edit.
    if patchable:
        binding_dirty: Set[int] = set()
        old_ref_heads = index.site_ref_heads
        call_sites = new_resolved.call_sites
        for pid in dirty_pids:
            old_list = old_sites_by_caller[pid]
            new_list = new_sites_by_caller[pid]
            if len(old_list) != len(new_list):
                binding_dirty.add(pid)
                continue
            for new_sid, old_sid in zip(new_list, old_list):
                site = call_sites[new_sid]
                if site.callee.pid != index.site_callee[old_sid]:
                    binding_dirty.add(pid)
                    break
                formals = site.callee.formals
                refs = [
                    (formals[binding.position].uid, binding.base.uid)
                    for binding in site.bindings
                    if binding.by_reference
                ]
                olo, ohi = old_ref_heads[old_sid], old_ref_heads[old_sid + 1]
                if len(refs) != ohi - olo or any(
                    formal_uid != index.ref_formal_uid[olo + offset]
                    or base_uid != index.ref_base_uid[olo + offset]
                    for offset, (formal_uid, base_uid) in enumerate(refs)
                ):
                    binding_dirty.add(pid)
                    break
    else:
        binding_dirty = set(dirty_pid_set)

    # -- arena: patch when both id spaces survived the edit -------------------
    t0 = time.perf_counter()
    arena = peek_arena(new_resolved)
    if arena is None:
        if patchable:
            # All-binding-clean edits with stable site ids let the
            # patch bulk-copy the donor's site tables outright.
            fast = (
                not binding_dirty
                and old_sites_by_caller == new_sites_by_caller
            )
            arena = patch_arena(
                new_resolved, index, dirty_pids, site_map, fast=fast
            )
            install_arena(new_resolved, arena)
        else:
            arena = get_arena(new_resolved)
    universe = arena.universe
    strip = arena.strip_masks()
    timings["graphs"] = time.perf_counter() - t0

    site_caller = arena.site_caller
    site_callee = arena.site_callee
    ref_heads = arena.site_ref_heads
    ref_formal_uid = arena.ref_formal_uid
    ref_base_uid = arena.ref_base_uid
    ref_formal_node = arena.ref_formal_node

    kind_counters = [OpCounter() for _ in kind_list]

    # -- RMOD: demand re-solve over β's condensation --------------------------
    t0 = time.perf_counter()
    binding_graph = arena.binding_graph
    bheads = arena.beta_csr.heads
    bsucc = arena.beta_csr.succ
    num_nodes = arena.beta_csr.num_nodes
    formal_pid = arena.beta_formal_pid
    formal_uid = arena.beta_formal_uid
    initial_rows = [arena.local.initial(kind) for kind in kind_list]

    # Indexed verdicts, addressable from the new program: by uid when
    # the uid space is unchanged, by qualified name otherwise.
    if permutation is None:
        old_bits_of_uid: Dict[int, int] = dict(
            zip(index.beta_node_uid, index.rmod_node_bits)
        )

        def old_node_bits(uid: int) -> Optional[int]:
            return old_bits_of_uid.get(uid)
    else:
        bits_by_name = {
            index.var_names[uid]: bits
            for uid, bits in zip(index.beta_node_uid, index.rmod_node_bits)
        }

        def old_node_bits(uid: int) -> Optional[int]:
            return bits_by_name.get(new_var_names[uid])

    node_of_uid = binding_graph.node_of_uid
    beta_seeds: Set[int] = set()
    if patchable:
        # Equation (6) reads two inputs per node: the formal's own
        # IMOD bit and β's edges.  Edges are pinned at binding-clean
        # sites, so only formals whose IMOD bit actually moved seed —
        # plus any formal with no indexed verdict at all (a variable
        # that became a formal without moving in the uid space).
        for pid in initial_dirty:
            old_ext = [index.imod_ext[k][pid] for k in range(num_kinds)]
            for formal in new_procs[pid].formals:
                uid = formal.uid
                if uid not in old_bits_of_uid:
                    beta_seeds.add(node_of_uid[uid])
                    continue
                for k in range(num_kinds):
                    if ((initial_rows[k][pid] >> uid) & 1) != (
                        (old_ext[k] >> uid) & 1
                    ):
                        beta_seeds.add(node_of_uid[uid])
                        break
    else:
        for pid in initial_dirty:
            for formal in new_procs[pid].formals:
                beta_seeds.add(node_of_uid[formal.uid])
        for node in range(num_nodes):
            if old_node_bits(formal_uid[node]) is None:
                beta_seeds.add(node)
    # Sources of binding edges that existed at binding-dirty or removed
    # call sites (the edge may have vanished — a shrink the region must
    # see).
    old_formal_uid_set = set(index.beta_node_uid)
    if permutation is None:
        old_uid_to_node = node_of_uid
    else:
        new_uid_of_name = {name: uid for uid, name in enumerate(new_var_names)}
        old_uid_to_node = {}
        for old_uid, name in enumerate(index.var_names):
            new_uid = new_uid_of_name.get(name)
            if new_uid is not None and new_uid in node_of_uid:
                old_uid_to_node[old_uid] = node_of_uid[new_uid]
    binding_dirty_names = {new_names[pid] for pid in binding_dirty}
    edited_old_callers = [
        old_pid_of[name] for name in binding_dirty_names if name in old_pid_of
    ] + [
        old_pid for old_pid, name in enumerate(index.proc_names)
        if name not in new_name_set
    ]
    for old_pid in edited_old_callers:
        for old_sid in old_sites_by_caller[old_pid]:
            for r in range(
                index.site_ref_heads[old_sid], index.site_ref_heads[old_sid + 1]
            ):
                base_uid = index.ref_base_uid[r]
                if base_uid in old_formal_uid_set:
                    node = old_uid_to_node.get(base_uid)
                    if node is not None:
                        beta_seeds.add(node)
    # Sources of binding edges at the binding-dirty sites of the new
    # version, straight off the flat ref tables (a base bound by
    # reference is an edge source exactly when it is itself a formal).
    for pid in binding_dirty:
        for sid in new_sites_by_caller[pid]:
            for r in range(ref_heads[sid], ref_heads[sid + 1]):
                source = node_of_uid.get(ref_base_uid[r])
                if source is not None:
                    beta_seeds.add(source)

    kind_mask = (1 << num_kinds) - 1
    changed_node = [False] * num_nodes
    beta_any_changed = False
    beta_affected_sccs = 0
    beta_region_nodes = 0
    if not beta_seeds:
        # No β input moved: every verdict is carried and the fixpoint
        # is untouched — β is never even condensed.  The component
        # count shown in the stats is carried from the index.
        if permutation is None:
            node_bits = [old_bits_of_uid[uid] for uid in formal_uid]
        else:
            node_bits = [old_node_bits(uid) for uid in formal_uid]
        beta_total_sccs = (
            max(index.beta_comp_of) + 1 if index.beta_comp_of else 0
        )
    else:
        beta_component_of, beta_components = arena.beta_condensation()
        beta_total_sccs = len(beta_components)
        node_bits = [0] * num_nodes
        for comp_index, members in enumerate(beta_components):
            affected = False
            for member in members:
                if member in beta_seeds:
                    affected = True
                    break
            if not affected:
                for member in members:
                    for target in bsucc[bheads[member]:bheads[member + 1]]:
                        if changed_node[target]:
                            affected = True
                            break
                    if affected:
                        break
            if not affected:
                for member in members:
                    node_bits[member] = old_node_bits(formal_uid[member])
                continue
            beta_affected_sccs += 1
            beta_region_nodes += len(members)
            # Equation (6)'s key property: the solution is identical at
            # every node of a strongly connected region, so one OR over
            # the members' IMOD bits and the (final) out-of-region
            # successor values is the region's least fixpoint.
            value = 0
            for member in members:
                pid = formal_pid[member]
                uid = formal_uid[member]
                for k in range(num_kinds):
                    value |= ((initial_rows[k][pid] >> uid) & 1) << k
                for target in bsucc[bheads[member]:bheads[member + 1]]:
                    if beta_component_of[target] != comp_index:
                        value |= node_bits[target]
                if value == kind_mask:
                    break
            for member in members:
                node_bits[member] = value
                old = old_node_bits(formal_uid[member])
                if old is None or old != value:
                    changed_node[member] = True
                    beta_any_changed = True
    for counter in kind_counters:
        counter.single_bit_steps += 3 * beta_region_nodes

    rmod_results: List[RmodResult] = []
    for k, kind in enumerate(kind_list):
        node_value = [bool((bits >> k) & 1) for bits in node_bits]
        proc_mask = [0] * num_procs
        for node in range(num_nodes):
            if node_value[node]:
                proc_mask[formal_pid[node]] |= 1 << formal_uid[node]
        rmod_results.append(
            RmodResult(
                kind=kind,
                graph=binding_graph,
                node_value=node_value,
                proc_mask=proc_mask,
                counter=kind_counters[k],
            )
        )
    timings["rmod"] = time.perf_counter() - t0

    # -- IMOD+: copy rows whose inputs did not move ---------------------------
    t0 = time.perf_counter()
    recompute_imod = set(initial_dirty)
    if beta_any_changed:
        for sid in range(num_sites):
            for r in range(ref_heads[sid], ref_heads[sid + 1]):
                if changed_node[ref_formal_node[r]]:
                    recompute_imod.add(site_caller[sid])
                    break
    old_pid_for: List[Optional[int]] = [
        pid if patchable else old_pid_of.get(new_names[pid])
        for pid in range(num_procs)
    ]
    for pid in range(num_procs):
        if old_pid_for[pid] is None:
            recompute_imod.add(pid)

    imod_plus_rows: List[List[int]] = [[0] * num_procs for _ in kind_list]
    imod_changed: Set[int] = set()
    for pid in range(num_procs):
        old_pid = old_pid_for[pid]
        if pid not in recompute_imod:
            for k in range(num_kinds):
                imod_plus_rows[k][pid] = _remap_mask(
                    index.imod_plus[k][old_pid], permutation
                )
            continue
        rows = [initial_rows[k][pid] for k in range(num_kinds)]
        for sid in new_sites_by_caller[pid]:
            for r in range(ref_heads[sid], ref_heads[sid + 1]):
                bits = node_bits[ref_formal_node[r]]
                if not bits:
                    continue
                base_bit = 1 << ref_base_uid[r]
                for k in range(num_kinds):
                    if (bits >> k) & 1:
                        rows[k] |= base_bit
        changed = old_pid is None
        for k in range(num_kinds):
            imod_plus_rows[k][pid] = rows[k]
            if not changed and rows[k] != _remap_mask(
                index.imod_plus[k][old_pid], permutation
            ):
                changed = True
        if changed:
            imod_changed.add(pid)
    timings["imod_plus"] = time.perf_counter() - t0

    # -- GMOD: demand re-solve over the call condensation ---------------------
    t0 = time.perf_counter()
    condensation = arena.call_condense_full()
    cheads = arena.call_csr.heads
    csucc = arena.call_csr.succ
    component_of = condensation.component_of
    components = condensation.components
    gmod_seeds = dirty_pid_set | imod_changed
    gmod_rows: List[List[int]] = [[0] * num_procs for _ in kind_list]
    changed_gmod = [False] * num_procs
    changed_export = [False] * num_procs
    comp_affected = [False] * len(components)
    # A component needs re-solving exactly when it holds a changed
    # equation (a seed) or reads a changed export.  Seeds mark their
    # components up front; export changes mark the caller components of
    # the changed member through a reverse adjacency built on first use
    # (reverse topological order guarantees callers are still ahead).
    # Everything never marked copies its indexed rows without a single
    # edge scan — that skip is what makes a cutoff edit O(region).
    candidate = comp_affected[:]  # same shape; False everywhere
    for pid in gmod_seeds:
        candidate[component_of[pid]] = True
    reverse_adj: Optional[List[List[int]]] = None
    affected_sccs = 0
    cutoff_sccs = 0
    region_pids: Set[int] = set()
    for comp_index, members in enumerate(components):
        if not candidate[comp_index]:
            if permutation is None:
                for k in range(num_kinds):
                    row = gmod_rows[k]
                    old_row = index.gmod[k]
                    for member in members:
                        row[member] = old_row[old_pid_for[member]]
            else:
                for member in members:
                    old_pid = old_pid_for[member]
                    for k in range(num_kinds):
                        gmod_rows[k][member] = _remap_mask(
                            index.gmod[k][old_pid], permutation
                        )
            continue
        comp_affected[comp_index] = True
        affected_sccs += 1
        region_pids.update(members)
        for k in range(num_kinds):
            row = gmod_rows[k]
            imod_row = imod_plus_rows[k]
            for member in members:
                row[member] = imod_row[member]
        active = list(range(num_kinds))
        while active:
            still = []
            for k in active:
                row = gmod_rows[k]
                changed = False
                for member in members:
                    value = row[member]
                    for target in csucc[cheads[member]:cheads[member + 1]]:
                        value |= row[target] & strip[target]
                    if value != row[member]:
                        row[member] = value
                        changed = True
                if changed:
                    still.append(k)
            active = still
        comp_export_changed = False
        for member in members:
            old_pid = old_pid_for[member]
            if old_pid is None:
                changed_gmod[member] = True
                changed_export[member] = True
                comp_export_changed = True
                continue
            gmod_diff = False
            export_diff = False
            for k in range(num_kinds):
                new_value = gmod_rows[k][member]
                if new_value != _remap_mask(index.gmod[k][old_pid], permutation):
                    gmod_diff = True
                if (new_value & strip[member]) != _remap_mask(
                    index.exports[k][old_pid], permutation
                ):
                    export_diff = True
            changed_gmod[member] = gmod_diff
            changed_export[member] = export_diff
            if export_diff:
                comp_export_changed = True
        if not comp_export_changed:
            cutoff_sccs += 1
            continue
        if reverse_adj is None:
            # One O(N + E) pass over the whole call CSR, the bound the
            # paper's linear-time solve already pays.
            reverse_adj = [[] for _ in range(num_procs)]
            for node in range(num_procs):
                for target in csucc[cheads[node]:cheads[node + 1]]:
                    reverse_adj[target].append(node)
        for member in members:
            if changed_export[member]:
                for caller in reverse_adj[member]:
                    candidate[component_of[caller]] = True
    for counter in kind_counters:
        counter.bit_vector_steps += len(region_pids)
    timings["gmod"] = time.perf_counter() - t0

    # -- aliases: carried tables outside the forward cone ---------------------
    t0 = time.perf_counter()
    # Cone roots: the binding-dirty procedures, plus the old callees of
    # their (and removed procedures') former call sites — a rewired or
    # deleted site starves its previous callee of pair inflow, so its
    # pairs may *shrink* and must be re-derived even though the new
    # call graph may no longer reach it from any edit.  Those callees'
    # own edges are unchanged, so the new-graph cone covers the
    # transitive shrink.  Binding-clean edits contribute nothing: alias
    # pairs are a function of the binding structure alone.
    new_pid_of = {name: pid for pid, name in enumerate(new_names)}
    alias_roots: Set[int] = set(binding_dirty)
    for old_pid in edited_old_callers:
        for old_sid in old_sites_by_caller[old_pid]:
            callee_name = index.proc_names[index.site_callee[old_sid]]
            callee_pid = new_pid_of.get(callee_name)
            if callee_pid is not None:
                alias_roots.add(callee_pid)
    if alias_roots:
        forward: List[List[int]] = [
            list(successors) for successors in arena.call_graph.successors
        ]
        for proc in new_procs:
            for nested in proc.nested:
                forward[proc.pid].append(nested.pid)
        affected_fwd = reachable_from(num_procs, forward, sorted(alias_roots))
        alias_seeds = {pid for pid in range(num_procs) if affected_fwd[pid]}
        for sid in range(num_sites):
            if affected_fwd[site_callee[sid]]:
                alias_seeds.add(site_caller[sid])
        for proc in new_procs:
            if affected_fwd[proc.pid] and proc.parent is not None:
                alias_seeds.add(proc.parent.pid)
    else:
        affected_fwd = [False] * num_procs
        alias_seeds = set()

    if live_aliases is not None:
        old_tables = live_aliases.partner_mask
        old_domains = live_aliases.domain_mask
    else:
        old_tables = _tables_from_pairs(index.alias_pairs)
        old_domains = index.alias_domains
    carried: List[Optional[Carried]] = [None] * num_procs
    for pid in range(num_procs):
        old_pid = old_pid_for[pid]
        if affected_fwd[pid] or old_pid is None:
            continue
        if permutation is None:
            carried[pid] = (old_tables[old_pid], old_domains[old_pid])
        else:
            table = _remap_table(old_tables[old_pid], permutation)
            carried[pid] = (table, mask_of(table))
    aliases = compute_aliases(arena, carried, alias_seeds)

    alias_changed: Set[int] = set()
    for pid in range(num_procs):
        if not affected_fwd[pid]:
            continue
        old_pid = old_pid_for[pid]
        if old_pid is None or aliases.partner_mask[pid] != _remap_table(
            old_tables[old_pid], permutation
        ):
            alias_changed.add(pid)
    timings["aliases"] = time.perf_counter() - t0

    # -- DMOD/MOD: copy untouched call sites ----------------------------------
    t0 = time.perf_counter()
    site_local = [arena.site_local(kind) for kind in kind_list]
    domains = aliases.domain_mask
    partner_mask = aliases.partner_mask
    dmod_rows: List[List[int]] = [[0] * num_sites for _ in kind_list]
    mod_rows: List[List[int]] = [[0] * num_sites for _ in kind_list]
    pass_cache: List[Dict[int, int]] = [{} for _ in kind_list]
    sites_reused = 0
    recomputed_site_callers: Set[int] = set()
    for sid in range(num_sites):
        caller_pid = site_caller[sid]
        callee_pid = site_callee[sid]
        old_sid = site_map[sid]
        if (
            old_sid >= 0
            and permutation is None
            and not changed_gmod[callee_pid]
            and caller_pid not in alias_changed
        ):
            for k in range(num_kinds):
                dmod_rows[k][sid] = index.dmod[k][old_sid]
                mod_rows[k][sid] = index.mod[k][old_sid]
            sites_reused += 1
            continue
        recomputed_site_callers.add(caller_pid)
        lo = ref_heads[sid]
        hi = ref_heads[sid + 1]
        domain = domains[caller_pid]
        for k in range(num_kinds):
            cache = pass_cache[k]
            passed = cache.get(callee_pid)
            if passed is None:
                passed = gmod_rows[k][callee_pid] & strip[callee_pid]
                cache[callee_pid] = passed
            mask = site_local[k][sid] | passed
            callee_gmod = gmod_rows[k][callee_pid]
            if callee_gmod:
                for r in range(lo, hi):
                    if (callee_gmod >> ref_formal_uid[r]) & 1:
                        mask |= 1 << ref_base_uid[r]
            dmod_rows[k][sid] = mask
            expanded = mask
            hits = mask & domain
            if hits:
                partners = partner_mask[caller_pid]
                kind_counters[k].bit_vector_steps += hits.bit_count()
                while hits:
                    low = hits & -hits
                    expanded |= partners[low.bit_length() - 1]
                    hits ^= low
            mod_rows[k][sid] = expanded
    timings["dmod"] = time.perf_counter() - t0

    solutions: Dict[EffectKind, EffectSolution] = {}
    for k, kind in enumerate(kind_list):
        solutions[kind] = EffectSolution(
            kind=kind,
            rmod=rmod_results[k],
            imod_plus=imod_plus_rows[k],
            gmod=gmod_rows[k],
            dmod=dmod_rows[k],
            mod=mod_rows[k],
            gmod_method="incremental",
        )

    affected_union = (
        region_pids | dirty_pid_set | alias_changed | recomputed_site_callers
    )
    stats = UpdateStats(
        dirty_procs=sorted(dirty_names),
        affected_procs=len(affected_union),
        reused_procs=num_procs - len(affected_union),
        total_procs=num_procs,
        total_sccs=len(components),
        affected_sccs=affected_sccs,
        cutoff_sccs=cutoff_sccs,
        region_procs=sum(len(components[c]) for c in range(len(components))
                         if comp_affected[c]),
        beta_total_sccs=beta_total_sccs,
        beta_affected_sccs=beta_affected_sccs,
        beta_region_nodes=beta_region_nodes,
        sites_total=num_sites,
        sites_reused=sites_reused,
        index_reloaded=reloaded,
        affected_names=sorted(new_names[pid] for pid in affected_union),
    )

    timings["total"] = time.perf_counter() - t_start
    summary = SideEffectSummary(
        resolved=new_resolved,
        universe=universe,
        call_graph=arena.call_graph,
        binding_graph=binding_graph,
        local=arena.local,
        aliases=aliases,
        solutions=solutions,
        timings=timings,
        kind_counters=dict(zip(kind_list, kind_counters)),
        condensations=arena.snapshot_condensations(),
    )
    return summary, stats


def incremental_update(
    old_summary: SideEffectSummary,
    new_resolved: ResolvedProgram,
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    dirty_hint: Optional[Iterable[str]] = None,
) -> Tuple[SideEffectSummary, UpdateStats]:
    """Re-analyse ``new_resolved``, reusing ``old_summary``'s solved
    regions through its dependency index (built lazily on first use and
    cached on the summary).

    ``dirty_hint``, when given, names the edited procedures (qualified
    names) and skips the structural diff — the normal case in an editor
    that tracks its own edits.  The hint must cover every change; it is
    trusted.

    The new summary's render is seeded from ``old_summary``'s when the
    variable names are unchanged (:func:`repro.core.persist.carry_render`),
    so rendering it names only the sets the edit changed, and an edit
    that changed none returns the previous payload and container body.

    Returns the new summary (byte-identical to a from-scratch run — the
    fuzz oracle asserts it) and the reuse statistics.
    """
    index = getattr(old_summary, "dep_index", None)
    if index is None:
        index = build_dependency_index(
            old_summary, arena=peek_arena(old_summary.resolved)
        )
        old_summary.dep_index = index
    summary, stats = incremental_update_from_index(
        index,
        new_resolved,
        kinds=kinds,
        dirty_hint=dirty_hint,
        live_aliases=old_summary.aliases,
    )
    carry_render(old_summary, summary)
    return summary, stats
