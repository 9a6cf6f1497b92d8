"""Demand-driven incremental re-analysis after program edits.

The paper's lineage (Cooper's dissertation, the Rice programming
environment, Carroll & Ryder's incremental algorithms — all cited in
its introduction) is about keeping interprocedural summaries current
while a programmer edits one procedure at a time.  This module solves
that problem *by condensation region*, driven by a persisted
:class:`~repro.core.depindex.DependencyIndex`.

The engine decides *what* to re-solve; the equations are evaluated by
the same kernels a fresh analysis runs (:mod:`repro.core.pipeline`),
warm-started on that decision:

1. procedures of the indexed and edited versions are matched by
   qualified name and diffed by structural fingerprint (or a trusted
   ``dirty_hint`` skips the diff), and call sites of clean procedures
   are mapped onto their indexed ids;
2. every phase re-runs only where its inputs changed:

   * **binding signature** — a dirty procedure whose call sites kept
     their callee and by-reference bindings (ordinal for ordinal) is
     *binding-clean*: β and the alias fixpoint are functions of the
     binding structure alone, so a pure body edit — the dominant
     editor case — skips both re-solves outright;
   * **RMOD** — :func:`~repro.core.rmod.solve_rmod_fused` with the
     indexed verdicts carried, seeded by the formals whose own ``IMOD``
     bit moved and the endpoints of binding edges at binding-dirty
     call sites; with no seeds the update never condenses β;
   * **IMOD+** — :func:`~repro.core.imod_plus.compute_imod_plus_fused`
     on the sites of procedures whose extended ``IMOD`` or whose bound
     formals' verdicts moved; every other row is the index's;
   * **GMOD** — the one walk kept here, because cutoff propagation has
     no counterpart in the fresh path's one-pass DFS: over the call
     condensation, components start *candidate* if they hold a changed
     equation; re-solving a candidate whose exports (``GMOD − LOCAL``,
     the only part a caller reads) come out unchanged stops the
     propagation (*cutoff*), otherwise its callers' components become
     candidates; non-candidates copy indexed rows without scanning
     their edges, and shrinking edits are exact because affected
     regions restart from ``IMOD+``;
   * **aliases** — :func:`~repro.core.aliases.compute_aliases` on the
     re-derived cone, seeded by the binding-dirty procedures *and* the
     old callees of their (and removed procedures') former call sites
     — a rewired or deleted site starves its old callee of pair inflow,
     so pairs can shrink there; the index's final partner tables
     outside the cone are carried in by reference, or remapped when the
     uid space changed (pairs only flow caller → callee and parent →
     nested);
   * **DMOD/MOD** — :func:`~repro.core.dmod.compute_dmod_fused` and
     :func:`~repro.core.aliases.factor_aliases_fused` on the call sites
     the update cannot copy: those whose caller was edited, whose
     callee's ``GMOD`` changed, or whose caller's alias pairs changed
     (every site when the uid space moved).

Each kernel charges the kind tallies for what it solved, and the
summary's ``counter`` is their fold, as in a fresh analysis.

The hard invariant, asserted by the fuzz oracle in
``tests/test_incremental_fuzz.py``: every incremental summary is
byte-identical to a from-scratch solve of the edited program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.aliases import Carried, compute_aliases, factor_aliases_fused
from repro.core.arena import get_arena, install_arena, patch_arena, peek_arena
from repro.core.bitvec import OpCounter, iter_bits, mask_of
from repro.core.depindex import (
    DependencyIndex,
    build_dependency_index,
    fingerprint_digest,
)
from repro.core.dmod import compute_dmod_fused
from repro.core.imod_plus import compute_imod_plus_fused
from repro.core.rmod import solve_rmod_fused
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


def _dirty_from_index(index: DependencyIndex, new: ResolvedProgram) -> Set[str]:
    """Qualified names of procedures that differ between the indexed
    version and ``new`` (changed body/signature, added, or removed — a
    removed procedure dirties its former parent so the region is grown
    from a node that still exists).  The old side's fingerprints were
    hashed at index-build time."""
    dirty: Set[str] = set()
    old_pid_of = {name: pid for pid, name in enumerate(index.proc_names)}
    new_names = set()
    for proc in new.procs:
        name = proc.qualified_name
        new_names.add(name)
        old_pid = old_pid_of.get(name)
        if old_pid is None or index.fingerprints[old_pid] != fingerprint_digest(new, proc):
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
) -> Tuple[SideEffectSummary, UpdateStats]:
    """Re-analyse ``new_resolved`` against a dependency index.

    The index is self-contained: this function runs without the old
    program version in memory, which is what keeps the server's
    ``update`` verb warm across process restarts.  An index built from
    a live summary holds that summary's alias tables, so tables outside
    the re-derived cone are shared, not copied.

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
    # the edited AST (dirty procedures only); the binding-dirty set
    # seeds the RMOD re-solve and the alias cone below.
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
            arena = patch_arena(new_resolved, index, dirty_pids, site_map)
            install_arena(new_resolved, arena)
        else:
            arena = get_arena(new_resolved)
    universe = arena.universe
    strip = arena.strip_masks()
    timings["graphs"] = time.perf_counter() - t0

    site_caller = arena.site_caller
    site_callee = arena.site_callee
    ref_heads = arena.site_ref_heads
    ref_base_uid = arena.ref_base_uid
    ref_formal_node = arena.ref_formal_node

    kind_counters = [OpCounter() for _ in kind_list]

    # -- RMOD: seeds for the warm start over β's condensation -----------------
    t0 = time.perf_counter()
    initial_rows = [arena.local.initial(kind) for kind in kind_list]
    formal_uid = arena.beta_formal_uid

    # Indexed verdicts, addressable from the new program: by uid when
    # the uid space is unchanged, by qualified name otherwise.  A β
    # node without one is re-solved by the kernel.
    if permutation is None:
        old_bits_of_uid = dict(zip(index.beta_node_uid, index.rmod_node_bits))
        carried_bits = [old_bits_of_uid.get(uid) for uid in formal_uid]
    else:
        bits_by_name = {
            index.var_names[uid]: bits
            for uid, bits in zip(index.beta_node_uid, index.rmod_node_bits)
        }
        carried_bits = [bits_by_name.get(new_var_names[uid]) for uid in formal_uid]

    node_of_uid = arena.binding_graph.node_of_uid
    beta_seeds: Set[int] = set()
    if patchable:
        # Equation (6) reads two inputs per node: the formal's own
        # IMOD bit and β's edges.  Edges are pinned at binding-clean
        # sites, so only formals whose IMOD bit actually moved seed.
        for pid in initial_dirty:
            old_ext = [index.imod_ext[k][pid] for k in range(num_kinds)]
            for formal in new_procs[pid].formals:
                uid = formal.uid
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
    rmod_results, beta = solve_rmod_fused(
        arena, kind_list, kind_counters, carried_bits, beta_seeds
    )
    timings["rmod"] = time.perf_counter() - t0

    # -- IMOD+: re-derive the procedures whose inputs moved -------------------
    t0 = time.perf_counter()
    recompute_imod = set(initial_dirty)
    moved = beta.moved
    if True in moved:
        for sid in range(num_sites):
            for r in range(ref_heads[sid], ref_heads[sid + 1]):
                if moved[ref_formal_node[r]]:
                    recompute_imod.add(site_caller[sid])
                    break
    old_pid_for: List[Optional[int]] = [
        pid if patchable else old_pid_of.get(new_names[pid])
        for pid in range(num_procs)
    ]
    for pid in range(num_procs):
        if old_pid_for[pid] is None:
            recompute_imod.add(pid)

    imod_plus_rows = compute_imod_plus_fused(
        arena, beta.node_bits, kind_list, kind_counters,
        [sid for pid in recompute_imod for sid in new_sites_by_caller[pid]],
    )
    imod_changed: Set[int] = set()
    for pid in range(num_procs):
        old_pid = old_pid_for[pid]
        if old_pid is None:
            imod_changed.add(pid)
            continue
        for k in range(num_kinds):
            old_row = _remap_mask(index.imod_plus[k][old_pid], permutation)
            if pid not in recompute_imod:
                imod_plus_rows[k][pid] = old_row
            elif imod_plus_rows[k][pid] != old_row:
                imod_changed.add(pid)
    timings["imod_plus"] = time.perf_counter() - t0

    # -- GMOD: demand re-solve over the call condensation ---------------------
    t0 = time.perf_counter()
    component_of, components = arena.call_condensation()
    cheads = arena.call_csr.heads
    csucc = arena.call_csr.succ
    gmod_seeds = dirty_pid_set | imod_changed
    gmod_rows: List[List[int]] = [[0] * num_procs for _ in kind_list]
    changed_gmod = [False] * num_procs
    changed_export = [False] * num_procs
    comp_affected = [False] * len(components)
    # A component needs re-solving exactly when it holds a changed
    # equation (a seed) or reads a changed export.  Seeds mark their
    # components up front; export changes mark the caller components of
    # the changed member through the call graph's caller lists (reverse
    # topological order guarantees callers are still ahead).
    # Everything never marked copies its indexed rows without a single
    # edge scan — that skip is what makes a cutoff edit O(region).
    callers_of = arena.call_graph.predecessors
    candidate = comp_affected[:]  # same shape; False everywhere
    for pid in gmod_seeds:
        candidate[component_of[pid]] = True
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
            old_local = index.universe_local[old_pid]
            for k in range(num_kinds):
                new_value = gmod_rows[k][member]
                old_value = index.gmod[k][old_pid]
                if new_value != _remap_mask(old_value, permutation):
                    gmod_diff = True
                if (new_value & strip[member]) != _remap_mask(
                    old_value & ~old_local, permutation
                ):
                    export_diff = True
            changed_gmod[member] = gmod_diff
            changed_export[member] = export_diff
            if export_diff:
                comp_export_changed = True
        if not comp_export_changed:
            cutoff_sccs += 1
            continue
        for member in members:
            if changed_export[member]:
                for caller in callers_of[member]:
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

    old_tables = index.partner_mask
    carried: List[Optional[Carried]] = [None] * num_procs
    for pid in range(num_procs):
        old_pid = old_pid_for[pid]
        if affected_fwd[pid] or old_pid is None:
            continue
        table = _remap_table(old_tables[old_pid], permutation)
        carried[pid] = (table, mask_of(table))  # The domain: its key set.
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

    # -- DMOD/MOD: re-derive the call sites whose inputs moved ---------------
    t0 = time.perf_counter()
    recompute_sites: List[int] = []
    reused_sites: List[int] = []
    for sid in range(num_sites):
        if (
            site_map[sid] >= 0
            and permutation is None
            and not changed_gmod[site_callee[sid]]
            and site_caller[sid] not in alias_changed
        ):
            reused_sites.append(sid)
        else:
            recompute_sites.append(sid)
    dmod_rows = compute_dmod_fused(
        arena, gmod_rows, kind_list, kind_counters, recompute_sites
    )
    mod_rows = factor_aliases_fused(
        dmod_rows, aliases, arena, num_kinds, kind_counters, recompute_sites
    )
    for k in range(num_kinds):
        dmod_row, old_dmod = dmod_rows[k], index.dmod[k]
        mod_row, old_mod = mod_rows[k], index.mod[k]
        for sid in reused_sites:
            old_sid = site_map[sid]
            dmod_row[sid] = old_dmod[old_sid]
            mod_row[sid] = old_mod[old_sid]
    recomputed_site_callers = {site_caller[sid] for sid in recompute_sites}
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
    beta_total_sccs = beta.num_components
    if beta_total_sccs is None:
        # An uncondensed β had no seed, so it kept or dropped old nodes
        # and added none; a dropped node had no β edge (its component
        # was itself).  The next index build reads the count here.
        beta_total_sccs = arena.carried_beta_sccs = index.beta_sccs - (
            len(index.beta_node_uid) - len(formal_uid)
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
        beta_affected_sccs=beta.solved_components,
        beta_region_nodes=beta.solved_nodes,
        sites_total=num_sites,
        sites_reused=len(reused_sites),
        index_reloaded=reloaded,
        affected_names=sorted(new_names[pid] for pid in affected_union),
    )

    counter = OpCounter()
    for kind_counter in kind_counters:
        counter.merge(kind_counter)
    timings["total"] = time.perf_counter() - t_start
    summary = SideEffectSummary(
        resolved=new_resolved,
        universe=universe,
        call_graph=arena.call_graph,
        binding_graph=arena.binding_graph,
        local=arena.local,
        aliases=aliases,
        solutions=solutions,
        counter=counter,
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

    Returns the new summary (byte-identical to a from-scratch run — the
    fuzz oracle asserts it) and the reuse statistics.
    """
    index = getattr(old_summary, "dep_index", None)
    if index is None:
        index = old_summary.dep_index = build_dependency_index(old_summary)
    return incremental_update_from_index(
        index, new_resolved, kinds=kinds, dirty_hint=dirty_hint
    )
