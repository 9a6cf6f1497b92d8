"""The middle-end kernel layer: one flat, shared lowering per program.

``analyze_side_effects`` solves the same two graphs twice (once per
:class:`~repro.core.varsets.EffectKind`), and every phase re-derives
structure the previous phase already had: ``tarjan_scc`` over β and the
call multi-graph, per-site binding walks through ``CallSite`` /
``Binding`` objects, ``~LOCAL(p)`` negations materialised per edge.
:class:`ProgramArena` lowers a resolved program **once** into
compressed-sparse-row int arrays and per-site flat binding tables, and
caches the SCC condensation of each graph so every consumer — the fused
solvers, the sections solver, the effect lanes, incremental re-analysis
— shares a single ``tarjan_scc``-equivalent pass per graph.

The fused one-pass MOD+USE solve carries a *pair of masks per node* —
one per-kind lane, advanced side by side inside a single traversal —
so the graph bookkeeping (DFS frames, lowlinks, stacks, site/binding
decoding) is paid once instead of once per kind, while each lane's
masks stay exactly as wide as the per-kind solvers' masks.  (Packing the
lanes into one wide int was measured and rejected: a packed value is
forced to ``K × |V|`` bits even when the underlying sets are small, so
at 10k-procedure scale it *loses* to the per-kind path on big-int byte
traffic.)  The only packed state is RMOD's per-β-node booleans, which
fit ``K`` *bits* per node.

Everything here is plain ints and lists: the arena pickles (so a
cached lowering can cross a process boundary with the program) and is
cheap to build — one sweep over the call sites and one over β.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.local import LocalAnalysis, lmod_of, luse_of
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import BindingMultiGraph, build_binding_graph
from repro.graphs.callgraph import CallMultiGraph, build_call_graph
from repro.graphs.scc import Condensation, tarjan_scc_csr
from repro.lang.symbols import ResolvedProgram


class CSRGraph:
    """A multi-graph as three flat int arrays.

    ``succ[heads[n]:heads[n+1]]`` lists node ``n``'s successors in the
    same order as the originating list-of-lists adjacency, so every
    traversal order (and therefore every Tarjan output) is preserved.
    ``edge_site`` is aligned with ``succ`` and carries the originating
    call site id of each edge.
    """

    __slots__ = ("num_nodes", "heads", "succ", "edge_site")

    def __init__(
        self,
        num_nodes: int,
        heads: List[int],
        succ: List[int],
        edge_site: List[int],
    ):
        self.num_nodes = num_nodes
        self.heads = heads
        self.succ = succ
        self.edge_site = edge_site

    @property
    def num_edges(self) -> int:
        return len(self.succ)

    def successors_of(self, node: int) -> List[int]:
        return self.succ[self.heads[node]:self.heads[node + 1]]

    def __getstate__(self):
        return (self.num_nodes, self.heads, self.succ, self.edge_site)

    def __setstate__(self, state):
        self.num_nodes, self.heads, self.succ, self.edge_site = state


class ProgramArena:
    """Shared flat lowering of one resolved program (see module doc).

    Build with :func:`get_arena` (cached) or :meth:`ProgramArena.build`.
    """

    def __init__(self, resolved: ResolvedProgram):
        self.resolved = resolved
        self.universe = VariableUniverse(resolved)
        self.call_graph = build_call_graph(resolved)
        self.binding_graph = build_binding_graph(resolved)
        self.local = LocalAnalysis(resolved, self.universe)

        #: Variable-universe width in bits (mask width of every lane).
        self.width = max(1, self.universe.size)

        heads, succ, edge_site = self.call_graph.to_csr()
        self.call_csr = CSRGraph(self.call_graph.num_nodes, heads, succ, edge_site)
        heads, succ, edge_site = self.binding_graph.to_csr()
        self.beta_csr = CSRGraph(
            self.binding_graph.num_formals, heads, succ, edge_site
        )

        # β node attributes as parallel arrays (owner pid, variable uid)
        # so the RMOD sweeps never touch a VarSymbol.
        self.beta_formal_pid: List[int] = []
        self.beta_formal_uid: List[int] = []
        for formal in self.binding_graph.formals:
            self.beta_formal_pid.append(formal.proc.pid)
            self.beta_formal_uid.append(formal.uid)

        # Per-call-site flat tables.  The by-reference bindings of site
        # ``s`` occupy ``ref_*[site_ref_heads[s]:site_ref_heads[s+1]]``.
        num_sites = resolved.num_call_sites
        self.site_caller: List[int] = [0] * num_sites
        self.site_callee: List[int] = [0] * num_sites
        #: LMOD/LUSE of the call statement itself (subscript/value-arg
        #: evaluation) — equation (2)'s ``LMOD(s)`` term.
        self.site_lmod: List[int] = [0] * num_sites
        self.site_luse: List[int] = [0] * num_sites
        self.site_ref_heads: List[int] = [0] * (num_sites + 1)
        self.ref_formal_uid: List[int] = []
        self.ref_base_uid: List[int] = []
        #: β node id of the bound formal (for RMOD lookups).
        self.ref_formal_node: List[int] = []
        node_of_uid = self.binding_graph.node_of_uid
        for site in resolved.call_sites:
            sid = site.site_id
            self.site_caller[sid] = site.caller.pid
            self.site_callee[sid] = site.callee.pid
            self.site_lmod[sid] = lmod_of(site.stmt)
            self.site_luse[sid] = luse_of(site.stmt)
        for site in resolved.call_sites:
            formals = site.callee.formals
            for binding in site.bindings:
                if not binding.by_reference:
                    continue
                formal = formals[binding.position]
                self.ref_formal_uid.append(formal.uid)
                self.ref_base_uid.append(binding.base.uid)
                self.ref_formal_node.append(node_of_uid[formal.uid])
            self.site_ref_heads[site.site_id + 1] = len(self.ref_formal_uid)

        #: How many ``tarjan_scc``-equivalent passes have run per graph
        #: ("beta" and "call").  Cached condensations do not re-count —
        #: the whole point — so one analysis adds exactly one count per
        #: graph: β's Tarjan pass and the call graph's GMOD walk, which
        #: runs on every analysis while β's pass stays cached.
        self.condensation_counts: Dict[str, int] = {}
        self._scc: Dict[str, Tuple[List[int], List[List[int]]]] = {}
        self._condensations: Dict[str, Condensation] = {}
        self._strip: Optional[List[int]] = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, resolved: ResolvedProgram) -> "ProgramArena":
        return cls(resolved)

    # -- shared condensations -------------------------------------------------

    def _scc_of(self, name: str, csr: CSRGraph) -> Tuple[List[int], List[List[int]]]:
        cached = self._scc.get(name)
        if cached is None:
            cached = tarjan_scc_csr(csr.num_nodes, csr.heads, csr.succ)
            self._scc[name] = cached
            self.note_condensation(name)
        return cached

    def beta_condensation(self) -> Tuple[List[int], List[List[int]]]:
        """``(component_of, components)`` of β — computed once, shared
        by RMOD and RUSE (and anything else that asks)."""
        return self._scc_of("beta", self.beta_csr)

    def call_condensation(self) -> Tuple[List[int], List[List[int]]]:
        """``(component_of, components)`` of the call multi-graph —
        the GMOD walk's record when an analysis has run (see
        :meth:`adopt_call_condensation`), else one Tarjan pass; shared
        by the sections solver, the effect lanes and the dependency
        index."""
        return self._scc_of("call", self.call_csr)

    def adopt_call_condensation(
        self, component_of: List[int], components: List[List[int]]
    ) -> None:
        """Take a GMOD walk's components as the call graph's
        condensation and count the walk as the graph's pass.

        Both walks are Tarjan's algorithm rooted in pid order, so their
        record equals :func:`tarjan_scc_csr` on :attr:`call_csr` — ids
        and member order — and a cached record is kept as it is."""
        self._scc.setdefault("call", (component_of, components))
        self.note_condensation("call")

    def _condense_full(self, name: str, csr: CSRGraph) -> Condensation:
        cached = self._condensations.get(name)
        if cached is None:
            component_of, components = self._scc_of(name, csr)
            heads = csr.heads
            succ = csr.succ
            num_components = len(components)
            comp_successors: List[List[int]] = [[] for _ in range(num_components)]
            last_seen = [-1] * num_components
            for comp_index, members in enumerate(components):
                for node in members:
                    for target in succ[heads[node]:heads[node + 1]]:
                        succ_comp = component_of[target]
                        if succ_comp == comp_index:
                            continue
                        if last_seen[succ_comp] != comp_index:
                            last_seen[succ_comp] = comp_index
                            comp_successors[comp_index].append(succ_comp)
            cached = Condensation(
                component_of=component_of,
                components=components,
                successors=comp_successors,
            )
            self._condensations[name] = cached
        return cached

    def call_condense_full(self) -> Condensation:
        """The call graph's full :class:`Condensation` (deduplicated
        cross-component successors), derived from the cached SCC pass —
        no additional Tarjan run."""
        return self._condense_full("call", self.call_csr)

    def beta_condense_full(self) -> Condensation:
        """β's full :class:`Condensation`, from the cached SCC pass."""
        return self._condense_full("beta", self.beta_csr)

    def note_condensation(self, name: str) -> None:
        """Record one condensation-equivalent pass over graph ``name``
        (an explicit Tarjan run, or an embedded Tarjan-adapted walk
        like Figure 2's)."""
        self.condensation_counts[name] = self.condensation_counts.get(name, 0) + 1

    def snapshot_condensations(self) -> Dict[str, int]:
        return dict(self.condensation_counts)

    # -- mask helpers ---------------------------------------------------------

    def strip_masks(self) -> List[int]:
        """Per pid: the *positive* complement of ``LOCAL(p)`` over the
        universe width — ``GMOD(q) & strip[q]`` is equation (4)'s
        ``GMOD(q) − LOCAL(q)``, kind-independent, so one table serves
        every lane.  The per-kind solver negates ``LOCAL`` per edge; the
        fused path pays the negation once per procedure."""
        if self._strip is None:
            limit = (1 << self.width) - 1
            self._strip = [limit & ~mask for mask in self.universe.local_mask]
        return self._strip

    def site_local(self, kind: EffectKind) -> List[int]:
        """``LMOD(s)``/``LUSE(s)`` per site id."""
        if kind is EffectKind.MOD:
            return self.site_lmod
        return self.site_luse


def patch_arena(
    new_resolved: ResolvedProgram,
    donor,
    dirty_pids: Sequence[int],
    site_map: Sequence[int],
    fast: bool = False,
) -> ProgramArena:
    """Build an arena for ``new_resolved`` by splicing a previous
    version's flat site tables instead of re-walking every call
    statement.

    ``donor`` is anything exposing the previous version's tables —
    in practice a :class:`~repro.core.depindex.DependencyIndex` —
    with attributes ``universe_global``/``universe_local``/
    ``universe_formal``/``universe_level`` (the structural masks),
    ``imod_plain``/``iuse_plain`` (per-pid masks) and
    ``site_caller``/``site_callee``/``site_lmod``/``site_luse``/
    ``site_ref_heads``/``ref_formal_uid``/``ref_base_uid`` (per old
    site id).  ``site_map[new_sid]`` gives the old site id whose tables
    are still valid (same caller, same statement) or ``-1`` to
    recompute — the caller guarantees mapped sites belong to procedures
    whose bodies did not change.

    Precondition (checked by the caller): the pid and uid spaces of
    both versions are identical — qualified procedure and variable name
    lists match positionally.

    ``fast`` asserts a stronger precondition the incremental engine
    proves before calling: every site id is unchanged (per-caller site
    counts survived the edit) *and* every edited procedure is
    binding-clean (callees and by-reference bindings intact, ordinal
    for ordinal).  The donor's site tables are then valid wholesale —
    bulk list copies instead of a per-site splice — and both graphs'
    CSR forms are derived straight from the flat binding tables; only
    the ``LMOD``/``LUSE`` of the edited procedures' own call statements
    (their subscript expressions may have changed) are re-walked.

    The result is field-for-field identical to ``ProgramArena.build``
    on the same program — the patched-arena differential test asserts
    it — so every downstream solver is oblivious to the splice.
    """
    arena = object.__new__(ProgramArena)
    arena.resolved = new_resolved
    arena.universe = VariableUniverse.spliced(
        new_resolved,
        donor.universe_global,
        donor.universe_local,
        donor.universe_formal,
        donor.universe_level,
        dirty_pids,
    )
    arena.local = LocalAnalysis.patched(
        new_resolved, arena.universe, donor.imod_plain, donor.iuse_plain,
        dirty_pids,
    )
    arena.width = max(1, arena.universe.size)
    num_sites = new_resolved.num_call_sites
    num_procs = new_resolved.num_procs

    if fast:
        # -- site tables: valid wholesale (see docstring) -------------
        arena.site_caller = list(donor.site_caller)
        arena.site_callee = list(donor.site_callee)
        arena.site_lmod = list(donor.site_lmod)
        arena.site_luse = list(donor.site_luse)
        arena.site_ref_heads = list(donor.site_ref_heads)
        arena.ref_formal_uid = list(donor.ref_formal_uid)
        arena.ref_base_uid = list(donor.ref_base_uid)
        dirty_set = set(dirty_pids)
        call_sites = new_resolved.call_sites
        for sid, caller in enumerate(arena.site_caller):
            if caller in dirty_set:
                stmt = call_sites[sid].stmt
                arena.site_lmod[sid] = lmod_of(stmt)
                arena.site_luse[sid] = luse_of(stmt)

        # -- β nodes: one formals walk; edges straight from the flat
        # ref tables (a by-reference base is an edge source exactly
        # when it is itself a formal), in site order — the same event
        # sequence build_binding_graph + to_csr would produce.
        formals_list = []
        node_of_uid: Dict[int, int] = {}
        for proc in new_resolved.procs:
            for formal in proc.formals:
                node_of_uid[formal.uid] = len(formals_list)
                formals_list.append(formal)
        num_nodes = len(formals_list)
        get_node = node_of_uid.get
        arena.ref_formal_node = [
            node_of_uid[uid] for uid in arena.ref_formal_uid
        ]
        succ_lists: List[List[int]] = [[] for _ in range(num_nodes)]
        site_lists: List[List[int]] = [[] for _ in range(num_nodes)]
        ref_heads = arena.site_ref_heads
        ref_base = arena.ref_base_uid
        ref_node = arena.ref_formal_node
        for sid in range(num_sites):
            for r in range(ref_heads[sid], ref_heads[sid + 1]):
                source = get_node(ref_base[r])
                if source is not None:
                    succ_lists[source].append(ref_node[r])
                    site_lists[source].append(sid)
        arena.binding_graph = BindingMultiGraph(
            resolved=new_resolved,
            formals=formals_list,
            node_of_uid=node_of_uid,
            successors=succ_lists,
        )
        heads = [0] * (num_nodes + 1)
        succ: List[int] = []
        edge_site: List[int] = []
        for node in range(num_nodes):
            succ.extend(succ_lists[node])
            edge_site.extend(site_lists[node])
            heads[node + 1] = len(succ)
        arena.beta_csr = CSRGraph(num_nodes, heads, succ, edge_site)

        # -- call multi-graph from the flat tables, same edge order as
        # build_call_graph's call-site sweep.
        call_succ: List[List[int]] = [[] for _ in range(num_procs)]
        call_sids: List[List[int]] = [[] for _ in range(num_procs)]
        preds: List[List[int]] = [[] for _ in range(num_procs)]
        site_caller = arena.site_caller
        site_callee = arena.site_callee
        for sid in range(num_sites):
            caller = site_caller[sid]
            callee = site_callee[sid]
            call_succ[caller].append(callee)
            call_sids[caller].append(sid)
            preds[callee].append(caller)
        arena.call_graph = CallMultiGraph(
            resolved=new_resolved,
            successors=call_succ,
            edge_sites=[
                [call_sites[sid] for sid in sids] for sids in call_sids
            ],
            predecessors=preds,
        )
        heads = [0] * (num_procs + 1)
        succ = []
        edge_site = []
        for pid in range(num_procs):
            succ.extend(call_succ[pid])
            edge_site.extend(call_sids[pid])
            heads[pid + 1] = len(succ)
        arena.call_csr = CSRGraph(num_procs, heads, succ, edge_site)
    else:
        arena.call_graph = build_call_graph(new_resolved)
        arena.binding_graph = build_binding_graph(new_resolved)
        heads, succ, edge_site = arena.call_graph.to_csr()
        arena.call_csr = CSRGraph(num_procs, heads, succ, edge_site)
        heads, succ, edge_site = arena.binding_graph.to_csr()
        arena.beta_csr = CSRGraph(
            arena.binding_graph.num_formals, heads, succ, edge_site
        )

        arena.site_caller = [0] * num_sites
        arena.site_callee = [0] * num_sites
        arena.site_lmod = [0] * num_sites
        arena.site_luse = [0] * num_sites
        arena.site_ref_heads = [0] * (num_sites + 1)
        arena.ref_formal_uid = []
        arena.ref_base_uid = []
        arena.ref_formal_node = []
        node_of_uid = arena.binding_graph.node_of_uid
        donor_heads = donor.site_ref_heads
        donor_formal = donor.ref_formal_uid
        donor_base = donor.ref_base_uid
        for site in new_resolved.call_sites:
            sid = site.site_id
            arena.site_caller[sid] = site.caller.pid
            arena.site_callee[sid] = site.callee.pid
            old_sid = site_map[sid]
            if old_sid >= 0:
                arena.site_lmod[sid] = donor.site_lmod[old_sid]
                arena.site_luse[sid] = donor.site_luse[old_sid]
            else:
                arena.site_lmod[sid] = lmod_of(site.stmt)
                arena.site_luse[sid] = luse_of(site.stmt)
        for site in new_resolved.call_sites:
            old_sid = site_map[site.site_id]
            if old_sid >= 0:
                lo = donor_heads[old_sid]
                hi = donor_heads[old_sid + 1]
                for r in range(lo, hi):
                    formal_uid = donor_formal[r]
                    arena.ref_formal_uid.append(formal_uid)
                    arena.ref_base_uid.append(donor_base[r])
                    arena.ref_formal_node.append(node_of_uid[formal_uid])
            else:
                formals = site.callee.formals
                for binding in site.bindings:
                    if not binding.by_reference:
                        continue
                    formal = formals[binding.position]
                    arena.ref_formal_uid.append(formal.uid)
                    arena.ref_base_uid.append(binding.base.uid)
                    arena.ref_formal_node.append(node_of_uid[formal.uid])
            arena.site_ref_heads[site.site_id + 1] = len(arena.ref_formal_uid)

    arena.beta_formal_pid = []
    arena.beta_formal_uid = []
    for formal in arena.binding_graph.formals:
        arena.beta_formal_pid.append(formal.proc.pid)
        arena.beta_formal_uid.append(formal.uid)

    arena.condensation_counts = {}
    arena._scc = {}
    arena._condensations = {}
    arena._strip = None
    return arena


#: Small LRU of arenas keyed by ResolvedProgram identity.  The cache
#: holds strong references (an arena keeps its program alive), so it is
#: bounded: long-running services (batch engine, analysis server) churn
#: through many programs and must not accumulate one lowering each.
_ARENA_CACHE: "Dict[int, ProgramArena]" = {}
_ARENA_CACHE_LIMIT = 16


def get_arena(resolved: ResolvedProgram) -> ProgramArena:
    """The shared arena for ``resolved`` — built once per program,
    then reused by every analysis (pipeline, incremental, sections,
    lanes) that sees the same resolved object."""
    key = id(resolved)
    arena = _ARENA_CACHE.get(key)
    if arena is not None and arena.resolved is resolved:
        return arena
    arena = ProgramArena(resolved)
    if len(_ARENA_CACHE) >= _ARENA_CACHE_LIMIT:
        # Drop the oldest insertion (dicts preserve insertion order).
        _ARENA_CACHE.pop(next(iter(_ARENA_CACHE)))
    _ARENA_CACHE[key] = arena
    return arena


def peek_arena(resolved: ResolvedProgram) -> Optional[ProgramArena]:
    """The cached arena for ``resolved`` if one exists — never builds."""
    arena = _ARENA_CACHE.get(id(resolved))
    if arena is not None and arena.resolved is resolved:
        return arena
    return None


def install_arena(resolved: ResolvedProgram, arena: ProgramArena) -> None:
    """Register an externally built arena (e.g. a patched one) so later
    :func:`get_arena` calls for the same program reuse it."""
    if len(_ARENA_CACHE) >= _ARENA_CACHE_LIMIT:
        _ARENA_CACHE.pop(next(iter(_ARENA_CACHE)))
    _ARENA_CACHE[id(resolved)] = arena


def clear_arena_cache() -> None:
    """Benchmark/test hook: force the next :func:`get_arena` to lower
    from scratch."""
    _ARENA_CACHE.clear()
