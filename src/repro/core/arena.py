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

There is one lowering.  It walks the call sites once, in site order,
into flat tables, and derives β's edges, both CSR forms and both graph
objects (``CallMultiGraph``, ``BindingMultiGraph``) from those tables —
the paper's one sweep of the call sites (§3.1).  An incremental update
runs the same lowering with the previous version's dependency index as
a donor (:func:`patch_arena`): the rows of every site the edit left
alone are copied instead of walked.  ``build_call_graph`` and
``build_binding_graph`` stay the paper's reference constructions; the
differential tests hold the arena equal to them.

Everything here is plain ints and lists, so the arena pickles: a
cached lowering can cross a process boundary with the program.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.local import LocalAnalysis, lmod_of, luse_of
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import BindingMultiGraph
from repro.graphs.callgraph import CallMultiGraph
from repro.graphs.scc import tarjan_scc_csr
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

    @classmethod
    def from_adjacency(
        cls, successors: List[List[int]], edge_sites: List[List[int]]
    ) -> "CSRGraph":
        """Flatten a list-of-lists adjacency and its aligned site ids."""
        heads = [0]
        heads += accumulate(map(len, successors))
        return cls(
            len(successors),
            heads,
            list(chain.from_iterable(successors)),
            list(chain.from_iterable(edge_sites)),
        )

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

    ``ProgramArena(resolved)`` lowers from scratch; :func:`get_arena`
    caches one per program, and :func:`patch_arena` lowers an edited
    program against its previous version's dependency index.
    """

    def __init__(self, resolved: ResolvedProgram):
        universe = VariableUniverse(resolved)
        self._lower(resolved, universe, LocalAnalysis(resolved, universe))

    def _lower(
        self,
        resolved: ResolvedProgram,
        universe: VariableUniverse,
        local: LocalAnalysis,
        donor=None,
        site_map: Sequence[int] = (),
    ) -> None:
        """The one lowering: a single pass over ``resolved.call_sites``
        fills the flat site tables, and β, both CSRs and both graph
        objects are derived from those tables.

        With a ``donor`` (see :func:`patch_arena`), each run of sites
        that ``site_map`` maps onto consecutive donor sites copies the
        donor's rows instead of walking the call statements.
        """
        self.resolved = resolved
        self.universe = universe
        self.local = local
        #: Variable-universe width in bits (mask width of every lane).
        self.width = max(1, universe.size)

        # β's nodes are the program's formals, procedure by procedure;
        # their attributes as parallel arrays (owner pid, variable uid)
        # so the RMOD sweeps never touch a VarSymbol.
        formals = []
        node_of_uid: Dict[int, int] = {}
        for proc in resolved.procs:
            for formal in proc.formals:
                node_of_uid[formal.uid] = len(formals)
                formals.append(formal)
        self.beta_formal_pid = [formal.proc.pid for formal in formals]
        self.beta_formal_uid = [formal.uid for formal in formals]

        # Per-call-site flat tables.  The by-reference bindings of site
        # ``s`` occupy ``ref_*[site_ref_heads[s]:site_ref_heads[s+1]]``.
        call_sites = resolved.call_sites
        num_sites = len(call_sites)
        site_caller: List[int] = []
        site_callee: List[int] = []
        #: LMOD/LUSE of the call statement itself (subscript/value-arg
        #: evaluation) — equation (2)'s ``LMOD(s)`` term.
        site_lmod: List[int] = []
        site_luse: List[int] = []
        ref_heads = [0]
        ref_formal_uid: List[int] = []
        ref_base_uid: List[int] = []
        sid = 0
        while sid < num_sites:
            old = site_map[sid] if site_map else -1
            if old >= 0:
                # The donor still holds this site's rows: copy the longest
                # run of sites mapped to consecutive donor sites in one
                # go, its ref heads shifted to where its refs now start.
                end = sid + 1
                while end < num_sites and site_map[end] == old + end - sid:
                    end += 1
                old_end = old + end - sid
                site_caller += donor.site_caller[old:old_end]
                site_callee += donor.site_callee[old:old_end]
                site_lmod += donor.site_lmod[old:old_end]
                site_luse += donor.site_luse[old:old_end]
                lo = donor.site_ref_heads[old]
                hi = donor.site_ref_heads[old_end]
                run_heads = donor.site_ref_heads[old + 1:old_end + 1]
                shift = len(ref_formal_uid) - lo
                ref_heads += [h + shift for h in run_heads] if shift else run_heads
                ref_formal_uid += donor.ref_formal_uid[lo:hi]
                ref_base_uid += donor.ref_base_uid[lo:hi]
                sid = end
                continue
            site = call_sites[sid]
            callee = site.callee
            site_caller.append(site.caller.pid)
            site_callee.append(callee.pid)
            site_lmod.append(lmod_of(site.stmt))
            site_luse.append(luse_of(site.stmt))
            for binding in site.bindings:
                if binding.by_reference:
                    ref_formal_uid.append(callee.formals[binding.position].uid)
                    ref_base_uid.append(binding.base.uid)
            ref_heads.append(len(ref_formal_uid))
            sid += 1
        self.site_caller = site_caller
        self.site_callee = site_callee
        self.site_lmod = site_lmod
        self.site_luse = site_luse
        self.site_ref_heads = ref_heads
        self.ref_formal_uid = ref_formal_uid
        self.ref_base_uid = ref_base_uid
        #: β node id of the bound formal (for RMOD lookups).
        self.ref_formal_node = [node_of_uid[uid] for uid in ref_formal_uid]

        # β's edges, one per binding event in site order: a base bound
        # by reference is an edge source exactly when it is a formal.
        get_node = node_of_uid.get
        ref_node = self.ref_formal_node
        beta_succ: List[List[int]] = [[] for _ in formals]
        beta_sites: List[List[int]] = [[] for _ in formals]
        for sid in range(num_sites):
            for r in range(ref_heads[sid], ref_heads[sid + 1]):
                source = get_node(ref_base_uid[r])
                if source is not None:
                    beta_succ[source].append(ref_node[r])
                    beta_sites[source].append(sid)
        self.binding_graph = BindingMultiGraph(
            resolved=resolved,
            formals=formals,
            node_of_uid=node_of_uid,
            successors=beta_succ,
        )
        self.beta_csr = CSRGraph.from_adjacency(beta_succ, beta_sites)

        # The call multi-graph: one edge per site, in site order.
        num_procs = resolved.num_procs
        call_succ: List[List[int]] = [[] for _ in range(num_procs)]
        call_sids: List[List[int]] = [[] for _ in range(num_procs)]
        preds: List[List[int]] = [[] for _ in range(num_procs)]
        for sid, caller, callee in zip(range(num_sites), site_caller, site_callee):
            call_succ[caller].append(callee)
            call_sids[caller].append(sid)
            preds[callee].append(caller)
        self.call_graph = CallMultiGraph(
            resolved=resolved,
            successors=call_succ,
            edge_sites=[[call_sites[sid] for sid in sids] for sids in call_sids],
            predecessors=preds,
        )
        self.call_csr = CSRGraph.from_adjacency(call_succ, call_sids)

        #: How many ``tarjan_scc``-equivalent passes have run per graph
        #: ("beta" and "call").  Cached condensations do not re-count —
        #: the whole point — so one analysis adds exactly one count per
        #: graph: β's Tarjan pass and the call graph's GMOD walk, which
        #: runs on every analysis while β's pass stays cached.
        self.condensation_counts: Dict[str, int] = {}
        self._scc: Dict[str, Tuple[List[int], List[List[int]]]] = {}
        self._strip: Optional[List[int]] = None
        #: β's component count when an update carried it uncondensed.
        self.carried_beta_sccs: Optional[int] = None

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
        by the sections solver, the effect lanes and the incremental
        engine."""
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
) -> ProgramArena:
    """Lower ``new_resolved`` against a previous version's tables: the
    same lowering as :class:`ProgramArena`, with the donor's rows copied
    for every site it still holds.

    ``donor`` is anything exposing the previous version's tables —
    in practice a :class:`~repro.core.depindex.DependencyIndex` —
    with attributes ``universe_global``/``universe_local``/
    ``universe_formal``/``universe_level`` (the structural masks),
    ``imod_plain``/``iuse_plain`` (per-pid masks) and
    ``site_caller``/``site_callee``/``site_lmod``/``site_luse``/
    ``site_ref_heads``/``ref_formal_uid``/``ref_base_uid`` (per old
    site id).  ``site_map[new_sid]`` gives the old site id whose rows
    are still valid (same caller, same statement) or ``-1`` to walk the
    site — the caller guarantees mapped sites belong to procedures
    whose bodies did not change.  The universe and the local rows are
    spliced from the donor, re-deriving only ``dirty_pids``.

    Precondition (checked by the caller): the pid and uid spaces of
    both versions are identical — qualified procedure and variable name
    lists match positionally.

    The result is field-for-field identical to ``ProgramArena`` on the
    same program — ``tests/test_incremental_fuzz.py::
    test_edit_sequence_oracle`` asserts it after every edit — so every
    downstream solver is oblivious to the splice.
    """
    universe = VariableUniverse.spliced(
        new_resolved,
        donor.universe_global,
        donor.universe_local,
        donor.universe_formal,
        donor.universe_level,
        dirty_pids,
    )
    local = LocalAnalysis.patched(
        new_resolved, universe, donor.imod_plain, donor.iuse_plain, dirty_pids
    )
    arena = ProgramArena.__new__(ProgramArena)
    arena._lower(new_resolved, universe, local, donor, site_map)
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
