"""``RMOD``/``RUSE`` over the binding multi-graph — Figure 1 of the paper.

``RMOD(p)`` is the set of formal parameters of ``p`` that may be
modified by an invocation of ``p``.  Posed on β, it is the least
solution of the boolean system (equation (6))::

    RMOD(m) = IMOD(m)  ∨  ∨_{e=(m,n) ∈ Eβ} RMOD(n)

whose key property — exploited by the algorithm — is that the solution
is identical at every node of a strongly connected region.  Figure 1's
four steps:

1. find the SCCs of β;
2. replace each SCC by a representer whose ``IMOD`` is the OR of its
   members';
3. traverse the derived (acyclic) graph leaves-to-roots applying
   equation (6);
4. copy each representer's value back to its members.

Each step is ``O(Nβ + Eβ)``, and — the point of Section 3.2 — the unit
of work is a **single-bit** boolean operation, not a bit-vector
operation of length ``Nβ`` as in the swift algorithm.  The
:class:`~repro.core.bitvec.OpCounter` tallies ``single_bit_steps``
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.bitvec import OpCounter
from repro.core.local import LocalAnalysis
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import BindingMultiGraph
from repro.graphs.scc import tarjan_scc
from repro.lang.symbols import ResolvedProgram, VarSymbol


@dataclass
class RmodResult:
    """Solution of the reference-formal-parameter problem."""

    kind: EffectKind
    graph: BindingMultiGraph
    #: Per β-node boolean: is this formal in RMOD of its procedure?
    node_value: List[bool]
    #: Per pid: bit mask (over variable uids) of RMOD formals.
    proc_mask: List[int]
    counter: OpCounter = field(default_factory=OpCounter)

    def formal_value(self, formal: VarSymbol) -> bool:
        return self.node_value[self.graph.node_of(formal)]

    def formals_of(self, pid: int) -> List[VarSymbol]:
        """The RMOD formals of a procedure, position-ascending."""
        proc = self.graph.resolved.procs[pid]
        return [f for f in proc.formals if self.formal_value(f)]


def solve_rmod(
    graph: BindingMultiGraph,
    local: LocalAnalysis,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
) -> RmodResult:
    """Run Figure 1 over β.

    ``IMOD(fp_i^p)`` is true iff ``fp_i^p ∈ IMOD(p)`` using the
    Section 3.3 *extended* ``IMOD`` (so a formal modified only inside a
    procedure nested in ``p`` still seeds the system — §3.3, point 1).
    """
    if counter is None:
        counter = OpCounter()
    resolved = graph.resolved
    initial = local.initial(kind)
    num_nodes = graph.num_formals

    # IMOD(fp): one single-bit test per node.
    node_imod = [False] * num_nodes
    for node, formal in enumerate(graph.formals):
        node_imod[node] = (initial[formal.proc.pid] >> formal.uid) & 1 == 1
        counter.single_bit_steps += 1

    # Step (1): strongly connected components of β.
    component_of, components = tarjan_scc(num_nodes, graph.successors)

    # Step (2): representer IMOD = OR of member IMODs; RMOD := false.
    num_components = len(components)
    comp_imod = [False] * num_components
    for comp_index, members in enumerate(components):
        value = False
        for member in members:
            value = value or node_imod[member]
            counter.single_bit_steps += 1
        comp_imod[comp_index] = value
    comp_rmod = [False] * num_components

    # Step (3): leaves-to-roots sweep of the derived graph applying
    # equation (6).  ``components`` is already in reverse topological
    # order (successor components first), so a single forward scan
    # sees every successor's final value.
    for comp_index, members in enumerate(components):
        value = comp_imod[comp_index]
        for member in members:
            for succ in graph.successors[member]:
                value = value or comp_rmod[component_of[succ]]
                counter.single_bit_steps += 1
        comp_rmod[comp_index] = value

    # Step (4): copy representer values back to members.
    node_value = [False] * num_nodes
    for comp_index, members in enumerate(components):
        for member in members:
            node_value[member] = comp_rmod[comp_index]
            counter.single_bit_steps += 1

    proc_mask = [0] * resolved.num_procs
    for node, formal in enumerate(graph.formals):
        if node_value[node]:
            proc_mask[formal.proc.pid] |= 1 << formal.uid

    return RmodResult(
        kind=kind,
        graph=graph,
        node_value=node_value,
        proc_mask=proc_mask,
        counter=counter,
    )


@dataclass
class RmodSweep:
    """What one :func:`solve_rmod_fused` call solved."""

    #: Per β node: the packed K-bit verdict (bit ``k`` = kind ``k``'s
    #: boolean), consumed by
    #: :func:`repro.core.imod_plus.compute_imod_plus_fused`.
    node_bits: List[int]
    #: β's component count, or ``None`` when nothing was seeded and β
    #: was not condensed.
    num_components: Optional[int]
    #: Components, and their member nodes, that equation (6) was
    #: evaluated on.
    solved_components: int
    solved_nodes: int
    #: Per β node: its verdict differs from the carried one (or none
    #: was carried).
    moved: List[bool]


def solve_rmod_fused(
    arena,
    kinds: Sequence[EffectKind],
    counters: Sequence[OpCounter],
    carried: Optional[Sequence[Optional[int]]] = None,
    seeds: Optional[Iterable[int]] = None,
) -> Tuple[List[RmodResult], RmodSweep]:
    """Figure 1 for every kind in one sweep over the arena's β CSR.

    The per-node state is a K-bit int (bit ``k`` = kind ``k``'s
    boolean), so one integer OR advances all kinds, and the SCC
    condensation comes from the arena — computed once and shared with
    anything else that asks.  Steps (2)–(4) are one pass over the
    components in reverse topological order: a component's value is
    the OR of its members' ``IMOD`` bits and their successors' values
    (final, or zero inside the component), copied to every member.
    Returns the per-kind :class:`RmodResult` list plus the
    :class:`RmodSweep` report.

    Warm starts, for incremental re-analysis: ``carried[node]`` is the
    node's packed verdict from an earlier solve, or ``None`` where there
    is none, and ``seeds`` names the nodes whose inputs moved.  A
    component with no seeded or uncarried member and no moved successor
    keeps its carried verdicts; with no seeds and every verdict carried,
    β is not condensed at all.  Equation (6)'s least fixpoint is unique,
    so a warm start is value-identical to a cold one (``seeds=None``,
    which solves every component).

    Counter identity with the per-kind solver: Figure 1 charges one
    single-bit step per node in each of steps (init), (2) and (4) and
    one per β edge in step (3) — all structural, identical for every
    kind — so each kind's counter receives ``3·n + e`` for the ``n``
    solved nodes and their ``e`` out-edges: exactly ``3·Nβ + Eβ`` on a
    cold start, the tally :func:`solve_rmod` accumulates one increment
    at a time.
    """
    csr = arena.beta_csr
    heads = csr.heads
    succ = csr.succ
    num_nodes = csr.num_nodes
    num_kinds = len(kinds)
    initial = [arena.local.initial(kind) for kind in kinds]
    formal_pid = arena.beta_formal_pid
    formal_uid = arena.beta_formal_uid
    if carried is None:
        carried = [None] * num_nodes
    seeded = None if seeds is None else set(seeds)

    moved = [False] * num_nodes
    num_components: Optional[int] = None
    solved_components = solved_nodes = solved_edges = 0
    if seeded is not None and not seeded and None not in carried:
        node_bits = list(carried)
    else:
        components = arena.beta_condensation()[1]
        num_components = len(components)
        node_bits = [0] * num_nodes
        is_moved = moved.__getitem__
        for members in components:
            if seeded is not None and not any(
                member in seeded
                or carried[member] is None
                or any(map(is_moved, succ[heads[member]:heads[member + 1]]))
                for member in members
            ):
                for member in members:
                    node_bits[member] = carried[member]
                continue
            solved_components += 1
            solved_nodes += len(members)
            value = 0
            for member in members:
                pid = formal_pid[member]
                uid = formal_uid[member]
                for k in range(num_kinds):
                    value |= ((initial[k][pid] >> uid) & 1) << k
                lo, hi = heads[member], heads[member + 1]
                solved_edges += hi - lo
                for target in succ[lo:hi]:
                    value |= node_bits[target]
            for member in members:
                node_bits[member] = value
                if carried[member] != value:
                    moved[member] = True

    per_kind_steps = 3 * solved_nodes + solved_edges
    num_procs = arena.resolved.num_procs
    results: List[RmodResult] = []
    for k, kind in enumerate(kinds):
        counters[k].single_bit_steps += per_kind_steps
        node_value = [bool((bits >> k) & 1) for bits in node_bits]
        proc_mask = [0] * num_procs
        for node in range(num_nodes):
            if node_value[node]:
                proc_mask[formal_pid[node]] |= 1 << formal_uid[node]
        results.append(
            RmodResult(
                kind=kind,
                graph=arena.binding_graph,
                node_value=node_value,
                proc_mask=proc_mask,
                counter=counters[k],
            )
        )
    sweep = RmodSweep(
        node_bits=node_bits,
        num_components=num_components,
        solved_components=solved_components,
        solved_nodes=solved_nodes,
        moved=moved,
    )
    return results, sweep
