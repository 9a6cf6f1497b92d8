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
from typing import Dict, List, Optional, Sequence, Tuple

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


def solve_rmod_fused(
    arena,
    kinds: Sequence[EffectKind],
    counters: Sequence[OpCounter],
) -> Tuple[List[RmodResult], List[int]]:
    """Figure 1 for every kind in one sweep over the arena's β CSR.

    The per-node state is a K-bit int (bit ``k`` = kind ``k``'s
    boolean), so one integer OR advances all kinds, and the SCC
    condensation comes from the arena — computed once and shared with
    anything else that asks.  Returns the per-kind :class:`RmodResult`
    list plus the packed K-bit node vector (consumed directly by
    :func:`repro.core.imod_plus.compute_imod_plus_fused`).

    Counter identity with the per-kind solver: Figure 1 charges one
    single-bit step per node in each of steps (init), (2) and (4) and
    one per β edge in step (3) — all structural, identical for every
    kind — so each kind's counter receives exactly ``3·Nβ + Eβ``, the
    same tally :func:`solve_rmod` accumulates one increment at a time.
    """
    resolved = arena.resolved
    local = arena.local
    csr = arena.beta_csr
    heads = csr.heads
    succ = csr.succ
    num_nodes = csr.num_nodes
    num_kinds = len(kinds)

    initial = [local.initial(kind) for kind in kinds]
    formal_pid = arena.beta_formal_pid
    formal_uid = arena.beta_formal_uid

    node_imod = [0] * num_nodes
    for node in range(num_nodes):
        pid = formal_pid[node]
        uid = formal_uid[node]
        bits = 0
        for k in range(num_kinds):
            bits |= ((initial[k][pid] >> uid) & 1) << k
        node_imod[node] = bits

    # Step (1): the shared condensation of β.
    component_of, components = arena.beta_condensation()

    # Step (2): representer IMOD = OR of member IMODs.
    num_components = len(components)
    comp_value = [0] * num_components
    for comp_index, members in enumerate(components):
        value = 0
        for member in members:
            value |= node_imod[member]
        comp_value[comp_index] = value

    # Step (3): leaves-to-roots sweep applying equation (6); components
    # are in reverse topological order, so successors are final.
    for comp_index, members in enumerate(components):
        value = comp_value[comp_index]
        for member in members:
            for target in succ[heads[member]:heads[member + 1]]:
                value |= comp_value[component_of[target]]
        comp_value[comp_index] = value

    # Step (4): copy back.
    node_bits = [0] * num_nodes
    for comp_index, members in enumerate(components):
        value = comp_value[comp_index]
        for member in members:
            node_bits[member] = value

    per_kind_steps = 3 * num_nodes + csr.num_edges
    num_procs = resolved.num_procs
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
    return results, node_bits
