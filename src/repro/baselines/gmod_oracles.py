"""The Section 4 GMOD solvers production does not run, kept as oracles.

Production solves equation (4) with the paper's two linear walks,
chosen by nesting depth: Figure 2's ``findgmod`` for two-level programs
and the single-DFS multi-level algorithm otherwise
(:mod:`repro.core.gmod_nested`).  The differential suites hold those
walks to the two solvers here, set for set:

* :func:`solve_equation4_reference` — SCC condensation plus per-SCC
  fixpoint iteration of equation (4) with full ``LOCAL`` filtering.
  Obviously correct for arbitrary nesting, and not linear: within a
  component of size k it may sweep k times.
* :func:`findgmod_per_level` — the paper's "easy" version: solve the
  ``d_P`` per-level problems one after another, ``O(d_P·(E_C + N_C))``
  bit-vector steps.

Both charge an :class:`~repro.core.bitvec.OpCounter`, so the cost-shape
tests can set the per-level repetition's ``d_P`` factor against the
multi-level walk's Theorem 2 bound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.bitvec import OpCounter
from repro.core.gmod_nested import NestedGmodResult
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.callgraph import CallMultiGraph
from repro.graphs.scc import tarjan_scc


def solve_equation4_reference(
    graph: CallMultiGraph,
    imod_plus: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
) -> NestedGmodResult:
    """Least solution of equation (4) by SCC condensation and, within
    each component, round-robin iteration to a fixpoint.

    Not linear (within a component of size k it may sweep k times), but
    transparently correct for any nesting structure — the oracle the
    fast algorithms are tested against.
    """
    if counter is None:
        counter = OpCounter()
    num_nodes = graph.num_nodes
    successors = graph.successors
    local_mask = universe.local_mask
    gmod = [imod_plus[pid] for pid in range(num_nodes)]
    counter.bit_vector_steps += num_nodes

    component_of, components = tarjan_scc(num_nodes, successors)
    # Components arrive callees-first, so each component only depends on
    # already-final values plus its own members.
    for members in components:
        changed = True
        while changed:
            changed = False
            for node in members:
                value = gmod[node]
                for succ in successors[node]:
                    value |= gmod[succ] & ~local_mask[succ]
                    counter.bit_vector_steps += 1
                if value != gmod[node]:
                    gmod[node] = value
                    changed = True
    return NestedGmodResult(kind=kind, gmod=gmod, counter=counter, method="reference")



def findgmod_per_level(
    graph: CallMultiGraph,
    imod_plus: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
) -> NestedGmodResult:
    """Solve the ``d_P`` per-level problems one after another.

    Problem ``i`` drops every edge whose callee sits at level < i,
    restricts the initial sets to level-(i−1) variables, and takes a
    pure reachability union (no ``LOCAL`` filtering is needed: no
    procedure at level ≥ i owns a level-(i−1) variable).  Cost is one
    condensation pass per level — ``O(d_P(E_C + N_C))`` bit-vector
    steps, the bound the paper quotes for the simple repetition.
    """
    if counter is None:
        counter = OpCounter()
    num_nodes = graph.num_nodes
    levels = [proc.level for proc in graph.resolved.procs]
    gmod = [0] * num_nodes

    # One problem per variable level λ = 0 .. max-var-level; problem
    # i = λ+1 keeps only edges into procedures at level >= i.  The
    # deepest problem's graph may be edgeless — it still contributes
    # each procedure's own-level IMOD+ slice via the empty path.
    for problem in range(1, len(universe.level_mask) + 1):
        level_mask = universe.level_mask[problem - 1]
        filtered: List[List[int]] = [[] for _ in range(num_nodes)]
        for node in range(num_nodes):
            for succ in graph.successors[node]:
                if levels[succ] >= problem:
                    filtered[node].append(succ)
        component_of, components = tarjan_scc(num_nodes, filtered)
        comp_value = [0] * len(components)
        for comp_index, members in enumerate(components):
            value = 0
            for member in members:
                value |= imod_plus[member] & level_mask
                counter.bit_vector_steps += 1
            # Components are emitted callees-first, so successors final.
            for member in members:
                for succ in filtered[member]:
                    succ_comp = component_of[succ]
                    if succ_comp != comp_index:
                        value |= comp_value[succ_comp]
                        counter.bit_vector_steps += 1
            comp_value[comp_index] = value
        for node in range(num_nodes):
            gmod[node] |= comp_value[component_of[node]]
            counter.bit_vector_steps += 1
    return NestedGmodResult(kind=kind, gmod=gmod, counter=counter, method="per-level")

