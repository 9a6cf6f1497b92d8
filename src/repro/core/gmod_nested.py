"""Multi-level lexical nesting — the extension at the end of Section 4.

For languages like Pascal where procedures declare procedures, a
variable local to a procedure ``a`` at nesting level λ is *global* to
the procedures nested inside ``a``.  The paper handles this by solving
``d_P`` simultaneous problems, where **problem i** is defined on the
graph ``G_i`` in which all edges representing calls to procedures
declared at levels shallower than ``i`` are ignored, and (in our
formulation) propagates only the variables declared at level ``i−1``.

Why that is the right graph: a variable ``v`` local to ``a`` (level λ)
is filtered exactly at ``a`` by equation (4).  Any call chain that
avoids ``a`` and reaches a procedure that can even name ``v`` stays
inside ``a``'s nest — procedures nested in ``a`` are lexically
invisible elsewhere — so every procedure on the chain (after its start)
has level ≥ λ+1.  Those are precisely the edges ``G_{λ+1}`` keeps.
Hence ``GMOD(p) = ∪_i GMOD_i(p)`` with ``GMOD_i`` a pure reachability
union over ``G_i``.

Three solvers, strongest claims last:

* :func:`solve_equation4_reference` — SCC condensation plus per-SCC
  fixpoint iteration of equation (4) with full ``LOCAL`` filtering.
  Obviously correct for arbitrary nesting; the oracle for the others.
* :func:`findgmod_per_level` — the paper's "easy" version: run the
  one-level algorithm once per level, ``O(d_P·(E_C + N_C))`` bit-vector
  steps.
* :func:`findgmod_multilevel` — the paper's optimised version: a
  *single* depth-first search maintaining a **vector of lowlink
  values** (one per level) and parallel per-level stacks, for
  ``O(E_C + d_P·N_C)`` bit-vector steps.  Per edge it does O(1)
  bit-vector work (the per-level slices of equation (4) batch into one
  masked union because a procedure at level λ can only carry variables
  from levels < λ past its own frame); the ``d_P`` factor rides only on
  per-node work (stack pushes, the lowlink correction sweep, and
  per-level component closes), exactly as the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.bitvec import OpCounter
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.callgraph import CallMultiGraph
from repro.graphs.scc import tarjan_scc


@dataclass
class NestedGmodResult:
    """GMOD for every procedure of a (possibly nested) program."""

    kind: EffectKind
    gmod: List[int]
    counter: OpCounter = field(default_factory=OpCounter)
    #: Which solver produced this (for reporting).
    method: str = ""


# ---------------------------------------------------------------------------
# Reference solver: equation (4) by condensation + fixpoint.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Per-level repetition: O(d_P (E + N)).
# ---------------------------------------------------------------------------


def _below_masks(universe: VariableUniverse, max_level: int) -> List[int]:
    """``below[λ]`` = mask of variables declared at levels < λ."""
    below = [0] * (max_level + 2)
    for level in range(1, max_level + 2):
        mask = below[level - 1]
        if level - 1 < len(universe.level_mask):
            mask |= universe.level_mask[level - 1]
        below[level] = mask
    return below


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


# ---------------------------------------------------------------------------
# Single-DFS multi-level algorithm: O(E + d_P N).
# ---------------------------------------------------------------------------


def findgmod_multilevel(
    graph: CallMultiGraph,
    imod_plus: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
    check_invariants: bool = False,
) -> NestedGmodResult:
    """One depth-first search solving all ``d_P`` problems at once.

    Per-level machinery, following the paper's sketch:

    * ``lowlink[p]`` is a vector with one entry per level 1..d_P.  An
      edge into a callee at level λ records its contribution at index
      min(λ, the deepest level at which the callee is still stacked);
      a correction sweep at node exit propagates minima from deeper
      indices to shallower ones (an edge present in problem i is
      present in every problem j ≤ i).
    * one stack per level; a node is pushed on all of them when first
      visited and ``stack_level[v]`` tracks the deepest level at which
      ``v`` is still stacked (components close deepest-level-first
      because the level-i regions nest).
    * equation (4) applies **eagerly on every edge** as a single masked
      union ``GMOD[p] |= GMOD[q] & below(level(q))`` — sound because a
      partial ``GMOD[q]`` is always a subset of the final one — and the
      per-level line-22 at each level-i close distributes the root's
      level-(i−1) slice to the members, which repairs exactly the
      contributions the eager unions could not see.

    ``check_invariants`` additionally asserts, at every node exit, the
    two structural properties the paper's sketch rests on: the
    corrected lowlink vector is monotone (``lowlink_i ≤ lowlink_{i+1}``
    — the level-i regions nest) and the set of levels closing at a node
    forms a suffix ``[i*, d_P]`` (deepest regions close first).  Used
    by the test suite; off by default.
    """
    if counter is None:
        counter = OpCounter()
    resolved = graph.resolved
    num_nodes = graph.num_nodes
    successors = graph.successors
    levels = [proc.level for proc in resolved.procs]
    d_p = max(levels) if levels else 0
    if d_p == 0:
        # Only the main procedure: its GMOD is its IMOD+.
        return NestedGmodResult(
            kind=kind, gmod=list(imod_plus), counter=counter, method="multilevel"
        )
    below = _below_masks(universe, d_p)
    level_mask = list(universe.level_mask) + [0] * (d_p + 1 - len(universe.level_mask))

    INF = num_nodes + 2
    gmod = [0] * num_nodes
    dfn = [0] * num_nodes
    # lowlink[v] is a list indexed 1..d_p (slot 0 unused).
    lowlink: List[Optional[List[int]]] = [None] * num_nodes
    stack_level = [0] * num_nodes  # Deepest level at which v is stacked.
    stacks: List[List[int]] = [[] for _ in range(d_p + 1)]
    next_dfn = 1

    roots = [resolved.main.pid] + list(range(num_nodes))
    for root in roots:
        if dfn[root] != 0:
            continue
        dfn[root] = next_dfn
        next_dfn += 1
        gmod[root] = imod_plus[root]
        counter.bit_vector_steps += 1
        lowlink[root] = [dfn[root]] * (d_p + 1)
        stack_level[root] = d_p
        for level in range(1, d_p + 1):
            stacks[level].append(root)
        frames: List[List[object]] = [[root, iter(successors[root])]]

        while frames:
            node, succ_iter = frames[-1]
            descended = False
            for succ in succ_iter:
                if dfn[succ] == 0:
                    dfn[succ] = next_dfn
                    next_dfn += 1
                    gmod[succ] = imod_plus[succ]
                    counter.bit_vector_steps += 1
                    lowlink[succ] = [dfn[succ]] * (d_p + 1)
                    stack_level[succ] = d_p
                    for level in range(1, d_p + 1):
                        stacks[level].append(succ)
                    frames.append([succ, iter(successors[succ])])
                    descended = True
                    break
                # Non-tree edge.  Eager equation (4): one masked union.
                gmod[node] |= gmod[succ] & below[levels[succ]]
                counter.bit_vector_steps += 1
                if dfn[succ] < dfn[node]:
                    # Back/cross edge; it matters for problems
                    # i <= min(level(succ), deepest open level of succ).
                    slot = min(levels[succ], stack_level[succ])
                    if slot >= 1 and dfn[succ] < lowlink[node][slot]:
                        lowlink[node][slot] = dfn[succ]
            if descended:
                continue

            frames.pop()
            node_low = lowlink[node]
            # Correction sweep: a contribution recorded at index j
            # applies to every problem i <= j.
            for level in range(d_p - 1, 0, -1):
                if node_low[level + 1] < node_low[level]:
                    node_low[level] = node_low[level + 1]
            if check_invariants:
                # Monotone after correction: problem i has every edge
                # problem i+1 has, so its lowlink can only be smaller.
                for level in range(1, d_p):
                    assert node_low[level] <= node_low[level + 1], (
                        "lowlink vector not monotone at node %d" % node
                    )
                closing = [
                    level
                    for level in range(1, d_p + 1)
                    if node_low[level] == dfn[node]
                ]
                if closing:
                    assert closing == list(
                        range(closing[0], d_p + 1)
                    ), "closing levels are not a suffix at node %d" % node
            # Per-level root test; regions nest, so the closing levels
            # form a suffix [i*, d_p] — close deepest first.
            for level in range(d_p, 0, -1):
                if node_low[level] != dfn[node]:
                    break
                root_slice = gmod[node] & level_mask[level - 1]
                while True:
                    member = stacks[level].pop()
                    stack_level[member] = level - 1
                    gmod[member] |= root_slice
                    counter.bit_vector_steps += 1
                    if member == node:
                        break
            if frames:
                parent = frames[-1][0]
                parent_low = lowlink[parent]
                # Tree edge (parent -> node): exists in problems
                # i <= level(node); merge the child's lowlinks there.
                for level in range(1, levels[node] + 1):
                    if node_low[level] < parent_low[level]:
                        parent_low[level] = node_low[level]
                # Fall-through application of equation (4) on the tree
                # edge, as in the one-level algorithm.
                gmod[parent] |= gmod[node] & below[levels[node]]
                counter.bit_vector_steps += 1

    return NestedGmodResult(kind=kind, gmod=gmod, counter=counter, method="multilevel")


# ---------------------------------------------------------------------------
# Fused (packed multi-kind) variants over the program arena.
# ---------------------------------------------------------------------------


def solve_equation4_reference_fused(
    arena,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
) -> List[List[int]]:
    """The reference fixpoint for every kind over the arena's shared
    call-graph condensation (one Tarjan pass total, not one per kind).

    The reference solver's tally is **value-dependent** — a component
    sweeps until that kind's values stop changing — and the kinds may
    converge after different sweep counts.  The lanes never interact,
    so lane ``k`` after fused sweep ``t`` equals the legacy kind-``k``
    state after its sweep ``t``; a kind is charged the component's edge
    total for every sweep up to and including its first no-change
    sweep (the legacy loop's exact accounting), then drops out of the
    remaining sweeps entirely — its lane is already at the component
    fixpoint.
    """
    heads = arena.call_csr.heads
    succ = arena.call_csr.succ
    num_nodes = arena.call_csr.num_nodes
    strip = arena.strip_masks()

    rows = [list(row) for row in imod_plus_rows]
    for counter in counters:
        counter.bit_vector_steps += num_nodes

    component_of, components = arena.call_condensation()
    for members in components:
        degree_total = sum(heads[m + 1] - heads[m] for m in members)
        active = list(range(num_kinds))
        while active:
            still = []
            for k in active:
                row = rows[k]
                changed = False
                for node in members:
                    value = row[node]
                    for target in succ[heads[node]:heads[node + 1]]:
                        value |= row[target] & strip[target]
                    if value != row[node]:
                        row[node] = value
                        changed = True
                counters[k].bit_vector_steps += degree_total
                if changed:
                    still.append(k)
            active = still
    return rows


def findgmod_per_level_fused(
    arena,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
) -> List[List[int]]:
    """The per-level repetition for every kind at once.

    Each problem's filtered graph and its Tarjan pass are built once
    and shared by all kinds (the per-kind solver rebuilds them per kind);
    every tally here is structural — one per member seed, one per
    cross-component edge, one per node fold — so each kind's counter
    receives the identical total.
    """
    universe = arena.universe
    resolved = arena.resolved
    heads = arena.call_csr.heads
    succ = arena.call_csr.succ
    num_nodes = arena.call_csr.num_nodes
    levels = [proc.level for proc in resolved.procs]
    rows: List[List[int]] = [[0] * num_nodes for _ in range(num_kinds)]
    steps = 0

    for problem in range(1, len(universe.level_mask) + 1):
        level_mask = universe.level_mask[problem - 1]
        filtered: List[List[int]] = [[] for _ in range(num_nodes)]
        for node in range(num_nodes):
            for target in succ[heads[node]:heads[node + 1]]:
                if levels[target] >= problem:
                    filtered[node].append(target)
        component_of, components = tarjan_scc(num_nodes, filtered)
        arena.note_condensation("call:level%d" % problem)
        comp_value = [[0] * len(components) for _ in range(num_kinds)]
        for comp_index, members in enumerate(components):
            values = [0] * num_kinds
            for member in members:
                for k in range(num_kinds):
                    values[k] |= imod_plus_rows[k][member] & level_mask
                steps += 1
            for member in members:
                for target in filtered[member]:
                    succ_comp = component_of[target]
                    if succ_comp != comp_index:
                        for k in range(num_kinds):
                            values[k] |= comp_value[k][succ_comp]
                        steps += 1
            for k in range(num_kinds):
                comp_value[k][comp_index] = values[k]
        for node in range(num_nodes):
            comp_index = component_of[node]
            for k in range(num_kinds):
                rows[k][node] |= comp_value[k][comp_index]
            steps += 1

    for counter in counters:
        counter.bit_vector_steps += steps
    return rows


def findgmod_multilevel_fused(
    arena,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
    check_invariants: bool = False,
) -> List[List[int]]:
    """The single-DFS multi-level algorithm for every kind in one walk.

    The DFS skeleton — lowlink vectors, per-level stacks, the
    correction sweep — runs once; each kind's GMOD row rides along as a
    separate mask lane.  Every tally is structural (first visit,
    non-tree edge, member pop, tree fall-through), identical across
    kinds, so each counter receives the same total the legacy walk
    accumulates.  The walk registers one condensation-equivalent pass
    on the call graph.
    """
    resolved = arena.resolved
    universe = arena.universe
    heads = arena.call_csr.heads
    succ = arena.call_csr.succ
    num_nodes = arena.call_csr.num_nodes
    levels = [proc.level for proc in resolved.procs]
    d_p = max(levels) if levels else 0
    arena.note_condensation("call")
    if d_p == 0:
        return [list(row) for row in imod_plus_rows]
    below = _below_masks(universe, d_p)
    level_mask = list(universe.level_mask) + [0] * (
        d_p + 1 - len(universe.level_mask)
    )

    rows: List[List[int]] = [[0] * num_nodes for _ in range(num_kinds)]
    dfn = [0] * num_nodes
    lowlink: List[Optional[List[int]]] = [None] * num_nodes
    stack_level = [0] * num_nodes
    stacks: List[List[int]] = [[] for _ in range(d_p + 1)]
    next_dfn = 1
    steps = 0

    roots = [resolved.main.pid] + list(range(num_nodes))
    for root in roots:
        if dfn[root] != 0:
            continue
        dfn[root] = next_dfn
        next_dfn += 1
        for k in range(num_kinds):
            rows[k][root] = imod_plus_rows[k][root]
        steps += 1
        lowlink[root] = [dfn[root]] * (d_p + 1)
        stack_level[root] = d_p
        for level in range(1, d_p + 1):
            stacks[level].append(root)
        frames: List[List[object]] = [[root, iter(succ[heads[root]:heads[root + 1]])]]

        while frames:
            node, succ_iter = frames[-1]
            descended = False
            for target in succ_iter:
                if dfn[target] == 0:
                    dfn[target] = next_dfn
                    next_dfn += 1
                    for k in range(num_kinds):
                        rows[k][target] = imod_plus_rows[k][target]
                    steps += 1
                    lowlink[target] = [dfn[target]] * (d_p + 1)
                    stack_level[target] = d_p
                    for level in range(1, d_p + 1):
                        stacks[level].append(target)
                    frames.append(
                        [target, iter(succ[heads[target]:heads[target + 1]])]
                    )
                    descended = True
                    break
                mask = below[levels[target]]
                for row in rows:
                    row[node] |= row[target] & mask
                steps += 1
                if dfn[target] < dfn[node]:
                    slot = min(levels[target], stack_level[target])
                    if slot >= 1 and dfn[target] < lowlink[node][slot]:
                        lowlink[node][slot] = dfn[target]
            if descended:
                continue

            frames.pop()
            node_low = lowlink[node]
            for level in range(d_p - 1, 0, -1):
                if node_low[level + 1] < node_low[level]:
                    node_low[level] = node_low[level + 1]
            if check_invariants:
                for level in range(1, d_p):
                    assert node_low[level] <= node_low[level + 1], (
                        "lowlink vector not monotone at node %d" % node
                    )
                closing = [
                    level
                    for level in range(1, d_p + 1)
                    if node_low[level] == dfn[node]
                ]
                if closing:
                    assert closing == list(
                        range(closing[0], d_p + 1)
                    ), "closing levels are not a suffix at node %d" % node
            for level in range(d_p, 0, -1):
                if node_low[level] != dfn[node]:
                    break
                lm = level_mask[level - 1]
                slices = [row[node] & lm for row in rows]
                while True:
                    member = stacks[level].pop()
                    stack_level[member] = level - 1
                    for k in range(num_kinds):
                        rows[k][member] |= slices[k]
                    steps += 1
                    if member == node:
                        break
            if frames:
                parent = frames[-1][0]
                parent_low = lowlink[parent]
                for level in range(1, levels[node] + 1):
                    if node_low[level] < parent_low[level]:
                        parent_low[level] = node_low[level]
                mask = below[levels[node]]
                for row in rows:
                    row[parent] |= row[node] & mask
                steps += 1

    for counter in counters:
        counter.bit_vector_steps += steps
    return rows
