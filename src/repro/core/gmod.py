"""``findgmod`` — Figure 2 of the paper, with Theorem 2 instrumentation.

Solves equation (4)::

    GMOD(p) = IMOD+(p)  ∪  ∪_{e=(p,q)} (GMOD(q) − LOCAL(q))

in a single depth-first pass over the call multi-graph, adapted from
Tarjan's strongly-connected-components algorithm.  The three additions
to Tarjan's algorithm (lines 8, 17, 22 in the paper's listing) are:

* **line 8** — initialise ``GMOD[p] := IMOD+[p]`` when ``p`` is first
  visited;
* **line 17** — on every edge *except* a back/cross edge into the
  still-open component, apply
  ``GMOD[p] ∪= GMOD[q] − LOCAL[q]``.  (This includes tree edges, after
  the recursive call returns — Lemma 2's proof depends on it.  In the
  paper's listing this is the fall-through from the tree-edge branch
  into the if/else on line 14.)
* **line 22** — when the root of a component is found, augment every
  member ``u`` with ``GMOD[root] − LOCAL[root]``.

The paper's listing prints the line-17/22 operand as
``GMOD[q] ∩ LOCAL[q]``; the prose ("everything that is *not* local to
q") and equation (8) show the intended operand is the complement, i.e.
set difference — which is what we implement.

Theorem 2: line 17 executes at most once per edge and line 22 at most
once per vertex, so the algorithm takes ``O(E_C + N_C)`` bit-vector
steps.  :class:`GmodResult.counter` records the exact tallies so the
benchmark suite can check the bound as an equality, not a trend.

The listing only searches from the main procedure (``search(1)``),
relying on Section 3.3's unreachable-procedure elimination.  We instead
restart the search from every still-unvisited procedure (in pid order)
after main's search finishes; each restart is an ordinary Tarjan root,
and every cross edge from a later root leads to an already-closed
component whose ``GMOD`` is final, so the result equals the least
solution of equation (4) on the *whole* graph.  Callers that want the
paper's exact behaviour can pass ``roots=[main.pid]`` and
``restart=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.bitvec import OpCounter
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.callgraph import CallMultiGraph


@dataclass
class GmodResult:
    """Solution of the global-variable problem plus instrumentation."""

    kind: EffectKind
    #: Per pid: GMOD (or GUSE) as a uid bit mask.
    gmod: List[int]
    #: Depth-first numbers assigned by the search (1-based).
    dfn: List[int]
    #: Component index per pid (Tarjan close order).
    component_of: List[int]
    counter: OpCounter = field(default_factory=OpCounter)
    #: Exact execution tallies for the Theorem 2 bound.
    line8_count: int = 0
    line17_count: int = 0
    line22_count: int = 0


def findgmod(
    graph: CallMultiGraph,
    imod_plus: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
    roots: Optional[Sequence[int]] = None,
    restart: bool = True,
) -> GmodResult:
    """Run Figure 2's algorithm over the call multi-graph."""
    if counter is None:
        counter = OpCounter()
    num_nodes = graph.num_nodes
    successors = graph.successors
    local_mask = universe.local_mask

    gmod = [0] * num_nodes
    dfn = [0] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    component_of = [-1] * num_nodes
    stack: List[int] = []
    next_dfn = 1
    num_components = 0
    line8 = line17 = line22 = 0

    if roots is None:
        roots = [graph.resolved.main.pid]
    search_roots = list(roots)
    if restart:
        search_roots += list(range(num_nodes))

    for root in search_roots:
        if dfn[root] != 0:
            continue
        # Visit ``root`` (lines 7-10).
        dfn[root] = lowlink[root] = next_dfn
        next_dfn += 1
        gmod[root] = imod_plus[root]
        line8 += 1
        counter.bit_vector_steps += 1
        stack.append(root)
        on_stack[root] = True
        frames: List[List[object]] = [[root, iter(successors[root])]]

        while frames:
            node, succ_iter = frames[-1]
            descended = False
            for succ in succ_iter:
                if dfn[succ] == 0:
                    # Tree edge (line 12): recurse.  The fall-through
                    # application of line 17 happens when the child
                    # frame finishes, below.
                    dfn[succ] = lowlink[succ] = next_dfn
                    next_dfn += 1
                    gmod[succ] = imod_plus[succ]
                    line8 += 1
                    counter.bit_vector_steps += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    frames.append([succ, iter(successors[succ])])
                    descended = True
                    break
                if dfn[succ] < dfn[node] and on_stack[succ]:
                    # Back or cross edge into the open component
                    # (line 14): lowlink only.
                    if dfn[succ] < lowlink[node]:
                        lowlink[node] = dfn[succ]
                else:
                    # Line 17: apply equation (4).
                    gmod[node] |= gmod[succ] & ~local_mask[succ]
                    line17 += 1
                    counter.bit_vector_steps += 1
            if descended:
                continue

            frames.pop()
            # Component-root test (line 19).
            if lowlink[node] == dfn[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component_of[member] = num_components
                    # Line 22: adjust each member from the root's set.
                    gmod[member] |= gmod[node] & ~local_mask[node]
                    line22 += 1
                    counter.bit_vector_steps += 1
                    if member == node:
                        break
                num_components += 1
            if frames:
                parent = frames[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
                # Fall-through after the tree-edge recursion: the
                # line-14 condition ``dfn[q] < dfn[p] and q on stack``
                # is always false for a tree child, so line 17 applies.
                gmod[parent] |= gmod[node] & ~local_mask[node]
                line17 += 1
                counter.bit_vector_steps += 1

    return GmodResult(
        kind=kind,
        gmod=gmod,
        dfn=dfn,
        component_of=component_of,
        counter=counter,
        line8_count=line8,
        line17_count=line17,
        line22_count=line22,
    )


def findgmod_fused(
    arena,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
) -> List[List[int]]:
    """Figure 2 over the arena's call CSR, all kinds in one walk; returns
    one per-pid GMOD mask row per kind.

    Each node carries one mask per kind, advanced side by side: the
    DFS bookkeeping — frames, lowlinks, the component stack, the edge
    classification — runs once instead of once per kind, while each
    lane's set operations stay exactly the per-kind ones.  The
    ``−LOCAL(q)`` operand is the arena's precomputed *positive* strip
    mask (the per-edge ``~`` of the per-kind solver paid once per
    procedure instead).

    Counter identity: Theorem 2's tallies are structural — line 8 fires
    once per first visit, line 17 once per qualifying edge, line 22
    once per vertex — so they are identical for every kind; each kind's
    counter receives the same ``line8 + line17 + line22`` total the
    legacy walk accumulates.

    The walk is Tarjan's algorithm with the search roots in pid order
    (main is pid 0), so the components it closes are exactly
    :func:`~repro.graphs.scc.tarjan_scc_csr`'s, ids and member order
    included.  It hands them to the arena as the call graph's one
    condensation, which the sections solver and the effect lanes then
    read instead of condensing again.
    """
    csr = arena.call_csr
    heads = csr.heads
    succ = csr.succ
    num_nodes = csr.num_nodes
    strip = arena.strip_masks()

    rows: List[List[int]] = [[0] * num_nodes for _ in range(num_kinds)]
    dfn = [0] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    component_of = [-1] * num_nodes
    components: List[List[int]] = []
    stack: List[int] = []
    next_dfn = 1
    steps = 0

    for root in [arena.resolved.main.pid] + list(range(num_nodes)):
        if dfn[root] != 0:
            continue
        dfn[root] = lowlink[root] = next_dfn
        next_dfn += 1
        for k in range(num_kinds):
            rows[k][root] = imod_plus_rows[k][root]
        steps += 1
        stack.append(root)
        on_stack[root] = True
        frames: List[List[object]] = [[root, iter(succ[heads[root]:heads[root + 1]])]]

        while frames:
            node, succ_iter = frames[-1]
            descended = False
            for target in succ_iter:
                if dfn[target] == 0:
                    dfn[target] = lowlink[target] = next_dfn
                    next_dfn += 1
                    for k in range(num_kinds):
                        rows[k][target] = imod_plus_rows[k][target]
                    steps += 1
                    stack.append(target)
                    on_stack[target] = True
                    frames.append(
                        [target, iter(succ[heads[target]:heads[target + 1]])]
                    )
                    descended = True
                    break
                if dfn[target] < dfn[node] and on_stack[target]:
                    if dfn[target] < lowlink[node]:
                        lowlink[node] = dfn[target]
                else:
                    mask = strip[target]
                    for row in rows:
                        row[node] |= row[target] & mask
                    steps += 1
            if descended:
                continue

            frames.pop()
            if lowlink[node] == dfn[node]:
                mask = strip[node]
                outs = [row[node] & mask for row in rows]
                comp_index = len(components)
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component_of[member] = comp_index
                    component.append(member)
                    for k in range(num_kinds):
                        rows[k][member] |= outs[k]
                    steps += 1
                    if member == node:
                        break
                components.append(component)
            if frames:
                parent = frames[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
                mask = strip[node]
                for row in rows:
                    row[parent] |= row[node] & mask
                steps += 1

    arena.adopt_call_condensation(component_of, components)
    for counter in counters:
        counter.bit_vector_steps += steps
    return rows
