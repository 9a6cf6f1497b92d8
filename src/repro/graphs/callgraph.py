"""The program call multi-graph ``C = (N_C, E_C)``.

One node per procedure (including the main program at node 0), one
edge per call site — so two distinct calls from ``p`` to ``q`` are two
parallel edges, exactly as in the paper.  All of the complexity bounds
(``O(N_C + E_C)`` etc.) are stated against this graph's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence

from repro.graphs.dfs import reachable_from
from repro.lang.symbols import CallSite, ProcSymbol, ResolvedProgram


@dataclass
class CallMultiGraph:
    """Call multi-graph over procedure ids (``pid``)."""

    resolved: ResolvedProgram
    #: successors[pid] -> list of callee pids, one entry per call site.
    successors: List[List[int]] = field(default_factory=list)
    #: edge_sites[pid] -> the CallSite records aligned with successors[pid].
    edge_sites: List[List[CallSite]] = field(default_factory=list)
    #: predecessors[pid] -> list of caller pids, one entry per call site.
    predecessors: List[List[int]] = field(default_factory=list)

    def for_program(
        self, resolved: ResolvedProgram, moved_callers: Iterable[int]
    ) -> "CallMultiGraph":
        """This graph for another version of its program with the same
        edges in the same order.  The site records of the edges out of
        ``moved_callers`` are read from ``resolved``; every other list
        is shared."""
        call_sites = resolved.call_sites
        edge_sites = list(self.edge_sites)
        for pid in moved_callers:
            edge_sites[pid] = [call_sites[site.site_id] for site in edge_sites[pid]]
        return replace(self, resolved=resolved, edge_sites=edge_sites)

    @property
    def num_nodes(self) -> int:
        """``N_C`` — the number of procedures."""
        return len(self.successors)

    @property
    def num_edges(self) -> int:
        """``E_C`` — the number of call sites."""
        return sum(len(out) for out in self.successors)

    def procs(self) -> List[ProcSymbol]:
        return self.resolved.procs

    def proc(self, pid: int) -> ProcSymbol:
        return self.resolved.procs[pid]

    def reachable_procs(self, roots: Optional[Sequence[int]] = None) -> List[bool]:
        """Which procedures are reachable by some call chain from the
        roots (default: the main program).  Section 3.3's linear-time
        unreachable-procedure elimination."""
        if roots is None:
            roots = [self.resolved.main.pid]
        return reachable_from(self.num_nodes, self.successors, roots)

    def unreachable_procs(self) -> List[ProcSymbol]:
        reachable = self.reachable_procs()
        return [proc for proc in self.resolved.procs if not reachable[proc.pid]]

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT format."""
        lines = ["digraph callgraph {"]
        for proc in self.resolved.procs:
            lines.append('  n%d [label="%s"];' % (proc.pid, proc.qualified_name))
        for pid, (targets, sites) in enumerate(zip(self.successors, self.edge_sites)):
            for target, site in zip(targets, sites):
                lines.append('  n%d -> n%d [label="s%d"];' % (pid, target, site.site_id))
        lines.append("}")
        return "\n".join(lines)


def build_call_graph(resolved: ResolvedProgram) -> CallMultiGraph:
    """Construct the call multi-graph in ``O(N_C + E_C)``."""
    num_procs = resolved.num_procs
    graph = CallMultiGraph(
        resolved=resolved,
        successors=[[] for _ in range(num_procs)],
        edge_sites=[[] for _ in range(num_procs)],
        predecessors=[[] for _ in range(num_procs)],
    )
    for site in resolved.call_sites:
        graph.successors[site.caller.pid].append(site.callee.pid)
        graph.edge_sites[site.caller.pid].append(site)
        graph.predecessors[site.callee.pid].append(site.caller.pid)
    return graph
