"""The binding multi-graph ``β = (N_β, E_β)`` — Section 3 of the paper.

Nodes represent the formal parameters of the program's procedures (the
paper writes the third formal of procedure ``p`` as ``fp3^p``).  There
is an edge ``(fp_i^p, fp_j^q)`` for every *binding event*: a call site
that passes a variable whose **defining occurrence is a formal of p**
as the actual in position ``j`` of a call to ``q``.

Two details from the paper are honoured:

* **Multi-edges** (Section 3.1): ``p`` may bind the same formal pair at
  several call sites, so β is a multi-graph; every event is kept.
* **Lexical nesting** (Section 3.3, point 2): the call site need not be
  textually in ``p`` — it may sit in a procedure nested within ``p``.
  Ordinary lexical resolution of the actual (done once, in semantic
  analysis) already identifies the defining procedure, so the edge's
  source is the formal's owner, not the caller.

A subscripted actual whose base is a formal array also produces an
edge: the formal is a unitary object in this framework, and modifying
the callee's formal modifies (part of) the caller's.

Node accounting follows Section 3.1: ``nodes_with_edges`` counts only
formals incident to at least one edge ("the construction need not
represent a node unless it is the endpoint of an edge"), which is what
the ``2·Eβ ≥ Nβ`` inequality is stated against.  The solvers still
produce answers for *every* formal — isolated formals simply keep
their initial values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lang.symbols import CallSite, ResolvedProgram, VarSymbol


@dataclass(frozen=True)
class BindingEdge:
    """One binding event ``(source formal) -> (target formal)``."""

    source: VarSymbol  # A formal of some procedure p.
    target: VarSymbol  # The formal it is bound to at the call site.
    site: CallSite
    position: int  # Argument position at the call site.
    subscripted: bool  # True when the actual selects an array element.


@dataclass
class BindingMultiGraph:
    """β with dense node indices over the program's formal parameters."""

    resolved: ResolvedProgram
    #: All formal parameters, indexed by dense β-node id.
    formals: List[VarSymbol] = field(default_factory=list)
    #: VarSymbol.uid -> dense β-node id.
    node_of_uid: Dict[int, int] = field(default_factory=dict)
    #: successors[node] -> target node ids (one entry per binding event).
    successors: List[List[int]] = field(default_factory=list)
    #: Full edge records (edge list), or ``None`` when built lazily —
    #: the arena derives ``successors`` straight from its flat binding
    #: tables and only materializes the ``BindingEdge`` objects if a
    #: consumer (DOT rendering, the sections solver) actually asks for
    #: them.
    _edges: Optional[List[BindingEdge]] = None

    @property
    def edges(self) -> List[BindingEdge]:
        """Full edge records aligned with nothing in particular."""
        if self._edges is None:
            self._edges = list(_binding_events(self.resolved))
        return self._edges

    @property
    def num_formals(self) -> int:
        """Total formals in the program (isolated nodes included)."""
        return len(self.formals)

    @property
    def num_edges(self) -> int:
        """``Eβ`` — the number of binding events."""
        return len(self.edges)

    @property
    def nodes_with_edges(self) -> int:
        """``Nβ`` in the paper's accounting: formals incident to >= 1
        edge (the construction need not represent the rest)."""
        incident: Set[int] = set()
        for edge in self.edges:
            incident.add(self.node_of(edge.source))
            incident.add(self.node_of(edge.target))
        return len(incident)

    def node_of(self, formal: VarSymbol) -> int:
        return self.node_of_uid[formal.uid]

    def formal_at(self, node: int) -> VarSymbol:
        return self.formals[node]

    def to_dot(self) -> str:
        """Render β in Graphviz DOT format (node labels are fp_i^p)."""
        lines = ["digraph binding {"]
        for node, formal in enumerate(self.formals):
            label = "fp%d^%s" % (formal.position + 1, formal.proc.qualified_name)
            lines.append('  n%d [label="%s"];' % (node, label))
        for edge in self.edges:
            lines.append(
                '  n%d -> n%d [label="s%d"];'
                % (self.node_of(edge.source), self.node_of(edge.target), edge.site.site_id)
            )
        lines.append("}")
        return "\n".join(lines)


def _binding_events(resolved: ResolvedProgram):
    """Every binding event, in call-site then binding order — the one
    definition of β's edge sequence, shared by the eager construction
    and the lazy ``edges`` materialization so both agree exactly."""
    for site in resolved.call_sites:
        formals = site.callee.formals
        for binding in site.bindings:
            if not binding.by_reference:
                continue
            base = binding.base
            if base is None or not base.is_formal:
                continue
            yield BindingEdge(
                source=base,
                target=formals[binding.position],
                site=site,
                position=binding.position,
                subscripted=binding.subscripted,
            )


def build_binding_graph(resolved: ResolvedProgram) -> BindingMultiGraph:
    """Construct β in time linear in its size (one sweep of the call
    sites, Section 3.1)."""
    graph = BindingMultiGraph(resolved=resolved, _edges=[])
    for proc in resolved.procs:
        for formal in proc.formals:
            graph.node_of_uid[formal.uid] = len(graph.formals)
            graph.formals.append(formal)
    graph.successors = [[] for _ in range(len(graph.formals))]

    for edge in _binding_events(resolved):
        graph._edges.append(edge)
        graph.successors[graph.node_of(edge.source)].append(
            graph.node_of(edge.target)
        )
    return graph
