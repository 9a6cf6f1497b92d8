"""Procedure purity classification from the side-effect summaries.

The cheapest and most classical client of MOD/USE information: a call
to a procedure that provably modifies nothing the caller can observe
can be reordered, hoisted out of loops, executed speculatively, or
memoised.  Three grades, each defined purely in terms of the paper's
sets:

* ``PURE``      — ``GMOD(p)`` contains nothing that survives ``p``'s
  return (no globals, no up-level variables, no reference formals):
  an invocation is observationally a no-op except through ``print``.
* ``OBSERVER``  — modifies nothing visible but may *read* externally
  visible state (``GUSE`` non-trivial): safe to delete if its result is
  unused, safe to reorder against writes it doesn't read.
* ``MUTATOR``   — everything else.

``print``/``read`` statements are IO and disqualify PURE/OBSERVER
reordering in general; they are detected syntactically and reported as
an ``io`` flag alongside the grade.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.summary import SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.nodes import Print, Read, walk_statements
from repro.lang.symbols import ProcSymbol, ResolvedProgram


class Purity(enum.Enum):
    PURE = "pure"
    OBSERVER = "observer"
    MUTATOR = "mutator"


@dataclass(frozen=True)
class ProcPurity:
    proc: ProcSymbol
    grade: Purity
    performs_io: bool

    def render(self) -> str:
        io_note = " +io" if self.performs_io else ""
        return "%-20s %s%s" % (self.proc.qualified_name, self.grade.value, io_note)


def _performs_io(resolved: ResolvedProgram, proc: ProcSymbol,
                 reaches: List[bool]) -> bool:
    """IO anywhere in a procedure reachable from ``proc`` (or nested)."""
    for other in resolved.procs:
        if not reaches[other.pid]:
            continue
        for stmt in walk_statements(resolved.body_of(other)):
            if isinstance(stmt, (Print, Read)):
                return True
    return False


def classify_purity(summary: SideEffectSummary) -> Dict[int, ProcPurity]:
    """Per-pid purity grades for every procedure except main."""
    resolved = summary.resolved
    universe = summary.universe
    mod_solution = summary.solutions[EffectKind.MOD]
    use_solution = summary.solutions.get(EffectKind.USE)

    from repro.graphs.dfs import reachable_from

    graph = summary.call_graph
    out: Dict[int, ProcPurity] = {}
    for proc in resolved.procs:
        if proc.is_main:
            continue
        escaping = mod_solution.gmod[proc.pid] & ~universe.local_mask[proc.pid]
        escaping |= mod_solution.rmod.proc_mask[proc.pid]
        reaches = reachable_from(graph.num_nodes, graph.successors, [proc.pid])
        io_flag = _performs_io(resolved, proc, reaches)
        if escaping == 0:
            grade = Purity.PURE
        else:
            grade = Purity.MUTATOR
        if grade is Purity.PURE and use_solution is not None:
            # Reading formals is just consuming the arguments — only
            # reads of state *beyond* the frame (globals, up-level
            # variables) make the procedure an observer.
            observes = use_solution.gmod[proc.pid] & ~universe.local_mask[proc.pid]
            if observes:
                grade = Purity.OBSERVER
        out[proc.pid] = ProcPurity(proc=proc, grade=grade, performs_io=io_flag)
    return out


def purity_report(summary: SideEffectSummary) -> str:
    classified = classify_purity(summary)
    lines = [entry.render() for _, entry in sorted(classified.items())]
    counts: Dict[Purity, int] = {}
    for entry in classified.values():
        counts[entry.grade] = counts.get(entry.grade, 0) + 1
    lines.append("")
    lines.append(
        ", ".join(
            "%d %s" % (counts.get(grade, 0), grade.value) for grade in Purity
        )
    )
    return "\n".join(lines)
