"""Redundant-load elimination across calls — the Section 2 client.

The paper's introduction: without interprocedural information a
compiler "must assume that the called procedure both uses and modifies
the value of every variable it can see", so every call boundary flushes
every register.  This module implements the classical counting client:
walk each procedure in statement order keeping the set of scalar
variables whose current value is known to be in a register; a load of a
known variable is *redundant* (eliminable); a call kills whatever its
policy says it may modify.

Three policies, so the value of the analysis is measurable:

* ``worst-case`` — a call kills every variable visible in the caller;
* ``mod``        — a call kills exactly its ``MOD`` set (the paper);
* ``oracle``     — a call kills only what a given execution trace
  observed it modify (a dynamic lower bound, not a sound policy).

The counting walk is deliberately simple — straight-line per procedure,
flow-insensitive at branches (an ``if``/``while``/``for`` body is
walked in order; join precision is not modelled) — because the point is
the *relative* effect of the call-kill policy, not a production
register allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.summary import SideEffectSummary
from repro.lang.interp import TraceResult
from repro.lang.nodes import (
    Assign,
    CallStmt,
    For,
    If,
    Read,
    VarRef,
    While,
    walk_statements,
)
from repro.lang.symbols import ResolvedProgram, VarSymbol


def _loads_in_expr(expr) -> List[VarSymbol]:
    """Scalar variable loads in an expression (bases and subscripts)."""
    out: List[VarSymbol] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, VarRef):
            if not node.indices:
                out.append(node.symbol)
            stack.extend(node.indices)
        elif hasattr(node, "left"):
            stack.extend([node.left, node.right])
        elif hasattr(node, "operand"):
            stack.append(node.operand)
    return out


def _statement_loads(stmt) -> List[VarSymbol]:
    if isinstance(stmt, Assign):
        loads = _loads_in_expr(stmt.value)
        for index in stmt.target.indices:
            loads += _loads_in_expr(index)
        return loads
    if isinstance(stmt, (If, While)):
        return _loads_in_expr(stmt.cond)
    if isinstance(stmt, For):
        return _loads_in_expr(stmt.lo) + _loads_in_expr(stmt.hi)
    if isinstance(stmt, CallStmt):
        loads: List[VarSymbol] = []
        for arg in stmt.args:
            if isinstance(arg, VarRef):
                for index in arg.indices:
                    loads += _loads_in_expr(index)
            else:
                loads += _loads_in_expr(arg)
        return loads
    return []


KillPolicy = Callable[[CallStmt], Set[VarSymbol]]


@dataclass(frozen=True)
class PromotionCount:
    """Result of one counting walk."""

    total_loads: int
    eliminated: int

    @property
    def fraction(self) -> float:
        if self.total_loads == 0:
            return 0.0
        return self.eliminated / self.total_loads


def count_redundant_loads(resolved: ResolvedProgram,
                          kill_policy: KillPolicy) -> PromotionCount:
    """Count scalar loads provably redundant under ``kill_policy``."""
    total = 0
    eliminated = 0
    for proc in resolved.procs:
        known: Set[VarSymbol] = set()
        for stmt in walk_statements(resolved.body_of(proc)):
            for symbol in _statement_loads(stmt):
                total += 1
                if symbol in known:
                    eliminated += 1
                else:
                    known.add(symbol)
            if isinstance(stmt, (Assign, Read)):
                known.add(stmt.target.symbol)
            elif isinstance(stmt, For):
                known.discard(stmt.var.symbol)
            elif isinstance(stmt, CallStmt):
                known -= kill_policy(stmt)
    return PromotionCount(total_loads=total, eliminated=eliminated)


def worst_case_policy(resolved: ResolvedProgram) -> KillPolicy:
    """Every call kills every variable visible in its caller."""

    def kill(stmt: CallStmt) -> Set[VarSymbol]:
        caller = resolved.call_sites[stmt.site_id].caller
        return set(resolved.visible_variables(caller).values())

    return kill


def mod_policy(summary: SideEffectSummary) -> KillPolicy:
    """A call kills exactly its MOD set — the paper's improvement."""

    def kill(stmt: CallStmt) -> Set[VarSymbol]:
        site = summary.resolved.call_sites[stmt.site_id]
        return summary.mod(site)

    return kill


def oracle_policy(trace: TraceResult) -> KillPolicy:
    """A call kills only what this execution observed it modify.
    A dynamic bound for comparison; unsound as a compiler policy."""

    def kill(stmt: CallStmt) -> Set[VarSymbol]:
        return set(trace.observed_mod.get(stmt.site_id, set()))

    return kill


def promotion_report(resolved: ResolvedProgram, summary: SideEffectSummary,
                     trace: Optional[TraceResult] = None) -> Dict[str, PromotionCount]:
    """Counts under every applicable policy."""
    report = {
        "worst-case": count_redundant_loads(resolved, worst_case_policy(resolved)),
        "mod": count_redundant_loads(resolved, mod_policy(summary)),
    }
    if trace is not None:
        report["oracle"] = count_redundant_loads(resolved, oracle_policy(trace))
    return report
