"""Interprocedural constant propagation over the binding structure.

The binding multi-graph was introduced as "a simplification of the
graph used in our algorithms for interprocedural constant propagation"
(Section 3.1, citing Callahan–Cooper–Kennedy–Torczon 1986).  This
module runs that client analysis on CK programs: for every formal
parameter, the lattice value of its **entry value** across all call
sites, computed with jump functions and an optimistic fixpoint.

Lattice: ``TOP`` (no call site seen / undetermined) > ``Const(c)`` >
``BOTTOM`` (not a constant).  Jump function of an actual expression at
a site in procedure ``p``:

* an integer literal (or an arithmetic expression of jump-able values)
  evaluates to a constant;
* a bare reference to a formal ``f'`` of ``p`` (or of a lexical
  ancestor) *passes through* that formal's entry value — **provided
  the kill test shows f' cannot have been modified since entry**;
* anything else is ``BOTTOM``.

The kill test is where the side-effect analysis earns its keep: with a
:class:`~repro.core.summary.SideEffectSummary`, ``f'`` survives iff
``f' ∉ GMOD(owner)`` — not modified locally *nor through any call* in
its owning procedure.  Without it (``kill_policy="worstcase"``), a
caller containing any call site at all must assume every formal was
clobbered, and pass-through dies — the ablation benchmark quantifies
how many constants that costs.

A formal's entry constant is *substitutable* into its body only if the
formal itself is never modified during an invocation
(``f ∉ GMOD(owner)``), also reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.summary import SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.nodes import BinOp, CallStmt, Expr, IntLit, UnOp, VarRef, walk_statements
from repro.lang.symbols import ProcSymbol, ResolvedProgram, VarSymbol


class _Kind(enum.Enum):
    TOP = "top"
    CONST = "const"
    BOTTOM = "bottom"


@dataclass(frozen=True)
class ConstLattice:
    """TOP > Const(c) > BOTTOM."""

    kind: _Kind
    value: int = 0

    @staticmethod
    def top() -> "ConstLattice":
        return _TOP

    @staticmethod
    def bottom() -> "ConstLattice":
        return _BOTTOM

    @staticmethod
    def const(value: int) -> "ConstLattice":
        return ConstLattice(_Kind.CONST, value)

    @property
    def is_top(self) -> bool:
        return self.kind is _Kind.TOP

    @property
    def is_bottom(self) -> bool:
        return self.kind is _Kind.BOTTOM

    @property
    def is_const(self) -> bool:
        return self.kind is _Kind.CONST

    def meet(self, other: "ConstLattice") -> "ConstLattice":
        if self.is_top:
            return other
        if other.is_top:
            return self
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.value == other.value:
            return self
        return _BOTTOM

    def __repr__(self) -> str:
        if self.is_top:
            return "⊤"
        if self.is_bottom:
            return "⊥"
        return str(self.value)


_TOP = ConstLattice(_Kind.TOP)
_BOTTOM = ConstLattice(_Kind.BOTTOM)

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b != 0 else None,
    "div": lambda a, b: a // b if b != 0 else None,
    "mod": lambda a, b: a % b if b != 0 else None,
}


@dataclass
class ConstResult:
    """Entry-value constants for every formal parameter."""

    resolved: ResolvedProgram
    #: formal uid -> lattice value (entry value across all call sites).
    entry: Dict[int, ConstLattice]
    #: formal uid -> entry constant that is also safe to substitute
    #: for every use in the body (formal never modified).
    substitutable: Dict[int, int] = field(default_factory=dict)
    kill_policy: str = "precise"

    def entry_value(self, formal: VarSymbol) -> ConstLattice:
        return self.entry[formal.uid]

    def constants_found(self) -> int:
        return sum(1 for value in self.entry.values() if value.is_const)

    def substitutable_found(self) -> int:
        return len(self.substitutable)

    def report(self) -> str:
        lines: List[str] = []
        for proc in self.resolved.procs:
            for formal in proc.formals:
                value = self.entry[formal.uid]
                if value.is_const:
                    suffix = ""
                    if formal.uid in self.substitutable:
                        suffix = "  (substitutable)"
                    lines.append(
                        "%s = %r%s" % (formal.qualified_name, value, suffix)
                    )
        return "\n".join(lines)


def _has_calls(body) -> bool:
    return any(isinstance(s, CallStmt) for s in walk_statements(body))


def solve_constants(
    resolved: ResolvedProgram,
    summary: Optional[SideEffectSummary] = None,
    kill_policy: str = "precise",
) -> ConstResult:
    """Optimistic fixpoint of the jump-function equations.

    ``kill_policy``: ``"precise"`` uses GMOD from ``summary`` (computed
    on demand when None); ``"worstcase"`` assumes any call clobbers
    every formal.
    """
    if kill_policy not in ("precise", "worstcase"):
        raise ValueError("kill_policy must be 'precise' or 'worstcase'")
    if kill_policy == "precise" and summary is None:
        from repro.core.pipeline import analyze_side_effects

        summary = analyze_side_effects(resolved, kinds=(EffectKind.MOD,))

    # survives[f.uid]: may f's entry value still be current at any
    # later point of its owner (flow-insensitively)?  The precise test
    # also checks f's alias partners — a formal aliased to a modified
    # variable shares its storage, so its entry value dies too.
    survives: Dict[int, bool] = {}
    has_calls = [_has_calls(resolved.body_of(proc)) for proc in resolved.procs]
    for proc in resolved.procs:
        for formal in proc.formals:
            if kill_policy == "precise":
                gmod = summary.solutions[EffectKind.MOD].gmod[proc.pid]
                killed = (gmod >> formal.uid) & 1 == 1
                partners = summary.aliases.partner_mask[proc.pid].get(formal.uid, 0)
                killed = killed or (gmod & partners) != 0
                survives[formal.uid] = not killed
            else:
                from repro.core.local import lmod_of

                locally_written = any(
                    (lmod_of(s) >> formal.uid) & 1
                    for s in walk_statements(resolved.body_of(proc))
                )
                survives[formal.uid] = not locally_written and not has_calls[proc.pid]

    entry: Dict[int, ConstLattice] = {}
    for proc in resolved.procs:
        for formal in proc.formals:
            entry[formal.uid] = ConstLattice.top()

    def jump(expr: Expr, caller: ProcSymbol) -> ConstLattice:
        if isinstance(expr, IntLit):
            return ConstLattice.const(expr.value)
        if isinstance(expr, VarRef) and not expr.indices:
            symbol: VarSymbol = expr.symbol
            if symbol.is_formal and symbol.proc in caller.lexical_chain():
                if survives[symbol.uid]:
                    return entry[symbol.uid]
                return ConstLattice.bottom()
            return ConstLattice.bottom()
        if isinstance(expr, UnOp) and expr.op == "-":
            inner = jump(expr.operand, caller)
            if inner.is_const:
                return ConstLattice.const(-inner.value)
            return inner if inner.is_top else ConstLattice.bottom()
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            left = jump(expr.left, caller)
            right = jump(expr.right, caller)
            if left.is_top or right.is_top:
                return ConstLattice.top()
            if left.is_const and right.is_const:
                folded = _ARITH[expr.op](left.value, right.value)
                if folded is None:
                    return ConstLattice.bottom()
                return ConstLattice.const(folded)
            return ConstLattice.bottom()
        return ConstLattice.bottom()

    # Fixpoint: lattice height 2 per formal, so a few sweeps suffice;
    # a worklist keyed by callee keeps it near-linear.
    changed = True
    while changed:
        changed = False
        for site in resolved.call_sites:
            caller = site.caller
            for position, arg in enumerate(site.stmt.args):
                formal = site.callee.formals[position]
                merged = entry[formal.uid].meet(jump(arg, caller))
                if merged != entry[formal.uid]:
                    entry[formal.uid] = merged
                    changed = True

    substitutable: Dict[int, int] = {}
    for proc in resolved.procs:
        for formal in proc.formals:
            value = entry[formal.uid]
            if value.is_const and survives[formal.uid]:
                substitutable[formal.uid] = value.value

    return ConstResult(
        resolved=resolved,
        entry=entry,
        substitutable=substitutable,
        kill_policy=kill_policy,
    )
