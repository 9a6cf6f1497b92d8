"""Local regular-section extraction: the ``lrsd`` sets of Section 6.

``lrsd(x)`` is "the regular section descriptor for the side effect due
to local effects within the procedure where x is declared as a formal
parameter (computable by local examination of a procedure)".  We
extract it — for every variable, not just formals — by scanning each
procedure's statements once:

* an assignment ``a[e1]…[ek] := …`` contributes a MOD access to ``a``
  with each ``e_i`` classified as a known constant, a symbolic formal
  of the scanning procedure, or ``*``;
* any load of ``a[e1]…[ek]`` contributes the analogous USE access;
* scalar (unsubscripted) writes/reads contribute rank-0 accesses;
* multiple accesses to one variable meet together.

Like ``IMOD`` in Section 3.3, the maps are nesting-extended: accesses
made in a procedure nested in ``p`` to variables visible in ``p``
count as local accesses of ``p`` (with any nested-formal symbolic
subscripts widened to ``*``, since they mean nothing in ``p``'s
context).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.nodes import (
    Assign,
    BinOp,
    CallStmt,
    Expr,
    For,
    If,
    IntLit,
    Print,
    Read,
    Stmt,
    UnOp,
    VarRef,
    While,
    walk_statements,
)
from repro.lang.symbols import ProcSymbol, ResolvedProgram, VarSymbol
from repro.sections.lattice import Section, SubKind, Subscript

#: Per-procedure map: variable uid -> accessed Section (or any other
#: lattice instance's section; see repro.sections.framework).
SectionMap = Dict[int, Section]


def _default_lattice():
    from repro.sections.framework import FIGURE3

    return FIGURE3


def classify_subscript(expr: Expr, proc: ProcSymbol) -> Subscript:
    """Classify one subscript expression in ``proc``'s context."""
    if isinstance(expr, IntLit):
        return Subscript.const(expr.value)
    if isinstance(expr, VarRef) and not expr.indices:
        symbol: VarSymbol = expr.symbol
        if symbol.is_formal and symbol.proc is proc:
            return Subscript.formal(symbol.position)
    return Subscript.unknown()


def _access_section(ref: VarRef, proc: ProcSymbol, lattice=None) -> Section:
    """The section touched by one reference (write or read)."""
    if lattice is None:
        lattice = _default_lattice()
    if not ref.indices:
        return lattice.scalar()
    return lattice.element(
        [classify_subscript(index, proc) for index in ref.indices]
    )


def _merge(table: SectionMap, uid: int, section: Section) -> None:
    current = table.get(uid)
    if current is None:
        table[uid] = section
    else:
        table[uid] = current.meet(section)


def _record_loads(expr: Expr, proc: ProcSymbol, table: SectionMap,
                  lattice=None) -> None:
    if isinstance(expr, IntLit):
        return
    if isinstance(expr, VarRef):
        _merge(table, expr.symbol.uid, _access_section(expr, proc, lattice))
        for index in expr.indices:
            _record_loads(index, proc, table, lattice)
        return
    if isinstance(expr, BinOp):
        _record_loads(expr.left, proc, table, lattice)
        _record_loads(expr.right, proc, table, lattice)
        return
    if isinstance(expr, UnOp):
        _record_loads(expr.operand, proc, table, lattice)


def local_sections_of(
    resolved: ResolvedProgram, proc: ProcSymbol, kind: EffectKind, lattice=None
) -> SectionMap:
    """``lrsd``-style map for one procedure body of ``resolved`` (no
    nesting pull-up)."""
    if lattice is None:
        lattice = _default_lattice()
    table: SectionMap = {}
    for stmt in walk_statements(resolved.body_of(proc)):
        if kind is EffectKind.MOD:
            if isinstance(stmt, (Assign, Read)):
                _merge(table, stmt.target.symbol.uid,
                       _access_section(stmt.target, proc, lattice))
            elif isinstance(stmt, For):
                _merge(table, stmt.var.symbol.uid, lattice.scalar())
        else:
            if isinstance(stmt, Assign):
                _record_loads(stmt.value, proc, table, lattice)
                for index in stmt.target.indices:
                    _record_loads(index, proc, table, lattice)
            elif isinstance(stmt, CallStmt):
                for arg in stmt.args:
                    if isinstance(arg, VarRef):
                        for index in arg.indices:
                            _record_loads(index, proc, table, lattice)
                    else:
                        _record_loads(arg, proc, table, lattice)
            elif isinstance(stmt, (If, While)):
                _record_loads(stmt.cond, proc, table, lattice)
            elif isinstance(stmt, For):
                _record_loads(stmt.lo, proc, table, lattice)
                _record_loads(stmt.hi, proc, table, lattice)
                _merge(table, stmt.var.symbol.uid, lattice.scalar())
            elif isinstance(stmt, Read):
                for index in stmt.target.indices:
                    _record_loads(index, proc, table, lattice)
            elif isinstance(stmt, Print):
                for value in stmt.values:
                    _record_loads(value, proc, table, lattice)
    return table


def widen_foreign_formals(section: Section) -> Section:
    """Widen ``FORMAL`` subscripts that are meaningless outside their
    procedure (used when pulling nested accesses up to the enclosing
    procedure)."""
    if section.bottom or section.subs is None:
        return section
    subs = tuple(
        Subscript.unknown() if sub.kind is SubKind.FORMAL else sub
        for sub in section.subs
    )
    return Section(subs=subs)


def extended_local_sections(
    resolved: ResolvedProgram,
    universe: VariableUniverse,
    kind: EffectKind,
    lattice=None,
) -> List[SectionMap]:
    """Per-pid local section maps with the Section 3.3 nesting pull-up
    (innermost-first, foreign formal subscripts widened)."""
    if lattice is None:
        lattice = _default_lattice()
    tables: List[SectionMap] = [
        local_sections_of(resolved, proc, kind, lattice) for proc in resolved.procs
    ]
    for proc in sorted(resolved.procs, key=lambda p: -p.level):
        for nested in proc.nested:
            nested_local = universe.local_mask[nested.pid]
            for uid, section in tables[nested.pid].items():
                if (nested_local >> uid) & 1:
                    continue  # The nested procedure's own variable.
                _merge(tables[proc.pid], uid, lattice.widen_symbolic(section))
    return tables
