"""Local side-effect sets: ``LMOD``/``LUSE`` and ``IMOD``/``IUSE``.

Definitions from Section 2 of the paper:

* ``LMOD(s)`` — variables possibly modified by executing statement
  ``s``, *exclusive of any procedure calls in s*;
* ``IMOD(p) = ∪_{s∈p} LMOD(s)`` — the initially-modified set.

and the Section 3.3 extension for lexical nesting::

    IMOD(p) = ∪_{s∈p} LMOD(s)  ∪  ∪_{q∈Nest(p)} (IMOD(q) − LOCAL(q))

computed innermost-first (a modification inside a nested procedure to a
variable it does not own is, flow-insensitively, a modification by the
enclosing procedure, because a nested procedure is only reachable
through its enclosing procedure).

Modelling decisions, spelled out:

* A subscripted assignment ``a[i] := e`` modifies the whole array
  object ``a`` (the classical unitary-object approximation the paper
  uses; Section 6's regular sections refine it).
* Binding an actual by reference at a call is neither a local use nor a
  local modification — those effects arrive through ``RMOD``/``GMOD``.
  Evaluating subscripts of a subscripted actual and evaluating by-value
  actuals *are* local uses.
* ``for v := lo to hi`` locally modifies and uses ``v``.

The ``USE`` problem is the mirror image, per the paper's "analogous
solution" remark, so both are computed in one pass.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    Return,
    Stmt,
    UnOp,
    VarRef,
    While,
    walk_statements,
)
from repro.lang.symbols import ProcSymbol, ResolvedProgram


def _expr_use_mask(expr: Expr) -> int:
    """Variables loaded when evaluating ``expr`` (bases and subscripts)."""
    if isinstance(expr, IntLit):
        return 0
    if isinstance(expr, VarRef):
        mask = 1 << expr.symbol.uid
        for index in expr.indices:
            mask |= _expr_use_mask(index)
        return mask
    if isinstance(expr, BinOp):
        return _expr_use_mask(expr.left) | _expr_use_mask(expr.right)
    if isinstance(expr, UnOp):
        return _expr_use_mask(expr.operand)
    raise TypeError("unknown expression node %r" % (expr,))


def lmod_of(stmt: Stmt) -> int:
    """``LMOD(s)`` as a uid bit mask (call-free effects only)."""
    if isinstance(stmt, (Assign, Read)):
        return 1 << stmt.target.symbol.uid
    if isinstance(stmt, For):
        return 1 << stmt.var.symbol.uid
    return 0


def luse_of(stmt: Stmt) -> int:
    """``LUSE(s)`` as a uid bit mask (call-free effects only)."""
    if isinstance(stmt, Assign):
        mask = _expr_use_mask(stmt.value)
        for index in stmt.target.indices:
            mask |= _expr_use_mask(index)
        return mask
    if isinstance(stmt, CallStmt):
        mask = 0
        for arg in stmt.args:
            if isinstance(arg, VarRef):
                # By-reference binding: only subscript evaluation reads.
                for index in arg.indices:
                    mask |= _expr_use_mask(index)
            else:
                mask |= _expr_use_mask(arg)
        return mask
    if isinstance(stmt, (If, While)):
        return _expr_use_mask(stmt.cond)
    if isinstance(stmt, For):
        mask = _expr_use_mask(stmt.lo) | _expr_use_mask(stmt.hi)
        mask |= 1 << stmt.var.symbol.uid
        return mask
    if isinstance(stmt, Read):
        mask = 0
        for index in stmt.target.indices:
            mask |= _expr_use_mask(index)
        return mask
    if isinstance(stmt, Print):
        mask = 0
        for value in stmt.values:
            mask |= _expr_use_mask(value)
        return mask
    if isinstance(stmt, Return):
        return 0
    raise TypeError("unknown statement node %r" % (stmt,))


def local_effect_of(stmt: Stmt, kind: EffectKind) -> int:
    """``LMOD(s)`` or ``LUSE(s)`` depending on ``kind``."""
    if kind is EffectKind.MOD:
        return lmod_of(stmt)
    return luse_of(stmt)


class LocalAnalysis:
    """Per-procedure ``IMOD``/``IUSE`` (plain and nesting-extended).

    Attributes ``imod``/``iuse`` hold the Section 3.3 *extended* sets,
    indexed by pid; ``imod_plain``/``iuse_plain`` hold the unextended
    ``∪ LMOD(s)`` form (identical for two-level programs, kept separate
    so tests can check the extension does exactly what §3.3 says).
    """

    def __init__(self, resolved: ResolvedProgram, universe: VariableUniverse):
        self.resolved = resolved
        self.universe = universe
        num_procs = resolved.num_procs
        self.imod_plain: List[int] = [0] * num_procs
        self.iuse_plain: List[int] = [0] * num_procs
        for proc in resolved.procs:
            mod_mask = 0
            use_mask = 0
            for stmt in walk_statements(resolved.body_of(proc)):
                mod_mask |= lmod_of(stmt)
                use_mask |= luse_of(stmt)
            self.imod_plain[proc.pid] = mod_mask
            self.iuse_plain[proc.pid] = use_mask

        self._extend()

    def _extend(self) -> None:
        # Nesting extension, innermost-first: process procedures in
        # descending level order so every Nest(p) member is final
        # before p is touched.
        resolved = self.resolved
        self.imod: List[int] = list(self.imod_plain)
        self.iuse: List[int] = list(self.iuse_plain)
        for proc in sorted(resolved.procs, key=lambda p: -p.level):
            for nested in proc.nested:
                visible_above = ~self.universe.local_mask[nested.pid]
                self.imod[proc.pid] |= self.imod[nested.pid] & visible_above
                self.iuse[proc.pid] |= self.iuse[nested.pid] & visible_above

    @classmethod
    def patched(
        cls,
        resolved: ResolvedProgram,
        universe: VariableUniverse,
        imod_plain: List[int],
        iuse_plain: List[int],
        recompute_pids,
    ) -> "LocalAnalysis":
        """Build from donor plain rows, re-walking only ``recompute_pids``.

        The donor rows come from a previous version of the program whose
        pid and uid spaces are identical (the caller checks); a clean
        procedure's ``∪ LMOD(s)`` depends only on its own body, so only
        edited bodies are swept.  The §3.3 nesting extension is re-run in
        full — it is linear in the procedure count, not the statement
        count.
        """
        self = object.__new__(cls)
        self.resolved = resolved
        self.universe = universe
        self.imod_plain = list(imod_plain)
        self.iuse_plain = list(iuse_plain)
        for pid in recompute_pids:
            mod_mask = 0
            use_mask = 0
            for stmt in walk_statements(resolved.body_of(resolved.procs[pid])):
                mod_mask |= lmod_of(stmt)
                use_mask |= luse_of(stmt)
            self.imod_plain[pid] = mod_mask
            self.iuse_plain[pid] = use_mask
        self._extend()
        return self

    def initial(self, kind: EffectKind) -> List[int]:
        """The extended initial sets for the requested problem."""
        if kind is EffectKind.MOD:
            return self.imod
        return self.iuse

    def initial_plain(self, kind: EffectKind) -> List[int]:
        if kind is EffectKind.MOD:
            return self.imod_plain
        return self.iuse_plain
