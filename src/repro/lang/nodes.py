"""AST node definitions for the CK language.

All nodes are plain dataclasses, declared with ``slots=True`` so each
instance is a fixed-layout object rather than a dict-backed one —
roughly 40% smaller and measurably faster to construct and to access,
which matters when a 10k-procedure program allocates millions of
nodes.  Source positions (``line``/``column``)
are carried on declarations, statements, and variable references — the
places diagnostics point at.

Naming note: the module is called ``nodes`` (not ``ast``) to avoid any
shadowing confusion with the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class IntLit:
    """Integer literal."""

    value: int
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class VarRef:
    """Reference to a variable, optionally subscripted.

    ``indices`` is empty for a scalar reference or a whole-array
    reference; semantic analysis distinguishes those by the declared
    shape of the variable.  After semantic analysis, ``symbol`` points
    at the resolved :class:`repro.lang.symbols.VarSymbol`.
    """

    name: str
    indices: List["Expr"] = field(default_factory=list)
    line: int = 0
    column: int = 0
    symbol: object = None  # VarSymbol, filled in by semantic analysis.


@dataclass(slots=True)
class BinOp:
    """Binary operation.  ``op`` is one of ``+ - * / div mod = != < <= >
    >= and or``."""

    op: str
    left: "Expr"
    right: "Expr"
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class UnOp:
    """Unary operation.  ``op`` is ``-`` or ``not``."""

    op: str
    operand: "Expr"
    line: int = 0
    column: int = 0


Expr = Union[IntLit, VarRef, BinOp, UnOp]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Assign:
    """``target := value``.  ``target`` may be subscripted."""

    target: VarRef
    value: Expr
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class CallStmt:
    """``call callee(args...)``.

    After semantic analysis ``proc`` points at the resolved
    :class:`repro.lang.symbols.ProcSymbol` and ``site_id`` is a unique
    call-site number (dense, program-wide).
    """

    callee: str
    args: List[Expr] = field(default_factory=list)
    line: int = 0
    column: int = 0
    proc: object = None  # ProcSymbol, filled in by semantic analysis.
    site_id: int = -1  # Dense call-site id, filled in by semantic analysis.


@dataclass(slots=True)
class If:
    """``if cond then ... [else ...] end``."""

    cond: Expr
    then_body: List["Stmt"] = field(default_factory=list)
    else_body: List["Stmt"] = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class While:
    """``while cond do ... end``."""

    cond: Expr
    body: List["Stmt"] = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class For:
    """``for var := lo to hi do ... end`` — ``var`` must be scalar."""

    var: VarRef
    lo: Expr
    hi: Expr
    body: List["Stmt"] = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class Return:
    """``return`` — exits the current procedure."""

    line: int = 0
    column: int = 0


@dataclass(slots=True)
class Read:
    """``read target`` — assigns the next input value to ``target``."""

    target: VarRef = None
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class Print:
    """``print e1, e2, ...`` — appends evaluated values to the output."""

    values: List[Expr] = field(default_factory=list)
    line: int = 0
    column: int = 0


Stmt = Union[Assign, CallStmt, If, While, For, Return, Read, Print]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class VarDecl:
    """A variable declaration; ``dims`` is ``()`` for scalars."""

    name: str
    dims: Tuple[int, ...] = ()
    line: int = 0
    column: int = 0

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass(slots=True)
class ProcDecl:
    """A procedure declaration, possibly with nested procedures."""

    name: str
    params: List[str] = field(default_factory=list)
    locals: List[VarDecl] = field(default_factory=list)
    nested: List["ProcDecl"] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0
    column: int = 0
    #: Structural fingerprint hashed from this procedure's token span
    #: at parse time (nested bodies replaced by name/arity markers);
    #: ``b""`` for ASTs built programmatically rather than parsed.
    token_hash: bytes = b""
    #: Where the body's ``begin`` and ``end`` tokens stand, as (begin
    #: line, begin column, end line, end column); None for ASTs built
    #: programmatically.  Not part of the node's value.
    body_span: Optional[Tuple[int, int, int, int]] = field(
        default=None, compare=False, repr=False
    )


@dataclass(slots=True)
class Program:
    """A whole CK program.

    The main body is modelled during analysis as a zero-parameter
    procedure named after the program, at nesting level 0.
    """

    name: str
    globals: List[VarDecl] = field(default_factory=list)
    procs: List[ProcDecl] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0
    column: int = 0
    #: Token-span fingerprint of the main body (see ProcDecl.token_hash).
    token_hash: bytes = b""
    #: The main body's ``begin``/``end`` positions (see ProcDecl.body_span).
    body_span: Optional[Tuple[int, int, int, int]] = field(
        default=None, compare=False, repr=False
    )


def walk_statements(body: List[Stmt]):
    """Yield every statement in ``body``, recursing into compound
    statements (but *not* into nested procedure declarations — those are
    not statements)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, For):
            yield from walk_statements(stmt.body)


def walk_expressions(stmt: Stmt):
    """Yield every expression appearing directly in ``stmt`` (not in
    nested statements)."""

    def expand(expr: Expr):
        yield expr
        if isinstance(expr, BinOp):
            yield from expand(expr.left)
            yield from expand(expr.right)
        elif isinstance(expr, UnOp):
            yield from expand(expr.operand)
        elif isinstance(expr, VarRef):
            for index in expr.indices:
                yield from expand(index)

    if isinstance(stmt, Assign):
        yield from expand(stmt.target)
        yield from expand(stmt.value)
    elif isinstance(stmt, CallStmt):
        for arg in stmt.args:
            yield from expand(arg)
    elif isinstance(stmt, If):
        yield from expand(stmt.cond)
    elif isinstance(stmt, While):
        yield from expand(stmt.cond)
    elif isinstance(stmt, For):
        yield from expand(stmt.var)
        yield from expand(stmt.lo)
        yield from expand(stmt.hi)
    elif isinstance(stmt, Read):
        yield from expand(stmt.target)
    elif isinstance(stmt, Print):
        for value in stmt.values:
            yield from expand(value)


def walk_procs(program: Program):
    """Yield every :class:`ProcDecl` in ``program`` in declaration
    order, outer before inner."""

    def expand(procs: List[ProcDecl]):
        for proc in procs:
            yield proc
            yield from expand(proc.nested)

    yield from expand(program.procs)
