"""Symbols, scopes, and the resolved-program container for CK.

The analysis algorithms never look at raw names; they consume
:class:`VarSymbol` and :class:`ProcSymbol` objects produced by semantic
analysis (:mod:`repro.lang.semantic`) plus the program-wide list of
:class:`CallSite` records.

Conventions (matching the paper):

* The main program body is modelled as a zero-parameter procedure at
  **nesting level 0**; procedures declared at program level are level 1,
  their nested procedures level 2, and so on.  ``d_P`` is the maximum
  level of any procedure.
* Program-level ``global`` variables are owned by the main procedure and
  have **variable level 0**; a variable declared in a procedure at level
  *l* has level *l*.
* ``LOCAL(p)`` in the paper's sense is ``p.formals + p.locals`` (all
  names deallocated when ``p`` returns).  For main it additionally
  contains the globals, which is harmless since main is never invoked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.nodes import CallStmt, Expr, ProcDecl, Program, Stmt, VarRef


class VarKind(enum.Enum):
    """How a variable was declared."""

    GLOBAL = "global"
    LOCAL = "local"
    FORMAL = "formal"


@dataclass(eq=False)
class VarSymbol:
    """A declared variable (or formal parameter).

    ``uid`` is a dense, program-wide integer used to index bit vectors.
    ``position`` is the 0-based ordinal of a formal parameter (-1 for
    non-formals).  ``dims`` is ``()`` for scalars and for formals (whose
    shape is caller-determined, Fortran-style).
    """

    uid: int
    name: str
    kind: VarKind
    proc: "ProcSymbol"
    position: int = -1
    dims: Tuple[int, ...] = ()
    line: int = 0
    column: int = 0

    @property
    def is_global(self) -> bool:
        return self.kind is VarKind.GLOBAL

    @property
    def is_formal(self) -> bool:
        return self.kind is VarKind.FORMAL

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def level(self) -> int:
        """Declaration nesting level: 0 for globals, else owner's level."""
        if self.kind is VarKind.GLOBAL:
            return 0
        return self.proc.level

    @property
    def qualified_name(self) -> str:
        if self.kind is VarKind.GLOBAL:
            return self.name
        return "%s::%s" % (self.proc.qualified_name, self.name)

    def __repr__(self) -> str:
        return "<var %s #%d>" % (self.qualified_name, self.uid)

    def __hash__(self) -> int:
        return self.uid


@dataclass(eq=False)
class ProcSymbol:
    """A procedure (the main program body is the level-0 procedure).

    ``pid`` is a dense program-wide integer; main always has pid 0.

    A symbol holds what the procedure's declaration fixes — its place
    in the tree, its formals, locals and nested procedures — and none
    of its body: the statement list, the declaration node and the
    fingerprint are per version, on :class:`ResolvedProgram`, so two
    versions of a program that differ in one body share every symbol.
    """

    pid: int
    name: str
    level: int
    parent: Optional["ProcSymbol"] = None
    formals: List[VarSymbol] = field(default_factory=list)
    locals: List[VarSymbol] = field(default_factory=list)
    nested: List["ProcSymbol"] = field(default_factory=list)
    # Scope dictionary: every name declared directly in this procedure
    # (formals, locals, and for main the globals).  Used for lexical
    # name lookup; procedures live in a separate namespace
    # (``nested_by_name``).
    scope: Dict[str, VarSymbol] = field(default_factory=dict)
    nested_by_name: Dict[str, "ProcSymbol"] = field(default_factory=dict)

    @property
    def is_main(self) -> bool:
        return self.parent is None

    @property
    def qualified_name(self) -> str:
        if self.parent is None or self.parent.parent is None:
            return self.name
        return "%s.%s" % (self.parent.qualified_name, self.name)

    def local_set(self) -> List[VarSymbol]:
        """``LOCAL(p)``: every variable deallocated when p returns.

        For main this includes the globals (main never returns while the
        program runs, so this never filters anything in practice).
        """
        return self.formals + self.locals

    def lexical_chain(self) -> List["ProcSymbol"]:
        """This procedure followed by its lexical ancestors up to main."""
        chain = []
        proc: Optional[ProcSymbol] = self
        while proc is not None:
            chain.append(proc)
            proc = proc.parent
        return chain

    def __repr__(self) -> str:
        return "<proc %s #%d level=%d>" % (self.qualified_name, self.pid, self.level)

    def __hash__(self) -> int:
        return self.pid


@dataclass(frozen=True)
class ArgBinding:
    """One actual argument at a call site.

    ``by_reference`` is true when the actual is a bare or subscripted
    variable reference — the only case that creates a side-effect
    channel.  ``base`` is the resolved base variable of the reference
    (``None`` for by-value actuals) and ``subscripted`` records whether
    the actual selects an element rather than the whole object.
    """

    position: int
    expr: Expr
    by_reference: bool
    base: Optional[VarSymbol]
    subscripted: bool


@dataclass(eq=False)
class CallSite:
    """A resolved call site ``e = (caller, callee)`` with its bindings."""

    site_id: int
    caller: ProcSymbol
    callee: ProcSymbol
    stmt: CallStmt
    bindings: List[ArgBinding] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.stmt.line

    def reference_pairs(self) -> List[Tuple[VarSymbol, VarSymbol]]:
        """(actual base, formal) pairs for by-reference arguments."""
        pairs = []
        for binding in self.bindings:
            if binding.by_reference:
                pairs.append((binding.base, self.callee.formals[binding.position]))
        return pairs

    def __repr__(self) -> str:
        return "<site %d: %s -> %s at line %d>" % (
            self.site_id,
            self.caller.qualified_name,
            self.callee.qualified_name,
            self.line,
        )

    def __hash__(self) -> int:
        return self.site_id


@dataclass(eq=False)
class ResolvedProgram:
    """A parsed, name-resolved CK program — what the analyses consume.

    ``program`` and ``decls`` belong to this version of the program:
    they hold each procedure's statement list and fingerprint (read
    them through :meth:`body_of` and :meth:`token_hash_of`).  The
    symbols may be shared with other versions (see
    :func:`repro.lang.semantic.compile_source`).
    """

    program: Program
    main: ProcSymbol
    procs: List[ProcSymbol]  # pid order; procs[0] is main.
    variables: List[VarSymbol]  # uid order.
    globals: List[VarSymbol]
    call_sites: List[CallSite]  # site_id order.
    #: Each procedure's declaration node, by pid; None exactly for
    #: main, whose body is the program's.
    decls: List[Optional[ProcDecl]]
    #: The CK text this version was compiled from (None when it was
    #: resolved from an AST).
    source: Optional[str] = None

    @property
    def num_procs(self) -> int:
        return len(self.procs)

    @property
    def num_call_sites(self) -> int:
        return len(self.call_sites)

    @property
    def max_nesting_level(self) -> int:
        """``d_P``: the deepest procedure declaration level."""
        return max(proc.level for proc in self.procs)

    def body_of(self, proc: ProcSymbol) -> List[Stmt]:
        """The statement list of ``proc``'s body in this version."""
        return (self.decls[proc.pid] or self.program).body

    def token_hash_of(self, proc: ProcSymbol) -> bytes:
        """``proc``'s parse-time token-span fingerprint in this version
        (``b""`` for ASTs built programmatically).  Lets the incremental
        engine's structural diff skip pretty-printing unchanged bodies."""
        return (self.decls[proc.pid] or self.program).token_hash

    def proc_named(self, qualified_name: str) -> ProcSymbol:
        """Look up a procedure by qualified name (e.g. ``"p.inner"``)."""
        for proc in self.procs:
            if proc.qualified_name == qualified_name:
                return proc
        raise KeyError(qualified_name)

    def var_named(self, qualified_name: str) -> VarSymbol:
        """Look up a variable by qualified name (e.g. ``"p::x"``)."""
        for var in self.variables:
            if var.qualified_name == qualified_name:
                return var
        raise KeyError(qualified_name)

    def sites_in(self, proc: ProcSymbol) -> List[CallSite]:
        return [site for site in self.call_sites if site.caller is proc]

    def sites_calling(self, proc: ProcSymbol) -> List[CallSite]:
        return [site for site in self.call_sites if site.callee is proc]

    def visible_variables(self, proc: ProcSymbol) -> Dict[str, VarSymbol]:
        """Name -> symbol for every variable visible inside ``proc``
        after lexical shadowing (innermost declaration wins)."""
        visible: Dict[str, VarSymbol] = {}
        for scope_proc in reversed(proc.lexical_chain()):
            visible.update(scope_proc.scope)
        return visible
