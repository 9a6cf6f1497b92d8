"""Semantic analysis for CK: scopes, name resolution, call resolution.

:func:`analyze` turns a raw :class:`~repro.lang.nodes.Program` into a
:class:`~repro.lang.symbols.ResolvedProgram`:

* builds the procedure tree with nesting levels (main = level 0),
* checks for duplicate declarations within a scope,
* resolves every variable reference lexically (innermost scope wins),
  annotating the ``VarRef.symbol`` field in place,
* resolves every ``call`` to a visible procedure (Pascal visibility: a
  procedure sees its own nested procedures, itself, its siblings, and
  everything visible to its ancestors — so sibling mutual recursion
  works), checks arity, assigns dense ``site_id`` numbers, and records
  per-argument binding modes (by-reference for bare/subscripted
  variable actuals, by-value otherwise).

Static shape checks: declared scalars may not be subscripted and
declared arrays must be subscripted with exactly their declared rank
whenever they appear outside a call argument position.  Formals are
Fortran-style untyped — their shape is caller-determined — so formals
may be used either way (the interpreter checks at run time).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lang.errors import CkError, SemanticError
from repro.lang.nodes import (
    Assign,
    BinOp,
    CallStmt,
    Expr,
    For,
    If,
    IntLit,
    Print,
    ProcDecl,
    Program,
    Read,
    Return,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
    While,
)
from repro.lang.symbols import (
    ArgBinding,
    CallSite,
    ProcSymbol,
    ResolvedProgram,
    VarKind,
    VarSymbol,
)


class _Analyzer:
    def __init__(self, program: Program):
        self.program = program
        self.procs: List[ProcSymbol] = []
        self.decls: List[Optional[ProcDecl]] = []
        self.variables: List[VarSymbol] = []
        self.call_sites: List[CallSite] = []
        # Per-procedure resolution state, installed by ``resolve_proc``
        # before each procedure's body is resolved.  ``_var_scopes``/
        # ``_proc_scopes`` are the procedure's lexical chain of scope
        # dicts (innermost first, shared references — never copies);
        # the caches memoize name → symbol so repeated uses of the same
        # name inside one procedure cost a single dict probe instead of
        # a chain walk.
        self._var_scopes: List[Dict[str, VarSymbol]] = []
        self._proc_scopes: List[Dict[str, ProcSymbol]] = []
        self._var_cache: Dict[str, VarSymbol] = {}
        self._proc_cache: Dict[str, ProcSymbol] = {}

    # -- symbol construction --------------------------------------------------

    def new_var(self, name: str, kind: VarKind, proc: ProcSymbol, position: int = -1,
                dims=(), line: int = 0, column: int = 0) -> VarSymbol:
        symbol = VarSymbol(
            uid=len(self.variables),
            name=name,
            kind=kind,
            proc=proc,
            position=position,
            dims=tuple(dims),
            line=line,
            column=column,
        )
        self.variables.append(symbol)
        return symbol

    def declare(self, proc: ProcSymbol, symbol: VarSymbol) -> None:
        if symbol.name in proc.scope:
            raise SemanticError(
                "duplicate declaration of %r in %s" % (symbol.name, proc.qualified_name),
                symbol.line,
                symbol.column,
            )
        proc.scope[symbol.name] = symbol

    def build_main(self) -> ProcSymbol:
        main = ProcSymbol(pid=0, name=self.program.name, level=0, parent=None)
        self.procs.append(main)
        self.decls.append(None)
        for decl in self.program.globals:
            symbol = self.new_var(
                decl.name, VarKind.GLOBAL, main, dims=decl.dims, line=decl.line,
                column=decl.column,
            )
            self.declare(main, symbol)
            main.locals.append(symbol)
        for proc_decl in self.program.procs:
            self.build_proc(proc_decl, main)
        return main

    def build_proc(self, decl: ProcDecl, parent: ProcSymbol) -> ProcSymbol:
        proc = ProcSymbol(
            pid=len(self.procs),
            name=decl.name,
            level=parent.level + 1,
            parent=parent,
        )
        self.procs.append(proc)
        self.decls.append(decl)
        if decl.name in parent.nested_by_name:
            raise SemanticError(
                "duplicate procedure %r in %s" % (decl.name, parent.qualified_name),
                decl.line,
                decl.column,
            )
        parent.nested_by_name[decl.name] = proc
        parent.nested.append(proc)
        for position, param in enumerate(decl.params):
            symbol = self.new_var(
                param, VarKind.FORMAL, proc, position=position, line=decl.line,
                column=decl.column,
            )
            self.declare(proc, symbol)
            proc.formals.append(symbol)
        for var_decl in decl.locals:
            symbol = self.new_var(
                var_decl.name, VarKind.LOCAL, proc, dims=var_decl.dims,
                line=var_decl.line, column=var_decl.column,
            )
            self.declare(proc, symbol)
            proc.locals.append(symbol)
        for nested_decl in decl.nested:
            self.build_proc(nested_decl, proc)
        return proc

    # -- lookup ----------------------------------------------------------------

    def lookup_var(self, name: str, proc: ProcSymbol, line: int, column: int) -> VarSymbol:
        symbol = self._var_cache.get(name)
        if symbol is not None:
            return symbol
        for scope in self._var_scopes:
            symbol = scope.get(name)
            if symbol is not None:
                self._var_cache[name] = symbol
                return symbol
        raise SemanticError(
            "undeclared variable %r in %s" % (name, proc.qualified_name), line, column
        )

    def lookup_proc(self, name: str, proc: ProcSymbol, line: int, column: int) -> ProcSymbol:
        target = self._proc_cache.get(name)
        if target is not None:
            return target
        for scope in self._proc_scopes:
            target = scope.get(name)
            if target is not None:
                self._proc_cache[name] = target
                return target
        raise SemanticError(
            "call to undeclared procedure %r from %s" % (name, proc.qualified_name),
            line,
            column,
        )

    # -- reference checking ------------------------------------------------------

    def resolve_ref(self, ref: VarRef, proc: ProcSymbol, allow_whole_array: bool) -> VarSymbol:
        symbol = self.lookup_var(ref.name, proc, ref.line, ref.column)
        ref.symbol = symbol
        for index in ref.indices:
            self.resolve_expr(index, proc)
        if symbol.is_formal:
            # Formals are untyped; any usage shape is legal statically.
            return symbol
        if symbol.is_array:
            if not ref.indices:
                if not allow_whole_array:
                    raise SemanticError(
                        "array %r needs subscripts here" % ref.name, ref.line, ref.column
                    )
            elif len(ref.indices) != len(symbol.dims):
                raise SemanticError(
                    "array %r has rank %d, got %d subscripts"
                    % (ref.name, len(symbol.dims), len(ref.indices)),
                    ref.line,
                    ref.column,
                )
        elif ref.indices:
            raise SemanticError(
                "scalar %r may not be subscripted" % ref.name, ref.line, ref.column
            )
        return symbol

    def resolve_expr(self, expr: Expr, proc: ProcSymbol) -> None:
        if isinstance(expr, IntLit):
            return
        if isinstance(expr, VarRef):
            self.resolve_ref(expr, proc, allow_whole_array=False)
            return
        if isinstance(expr, BinOp):
            self.resolve_expr(expr.left, proc)
            self.resolve_expr(expr.right, proc)
            return
        if isinstance(expr, UnOp):
            self.resolve_expr(expr.operand, proc)
            return
        raise SemanticError("unknown expression node %r" % (expr,))

    # -- statement resolution ------------------------------------------------------

    def resolve_body(self, body: List[Stmt], proc: ProcSymbol) -> None:
        for stmt in body:
            self.resolve_stmt(stmt, proc)

    def resolve_stmt(self, stmt: Stmt, proc: ProcSymbol) -> None:
        if isinstance(stmt, Assign):
            self.resolve_ref(stmt.target, proc, allow_whole_array=False)
            self.resolve_expr(stmt.value, proc)
        elif isinstance(stmt, CallStmt):
            self.resolve_call(stmt, proc)
        elif isinstance(stmt, If):
            self.resolve_expr(stmt.cond, proc)
            self.resolve_body(stmt.then_body, proc)
            self.resolve_body(stmt.else_body, proc)
        elif isinstance(stmt, While):
            self.resolve_expr(stmt.cond, proc)
            self.resolve_body(stmt.body, proc)
        elif isinstance(stmt, For):
            symbol = self.resolve_ref(stmt.var, proc, allow_whole_array=False)
            if symbol.is_array:
                raise SemanticError(
                    "for-loop variable %r must be scalar" % stmt.var.name,
                    stmt.line,
                    stmt.column,
                )
            self.resolve_expr(stmt.lo, proc)
            self.resolve_expr(stmt.hi, proc)
            self.resolve_body(stmt.body, proc)
        elif isinstance(stmt, Read):
            self.resolve_ref(stmt.target, proc, allow_whole_array=False)
        elif isinstance(stmt, Print):
            for value in stmt.values:
                self.resolve_expr(value, proc)
        elif isinstance(stmt, Return):
            pass
        else:
            raise SemanticError("unknown statement node %r" % (stmt,))

    def resolve_call(self, stmt: CallStmt, proc: ProcSymbol) -> None:
        callee = self.lookup_proc(stmt.callee, proc, stmt.line, stmt.column)
        if len(stmt.args) != len(callee.formals):
            raise SemanticError(
                "call to %s expects %d arguments, got %d"
                % (callee.qualified_name, len(callee.formals), len(stmt.args)),
                stmt.line,
                stmt.column,
            )
        bindings: List[ArgBinding] = []
        for position, arg in enumerate(stmt.args):
            if isinstance(arg, VarRef):
                base = self.resolve_ref(arg, proc, allow_whole_array=True)
                bindings.append(
                    ArgBinding(
                        position=position,
                        expr=arg,
                        by_reference=True,
                        base=base,
                        subscripted=bool(arg.indices),
                    )
                )
            else:
                self.resolve_expr(arg, proc)
                bindings.append(
                    ArgBinding(
                        position=position,
                        expr=arg,
                        by_reference=False,
                        base=None,
                        subscripted=False,
                    )
                )
        stmt.proc = callee
        stmt.site_id = len(self.call_sites)
        self.call_sites.append(
            CallSite(
                site_id=stmt.site_id,
                caller=proc,
                callee=callee,
                stmt=stmt,
                bindings=bindings,
            )
        )

    # -- driver ----------------------------------------------------------------

    def run(self) -> ResolvedProgram:
        main = self.build_main()
        # Every scope exists once ``build_main`` returns, so the lexical
        # chains can be precomputed as lists of shared scope-dict
        # references (parents come before children in pid order).
        var_chains: Dict[int, List[Dict[str, VarSymbol]]] = {}
        proc_chains: Dict[int, List[Dict[str, ProcSymbol]]] = {}
        for proc in self.procs:
            if proc.parent is None:
                var_chains[proc.pid] = [proc.scope]
                proc_chains[proc.pid] = [proc.nested_by_name]
            else:
                var_chains[proc.pid] = [proc.scope] + var_chains[proc.parent.pid]
                proc_chains[proc.pid] = [proc.nested_by_name] + proc_chains[proc.parent.pid]
        program = self.program
        # Resolve bodies in pid order so call-site ids are deterministic.
        for proc, decl in zip(self.procs, self.decls):
            self.resolve_proc(
                proc, (decl or program).body, var_chains[proc.pid], proc_chains[proc.pid]
            )
        globals_ = [var for var in self.variables if var.is_global]
        return ResolvedProgram(
            program=program,
            main=main,
            procs=self.procs,
            variables=self.variables,
            globals=globals_,
            call_sites=self.call_sites,
            decls=self.decls,
        )

    def resolve_proc(self, proc: ProcSymbol, body: List[Stmt], var_scopes, proc_scopes) -> None:
        """Resolve ``proc``'s ``body`` against its lexical chain of
        scopes (innermost first), appending its call sites."""
        self._var_scopes = var_scopes
        self._proc_scopes = proc_scopes
        self._var_cache = {}
        self._proc_cache = {}
        self.resolve_body(body, proc)


def analyze(program: Program) -> ResolvedProgram:
    """Run semantic analysis over a parsed program.

    Mutates the AST in place (filling ``VarRef.symbol``,
    ``CallStmt.proc`` and ``CallStmt.site_id``) and returns the
    :class:`ResolvedProgram` wrapper.
    """
    return _Analyzer(program).run()


def compile_source(
    source: str, previous: Optional[ResolvedProgram] = None
) -> ResolvedProgram:
    """Parse + analyze CK source text.

    ``previous`` is a program compiled from an earlier version of the
    text.  When the edit between the two lies inside one procedure's
    statement list (main's included), adds or removes no line and
    keeps that procedure's number of calls, only that statement list
    is lexed, parsed and resolved again, and the result shares every
    other procedure's AST, its symbols and its call sites with
    ``previous``.  Any other edit, and any error, compiles in full.
    Either way the result equals a full compile of ``source``;
    ``previous`` is read, never changed, and the result holds no
    reference to it.
    """
    from repro.lang.parser import parse_program

    if previous is not None and previous.source is not None:
        from repro.lang.splice import splice

        try:
            spliced = splice(source, previous)
        except CkError:
            spliced = None  # The full compile reports the error.
        if spliced is not None:
            return spliced
    resolved = analyze(parse_program(source))
    resolved.source = source
    return resolved
