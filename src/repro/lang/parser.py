"""Recursive-descent parser for the CK language.

Grammar (EBNF; ``{x}`` repetition, ``[x]`` option)::

    program   = "program" IDENT {global_decl | proc_decl}
                "begin" {stmt} "end"
    global    = "global" var_items
    proc      = "proc" IDENT "(" [IDENT {"," IDENT}] ")"
                {local_decl | proc_decl} "begin" {stmt} "end"
    local     = "local" var_items
    var_items = var_item {"," var_item}
    var_item  = IDENT | "array" IDENT "[" INT "]" {"[" INT "]"}
    stmt      = assign | call | if | while | for | return | read | print
    assign    = lvalue ":=" expr
    lvalue    = IDENT {"[" expr "]"}
    call      = "call" IDENT "(" [expr {"," expr}] ")"
    if        = "if" expr "then" {stmt} ["else" {stmt}] "end"
    while     = "while" expr "do" {stmt} "end"
    for       = "for" IDENT ":=" expr "to" expr "do" {stmt} "end"
    read      = "read" lvalue
    print     = "print" expr {"," expr}

Expressions use conventional precedence (``or`` < ``and`` < ``not`` <
comparisons < additive < multiplicative < unary minus).  Optional
semicolons may separate statements and declarations.

Nesting inside a procedure body is bounded by :data:`MAX_NESTING`, and
the nesting of procedure declarations by :data:`MAX_PROC_NESTING`: a
program that nests deeper ends in a :class:`ParseError` at the token
that crosses a bound, never in a ``RecursionError`` here or in any
later walk over its AST.

Implementation note: the parser runs directly over the lexer's
:class:`~repro.lang.lexer.TokenStream` — four parallel lists of dense
kind codes, values, lines, and columns.  All lookahead decisions
compare plain ints and every field access is a flat list index; no
token objects exist on the hot path.  That, plus binding the hot
lists/tables to locals inside the loops, is what makes the parse phase
fast — the grammar, the AST shapes, and every diagnostic message and
position are identical to the straightforward token-object parser this
replaced.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional, Tuple, Union

from repro.lang.errors import ParseError
from repro.lang.lexer import TokenStream, tokenize_stream
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
from repro.lang.tokens import KIND_BY_CODE, TokenKind

#: The deepest nesting a procedure body may have.  Each enclosing
#: ``if``/``while``/``for`` body, parenthesis, subscript and unary
#: operator adds one level, and so does each operator of a chain such
#: as ``a + b + c`` (its AST is left-deep: one level per operator).  A
#: chain's operator counts on top of the levels inside its left
#: operand, so the count is the depth of the AST below the statement
#: plus the parentheses it passes through.  Procedure declarations do
#: not count.  The parser recurses at most ten frames per level (a
#: parenthesis passes through every precedence level) and each later
#: walk over the AST (resolver, lowering, renderers, interpreter) at
#: most a few, so a body within the bound stays well inside Python's
#: default recursion limit, on a worker thread too.
MAX_NESTING = 64

#: The deepest procedure declarations may nest: a procedure declared in
#: the program is at level 1, one declared inside it at level 2.  The
#: parser, the resolver, the renderers and the interpreter each recurse
#: about one frame per level, on top of what the body they reach costs
#: (at most ten frames per :data:`MAX_NESTING` level).  A tower of 400
#: levels whose innermost body nests parentheses to the body bound still
#: goes through every walk under Python's default recursion limit; this
#: bound leaves room below that for the frames of a caller, a test
#: runner or the daemon's solver thread.
MAX_PROC_NESTING = 256

# Dense int codes for every kind the parser dispatches on.
_INT_C = TokenKind.INT.code
_IDENT_C = TokenKind.IDENT.code
_GLOBAL_C = TokenKind.GLOBAL.code
_LOCAL_C = TokenKind.LOCAL.code
_ARRAY_C = TokenKind.ARRAY.code
_PROC_C = TokenKind.PROC.code
_CALL_C = TokenKind.CALL.code
_IF_C = TokenKind.IF.code
_ELSE_C = TokenKind.ELSE.code
_WHILE_C = TokenKind.WHILE.code
_FOR_C = TokenKind.FOR.code
_RETURN_C = TokenKind.RETURN.code
_READ_C = TokenKind.READ.code
_PRINT_C = TokenKind.PRINT.code
_AND_C = TokenKind.AND.code
_OR_C = TokenKind.OR.code
_NOT_C = TokenKind.NOT.code
_MINUS_C = TokenKind.MINUS.code
_LPAREN_C = TokenKind.LPAREN.code
_RPAREN_C = TokenKind.RPAREN.code
_LBRACKET_C = TokenKind.LBRACKET.code
_COMMA_C = TokenKind.COMMA.code
_SEMI_C = TokenKind.SEMI.code
_EOF_C = TokenKind.EOF.code
_BEGIN_C = TokenKind.BEGIN.code

#: Fingerprint salts: a procedure's, and main's (formatted with the
#: program's name).
_PROC_SALT = b"proc\x00"
_MAIN_SALT = b"main\x00%s\x00"

# Operator tables keyed by kind code; values are the AST ``op`` strings.
_COMPARISON_OPS = {
    TokenKind.EQ.code: "=",
    TokenKind.NE.code: "!=",
    TokenKind.LT.code: "<",
    TokenKind.LE.code: "<=",
    TokenKind.GT.code: ">",
    TokenKind.GE.code: ">=",
}

_ADDITIVE_OPS = {TokenKind.PLUS.code: "+", TokenKind.MINUS.code: "-"}

_MULTIPLICATIVE_OPS = {
    TokenKind.STAR.code: "*",
    TokenKind.SLASH.code: "/",
    TokenKind.DIV.code: "div",
    TokenKind.MOD.code: "mod",
}

_STATEMENT_STARTERS = frozenset(
    {_IDENT_C, _CALL_C, _IF_C, _WHILE_C, _FOR_C, _RETURN_C, _READ_C, _PRINT_C}
)


class _Parser:
    __slots__ = ("codes", "values", "lines", "columns", "pos", "depth", "heights",
                 "proc_depth")

    def __init__(self, stream: TokenStream):
        self.codes = stream.codes
        self.values = stream.values
        self.lines = stream.lines
        self.columns = stream.columns
        self.pos = 0
        #: Nesting level of what is being parsed (see MAX_NESTING).
        self.depth = 0
        #: Procedure declarations open around it (see MAX_PROC_NESTING).
        self.proc_depth = 0
        #: id(node) → the levels below it, for every node built where
        #: nesting grows (operators, subscripted references); a node
        #: missing here is a leaf.
        self.heights = {}

    # -- token plumbing -----------------------------------------------------

    def expect(self, kind: TokenKind, context: str) -> int:
        """Consume one token of ``kind`` and return its stream index."""
        pos = self.pos
        if self.codes[pos] != kind.code:
            raise ParseError(
                "expected %s in %s, found %s"
                % (kind.value, context, KIND_BY_CODE[self.codes[pos]].value),
                self.lines[pos],
                self.columns[pos],
            )
        self.pos = pos + 1
        return pos

    def accept(self, code: int) -> bool:
        if self.codes[self.pos] == code:
            self.pos += 1
            return True
        return False

    def nest(self, at: int) -> int:
        """Enter one more level of nesting at token ``at``; returns the
        level to restore when it closes."""
        depth = self.depth
        if depth >= MAX_NESTING:
            self.too_deep(at)
        self.depth = depth + 1
        return depth

    def chain(self, left: Expr, at: int) -> int:
        """The operator at token ``at`` pushes ``left`` one level down:
        its height as the new node's operand, checked against the
        bound."""
        height = self.heights.get(id(left), 0) + 1
        if self.depth + height > MAX_NESTING:
            self.too_deep(at)
        return height

    def binop(self, op: str, left: Expr, right: Expr, height: int, at: int) -> BinOp:
        """The chain's node for operator ``op`` at token ``at``;
        ``height`` is :meth:`chain`'s."""
        node = BinOp(op, left, right, line=self.lines[at], column=self.columns[at])
        right_height = self.heights.get(id(right), 0) + 1
        self.heights[id(node)] = height if height >= right_height else right_height
        return node

    def too_deep(self, at: int) -> None:
        raise ParseError(
            "nesting deeper than %d levels" % MAX_NESTING,
            self.lines[at],
            self.columns[at],
        )

    def skip_separators(self) -> None:
        codes = self.codes
        pos = self.pos
        while codes[pos] == _SEMI_C:
            pos += 1
        self.pos = pos

    def _span_hash(
        self,
        salt: bytes,
        start: int,
        end: int,
        child_spans: List[Tuple[int, int, ProcDecl]],
    ) -> bytes:
        """Fingerprint of the token span ``[start, end)`` with each
        directly nested procedure's span replaced by a name/arity
        marker — so an inner edit changes only the inner fingerprint.

        This is the cheap replacement for pretty-printing the AST in
        the incremental engine's structural diff: the token span fully
        determines the parsed structure (it can only be *over*-
        sensitive, e.g. to redundant separators, which merely costs a
        spurious re-solve — never an unsound reuse).
        """
        hasher = hashlib.sha256(salt)
        codes = self.codes
        values = self.values
        pos = start
        for child_start, child_end, child in child_spans:
            self._hash_segment(hasher, codes, values, pos, child_start)
            hasher.update(
                b"\x01%s/%d" % (child.name.encode("utf-8"), len(child.params))
            )
            pos = child_end
        self._hash_segment(hasher, codes, values, pos, end)
        return hasher.digest()

    @staticmethod
    def _hash_segment(hasher, codes, values, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        hasher.update(bytes(codes[lo:hi]))  # Kind codes are < 256.
        hasher.update(
            b"\x00".join(
                str(value).encode("utf-8")
                for value in values[lo:hi]
                if value is not None
            )
        )
        hasher.update(b"\x02")  # Segment boundary.

    # -- program and declarations -------------------------------------------

    def parse_program(self) -> Program:
        start = self.expect(TokenKind.PROGRAM, "program header")
        name = self.values[self.expect(TokenKind.IDENT, "program header")]
        globals_: List[VarDecl] = []
        procs: List[ProcDecl] = []
        codes = self.codes
        self.skip_separators()
        while True:
            code = codes[self.pos]
            if code == _GLOBAL_C:
                globals_.extend(self.parse_var_decls(TokenKind.GLOBAL))
            elif code == _PROC_C:
                procs.append(self.parse_proc())
            else:
                break
            self.skip_separators()
        begin_at = self.expect(TokenKind.BEGIN, "program body")
        body = self.parse_statements()
        end_at = self.expect(TokenKind.END, "program body")
        # Main's fingerprint covers its name and body span only —
        # mirroring fingerprint_text, which handles globals and
        # procedure declarations through their own fingerprints.
        token_hash = self._span_hash(
            _MAIN_SALT % name.encode("utf-8"), begin_at, end_at + 1, []
        )
        self.skip_separators()
        pos = self.pos
        if codes[pos] != _EOF_C:
            raise ParseError(
                "trailing input after program end: %s" % KIND_BY_CODE[codes[pos]].value,
                self.lines[pos],
                self.columns[pos],
            )
        return Program(
            name=name,
            globals=globals_,
            procs=procs,
            body=body,
            line=self.lines[start],
            column=self.columns[start],
            token_hash=token_hash,
            body_span=self.body_span(begin_at, end_at),
        )

    def parse_var_decls(self, keyword: TokenKind) -> List[VarDecl]:
        self.expect(keyword, "variable declaration")
        decls = [self.parse_var_item()]
        while self.accept(_COMMA_C):
            decls.append(self.parse_var_item())
        return decls

    def parse_var_item(self) -> VarDecl:
        if self.accept(_ARRAY_C):
            name_at = self.expect(TokenKind.IDENT, "array declaration")
            dims: List[int] = []
            while self.accept(_LBRACKET_C):
                size_at = self.expect(TokenKind.INT, "array dimension")
                size = self.values[size_at]
                if size <= 0:
                    raise ParseError(
                        "array dimension must be positive",
                        self.lines[size_at],
                        self.columns[size_at],
                    )
                dims.append(size)
                self.expect(TokenKind.RBRACKET, "array dimension")
            if not dims:
                raise ParseError(
                    "array declaration requires at least one dimension",
                    self.lines[name_at],
                    self.columns[name_at],
                )
            return VarDecl(
                name=self.values[name_at],
                dims=tuple(dims),
                line=self.lines[name_at],
                column=self.columns[name_at],
            )
        name_at = self.expect(TokenKind.IDENT, "variable declaration")
        return VarDecl(
            name=self.values[name_at],
            line=self.lines[name_at],
            column=self.columns[name_at],
        )

    def parse_proc(self) -> ProcDecl:
        start = self.expect(TokenKind.PROC, "procedure declaration")
        if self.proc_depth >= MAX_PROC_NESTING:
            raise ParseError(
                "procedures nested deeper than %d levels" % MAX_PROC_NESTING,
                self.lines[start],
                self.columns[start],
            )
        self.proc_depth += 1
        name = self.values[self.expect(TokenKind.IDENT, "procedure declaration")]
        self.expect(TokenKind.LPAREN, "parameter list")
        params: List[str] = []
        if self.codes[self.pos] != _RPAREN_C:
            params.append(self.values[self.expect(TokenKind.IDENT, "parameter list")])
            while self.accept(_COMMA_C):
                params.append(self.values[self.expect(TokenKind.IDENT, "parameter list")])
        self.expect(TokenKind.RPAREN, "parameter list")
        locals_: List[VarDecl] = []
        nested: List[ProcDecl] = []
        child_spans: List[Tuple[int, int, ProcDecl]] = []
        codes = self.codes
        self.skip_separators()
        while True:
            code = codes[self.pos]
            if code == _LOCAL_C:
                locals_.extend(self.parse_var_decls(TokenKind.LOCAL))
            elif code == _PROC_C:
                child_start = self.pos
                child = self.parse_proc()
                nested.append(child)
                child_spans.append((child_start, self.pos, child))
            else:
                break
            self.skip_separators()
        begin_at = self.expect(TokenKind.BEGIN, "procedure body")
        body = self.parse_statements()
        end_at = self.expect(TokenKind.END, "procedure body")
        self.proc_depth -= 1
        return ProcDecl(
            name=name,
            params=params,
            locals=locals_,
            nested=nested,
            body=body,
            line=self.lines[start],
            column=self.columns[start],
            token_hash=self._span_hash(_PROC_SALT, start, end_at + 1, child_spans),
            body_span=self.body_span(begin_at, end_at),
        )

    def body_span(self, begin_at: int, end_at: int) -> Tuple[int, int, int, int]:
        lines = self.lines
        columns = self.columns
        return (lines[begin_at], columns[begin_at], lines[end_at], columns[end_at])

    # -- statements -----------------------------------------------------------

    def parse_statements(self) -> List[Stmt]:
        statements: List[Stmt] = []
        append = statements.append
        codes = self.codes
        starters = _STATEMENT_STARTERS
        pos = self.pos
        while codes[pos] == _SEMI_C:
            pos += 1
        self.pos = pos
        while codes[pos] in starters:
            append(self.parse_statement())
            pos = self.pos
            while codes[pos] == _SEMI_C:
                pos += 1
            self.pos = pos
        return statements

    def parse_statement(self) -> Stmt:
        pos = self.pos
        code = self.codes[pos]
        if code == _IDENT_C:
            return self.parse_assign()
        if code == _CALL_C:
            return self.parse_call()
        if code == _IF_C:
            return self.parse_if()
        if code == _WHILE_C:
            return self.parse_while()
        if code == _FOR_C:
            return self.parse_for()
        line = self.lines[pos]
        column = self.columns[pos]
        if code == _RETURN_C:
            self.pos = pos + 1
            return Return(line=line, column=column)
        if code == _READ_C:
            self.pos = pos + 1
            target = self.parse_lvalue()
            return Read(target=target, line=line, column=column)
        if code == _PRINT_C:
            self.pos = pos + 1
            values = [self.parse_expr()]
            while self.accept(_COMMA_C):
                values.append(self.parse_expr())
            return Print(values=values, line=line, column=column)
        raise ParseError(
            "expected statement, found %s" % KIND_BY_CODE[code].value, line, column
        )

    def parse_assign(self) -> Assign:
        target = self.parse_lvalue()
        self.expect(TokenKind.ASSIGN, "assignment")
        value = self.parse_expr()
        return Assign(target=target, value=value, line=target.line, column=target.column)

    def parse_lvalue(self) -> VarRef:
        name_at = self.expect(TokenKind.IDENT, "variable reference")
        indices: List[Expr] = []
        node = VarRef(
            name=self.values[name_at],
            indices=indices,
            line=self.lines[name_at],
            column=self.columns[name_at],
        )
        if self.codes[self.pos] == _LBRACKET_C:
            outer = self.nest(self.pos)
            while self.accept(_LBRACKET_C):
                indices.append(self.parse_expr())
                self.expect(TokenKind.RBRACKET, "subscript")
            self.depth = outer
            heights = self.heights
            heights[id(node)] = 1 + max(heights.get(id(index), 0) for index in indices)
        return node

    def parse_call(self) -> CallStmt:
        start = self.expect(TokenKind.CALL, "call statement")
        callee = self.values[self.expect(TokenKind.IDENT, "call statement")]
        self.expect(TokenKind.LPAREN, "argument list")
        args: List[Expr] = []
        if self.codes[self.pos] != _RPAREN_C:
            args.append(self.parse_expr())
            while self.accept(_COMMA_C):
                args.append(self.parse_expr())
        self.expect(TokenKind.RPAREN, "argument list")
        return CallStmt(
            callee=callee, args=args, line=self.lines[start], column=self.columns[start]
        )

    def parse_if(self) -> If:
        start = self.expect(TokenKind.IF, "if statement")
        cond = self.parse_expr()
        self.expect(TokenKind.THEN, "if statement")
        outer = self.nest(start)
        then_body = self.parse_statements()
        else_body: List[Stmt] = []
        if self.accept(_ELSE_C):
            else_body = self.parse_statements()
        self.expect(TokenKind.END, "if statement")
        self.depth = outer
        return If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            line=self.lines[start],
            column=self.columns[start],
        )

    def parse_while(self) -> While:
        start = self.expect(TokenKind.WHILE, "while statement")
        cond = self.parse_expr()
        self.expect(TokenKind.DO, "while statement")
        outer = self.nest(start)
        body = self.parse_statements()
        self.expect(TokenKind.END, "while statement")
        self.depth = outer
        return While(
            cond=cond, body=body, line=self.lines[start], column=self.columns[start]
        )

    def parse_for(self) -> For:
        start = self.expect(TokenKind.FOR, "for statement")
        var_at = self.expect(TokenKind.IDENT, "for statement")
        var = VarRef(
            name=self.values[var_at],
            line=self.lines[var_at],
            column=self.columns[var_at],
        )
        self.expect(TokenKind.ASSIGN, "for statement")
        lo = self.parse_expr()
        self.expect(TokenKind.TO, "for statement")
        hi = self.parse_expr()
        self.expect(TokenKind.DO, "for statement")
        outer = self.nest(start)
        body = self.parse_statements()
        self.expect(TokenKind.END, "for statement")
        self.depth = outer
        return For(
            var=var,
            lo=lo,
            hi=hi,
            body=body,
            line=self.lines[start],
            column=self.columns[start],
        )

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        codes = self.codes
        while codes[self.pos] == _OR_C:
            at = self.pos
            height = self.chain(left, at)
            self.pos = at + 1
            self.depth += 1
            right = self.parse_and()
            self.depth -= 1
            left = self.binop("or", left, right, height, at)
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        codes = self.codes
        while codes[self.pos] == _AND_C:
            at = self.pos
            height = self.chain(left, at)
            self.pos = at + 1
            self.depth += 1
            right = self.parse_not()
            self.depth -= 1
            left = self.binop("and", left, right, height, at)
        return left

    def parse_not(self) -> Expr:
        at = self.pos
        if self.codes[at] == _NOT_C:
            return self.unary("not", at, self.parse_not)
        return self.parse_comparison()

    def unary(self, op: str, at: int, parse_operand) -> UnOp:
        """The unary operator ``op`` at token ``at`` and its operand."""
        outer = self.nest(at)
        self.pos = at + 1
        operand = parse_operand()
        self.depth = outer
        node = UnOp(op, operand, line=self.lines[at], column=self.columns[at])
        self.heights[id(node)] = self.heights.get(id(operand), 0) + 1
        return node

    def parse_comparison(self) -> Expr:
        # Left-associative, like the arithmetic operators: a < b < c
        # parses as (a < b) < c (comparisons yield 0/1 integers).
        left = self.parse_additive()
        codes = self.codes
        ops_get = _COMPARISON_OPS.get
        while True:
            at = self.pos
            op = ops_get(codes[at])
            if op is None:
                return left
            height = self.chain(left, at)
            self.pos = at + 1
            self.depth += 1
            right = self.parse_additive()
            self.depth -= 1
            left = self.binop(op, left, right, height, at)

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        codes = self.codes
        ops_get = _ADDITIVE_OPS.get
        while True:
            at = self.pos
            op = ops_get(codes[at])
            if op is None:
                return left
            height = self.chain(left, at)
            self.pos = at + 1
            self.depth += 1
            right = self.parse_multiplicative()
            self.depth -= 1
            left = self.binop(op, left, right, height, at)

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        codes = self.codes
        ops_get = _MULTIPLICATIVE_OPS.get
        while True:
            at = self.pos
            op = ops_get(codes[at])
            if op is None:
                return left
            height = self.chain(left, at)
            self.pos = at + 1
            self.depth += 1
            right = self.parse_unary()
            self.depth -= 1
            left = self.binop(op, left, right, height, at)

    def parse_unary(self) -> Expr:
        at = self.pos
        if self.codes[at] == _MINUS_C:
            return self.unary("-", at, self.parse_unary)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        pos = self.pos
        code = self.codes[pos]
        if code == _IDENT_C:
            return self.parse_lvalue()
        if code == _INT_C:
            self.pos = pos + 1
            return IntLit(
                self.values[pos], line=self.lines[pos], column=self.columns[pos]
            )
        if code == _LPAREN_C:
            outer = self.nest(pos)
            self.pos = pos + 1
            inner = self.parse_expr()
            self.expect(TokenKind.RPAREN, "parenthesized expression")
            self.depth = outer
            return inner
        raise ParseError(
            "expected expression, found %s" % KIND_BY_CODE[code].value,
            self.lines[pos],
            self.columns[pos],
        )


def parse_token_stream(stream: TokenStream) -> Program:
    """Parse an already-scanned :class:`TokenStream` (as produced by
    :func:`repro.lang.lexer.tokenize_stream`).

    This is the entry point for callers that time or cache the lex phase
    separately from the parse phase.
    """
    return _Parser(stream).parse_program()


def parse_program(source: str) -> Program:
    """Parse CK source text into a :class:`Program` AST (unresolved)."""
    return _Parser(tokenize_stream(source)).parse_program()


def reparse_body(
    source: str,
    owner: Union[ProcDecl, Program],
    offset: Callable[[int, int], int],
    stop: int,
) -> Optional[Tuple[List[Stmt], bytes, Tuple[int, int, int, int]]]:
    """Re-read the body of ``owner`` — a procedure's declaration or the
    program, parsed from an earlier text — out of ``source``: its
    statement list, fingerprint and
    :attr:`~repro.lang.nodes.ProcDecl.body_span`, each as
    :meth:`_Parser.parse_program` would make them from ``source``.

    ``offset(line, column)`` is the offset in ``source`` of a position
    in ``owner`` before its body's ``begin`` ends (the text up to there
    is unchanged), and ``stop`` the offset where the body's ``end``
    token ends.  Only the text the fingerprint covers is scanned: for a
    procedure, from its ``proc`` token to ``stop`` with each nested
    declaration cut out; for the program, its ``begin`` to ``stop``.
    Returns None unless that text still opens the body with ``begin``
    where ``owner`` had it and ends it with ``end`` at ``stop``, so
    scanning the whole text would have met the same tokens.  Errors
    raise as in a full parse (not necessarily the same one).
    """
    begin_line, begin_column = owner.body_span[:2]
    if isinstance(owner, Program):
        salt = _MAIN_SALT % owner.name.encode("utf-8")
        nested: List[ProcDecl] = []
        starts = [(begin_line, begin_column)]
    else:
        salt = _PROC_SALT
        nested = owner.nested
        starts = [(owner.line, owner.column)]
        starts += [(child.body_span[2], child.body_span[3] + len("end")) for child in nested]
    stops = [offset(child.line, child.column) for child in nested] + [stop]
    codes: List[int] = []
    values: List[object] = []
    lines: List[int] = []
    columns: List[int] = []
    cuts: List[int] = []
    for (line, column), segment_stop in zip(starts, stops):
        if codes:
            for field in (codes, values, lines, columns):
                field.pop()  # The previous segment's EOF.
            cuts.append(len(codes))
        stream = tokenize_stream(source, offset(line, column), segment_stop, line)
        codes += stream.codes
        values += stream.values
        lines += stream.lines
        columns += stream.columns
    parser = _Parser(TokenStream(codes, values, lines, columns))
    begin_at = cuts[-1] if cuts else 0
    while codes[begin_at] != _BEGIN_C and codes[begin_at] != _EOF_C:
        begin_at += 1
    if lines[begin_at] != begin_line or columns[begin_at] != begin_column:
        return None
    parser.pos = begin_at + 1
    body = parser.parse_statements()
    end_at = parser.expect(TokenKind.END, "procedure body")
    eof = len(codes) - 1
    if end_at != eof - 1 or lines[end_at] != lines[eof] or columns[end_at] + 3 != columns[eof]:
        return None
    token_hash = parser._span_hash(
        salt, 0, eof, [(cut, cut, child) for cut, child in zip(cuts, nested)]
    )
    return body, token_hash, parser.body_span(begin_at, end_at)
