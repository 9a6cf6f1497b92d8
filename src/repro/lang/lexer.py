"""Batched lexer for the CK language.

One compiled master regex classifies the whole source in a single
``finditer`` pass.  Each match swallows any run of whitespace and
comments (the ``skip`` prefix group) together with exactly one token,
so the Python-level loop runs once per *token*, not once per character
— the per-character work all happens inside the regex engine's C loop.
Comments run from ``#`` to end of line; whitespace only separates
tokens.

The scanner's native output is a :class:`TokenStream`: four parallel
lists (dense kind codes, values, lines, columns) plus a trailing EOF
entry.  The parser consumes the stream directly — indexing flat lists
of ints beats attribute access on token objects — and ``Token``
records are materialized only on demand (:func:`tokenize`), for tests
and tools.  Kinds, values, positions, and error messages are identical
to the original character-at-a-time scanner, which survives as the
specification fixture ``tests/lexer_reference.py`` and is asserted
equivalent by the front-end equivalence suite.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, KIND_BY_CODE, Token, TokenKind

#: Operator spelling → dense kind code.  Two-character operators are
#: listed first in the master regex alternation, so ``<=`` can never
#: lex as ``<`` ``=``.
_OPERATOR_CODES = {
    ":=": TokenKind.ASSIGN.code,
    "!=": TokenKind.NE.code,
    "<=": TokenKind.LE.code,
    ">=": TokenKind.GE.code,
    "<>": TokenKind.NE.code,  # Pascal-style spelling accepted as a synonym.
    "+": TokenKind.PLUS.code,
    "-": TokenKind.MINUS.code,
    "*": TokenKind.STAR.code,
    "/": TokenKind.SLASH.code,
    "=": TokenKind.EQ.code,
    "<": TokenKind.LT.code,
    ">": TokenKind.GT.code,
    "(": TokenKind.LPAREN.code,
    ")": TokenKind.RPAREN.code,
    "[": TokenKind.LBRACKET.code,
    "]": TokenKind.RBRACKET.code,
    ",": TokenKind.COMMA.code,
    ";": TokenKind.SEMI.code,
}

#: Keyword spelling → dense kind code (the fast-path twin of KEYWORDS).
_KEYWORD_CODES = {word: kind.code for word, kind in KEYWORDS.items()}

#: The master scanner.  Group 1 (``skip``) greedily eats whitespace and
#: comments; the token part is optional so the final match (trailing
#: skip + EOF) and bad-character positions (pure-skip match that stops
#: short of a token) fall out of the same pass.  ``[^\W\d]`` is "word
#: character that is not a digit" — exactly the reference scanner's
#: ``isalpha() or '_'`` start set; ``\w`` continues with
#: ``isalnum() or '_'``.  A digit run immediately followed by a word
#: character (group ``bad``) reproduces the reference scanner's
#: "identifier may not start with a digit" error.
_MASTER = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|\#[^\n]*)*)"
    r"(?:(?P<word>[^\W\d]\w*)"
    r"|(?P<int>\d+)(?P<bad>[^\W\d])?"
    r"|(?P<op>:=|!=|<=|>=|<>|[-+*/=<>()\[\],;]))?"
)

# Group indices in _MASTER, in match.lastindex terms.  lastindex is the
# highest-numbered group that participated in the match, so a plain
# integer token reports _INT_G while a malformed one reports _BAD_G.
_SKIP_G = 1
_WORD_G = 2
_INT_G = 3
_BAD_G = 4
_OP_G = 5

_IDENT_CODE = TokenKind.IDENT.code
_INT_CODE = TokenKind.INT.code
_EOF_CODE = TokenKind.EOF.code


class TokenStream(NamedTuple):
    """The scanner's native output: four parallel lists, one entry per
    token including the trailing EOF (whose value is ``None``).

    ``codes[i]`` is ``KIND_BY_CODE`` index of token ``i``'s kind;
    ``values[i]`` / ``lines[i]`` / ``columns[i]`` match the fields of
    the corresponding :class:`Token`.
    """

    codes: List[int]
    values: List[object]
    lines: List[int]
    columns: List[int]

    def __len__(self) -> int:
        return len(self.codes)

    def token(self, index: int) -> Token:
        """Materialize the :class:`Token` record for entry ``index``."""
        return Token(
            KIND_BY_CODE[self.codes[index]],
            self.values[index],
            self.lines[index],
            self.columns[index],
        )


def tokenize_stream(source: str) -> TokenStream:
    """Scan ``source`` into a :class:`TokenStream` (ends with EOF)."""
    codes: List[int] = []
    values: List[object] = []
    lines: List[int] = []
    columns: List[int] = []
    append_code = codes.append
    append_value = values.append
    append_line = lines.append
    append_column = columns.append
    keyword_get = _KEYWORD_CODES.get
    operators = _OPERATOR_CODES
    ident_code = _IDENT_CODE
    int_code = _INT_CODE
    line = 1
    line_start = 0  # Offset of the first character of the current line.
    n = len(source)
    for match in _MASTER.finditer(source):
        group_index = match.lastindex
        if group_index == _WORD_G:
            skip = match.group(1)
            if skip and "\n" in skip:
                line += skip.count("\n")
                line_start = match.start(1) + skip.rindex("\n") + 1
            text = match.group(2)
            append_code(keyword_get(text, ident_code))
            append_value(text)
            append_line(line)
            append_column(match.start(2) - line_start + 1)
        elif group_index == _OP_G:
            skip = match.group(1)
            if skip and "\n" in skip:
                line += skip.count("\n")
                line_start = match.start(1) + skip.rindex("\n") + 1
            text = match.group(5)
            append_code(operators[text])
            append_value(text)
            append_line(line)
            append_column(match.start(5) - line_start + 1)
        elif group_index == _INT_G:
            skip = match.group(1)
            if skip and "\n" in skip:
                line += skip.count("\n")
                line_start = match.start(1) + skip.rindex("\n") + 1
            append_code(int_code)
            append_value(int(match.group(3)))
            append_line(line)
            append_column(match.start(3) - line_start + 1)
        elif group_index == _BAD_G:
            skip = match.group(1)
            if skip and "\n" in skip:
                line += skip.count("\n")
                line_start = match.start(1) + skip.rindex("\n") + 1
            raise LexError(
                "identifier may not start with a digit",
                line,
                match.start(3) - line_start + 1,
            )
        else:
            # Pure-skip match: either we reached EOF cleanly or the
            # regex stopped in front of a character no token starts
            # with.  (The skip group always participates, so this is
            # the only no-token shape.)
            skip = match.group(1)
            if skip and "\n" in skip:
                line += skip.count("\n")
                line_start = match.start(1) + skip.rindex("\n") + 1
            end = match.end()
            if end != n:
                raise LexError(
                    "unexpected character %r" % source[end],
                    line,
                    end - line_start + 1,
                )
            break
    append_code(_EOF_CODE)
    append_value(None)
    append_line(line)
    append_column(n - line_start + 1)
    return TokenStream(codes, values, lines, columns)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` fully, returning a list ending with EOF."""
    codes, values, lines, columns = tokenize_stream(source)
    kinds = KIND_BY_CODE
    return [
        Token(kinds[code], value, line, column)
        for code, value, line, column in zip(codes, values, lines, columns)
    ]
