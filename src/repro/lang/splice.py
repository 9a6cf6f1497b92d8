"""The front end's donor mode: :func:`repro.lang.semantic.compile_source`
with a ``previous`` program.

An edit inside one procedure's statement list is read back through the
lexer's, parser's and resolver's own entry points — only that
statement list is scanned, parsed and resolved — and the result shares
everything else with the previous version.  See DESIGN.md §10, "What
an update compiles".  Imported on the first such compile, so a
process that never splices does not load it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import List, Optional

from repro.lang.nodes import ProcDecl, Program
from repro.lang.parser import reparse_body
from repro.lang.semantic import _Analyzer
from repro.lang.symbols import CallSite, ResolvedProgram

#: Block size of the common prefix/suffix scan.
_SCAN_BLOCK = 4096


def _common_run(a: str, b: str, limit: int, backward: bool = False) -> int:
    """Length of the common prefix of ``a`` and ``b`` (their common
    suffix if ``backward``), at most ``limit``."""
    ea, eb = len(a), len(b)

    def same(lo: int, hi: int) -> bool:  # Characters [lo, hi) of the run.
        if backward:
            return a[ea - hi:ea - lo] == b[eb - hi:eb - lo]
        return a[lo:hi] == b[lo:hi]

    n = 0
    while n + _SCAN_BLOCK <= limit and same(n, n + _SCAN_BLOCK):
        n += _SCAN_BLOCK
    top = min(n + _SCAN_BLOCK, limit)
    while n < top:  # The run ends in [n, top].
        mid = (n + top + 1) // 2
        if same(n, mid):
            n = mid
        else:
            top = mid - 1
    return n


def _line_offset(text: str, line: int, column: int, anchor_line: int, anchor: int) -> int:
    """Offset of ``(line, column)`` in ``text``, walking line by line
    from ``anchor``, the offset where ``anchor_line`` starts."""
    while anchor_line > line:
        anchor = text.rfind("\n", 0, anchor - 1) + 1
        anchor_line -= 1
    while anchor_line < line:
        anchor = text.index("\n", anchor) + 1
        anchor_line += 1
    return anchor + column - 1


def splice(source: str, previous: ResolvedProgram) -> Optional[ResolvedProgram]:
    """The program for ``source`` built from ``previous``, or None when
    the edit needs a full compile."""
    old = previous.source
    limit = min(len(old), len(source))
    prefix = _common_run(old, source, limit)
    if prefix == len(old) == len(source):
        return _version(previous, source, previous.program, list(previous.decls),
                        list(previous.call_sites))
    old_stop = len(old) - _common_run(old, source, limit - prefix, backward=True)
    shift = len(source) - len(old)
    if "\n" in old[prefix:old_stop] or "\n" in source[prefix:old_stop + shift]:
        return None  # The edit adds, removes or spans lines.
    # The edit replaces columns [first, last) of one line of the old text.
    line = old.count("\n", 0, prefix) + 1
    line_start = old.rfind("\n", 0, prefix) + 1
    first = prefix - line_start + 1
    last = old_stop - line_start + 1
    program = previous.program
    decls = previous.decls
    for pid, decl in enumerate(decls):
        begin_line, begin_column, end_line, end_column = (decl or program).body_span
        if (
            # The character after ``begin`` is unchanged, so ``begin``
            # still reads as a token of its own.
            (begin_line, begin_column + len("begin")) < (line, first)
            and (line, last) <= (end_line, end_column)
        ):
            break
    else:
        return None  # Not strictly inside one statement list.

    def offset(at_line: int, column: int) -> int:  # In the old text.
        return _line_offset(old, at_line, column, line, line_start)

    stop = offset(end_line, end_column + len("end"))
    if end_line == line:
        newline = old.find("\n", stop)
        tail = old[stop:newline if newline >= 0 else len(old)].lstrip(" \t\r")
        if tail and not tail.startswith("#"):
            return None  # What follows ``end`` on the edited line would move.
    reread = reparse_body(source, decl or program, offset, stop + shift)
    if reread is None:
        return None
    body, token_hash, body_span = reread

    # Resolve the new statements in place of the old ones: their call
    # sites take the old ones' ids, which must all be taken.
    proc = previous.procs[pid]
    sites = previous.call_sites
    lo = bisect_left(sites, pid, key=_caller_pid)
    hi = bisect_right(sites, pid, lo=lo, key=_caller_pid)
    analyzer = _Analyzer(program)
    analyzer.call_sites = sites[:lo]
    chain = proc.lexical_chain()
    analyzer.resolve_proc(
        proc, body, [p.scope for p in chain], [p.nested_by_name for p in chain]
    )
    if len(analyzer.call_sites) != hi:
        return None  # Every later call-site id would move.
    call_sites = analyzer.call_sites + sites[hi:]

    # Copy the path from the edited declaration up to the program.
    decls = list(decls)
    if decl is None:
        program = replace(program, body=body, token_hash=token_hash, body_span=body_span)
    else:
        old_decl = decl
        new_decl = replace(decl, body=body, token_hash=token_hash, body_span=body_span)
        decls[pid] = new_decl
        parent = proc.parent
        while parent.parent is not None:
            parent_decl = decls[parent.pid]
            nested = [new_decl if d is old_decl else d for d in parent_decl.nested]
            old_decl, new_decl = parent_decl, replace(parent_decl, nested=nested)
            decls[parent.pid] = new_decl
            parent = parent.parent
        program = replace(
            program, procs=[new_decl if d is old_decl else d for d in program.procs]
        )
    return _version(previous, source, program, decls, call_sites)


def _caller_pid(site: CallSite) -> int:
    return site.caller.pid


def _version(
    previous: ResolvedProgram,
    source: str,
    program: Program,
    decls: List[Optional[ProcDecl]],
    call_sites: List[CallSite],
) -> ResolvedProgram:
    """A new version of ``previous`` on the same symbols, with its own
    ``program``, ``decls`` and ``call_sites``."""
    return ResolvedProgram(
        program=program,
        main=previous.main,
        procs=list(previous.procs),
        variables=list(previous.variables),
        globals=list(previous.globals),
        call_sites=call_sites,
        decls=decls,
        source=source,
    )
