"""The front end's donor mode: ``compile_source(source, previous=...)``.

The oracle is the full compile.  A seeded fuzz edits the *text* of
generated programs (nested ones and main's body included) and, after
every edit, holds the program compiled against the previous version to
``compile_source(source)``: the pretty-printed program, every
fingerprint, the variable, procedure and call-site tables, the
bindings and every node's position — or the same error.  The chain
continues from the spliced version, the incremental summary built on
it writes a scratch analysis's bytes, and the previous version reads
exactly as it did before.

Edits that stay inside one statement list and move no line and no
call-site id must splice (the new program shares its symbols with the
old); every other edit must compile in full.

An update of a spliced version whose edit moves no input of the
equations takes the engine's early cutoff: it lowers, condenses and
solves nothing, writes no mask, leaves every earlier version
collectable, and its index section is a scratch index's, byte for
byte.  Edits that move an input, and laned sessions, take the engine's
path.
"""

from __future__ import annotations

import gc
import random
import re
import weakref

import pytest

import repro.core.arena as arena_module
import repro.core.binio as binio
import repro.core.depindex as depindex
import repro.core.incremental as engine
import repro.core.persist as persist
import repro.graphs.scc as scc
from repro.core.arena import ProgramArena
from repro.core.depindex import (
    build_dependency_index,
    fingerprint_digest,
    index_section,
    index_to_bytes,
)
from repro.core.incremental import incremental_update
from repro.core.persist import SECTION_DEP_INDEX, summary_crc32, summary_to_bytes
from repro.core.pipeline import analyze_side_effects
from repro.lang.errors import CkError
from repro.lang.nodes import (
    Assign,
    BinOp,
    CallStmt,
    For,
    If,
    IntLit,
    Print,
    Read,
    Return,
    UnOp,
    VarRef,
    While,
    walk_expressions,
    walk_statements,
)
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.server import ServerClient, ServerConfig, ServerError, ServerThread
from repro.workloads.generator import GeneratorConfig, generate_program

CONFIGS = [
    GeneratorConfig(seed=31, num_procs=12, num_globals=5),
    GeneratorConfig(seed=32, num_procs=16, num_globals=6, max_depth=3),
    GeneratorConfig(seed=33, num_procs=24, num_globals=8, max_depth=3),
]
CONFIG_IDS = ["flat", "nested-a", "nested-b"]
STEPS = 40

_OPERATORS = (" + ", " - ", " * ", " < ", " > ")


# -- what a version is made of ------------------------------------------------


def _node(node):
    """A node as plain values: kind, fields, position, symbol uid,
    call-site id and callee pid."""
    if isinstance(node, IntLit):
        return ("int", node.value, node.line, node.column)
    if isinstance(node, VarRef):
        return ("ref", node.name, [_node(i) for i in node.indices],
                node.line, node.column, node.symbol.uid)
    if isinstance(node, BinOp):
        return ("bin", node.op, _node(node.left), _node(node.right), node.line, node.column)
    if isinstance(node, UnOp):
        return ("un", node.op, _node(node.operand), node.line, node.column)
    if isinstance(node, Assign):
        return ("assign", _node(node.target), _node(node.value), node.line, node.column)
    if isinstance(node, CallStmt):
        return ("call", node.callee, [_node(a) for a in node.args], node.line,
                node.column, node.site_id, node.proc.pid)
    if isinstance(node, If):
        return ("if", _node(node.cond), _body(node.then_body), _body(node.else_body),
                node.line, node.column)
    if isinstance(node, While):
        return ("while", _node(node.cond), _body(node.body), node.line, node.column)
    if isinstance(node, For):
        return ("for", _node(node.var), _node(node.lo), _node(node.hi), _body(node.body),
                node.line, node.column)
    if isinstance(node, Read):
        return ("read", _node(node.target), node.line, node.column)
    if isinstance(node, Print):
        return ("print", [_node(v) for v in node.values], node.line, node.column)
    assert isinstance(node, Return)
    return ("return", node.line, node.column)


def _body(statements):
    return [_node(stmt) for stmt in statements]


def _tables(resolved):
    """Everything the equality criterion names, as plain values."""
    return {
        "pretty": pretty(resolved.program),
        "fingerprints": [fingerprint_digest(resolved, p) for p in resolved.procs],
        "procs": [(p.pid, p.qualified_name, p.level, p.parent.pid if p.parent else -1,
                   [v.uid for v in p.formals], [v.uid for v in p.locals])
                  for p in resolved.procs],
        "variables": [(v.uid, v.qualified_name, v.kind, v.position, v.dims, v.line,
                       v.column) for v in resolved.variables],
        "globals": [v.uid for v in resolved.globals],
        "sites": [(s.site_id, s.caller.pid, s.callee.pid, s.line, s.stmt.site_id,
                   [(b.position, b.by_reference, b.base.uid if b.base else -1,
                     b.subscripted) for b in s.bindings])
                  for s in resolved.call_sites],
        "bodies": [_body(body) for body in _bodies(resolved)],
        "decls": [None if d is None else (d.name, d.line, d.column, d.body_span)
                  for d in resolved.decls],
        "main_span": resolved.program.body_span,
        "source": resolved.source,
    }


def _bodies(resolved):
    return [resolved.body_of(proc) for proc in resolved.procs]


def _written(summary) -> bytes:
    """``summary``'s container and index, written afresh."""
    table, body = persist._summary_head(summary)
    summary.dep_index = None
    return table + body + index_section(summary)


def _indexed_bytes(summary) -> bytes:
    return summary_to_bytes(summary, sections={SECTION_DEP_INDEX: index_section(summary)})


def _error(thunk):
    try:
        thunk()
    except CkError as error:
        return (type(error), error.message, error.line, error.column)
    return None


def _spliced(new, previous) -> bool:
    return new.main is previous.main


# -- text edits ---------------------------------------------------------------


class TextEditor:
    """Seeded edits of one version's text, located through its AST."""

    def __init__(self, resolved, rng: random.Random):
        self.resolved = resolved
        self.rng = rng
        self.lines = resolved.source.split("\n")

    def text(self) -> str:
        return "\n".join(self.lines)

    def body_lines(self, pid=None):
        """1-based line numbers strictly between a body's ``begin`` and
        ``end`` lines (for ``pid``, or every procedure)."""
        numbers = []
        for index, decl in enumerate(self.resolved.decls):
            if pid is not None and index != pid:
                continue
            begin_line, _bc, end_line, _ec = (decl or self.resolved.program).body_span
            numbers.extend(range(begin_line + 1, end_line))
        return numbers

    def replace(self, line: int, column: int, old: str, new: str) -> None:
        text = self.lines[line - 1]
        assert text[column - 1:column - 1 + len(old)] == old, (text, column, old)
        self.lines[line - 1] = text[:column - 1] + new + text[column - 1 + len(old):]

    def _refs(self, pid):
        """Unsubscripted references to scalars in ``pid``'s body."""
        refs = []
        for stmt in walk_statements(self.resolved.body_of(self.resolved.procs[pid])):
            for expr in walk_expressions(stmt):
                if isinstance(expr, VarRef) and not expr.indices and not expr.symbol.is_array:
                    refs.append(expr)
        return refs

    def _statement_pids(self):
        return [pid for pid, body in enumerate(_bodies(self.resolved)) if body]

    # Edits that must splice; each returns a label or None if it found
    # nothing to edit.

    def literal(self, pid=None):
        spots = [(n, m) for n in self.body_lines(pid)
                 for m in re.finditer(r"(?<![\w])\d+(?![\w])", self.lines[n - 1])]
        if not spots:
            return None
        number, match = self.rng.choice(spots)
        value = (int(match.group()) + self.rng.randint(1, 9)) % 10
        self.replace(number, match.start() + 1, match.group(), str(value))
        return "literal"

    def operator(self):
        spots = [(n, m.start(), m.group()) for n in self.body_lines()
                 for m in re.finditer("|".join(re.escape(op) for op in _OPERATORS),
                                      self.lines[n - 1])]
        if not spots:
            return None
        number, start, op = self.rng.choice(spots)
        self.replace(number, start + 1, op, self.rng.choice([o for o in _OPERATORS if o != op]))
        return "operator"

    def identifier(self):
        pid = self.rng.choice(self._statement_pids())
        refs = self._refs(pid)
        if not refs:
            return None
        ref = self.rng.choice(refs)
        visible = self.resolved.visible_variables(self.resolved.procs[pid])
        names = sorted(name for name, var in visible.items()
                       if not var.is_array and name != ref.name)
        if not names:
            return None
        self.replace(ref.line, ref.column, ref.name, self.rng.choice(names))
        return "identifier"

    def argument_swap(self):
        calls = [stmt for body in _bodies(self.resolved) for stmt in walk_statements(body)
                 if isinstance(stmt, CallStmt)
                 and len({a.name for a in stmt.args if isinstance(a, VarRef) and not a.indices}) > 1]
        if not calls:
            return None
        call = self.rng.choice(calls)
        first, second = sorted(
            self.rng.sample([a for a in call.args if isinstance(a, VarRef) and not a.indices], 2),
            key=lambda a: a.column,
        )
        if first.name == second.name:
            return None
        # Right to left, so the first column stays put.
        self.replace(second.line, second.column, second.name, first.name)
        self.replace(first.line, first.column, first.name, second.name)
        return "argument swap"

    def comment(self):
        number = self.rng.choice(self.body_lines())
        text = self.lines[number - 1]
        if "#" in text:
            self.lines[number - 1] = text[:text.index("#")].rstrip()
            return "comment removed"
        self.lines[number - 1] = text + "  # note %d" % self.rng.randrange(100)
        return "comment added"

    def whitespace(self):
        number = self.rng.choice(self.body_lines())
        text = self.lines[number - 1]
        spaces = [m.start() for m in re.finditer(" ", text.strip()) if m]
        if not spaces:
            return None
        offset = len(text) - len(text.lstrip()) + self.rng.choice(spaces)
        self.lines[number - 1] = text[:offset] + "   " + text[offset:]
        return "whitespace"

    # Edits that must compile in full.

    def newline_added(self):
        number = self.rng.choice(self.body_lines())
        text = self.lines[number - 1]
        cut = text.find(" := ")
        if cut < 0:
            return None
        self.lines[number - 1:number] = [text[:cut], "      " + text[cut + 1:]]
        return "newline added"

    def newline_removed(self):
        numbers = [n for n in self.body_lines() if n + 1 in self.body_lines()]
        if not numbers:
            return None
        number = self.rng.choice(numbers)
        self.lines[number - 1:number + 1] = [
            self.lines[number - 1] + " " + self.lines[number].strip()
        ]
        return "newline removed"

    def call_added(self):
        calls = [n for n in self.body_lines()
                 if self.lines[n - 1].strip().startswith("call ")]
        if not calls:
            return None
        number = self.rng.choice(calls)
        self.lines[number - 1] += "; " + self.lines[number - 1].strip()
        return "call added"

    def declaration(self):
        globals_ = [n for n, text in enumerate(self.lines, 1)
                    if text.startswith("  global ")]
        number = self.rng.choice(globals_)
        self.lines[number - 1] += ", zz%d" % self.rng.randrange(1000)
        return "declaration"

    def two_bodies(self):
        """One literal in each of two statement lists: the window spans
        the text between them."""
        pids = [pid for pid in range(self.resolved.num_procs)
                if any(re.search(r"(?<![\w])\d+(?![\w])", self.lines[n - 1])
                       for n in self.body_lines(pid))]
        if len(pids) < 2:
            return None
        for pid in self.rng.sample(pids, 2):
            self.literal(pid)
        return "two bodies"

    def touches_end(self):
        number = self.rng.choice(
            [(d or self.resolved.program).body_span[2] for d in self.resolved.decls]
        )
        self.lines[number - 1] += ";  # after end"
        return "touches end"

    def touches_begin(self):
        begin_line, begin_column = self.rng.choice(
            [(d or self.resolved.program).body_span[:2] for d in self.resolved.decls]
        )
        self.replace(begin_line, begin_column, "begin", " begin")
        return "touches begin"

    def _begin(self):
        return self.rng.choice(
            [(d or self.resolved.program).body_span[:2] for d in self.resolved.decls]
        )

    def space_after_begin(self):
        """The edit starts at the character right after ``begin``."""
        begin_line, begin_column = self._begin()
        self.replace(begin_line, begin_column, "begin", "begin ")
        return "space after begin"

    # Edits that break.

    def lex_error(self):
        number = self.rng.choice(self.body_lines())
        self.lines[number - 1] += " @"
        return "lex error"

    def parse_error(self):
        number = self.rng.choice(self.body_lines())
        self.lines[number - 1] += " :="
        return "parse error"

    def letter_after_begin(self):
        """``begin`` becomes an identifier (``beginx``)."""
        begin_line, begin_column = self._begin()
        self.replace(begin_line, begin_column, "begin", "beginx")
        return "letter after begin"

    def resolve_error(self):
        pid = self.rng.choice(self._statement_pids())
        refs = self._refs(pid)
        if not refs:
            return None
        ref = self.rng.choice(refs)
        self.replace(ref.line, ref.column, ref.name, "undeclared_zz")
        return "resolve error"


SPLICING = ("literal", "operator", "identifier", "argument_swap", "comment", "whitespace")
FULL = ("newline_added", "newline_removed", "call_added", "declaration", "two_bodies",
        "touches_end", "touches_begin", "space_after_begin")
BREAKING = ("lex_error", "parse_error", "letter_after_begin", "resolve_error")


def _check_step(previous, previous_summary, source, must_splice):
    """Compile ``source`` against ``previous``; returns the new version
    and summary (or None, None for an error)."""
    before = _tables(previous)
    before_bytes = _written(previous_summary)
    error = _error(lambda: compile_source(source, previous=previous))
    full_error = _error(lambda: compile_source(source))
    assert error == full_error
    if error is None:
        new = compile_source(source, previous=previous)
        full = compile_source(source)
        assert _tables(new) == _tables(full)
        if must_splice is not None:
            assert _spliced(new, previous) is must_splice
        summary, _stats = incremental_update(previous_summary, new)
        scratch = analyze_side_effects(source)
        assert _indexed_bytes(summary) == _indexed_bytes(scratch)
        assert index_section(summary) == index_to_bytes(
            build_dependency_index(scratch), summary_crc32(scratch))
    else:
        new = summary = None
    assert _tables(previous) == before
    assert _written(previous_summary) == before_bytes
    return new, summary


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_text_edit_fuzz(config):
    rng = random.Random(config.seed)
    source = pretty(generate_program(config))
    resolved = compile_source(source)
    summary = analyze_side_effects(resolved)
    seen = {"splice": 0, "full": 0, "error": 0}
    for step in range(STEPS):
        kind = rng.choice(["splice"] * 3 + ["full", "error"])
        names = {"splice": SPLICING, "full": FULL, "error": BREAKING}[kind]
        editor = TextEditor(resolved, rng)
        label = getattr(editor, rng.choice(names))()
        if label is None or editor.text() == source:
            continue
        new, new_summary = _check_step(
            resolved, summary, editor.text(),
            {"splice": True, "full": False, "error": None}[kind],
        )
        if kind == "error":
            assert new is None, label
        seen[kind] += 1
        if new is not None:
            resolved, summary, source = new, new_summary, editor.text()
    assert seen["splice"] >= STEPS // 3 and seen["full"] and seen["error"]


@pytest.mark.parametrize("name", SPLICING + FULL + BREAKING)
def test_each_edit_kind(name):
    """Every kind of edit once, on a nested program, from a version
    that was itself spliced."""
    source = pretty(generate_program(CONFIGS[1]))
    full = compile_source(source)
    editor = TextEditor(full, random.Random(11))
    assert editor.literal() == "literal"
    previous = compile_source(editor.text(), previous=full)
    assert _spliced(previous, full)
    summary = analyze_side_effects(previous)
    for attempt in range(20):
        editor = TextEditor(previous, random.Random(attempt))
        if getattr(editor, name)() is not None and editor.text() != previous.source:
            break
    else:
        pytest.fail("no %s edit found" % name)
    must_splice = True if name in SPLICING else False if name in FULL else None
    new, _summary = _check_step(previous, summary, editor.text(), must_splice)
    assert (new is None) is (name in BREAKING)


def test_main_body_edit_splices():
    source = pretty(generate_program(CONFIGS[1]))
    previous = compile_source(source)
    editor = TextEditor(previous, random.Random(5))
    number = editor.body_lines(pid=0)[0]
    editor.lines[number - 1] += "  # main"
    new = compile_source(editor.text(), previous=previous)
    assert _spliced(new, previous)
    assert new.body_of(new.main) is not previous.body_of(previous.main)
    assert _tables(new) == _tables(compile_source(editor.text()))


def test_a_literal_edit_shares_every_other_procedure():
    source = pretty(generate_program(CONFIGS[2]))
    previous = compile_source(source)
    editor = TextEditor(previous, random.Random(9))
    assert editor.literal() == "literal"
    line = next(n for n, (a, b) in enumerate(zip(source.split("\n"), editor.lines), 1)
                if a != b)
    edited = next(pid for pid in range(previous.num_procs) if line in editor.body_lines(pid))
    new = compile_source(editor.text(), previous=previous)
    for pid in range(previous.num_procs):
        shared = new.body_of(new.procs[pid]) is previous.body_of(previous.procs[pid])
        assert shared is (pid != edited), pid
        assert new.procs[pid] is previous.procs[pid]
    assert all(a is b for a, b in zip(new.variables, previous.variables))
    for old_site, new_site in zip(previous.call_sites, new.call_sites):
        assert (new_site is old_site) is (old_site.caller.pid != edited)
    assert new.program is not previous.program
    assert new.decls[edited] is not previous.decls[edited]


def test_an_identical_source_shares_everything():
    source = pretty(generate_program(CONFIGS[0]))
    previous = compile_source(source)
    new = compile_source(source, previous=previous)
    assert new is not previous and _spliced(new, previous)
    assert all(a is b for a, b in zip(_bodies(new), _bodies(previous)))
    assert _tables(new) == _tables(previous)


def test_a_laned_daemon_session_splices():
    lanes = ("sections", "refalias")
    source = pretty(generate_program(CONFIGS[1]))
    editor = TextEditor(compile_source(source), random.Random(3))
    assert editor.literal() == "literal"
    edited = editor.text()
    with ServerThread(ServerConfig(port=0)) as handle:
        with ServerClient(port=handle.port) as client:
            client.analyze(source, session="s", lanes=list(lanes))
            reply = client.update("s", edited)
            assert client.stats()["update_front_end"] == {"spliced": 1, "full": 0}
        with ServerClient(port=handle.port) as fresh:
            scratch = fresh.analyze(edited, lanes=list(lanes))
    assert reply["summary"] == scratch["summary"]
    assert reply["lanes"] == scratch["lanes"]


ONE_LINE = """program t
  global g
  proc a() begin g := 1 end proc b() begin g := 2 end  # two on a line
begin call a(); call b() end
"""


def test_what_follows_end_on_the_edited_line_would_move():
    """Editing ``a`` shifts ``b``'s columns: a full compile.  Editing
    ``b``, whose ``end`` only a comment follows, splices."""
    previous = compile_source(ONE_LINE)
    for old, new, splices in (("g := 1", "g := 10", False), ("g := 2", "g := 20", True)):
        source = ONE_LINE.replace(old, new)
        summary = analyze_side_effects(previous)
        spliced, _summary = _check_step(previous, summary, source, splices)
        assert spliced is not None


ONE_LINE_BODIES = """program t
  global g
  proc a()
    proc inner() begin g := 1 end
  begin call inner() end
begin g := 2; call a() end
"""

BEGIN_LINES = """program t
  global g
  proc a()
    proc inner()
    begin
      g := 1
    end
  begin
    call inner()
  end
begin
  g := 2; call a()
end
"""

RIGHT_AFTER_BEGIN = {
    "nested-space-deleted": (ONE_LINE_BODIES, "begin g := 1", "beging := 1"),
    "main-space-deleted": (ONE_LINE_BODIES, "begin g := 2", "beging := 2"),
    "nested-letter-added": (BEGIN_LINES, "    begin\n      g", "    beginx\n      g"),
    "main-letter-added": (BEGIN_LINES, "begin\n  g", "beginx\n  g"),
}


@pytest.mark.parametrize("case", list(RIGHT_AFTER_BEGIN))
def test_an_edit_right_after_begin_ends_in_the_full_compiles_error(case):
    """An edit whose first changed character follows ``begin`` can make
    ``begin`` part of an identifier: the full compile's error, in the
    library and from the daemon."""
    source, old, new = RIGHT_AFTER_BEGIN[case]
    assert source.count(old) == 1
    edited = source.replace(old, new)
    previous = compile_source(source)
    assert _check_step(previous, analyze_side_effects(previous), edited, None) == (None, None)
    with ServerThread(ServerConfig(port=0)) as handle:
        with ServerClient(port=handle.port) as client:
            client.analyze(source, session="s")
            with pytest.raises(ServerError) as excinfo:
                client.update("s", edited)
    assert excinfo.value.code == "analysis_error"
    assert str(_error(lambda: compile_source(edited))[1]) in str(excinfo.value)


# -- the early cutoff ---------------------------------------------------------


def _count_cutoffs(monkeypatch):
    """The programs of the updates that take the early cutoff, which
    rebases the previous version's arena exactly when it fires."""
    fired = []
    rebase = engine.rebase_arena

    def counting(arena, resolved, moved_sites):
        fired.append(resolved)
        return rebase(arena, resolved, moved_sites)

    monkeypatch.setattr(engine, "rebase_arena", counting)
    return fired


def _refuse_the_engines_path(monkeypatch):
    """Make every lowering, condensation, alias and DMOD solve and mask
    write raise."""

    def refuse(name):
        def refused(*_args, **_kwargs):
            raise AssertionError("%s ran" % name)

        return refused

    for module, name in ((engine, "patch_arena"), (engine, "compute_aliases"),
                         (engine, "compute_dmod_fused"), (arena_module, "tarjan_scc_csr"),
                         (scc, "tarjan_scc_csr"), (binio, "write_mask_adaptive"),
                         (depindex, "write_mask_adaptive"),
                         (persist, "write_mask_adaptive")):
        monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(ProgramArena, "_lower", refuse("ProgramArena._lower"))


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_a_literal_edit_takes_the_early_cutoff(config, monkeypatch):
    """A literal edit moves no input of the equations: the spliced
    compile, the update, the carry and the index section lower nothing,
    condense nothing, solve no alias or DMOD set and write no mask, and
    what they return is a scratch analysis's container and index.  The
    rebased arena, universe, local analysis and graphs are bound to the
    new program, and so is every call-site record the graphs hold."""
    rng = random.Random(config.seed)
    resolved = compile_source(pretty(generate_program(config)))
    summary = analyze_side_effects(resolved)
    _indexed_bytes(summary)
    cutoffs = _count_cutoffs(monkeypatch)
    for step in range(8):
        editor = TextEditor(resolved, rng)
        assert editor.literal() == "literal"
        with monkeypatch.context() as refused:
            _refuse_the_engines_path(refused)
            new = compile_source(editor.text(), previous=resolved)
            updated, stats = incremental_update(summary, new)
            assert persist.carry(summary, updated)
            section = index_section(updated)
        assert _spliced(new, resolved) and cutoffs[-1] is new, step
        assert (stats.region_procs, stats.affected_sccs, stats.sites_reused) == (
            0, 0, stats.sites_total)
        scratch = analyze_side_effects(editor.text())
        assert section == index_to_bytes(
            build_dependency_index(scratch), summary_crc32(scratch)), step
        assert summary_to_bytes(updated) == summary_to_bytes(scratch), step
        arena = arena_module.peek_arena(new)
        bound = (arena, arena.universe, arena.local, arena.call_graph, arena.binding_graph)
        assert all(obj.resolved is new for obj in bound), step
        sites = [site for row in arena.call_graph.edge_sites for site in row]
        sites += [edge.site for edge in arena.binding_graph.edges]
        assert all(site is new.call_sites[site.site_id] for site in sites), step
        resolved, summary = new, updated
    assert len(cutoffs) == 8


def test_a_spliced_chain_leaves_the_first_version_collectable(monkeypatch):
    """Thirty cutoff updates share their predecessors' rows and bytes
    but hold none of their programs, summaries or indexes."""
    rng = random.Random(7)
    resolved = compile_source(pretty(generate_program(CONFIGS[2])))
    summary = analyze_side_effects(resolved)
    _indexed_bytes(summary)
    first = [weakref.ref(summary), weakref.ref(summary.dep_index), weakref.ref(resolved)]
    cutoffs = _count_cutoffs(monkeypatch)
    for _step in range(30):
        editor = TextEditor(resolved, rng)
        editor.literal()
        new = compile_source(editor.text(), previous=resolved)
        updated, _stats = incremental_update(summary, new)
        assert persist.carry(summary, updated)
        _indexed_bytes(updated)
        resolved, summary = new, updated
    assert len(cutoffs) == 30
    del cutoffs[:]
    gc.collect()
    assert [ref() for ref in first] == [None, None, None]


#: A nested program; each edit below splices and moves one input.
MOVING = """program t
  global g, h
  proc p(x, y)
    proc inner()
    begin
      g := 1
    end
  begin
    x := g + h
    call q(x, y)
    call r(g + 1)
    call inner()
  end
  proc q(a, b)
  begin
    a := 3
  end
  proc r(c)
  begin
    c := 4
  end
begin
  call p(g, h)
end
"""

MOVING_EDITS = {
    # p's IMOD trades x for y.
    "identifier": ("    x := g + h\n", "    y := g + h\n"),
    # q's first formal is bound to y, not x.
    "argument-swap": ("call q(x, y)", "call q(y, x)"),
    # inner's IMOD, and so p's extended IMOD, trades g for h.
    "nested": ("      g := 1\n", "      h := 1\n"),
    # The call's LUSE trades g for h; p's IUSE keeps both.
    "value-argument": ("call r(g + 1)", "call r(h + 1)"),
}


@pytest.mark.parametrize("name", sorted(MOVING_EDITS))
def test_an_edit_that_moves_an_input_takes_the_engines_path(name, monkeypatch):
    old, new_text = MOVING_EDITS[name]
    assert MOVING.count(old) == 1
    edited = MOVING.replace(old, new_text)
    previous = compile_source(MOVING)
    summary = analyze_side_effects(previous)
    cutoffs = _count_cutoffs(monkeypatch)
    new = compile_source(edited, previous=previous)
    assert _spliced(new, previous)
    updated, _stats = incremental_update(summary, new)
    assert cutoffs == []
    scratch = analyze_side_effects(edited)
    assert _indexed_bytes(updated) == _indexed_bytes(scratch)
    assert summary_to_bytes(scratch) != summary_to_bytes(analyze_side_effects(MOVING))


def test_a_hint_that_is_an_iterator_is_read_once(monkeypatch):
    """A ``dirty_hint`` given as a generator drives both the cutoff's
    check and, when the cutoff declines, the engine's path: the edited
    procedure still counts as dirty there."""
    old, new_text = MOVING_EDITS["identifier"]
    edited = MOVING.replace(old, new_text)
    previous = compile_source(MOVING)
    summary = analyze_side_effects(previous)
    cutoffs = _count_cutoffs(monkeypatch)
    new = compile_source(edited, previous=previous)
    updated, stats = incremental_update(summary, new, dirty_hint=(name for name in ["p"]))
    assert cutoffs == []
    assert stats.dirty_procs == ["p"]
    assert _indexed_bytes(updated) == _indexed_bytes(analyze_side_effects(edited))


def test_a_laned_session_takes_the_engines_path(monkeypatch):
    """A literal edit of a laned session's source is solved on the
    engine's path; the same edit of a lane-less session takes the
    cutoff.  Both answer a scratch analysis's summary."""
    lanes = ["sections", "refalias"]
    source = pretty(generate_program(CONFIGS[1]))
    editor = TextEditor(compile_source(source), random.Random(3))
    assert editor.literal() == "literal"
    edited = editor.text()
    cutoffs = _count_cutoffs(monkeypatch)
    with ServerThread(ServerConfig(port=0)) as handle:
        with ServerClient(port=handle.port) as client:
            client.analyze(source, session="laned", lanes=lanes)
            laned = client.update("laned", edited)
            assert cutoffs == []
            client.analyze(source, session="plain")
            plain = client.update("plain", edited)
            assert len(cutoffs) == 1
            assert client.stats()["update_front_end"] == {"spliced": 2, "full": 0}
        with ServerClient(port=handle.port) as fresh:
            scratch = fresh.analyze(edited, lanes=lanes)
    assert laned["summary"] == plain["summary"] == scratch["summary"]
    assert laned["lanes"] == scratch["lanes"]
