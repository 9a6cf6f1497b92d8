"""The parser's nesting bounds: a body nested past ``MAX_NESTING``, or
procedures nested past ``MAX_PROC_NESTING``, ends in a located
``ParseError``; a program within them goes through every later walk.

Each deep input below raised ``RecursionError`` before its bound
existed: the first three in the parser, the long chain in the
resolver (its AST is left-deep), a tower of 1,200 procedures in the
parser.
"""

import hashlib
import threading

import pytest

from repro.cli import main
from repro.core.persist import summary_to_bytes, summary_to_dict
from repro.core.pipeline import analyze_side_effects
from repro.lang.errors import ParseError
from repro.lang.interp import run_program
from repro.lang.parser import MAX_NESTING, MAX_PROC_NESTING
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.server import ServerClient, ServerConfig, ServerError, ServerThread
from repro.workloads.patterns import deep_nest


def _program(body: str) -> str:
    return "program p\n  global x\n  global array a[2]\nbegin\n%s\nend\n" % body


def _nested_ifs(depth: int) -> str:
    return "if x < 1 then\n" * depth + "x := 1\n" + "end\n" * depth


#: name → (a body past the bound, the (line, column) it ends at).
TOO_DEEP = {
    "parentheses": ("x := " + "(" * 3000 + "x" + ")" * 3000, (5, 6 + MAX_NESTING)),
    "unary minus": ("x := " + "-" * 5000 + "x", (5, 6 + MAX_NESTING)),
    # The condition's ``<`` inside the innermost accepted body.
    "nested if": (_nested_ifs(3000), (5 + MAX_NESTING, 6)),
    # The operator that pushes the chain's first term past the bound.
    "plus chain": ("x := " + " + ".join(["x"] * 50000), (5, 6 + 4 * MAX_NESTING + 2)),
}

#: name → a body exactly at the bound.
AT_LIMIT = {
    "parentheses": "x := " + "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "unary minus": "x := " + "-" * MAX_NESTING + "x",
    "not": "x := " + "not " * MAX_NESTING + "x",
    "nested if": _nested_ifs(MAX_NESTING),
    "plus chain": "x := " + " + ".join(["x"] * (MAX_NESTING + 1)),
    "subscripts": "x := " + "a[" * MAX_NESTING + "0" + "]" * MAX_NESTING,
    "parenthesized chains": "x := "
    + "(" * (MAX_NESTING // 2)
    + "x"
    + " + x)" * (MAX_NESTING // 2),
}


def _tower(depth: int, innermost: str = "1") -> str:
    """``depth`` nested parameterless procedures, each calling its
    child; the innermost assigns ``innermost`` to its own local only, so
    no set grows with the depth (``deep_nest`` assigns every level's
    local there, which costs time quadratic in the depth)."""
    lines = ["program tower", "  global g", ""]
    for level in range(1, depth + 1):
        lines.append("%sproc n%d()" % ("  " * level, level))
        lines.append("%s  local v%d" % ("  " * level, level))
    for level in range(depth, 0, -1):
        space = "  " * level
        lines.append("%sbegin" % space)
        if level < depth:
            lines.append("%s  call n%d()" % (space, level + 1))
        else:
            lines.append("%s  v%d := %s" % (space, level, innermost))
        lines.append("%send" % space)
    lines += ["", "begin", "  call n1()", "end", ""]
    return "\n".join(lines)


def _proc_position(level: int):
    """``(line, column)`` of the ``proc`` token of a :func:`_tower`'s
    level."""
    return 2 * level + 2, 2 * level + 1


def _on_a_thread(work) -> None:
    """Run ``work`` on a worker thread, as the daemon runs a solve, and
    raise what it raised."""
    failures = []

    def run():
        try:
            work()
        except BaseException as error:  # Reported on the test's thread.
            failures.append(error)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert failures == []


def _every_walk(source: str) -> None:
    """Parse, resolve, lower, render, pretty-print and interpret."""
    summary = analyze_side_effects(source)
    summary_to_dict(summary)
    summary_to_bytes(summary)
    pretty(summary.resolved.program)
    run_program(summary.resolved, max_steps=10_000)


@pytest.mark.parametrize("name", sorted(TOO_DEEP))
def test_too_deep_is_a_located_parse_error(name):
    body, (line, column) = TOO_DEEP[name]
    with pytest.raises(ParseError) as excinfo:
        analyze_side_effects(_program(body))
    assert "nesting deeper than %d levels" % MAX_NESTING in str(excinfo.value)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


@pytest.mark.parametrize("name", sorted(AT_LIMIT))
def test_at_the_limit_every_walk_succeeds(name):
    _every_walk(_program(AT_LIMIT[name]))


def test_at_the_limit_on_a_thread_under_a_procedure_tower():
    """A tower of 141 nested procedures whose innermost body nests to
    the bound, analyzed on a worker thread, as the daemon does."""
    source = deep_nest(141).replace(
        "g := x\n", "g := " + "(" * MAX_NESTING + "x" + ")" * MAX_NESTING + "\n"
    )
    failures = []

    def work():
        try:
            _every_walk(source)
        except BaseException as error:  # Reported on the test's thread.
            failures.append(error)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert failures == []


def test_deep_procedure_nesting_still_analyzes():
    """The towers the benchmark (nest-80) and these tests use."""
    for depth in (80, 141):
        summary = analyze_side_effects(deep_nest(depth))
        assert summary.resolved.max_nesting_level == depth


def test_procedures_too_deep_are_a_located_parse_error():
    with pytest.raises(ParseError) as excinfo:
        analyze_side_effects(_tower(MAX_PROC_NESTING + 1))
    assert "procedures nested deeper than %d levels" % MAX_PROC_NESTING in str(
        excinfo.value)
    assert (excinfo.value.line, excinfo.value.column) == _proc_position(
        MAX_PROC_NESTING + 1)


def test_a_tower_of_1200_procedures_is_a_parse_error():
    with pytest.raises(ParseError) as excinfo:
        compile_source(_tower(1200))
    assert (excinfo.value.line, excinfo.value.column) == _proc_position(
        MAX_PROC_NESTING + 1)


def test_a_tower_at_both_bounds_goes_through_every_walk():
    """``MAX_PROC_NESTING`` procedures whose innermost body nests
    parentheses, the costliest body per level, to ``MAX_NESTING``: on
    this thread and on a worker thread."""
    source = _tower(MAX_PROC_NESTING, "(" * MAX_NESTING + "1" + ")" * MAX_NESTING)
    _every_walk(source)
    _on_a_thread(lambda: _every_walk(source))
    summary = analyze_side_effects(source)
    assert summary.resolved.max_nesting_level == MAX_PROC_NESTING


def test_procedures_too_deep_end_in_one_cli_error_line(tmp_path, capsys):
    path = tmp_path / "tower.ck"
    path.write_text(_tower(MAX_PROC_NESTING + 1))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    line, column = _proc_position(MAX_PROC_NESTING + 1)
    assert lines == ["error: line %d, col %d: procedures nested deeper than %d levels"
                     % (line, column, MAX_PROC_NESTING)]
    assert captured.out == ""


def test_procedures_too_deep_are_an_analysis_error_for_the_daemon():
    with ServerThread(ServerConfig(port=0)) as handle:
        with ServerClient(port=handle.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.analyze(_tower(MAX_PROC_NESTING + 1), session="s")
            assert excinfo.value.code == "analysis_error"
            assert "procedures nested deeper than" in str(excinfo.value)
            opened = client.analyze(_tower(MAX_PROC_NESTING), session="s")
            assert opened["num_procs"] == MAX_PROC_NESTING + 1


#: sha256 of ``deep_nest(depth)``'s text as the recursive generator
#: wrote it; nest-80's recorded benchmark digests depend on depth 80.
DEEP_NEST_SHA256 = {
    1: "9764c5cad77cd6e9c765143890d1ead531fd4ec4f9e78202b2012dd352d4ff91",
    2: "c45ea8fe1b87c134792223248f40ee3c5382d89f1754bc3a1892092b12bb5a51",
    3: "81e0f60aeee0e0056ee49a23a97c60a877d88d41f48736776875b23b4b4ef13b",
    80: "7b507b37f6260013af78e4b42f20aa2c60321c761be0a28949582186e9807d37",
    141: "230432820c700b374028e5c347f44ba2ba867603340d3ab88eba87f7a68d8c92",
}


@pytest.mark.parametrize("depth", sorted(DEEP_NEST_SHA256))
def test_deep_nest_text_is_pinned(depth):
    text = deep_nest(depth).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == DEEP_NEST_SHA256[depth]


def test_deep_nest_generates_past_the_recursion_limit():
    """The generator builds its lines in loops: 2,000 levels, twice the
    default recursion limit, generate (and are past the parser's bound)."""
    lines = deep_nest(2000).splitlines()
    assert lines[-5] == "  end" and lines[3 + 2 * 1999] == " " * 4000 + "proc n2000(x)"


def test_a_splice_ends_in_the_same_error():
    previous = compile_source(_program("x := 1"))
    for body, (line, column) in TOO_DEEP.values():
        with pytest.raises(ParseError) as excinfo:
            compile_source(_program(body), previous=previous)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)


def test_cli_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.ck"
    path.write_text(_program(TOO_DEEP["plus chain"][0]))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 5, col ")
    assert "nesting deeper than" in lines[0]
    assert captured.out == ""


def test_daemon_replies_analysis_error():
    with ServerThread(ServerConfig(port=0)) as handle:
        with ServerClient(port=handle.port) as client:
            for body, _position in TOO_DEEP.values():
                with pytest.raises(ServerError) as excinfo:
                    client.analyze(_program(body))
                assert excinfo.value.code == "analysis_error"
                assert "nesting deeper than" in str(excinfo.value)
