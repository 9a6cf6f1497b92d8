"""The parser's nesting bound: a body nested past ``MAX_NESTING`` ends in
a located ``ParseError``, one within it goes through every later walk.

Each deep input below raised ``RecursionError`` before the bound
existed: the first three in the parser, the long chain in the
resolver (its AST is left-deep).
"""

import threading

import pytest

from repro.cli import main
from repro.core.persist import summary_to_bytes, summary_to_dict
from repro.core.pipeline import analyze_side_effects
from repro.lang.errors import ParseError
from repro.lang.interp import run_program
from repro.lang.parser import MAX_NESTING
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
    summary = analyze_side_effects(deep_nest(141))
    assert summary.resolved.max_nesting_level == 141


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
