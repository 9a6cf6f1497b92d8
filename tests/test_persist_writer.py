"""Decode oracle for the v5 summary writer.

``summary_to_bytes`` writes the container straight from the solution
masks, as the paper decomposes them: it never lists a set's names, and
each call site's sets are XOR deltas against its callee's G row and its
own D set.  ``decode_summary_container`` must expand every such
container back to exactly ``summary_to_dict``'s payload — the second,
independent route from the masks to names — key order included, with
exactly the trailer sections asked for.  It is held to that on every
shape that can move the variable table or a delta's base: the
30-program sweep, the corpus, deep nesting, incremental summaries over
spliced universes, every trailer combination, the analysis server's
state file, empty sets, programs without call sites, a USE-only
summary, and names that collide with payload keys, procedure names or
each other.

What :func:`~repro.core.persist.carry` hands across an update is pinned
here too: it carries exactly when the two versions' containers are
byte-identical, a procedure named after the program included; after
every edit the payload and container equal a scratch render's; an edit
that moves no set gets the predecessor's payload and container body; the
body is written once per summary, whichever of writing and rendering
comes first; no chain of predecessors stays alive; and the payload's
readers leave the shared lists alone.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import json
import random
import re
import weakref

import pytest

import repro.core.persist as persist
from repro.core.depindex import index_section
from repro.core.incremental import incremental_update
from repro.core.persist import (
    BINARY_FORMAT_VERSION,
    SECTION_DEP_INDEX,
    SECTION_RESULT_META,
    SECTION_SESSION_META,
    decode_summary_container,
    decode_summary_payload,
    summary_to_bytes,
    summary_to_dict,
)
from repro.core.pipeline import analyze_side_effects, result_meta
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.nodes import Assign, IntLit, VarRef
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.lanes.driver import solve_lanes
from repro.workloads.generator import (
    GeneratorConfig,
    generate_program,
    generate_resolved,
)
from repro.workloads import patterns
from repro.workloads.patterns import deep_nest
from tests.test_differential import CONFIGS, _config_id
from tests.test_incremental_fuzz import FUZZ_CASES, EditFuzzer, _walk_bodies

#: Every name here is also a payload key, the program's name, a
#: procedure's name or a formal's name; ``level`` is both the program
#: (so the main procedure's qualified name) and a procedure, so the
#: payload's procedure dicts hold one entry for the two.
COLLISIONS = """
program level
  global line, caller, gmod, p, procedures, aliases, f0
  global g1, g2, g3, g4, g5, g6, g7, g8, g9
  proc p(line, caller)
  begin
    line := caller
    gmod := line
    call q(aliases, f0)
  end
  proc q(gmod, procedures)
    proc inner(p)
    begin
      p := gmod
      g9 := p
    end
  begin
    gmod := procedures
    call inner(procedures)
    call inner(g1)
  end
  proc level(f0)
  begin
    f0 := 1
    g2 := g3
  end
begin
  g1 := 1
  g2 := 2
  g3 := 3
  g4 := 4
  g5 := 5
  g6 := 6
  g7 := 7
  g8 := 8
  g9 := 9
  line := 1
  caller := 1
  p := 1
  procedures := 1
  aliases := 1
  call p(g4, g5)
  call level(line)
  call q(caller, caller)
end
"""

#: No call site, and every set empty.
NO_CALLS = """
program quiet
  global g
  proc p(x)
  begin
  end
begin
end
"""


def assert_decodes_to(blob: bytes, payload, sections=None) -> None:
    """``blob`` is a v5 container holding ``payload``, key order
    included, and exactly ``sections``."""
    assert blob[4] == BINARY_FORMAT_VERSION
    decoded, found = decode_summary_container(blob)
    assert decoded == payload
    assert json.dumps(decoded) == json.dumps(payload)
    assert found == (sections or {})


def assert_writer_matches(summary) -> bytes:
    blob = summary_to_bytes(summary)
    assert_decodes_to(blob, summary_to_dict(summary))
    return blob


def with_index(sections=None, summary=None):
    """``sections`` (copied) plus ``summary``'s dependency index section,
    as the analysis server writes a state file."""
    sections = dict(sections or {})
    sections[SECTION_DEP_INDEX] = index_section(summary)
    return sections


#: SHA-256 of what ``summary_to_bytes`` wrote, without and with the
#: index section, for the flat 1000-procedure program of each seed.
#: The first was recorded when its R lists were still written by the
#: generic v3/v4 value encoder: the v5 bytes may not move.  The second
#: was recorded when the index moved to format 4; it moves only with
#: the index format, since the container with the index is the plain
#: one up to the trailer.
PINNED_BYTES = {
    0: (
        "501514dbfb36d520649eed613a6bae46e199503b33112766ccc8dc9dd309d3b8",
        "4705ec7fd07954482277ee2af61ec98e6c56f8921023ccbff9058a8a2d413d19",
    ),
    7: (
        "a1f32e277e574d05fb41391eca8115e0f4ecf35f82d46842625197d90cca39c9",
        "8d6f7d9853195b5da0611cd0bb96af8710d5d2c6bec17f5afca5c7113b944942",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_BYTES))
def test_bytes_are_pinned(seed):
    source = pretty(generate_program(
        GeneratorConfig(seed=seed, num_procs=1000, num_globals=200)))
    summary = analyze_side_effects(source)
    plain = summary_to_bytes(summary)
    indexed = summary_to_bytes(summary, sections=with_index(summary=summary))
    # Identical up to the trailer, whose section count is the plain
    # container's last byte.
    assert plain[-1] == 0
    assert indexed[: len(plain) - 1] == plain[:-1]
    found = tuple(hashlib.sha256(blob).hexdigest() for blob in (plain, indexed))
    assert found == PINNED_BYTES[seed]


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_sweep(config):
    assert_writer_matches(analyze_side_effects(generate_resolved(config)))


def test_corpus(corpus_programs):
    for resolved in corpus_programs.values():
        assert_writer_matches(analyze_side_effects(resolved))


@pytest.mark.parametrize("depth", [1, 2, 5, 13, 40])
def test_deep_nest(depth):
    assert_writer_matches(analyze_side_effects(deep_nest(depth)))


@pytest.mark.parametrize(
    "config, seed", FUZZ_CASES[:2] + FUZZ_CASES[3:],
    ids=["small-a", "small-b", "nested"],
)
def test_incremental_steps(config, seed, monkeypatch):
    """Chained incremental summaries, whose universes are spliced from
    the previous version's masks whenever the edit keeps every name."""
    spliced = []
    splice = VariableUniverse.spliced.__func__

    def spy(cls, *args, **kwargs):
        spliced.append(splice(cls, *args, **kwargs))
        return spliced[-1]

    monkeypatch.setattr(VariableUniverse, "spliced", classmethod(spy))
    fuzzer = EditFuzzer(config, seed)
    summary = analyze_side_effects(pretty(fuzzer.program))
    spliced_steps = 0
    for step in range(12):
        fuzzer.step()
        summary, _stats = incremental_update(
            summary, compile_source(pretty(fuzzer.program))
        )
        spliced_steps += any(summary.universe is universe for universe in spliced)
        assert summary.universe.names == [
            var.qualified_name for var in summary.resolved.variables
        ], step
        assert_writer_matches(summary)
    assert spliced_steps


#: Each combination keeps the id it had when the leading ``False``
#: stood for a flag, since removed, that embedded a sections block, and
#: the last value for another, also removed, that embedded the lane
#: results; a caller now passes its own sections.
TRAILER_COMBINATIONS = list(itertools.product((False, True), repeat=2))


def caller_sections(summary):
    """Caller-owned trailer sections of a laned summary: session
    metadata naming its lanes, and a cache record's metadata carrying
    their blocks."""
    lanes = json.dumps({"lanes": list(summary.lanes)})
    return {
        SECTION_SESSION_META: lanes.encode("utf-8"),
        SECTION_RESULT_META: json.dumps(result_meta(summary)).encode("utf-8"),
    }


@pytest.mark.parametrize(
    "index, with_sections",
    TRAILER_COMBINATIONS,
    ids=["False-%s-%s" % combination for combination in TRAILER_COMBINATIONS],
)
def test_every_trailer_combination(index, with_sections):
    resolved = generate_resolved(
        GeneratorConfig(seed=34, num_procs=15, max_depth=3,
                        nesting_prob=0.5, prob_arg_global=0.3)
    )
    summary = analyze_side_effects(
        resolved, lanes=("sections", "refalias", "sections-use")
    )
    sections = caller_sections(summary) if with_sections else {}
    if index:
        sections = with_index(sections, summary)
    blob = summary_to_bytes(summary, sections=sections)
    assert_decodes_to(blob, summary_to_dict(summary), sections)


def test_caller_sections_join_the_trailer():
    summary = analyze_side_effects(COLLISIONS)
    extra = with_index({SECTION_SESSION_META: b'{"name": "s"}'}, summary)
    expected = dict(extra)
    blob = summary_to_bytes(summary, sections=extra)
    assert_decodes_to(blob, summary_to_dict(summary), expected)
    assert extra == expected  # Not mutated.


def test_collisions():
    summary = analyze_side_effects(COLLISIONS)
    assert [proc.qualified_name for proc in summary.resolved.procs].count("level") == 2
    blob = assert_writer_matches(summary)
    payload, _sections = decode_summary_container(blob)
    assert payload["procedures"]["level"]["level"] == 1  # The later entry.


@pytest.mark.parametrize("source", [NO_CALLS, "program e\nbegin\nend\n"])
def test_empty_sets_and_no_call_sites(source):
    summary = analyze_side_effects(source)
    assert not summary.resolved.call_sites
    assert_writer_matches(summary)


def test_single_kind_summary():
    resolved = generate_resolved(CONFIGS[7])
    assert_writer_matches(analyze_side_effects(resolved, kinds=(EffectKind.USE,)))


def test_writer_never_builds_the_payload(monkeypatch):
    """No route through ``summary_to_bytes`` reaches the dict form:
    neither a summary that never rendered nor one that did."""
    fresh = analyze_side_effects(COLLISIONS)
    rendered = analyze_side_effects(COLLISIONS)
    expected = summary_to_dict(rendered)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the writer must not build the payload dict")

    monkeypatch.setattr(persist, "summary_to_dict", refuse)
    assert fresh.payload is None and fresh.head is None
    blobs = [summary_to_bytes(fresh), summary_to_bytes(rendered)]
    monkeypatch.undo()
    assert blobs[0] == blobs[1]
    for blob in blobs:
        assert_decodes_to(blob, expected)


def test_server_state_file(tmp_path):
    """The daemon's ``--state-dir`` container holds the session's
    payload with the index and session-metadata sections, and no lane
    sections — when the session opens, after an update that moves no
    set (whose table and body are the predecessor's) and after one that
    inserts a line.  The session renders no payload."""
    from repro.server.client import ServerClient
    from repro.server.daemon import ServerConfig, ServerThread

    versions = [
        COLLISIONS,
        COLLISIONS.replace("  g1 := 1\n", "  g1 := 7\n"),
        COLLISIONS.replace("    f0 := 1\n", "    f0 := 1\n    g4 := f0\n"),
    ]
    assert len(set(versions)) == 3
    written = []
    heads = []
    with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as handle:
        with ServerClient(port=handle.port) as client:
            for step, source in enumerate(versions):
                if step == 0:
                    client.analyze(source, session="s", lanes="sections,refalias")
                else:
                    assert sorted(client.update("s", source)["lanes"]) == [
                        "refalias", "sections"]
                session = handle.server.sessions.get("s")
                with open(handle.server._session_state_path("s"), "rb") as state:
                    written.append((state.read(), session.summary, session.key))
                heads.append(session.summary.head)
                assert session.summary.payload is None
        assert session.updates == 2
    assert heads[1] is heads[0] and heads[2] is not heads[1]
    for step, (blob, summary, key) in enumerate(written):
        meta = {"name": "s", "key": key, "lanes": ["sections", "refalias"]}
        sections = with_index(
            {SECTION_SESSION_META: json.dumps(meta, sort_keys=True).encode("utf-8")},
            summary,
        )
        scratch = summary_to_dict(analyze_side_effects(versions[step]))
        assert_decodes_to(blob, scratch, sections)


# ---------------------------------------------------------------------------
# What carry hands across an update.
# ---------------------------------------------------------------------------


def _literal_edit(program, rng) -> str:
    """Change one ``x := k`` literal: no set moves and no line shifts."""
    stmts = [
        stmt
        for body in _walk_bodies(program)
        for stmt in body
        if isinstance(stmt, Assign) and isinstance(stmt.value, IntLit)
    ]
    stmt = rng.choice(stmts)
    stmt.value = IntLit((stmt.value.value + rng.randint(1, 9)) % 10)
    return "literal"


def _insert_line(program, rng) -> str:
    """Assign a literal to a global at the top of one procedure: every
    later line shifts, and the sets the assignment reaches move, while
    the variable names stay put."""
    proc = rng.choice(program.procs)
    target = rng.choice(program.globals).name
    proc.body.insert(0, Assign(target=VarRef(target), value=IntLit(1)))
    return "insert(%s: %s)" % (proc.name, target)


def _named_sets(summary, payload):
    """``(mask, name list)`` of every set in ``summary``'s payload."""
    procedures = payload["procedures"]
    sites = payload["call_sites"]
    for kind, solution in summary.solutions.items():
        for proc in summary.resolved.procs:
            entry = procedures[proc.qualified_name]
            yield solution.gmod[proc.pid], entry["g" + kind.value]
        for sid, entry in enumerate(sites):
            yield solution.dmod[sid], entry["d" + kind.value]
            yield solution.mod[sid], entry[kind.value]


def _lists_by_mask(summary, payload):
    """mask → the one list naming it (every entry with that mask)."""
    lists = {}
    for mask, names in _named_sets(summary, payload):
        assert lists.setdefault(mask, names) is names
    return lists


SESSION_META = {SECTION_SESSION_META: b'{"name": "s"}'}


@pytest.mark.parametrize(
    "config, seed", FUZZ_CASES[:2] + FUZZ_CASES[3:],
    ids=["small-a", "small-b", "nested"],
)
def test_carried_render_matches_scratch(config, seed):
    """Literal edits, line-inserting edits and the fuzzer's structural
    edits (new, deleted and renamed variables permute the uid space),
    chained: ``carry`` carries exactly when the two versions' scratch
    containers are byte-identical, and each step's dict is a scratch
    render's, key order included, and its indexed container, with the
    lane blocks in caller sections, decodes to it."""
    fuzzer = EditFuzzer(config, seed)
    rng = random.Random(seed)
    source = pretty(fuzzer.program)
    summary = analyze_side_effects(source)
    payload = summary_to_dict(summary)
    summary_to_bytes(summary, sections=with_index(summary=summary))
    scratch_blob = summary_to_bytes(analyze_side_effects(source))
    edits = (_literal_edit, _insert_line, _literal_edit, None)
    seen = {"reused": 0, "moved": 0, "permuted": 0}
    for step in range(16):
        edit = edits[step % len(edits)]
        op = fuzzer.step() if edit is None else edit(fuzzer.program, rng)
        source = pretty(fuzzer.program)
        names = summary.universe.names
        previous, old = payload, summary
        summary, _stats = incremental_update(old, compile_source(source))
        carried = persist.carry(old, summary)
        summary.lanes = solve_lanes(
            summary.resolved, ("sections", "refalias"), summary.aliases
        )
        context = "step %d (%s)" % (step, op)
        scratch = analyze_side_effects(source)
        previous_blob, scratch_blob = scratch_blob, summary_to_bytes(scratch)
        assert carried == (scratch_blob == previous_blob), context
        assert summary_to_bytes(summary) == scratch_blob, context
        payload = summary_to_dict(summary)
        assert json.dumps(payload) == json.dumps(summary_to_dict(scratch)), context
        assert decode_summary_container(scratch_blob) == (payload, {}), context
        sections = with_index(caller_sections(summary), summary)
        blob = summary_to_bytes(summary, sections=sections)
        assert_decodes_to(blob, payload, sections)
        assert summary_to_dict(summary) is payload, context
        if summary.universe.names != names:
            seen["permuted"] += 1
        elif carried:
            assert payload is previous, context
            seen["reused"] += 1
        else:
            seen["moved"] += 1
    assert all(seen.values()), seen


#: ``COLLISIONS`` with main's ``g1 := 1`` made ``g1 := g2``: main's
#: GUSE row gains ``g2``, and nothing else moves.  The body hides that
#: row behind the procedure ``level``'s, so the two containers are
#: byte-identical.
HIDDEN_EDIT = COLLISIONS.replace("  g1 := 1\n", "  g1 := g2\n")


def test_a_row_the_body_hides_does_not_count():
    assert HIDDEN_EDIT != COLLISIONS
    old = analyze_side_effects(COLLISIONS)
    new, _stats = incremental_update(old, compile_source(HIDDEN_EDIT))
    use = EffectKind.USE
    (main,) = [proc for proc in new.resolved.procs if proc.level == 0]
    assert new.solution(use).gmod[main.pid] != old.solution(use).gmod[main.pid]
    blob = summary_to_bytes(analyze_side_effects(HIDDEN_EDIT))
    assert blob == summary_to_bytes(analyze_side_effects(COLLISIONS))
    payload = summary_to_dict(old)
    assert persist.carry(old, new)
    assert summary_to_dict(new) is payload
    assert summary_to_bytes(new) == blob


def test_the_body_is_written_once(monkeypatch):
    """Written, rendered and written again, a summary writes its body
    once; so does a write, a render, a carry to a successor whose
    container is the same, and the successor's write."""
    calls = []
    body_writer = persist._summary_body

    def counting(summary, intern):
        calls.append(summary)
        return body_writer(summary, intern)

    monkeypatch.setattr(persist, "_summary_body", counting)
    source = patterns.chain(8)
    summary = analyze_side_effects(source)
    first = summary_to_bytes(summary)
    summary_to_dict(summary)
    assert summary_to_bytes(summary) == first
    assert calls == [summary]

    edited = source.replace("x := 1", "x := 2")
    assert edited != source
    new, _stats = incremental_update(summary, compile_source(edited))
    assert persist.carry(summary, new)
    assert summary_to_bytes(new) == first
    assert calls == [summary]


def _sized_program(seed=21):
    return generate_program(
        GeneratorConfig(seed=seed, num_procs=40, num_globals=20,
                        max_depth=2, nesting_prob=0.3)
    )


def test_literal_edit_returns_the_predecessors_payload_and_body(monkeypatch):
    rng = random.Random(3)
    program = _sized_program()
    old = analyze_side_effects(pretty(program))
    payload = summary_to_dict(old)
    first = summary_to_bytes(old, sections=with_index(SESSION_META, old))
    _literal_edit(program, rng)
    new, stats = incremental_update(old, compile_source(pretty(program)))
    assert stats.dirty_procs
    assert persist.carry(old, new)
    assert summary_to_dict(new) is payload

    def refuse(*_args, **_kwargs):
        raise AssertionError("the body was rewritten")

    monkeypatch.setattr(persist, "_summary_body", refuse)
    sections = with_index(SESSION_META, new)
    blob = summary_to_bytes(new, sections=sections)
    monkeypatch.undo()
    assert_decodes_to(blob, payload, sections)
    # The head is the predecessor's; the index trailer is rebuilt (its
    # fingerprints saw the edit).
    _version, table_len, body_len = persist._HEADER.unpack_from(first, 4)
    head_end = 4 + persist._HEADER.size + table_len + body_len
    assert blob[:head_end] == first[:head_end]
    assert blob[head_end:] != first[head_end:]


def test_set_changing_edit_renders_afresh():
    """An edit that moves a set is not carried: the successor renders a
    payload of its own, a scratch render's, in which the entries with
    one mask share one name list."""
    program = _sized_program()
    old = analyze_side_effects(pretty(program))
    old_payload = summary_to_dict(old)
    # A global the procedure's GMOD lacks, assigned on a new first line.
    gmod = old.solution(EffectKind.MOD).gmod
    pid_of = {proc.qualified_name: proc.pid for proc in old.resolved.procs}
    decl, var = next(
        (decl, var)
        for decl in program.procs
        for var in old.resolved.variables
        if var.is_global and not (gmod[pid_of[decl.name]] >> var.uid) & 1
    )
    decl.body.insert(0, Assign(target=VarRef(var.name), value=IntLit(1)))
    new, _stats = incremental_update(old, compile_source(pretty(program)))
    assert new.universe.names == old.universe.names
    assert not persist.carry(old, new)
    payload = summary_to_dict(new)
    assert payload != old_payload
    assert payload == summary_to_dict(analyze_side_effects(pretty(program)))
    _lists_by_mask(new, payload)


def test_chained_updates_leave_the_first_summary_collectable():
    rng = random.Random(5)
    program = _sized_program(seed=22)
    summary = analyze_side_effects(pretty(program))
    summary_to_dict(summary)
    summary_to_bytes(summary, sections=with_index(summary=summary))
    first = weakref.ref(summary)
    for step in range(30):
        (_insert_line if step % 3 == 2 else _literal_edit)(program, rng)
        old = summary
        summary, _stats = incremental_update(old, compile_source(pretty(program)))
        persist.carry(old, summary)
        summary_to_dict(summary)
        summary_to_bytes(summary, sections=with_index(summary=summary))
    gc.collect()
    assert first() is None


#: Two procedures that declare no variable and call nothing: swapping
#: them keeps every uid and every set, so the payloads compare equal,
#: but the ``procedures`` and ``aliases`` key orders swap.
SWAPPABLE = """
program swap
  global g, h
  proc a()
  begin
    g := 1
  end
  proc b()
  begin
    h := 2
  end
begin
  call a()
  call b()
end
"""


def test_reordered_payload_is_not_the_predecessors():
    """Dict equality ignores key order and the container keeps it, so
    a reorder — of the procedures, or of the kinds — is not carried and
    renders afresh."""
    swapped = SWAPPABLE.replace(
        "  proc a()\n  begin\n    g := 1\n  end\n", ""
    ).replace("begin\n  call a()", "  proc a()\n  begin\n    g := 1\n  end\nbegin\n  call a()")
    assert sorted(swapped.split("\n")) == sorted(SWAPPABLE.split("\n"))
    old = analyze_side_effects(SWAPPABLE)
    old_payload = summary_to_dict(old)
    summary_to_bytes(old)
    new, _stats = incremental_update(old, compile_source(swapped))
    assert new.universe.names == old.universe.names
    assert not persist.carry(old, new)
    payload = summary_to_dict(new)
    assert payload == old_payload and payload is not old_payload
    assert list(payload["procedures"]) == ["swap", "b", "a"]
    assert summary_to_bytes(new) == summary_to_bytes(analyze_side_effects(swapped))

    use_first = analyze_side_effects(SWAPPABLE, kinds=(EffectKind.USE, EffectKind.MOD))
    use_payload = summary_to_dict(use_first)
    summary_to_bytes(use_first)
    new, _stats = incremental_update(use_first, compile_source(SWAPPABLE))
    assert not persist.carry(use_first, new)
    payload = summary_to_dict(new)
    assert payload == use_payload and payload is not use_payload
    assert summary_to_bytes(new) == summary_to_bytes(analyze_side_effects(SWAPPABLE))


def test_payload_readers_leave_the_shared_lists_alone(tmp_path):
    """The query verbs, the recompilation analysis and a summary-cache
    round trip read a payload whose lists are shared between entries
    and between summaries; none of them may write it."""
    from repro.extensions.recompilation import (
        recompilation_report,
        recompilation_set,
    )
    from repro.server.client import ServerClient
    from repro.server.daemon import ServerConfig, ServerThread
    from repro.service.cache import SummaryCache, encode_record

    old = analyze_side_effects(COLLISIONS)
    old_payload = summary_to_dict(old)
    edited = COLLISIONS.replace("    f0 := 1\n", "    f0 := 1\n    g4 := f0\n")
    new, _stats = incremental_update(old, compile_source(edited))
    new_payload = summary_to_dict(new)
    frozen = copy.deepcopy((old_payload, new_payload))
    assert recompilation_set(old_payload, new_payload, edited=["level"])
    recompilation_report(old_payload, new_payload)
    cache = SummaryCache(str(tmp_path / "cache"))
    cache.put("k", encode_record(new))
    record, _meta = cache.get("k")
    assert decode_summary_payload(record) == new_payload
    assert (old_payload, new_payload) == frozen

    with ServerThread(ServerConfig(port=0)) as handle:
        with ServerClient(port=handle.port) as client:
            client.analyze(COLLISIONS, session="s", lanes="refalias")
            session = handle.server.sessions.get("s")
            # The render the queries read, and the lane blocks.
            payload = (summary_to_dict(session.summary), session.lane_blocks)
            frozen = copy.deepcopy(payload)
            for select, fields in (
                ("procedures", {}),
                ("proc", {"proc": "p"}),
                ("site", {"site": 0}),
                ("sites", {}),
                ("lanes", {}),
                ("lane", {"lane": "refalias"}),
                ("who_modifies", {"variable": "gmod"}),
                ("who_modifies", {"variable": "g2", "kind": "use"}),
            ):
                client.query("s", select, **fields)
            assert payload == frozen



def test_a_carried_summary_writes_its_body_once(monkeypatch):
    """An update's summary that nothing was carried to writes its body
    once, for the index section and the container it rides in alike;
    one that ``carry`` reached writes none.  The predecessor's head
    stays its own, and the bytes are a scratch summary's."""
    source = pretty(generate_program(GeneratorConfig(seed=5, num_procs=30, num_globals=6)))
    old = analyze_side_effects(source)
    summary_to_dict(old)
    old_bytes = summary_to_bytes(old)
    old_head = old.head
    edited = re.sub(r":= (\d)\n", lambda m: ":= %d\n" % ((int(m.group(1)) + 1) % 10),
                    source, count=1)
    assert edited != source
    plain, _stats = incremental_update(old, compile_source(edited, previous=old.resolved))
    carried, _stats = incremental_update(old, compile_source(edited, previous=old.resolved))
    assert persist.carry(old, carried) and carried.head is old_head
    calls = []
    body_writer = persist._summary_body

    def counting(summary, intern):
        calls.append(summary)
        return body_writer(summary, intern)

    scratch = analyze_side_effects(edited)
    scratch_blob = summary_to_bytes(scratch, sections=with_index(summary=scratch))
    monkeypatch.setattr(persist, "_summary_body", counting)
    for summary in (plain, carried):
        blob = summary_to_bytes(summary, sections=with_index(summary=summary))
        assert blob == scratch_blob
    assert calls == [plain]
    assert old.head is old_head
    assert summary_to_bytes(old) == old_bytes
    # A render keeps the head, so nothing is written again.
    summary_to_dict(plain)
    assert summary_to_bytes(plain, sections=with_index(summary=plain)) == blob
    assert calls == [plain]
