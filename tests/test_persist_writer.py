"""Byte-identity oracle for the mask-native summary writer.

``summary_to_bytes`` writes the container straight from the solution
masks: it never lists a set's names.  The generic route it replaced —
``encode_summary_payload(summary_to_dict(summary), sections)`` — stays
as the oracle, and the two must agree byte for byte on every shape that
can move the string table: the 30-program sweep, the corpus, deep
nesting, incremental summaries over spliced universes, every trailer
combination, the analysis server's state file, empty sets, programs
without call sites, and names that collide with payload keys,
procedure names or each other.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

import repro.core.persist as persist
from repro.core.bitvec import iter_bits
from repro.core.depindex import index_to_bytes
from repro.core.incremental import incremental_update
from repro.core.persist import (
    SECTION_DEP_INDEX,
    SECTION_SESSION_META,
    decode_summary_container,
    encode_summary_payload,
    summary_to_bytes,
    summary_to_dict,
)
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.lanes.driver import lane_blobs
from repro.workloads.generator import GeneratorConfig, generate_resolved
from repro.workloads.patterns import deep_nest
from tests.test_differential import CONFIGS, _config_id
from tests.test_incremental_fuzz import FUZZ_CASES, EditFuzzer

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


def _dict_route(summary, include_sections=False, sections=None) -> bytes:
    return encode_summary_payload(
        summary_to_dict(summary, include_sections), sections=sections or None
    )


def assert_writer_matches(summary, include_sections=False) -> bytes:
    blob = summary_to_bytes(summary, include_sections=include_sections)
    assert blob == _dict_route(summary, include_sections)
    return blob


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_sweep(config):
    assert_writer_matches(analyze_side_effects(generate_resolved(config)))


def test_corpus(corpus_programs):
    for name, resolved in corpus_programs.items():
        summary = analyze_side_effects(resolved)
        assert summary_to_bytes(summary) == _dict_route(summary), name


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
        assert summary_to_bytes(summary) == _dict_route(summary), step
    assert spliced_steps


@pytest.mark.parametrize(
    "include_sections, include_index, include_lanes",
    list(itertools.product((False, True), repeat=3)),
)
def test_every_trailer_combination(include_sections, include_index, include_lanes):
    resolved = generate_resolved(
        GeneratorConfig(seed=34, num_procs=15, max_depth=3,
                        nesting_prob=0.5, prob_arg_global=0.3)
    )
    summary = analyze_side_effects(
        resolved, lanes=("sections", "refalias", "sections-use")
    )
    blob = summary_to_bytes(
        summary,
        include_sections=include_sections,
        include_index=include_index,
        include_lanes=include_lanes,
    )
    sections = {}
    if include_lanes:
        sections.update(lane_blobs(summary.lanes))
    if include_index:
        sections[SECTION_DEP_INDEX] = index_to_bytes(summary.dep_index)
    assert blob == _dict_route(summary, include_sections, sections)
    assert blob[4] == (4 if include_index or include_lanes else 3)


def test_caller_sections_join_the_trailer():
    summary = analyze_side_effects(COLLISIONS)
    extra = {SECTION_SESSION_META: b'{"name": "s"}'}
    blob = summary_to_bytes(summary, include_index=True, sections=extra)
    expected = dict(extra)
    expected[SECTION_DEP_INDEX] = index_to_bytes(summary.dep_index)
    assert blob == _dict_route(summary, sections=expected)
    assert extra == {SECTION_SESSION_META: b'{"name": "s"}'}  # Not mutated.


def test_collisions():
    summary = analyze_side_effects(COLLISIONS)
    assert [proc.qualified_name for proc in summary.resolved.procs].count("level") == 2
    blob = assert_writer_matches(summary, include_sections=True)
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
    """No route through ``summary_to_bytes`` reaches the dict form."""
    summary = analyze_side_effects(COLLISIONS)
    expected = _dict_route(summary, include_sections=True)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the writer must not build the payload dict")

    monkeypatch.setattr(persist, "summary_to_dict", refuse)
    monkeypatch.setattr(persist, "encode_summary_payload", refuse)
    assert summary_to_bytes(summary, include_sections=True) == expected


def test_mask_writer_matches_generic_lists():
    """Random masks over random name tables — runs, duplicate names,
    names already in the table, strings interned between masks — give
    the generic encoder's bytes and leave the same string table."""
    rng = random.Random(1313)
    for _trial in range(300):
        width = rng.randint(1, 80)
        names = ["v%d" % uid for uid in range(width)]
        for uid in rng.sample(range(width), k=width // 10):
            names[uid] = rng.choice(names[:uid + 1] + ["key", "level"])
        strings, intern = persist._string_table()
        oracle_strings, oracle_intern = persist._string_table()
        for text in ("key", "level"):
            intern(text)
            oracle_intern(text)
        writer = persist._MaskWriter(names, intern)
        for _set in range(rng.randint(1, 10)):
            lo = rng.randrange(width)
            mask = ((1 << rng.randint(1, width - lo)) - 1) << lo
            mask &= rng.getrandbits(width) | rng.choice((0, -1))
            sparse = rng.getrandbits(width) & rng.getrandbits(width)
            mask |= sparse & rng.getrandbits(width)
            want = bytearray()
            persist._encode_value(
                [names[uid] for uid in iter_bits(mask)], want, oracle_intern
            )
            assert writer.encode(mask) == bytes(want), (names, mask)
            if rng.random() < 0.3:
                text = "x%d" % rng.randrange(4)
                intern(text)
                oracle_intern(text)
        assert strings == oracle_strings


def test_server_state_file(tmp_path):
    """The daemon's ``--state-dir`` container is the dict route's bytes
    with the index, lane and session-metadata sections."""
    from repro.server.client import ServerClient
    from repro.server.daemon import ServerConfig, ServerThread

    source = COLLISIONS
    with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as handle:
        with ServerClient(port=handle.port) as client:
            client.analyze(source, session="s", lanes="sections,refalias")
        session = handle.server.sessions.get("s")
        with open(handle.server._session_state_path("s"), "rb") as state:
            blob = state.read()
    summary = session.summary
    meta = {"name": "s", "gmod_method": session.gmod_method,
            "key": session.key, "lanes": ["sections", "refalias"]}
    sections = {
        SECTION_DEP_INDEX: index_to_bytes(summary.dep_index),
        SECTION_SESSION_META: json.dumps(meta, sort_keys=True).encode("utf-8"),
    }
    sections.update(lane_blobs(summary.lanes))
    assert blob == _dict_route(summary, sections=sections)
