"""Effect-lane tests.

Three pillars, matching what the lanes promise:

* **differential identity** — the one sections solver,
  :func:`analyze_sections`, must be *value-identical* to the sweep
  oracle :func:`analyze_sections_sweep` (sections, site tables and the
  rendered lane block) for MOD and USE under both lattices, across the
  30-program differential sweep and the corpus/fuzz programs; refalias
  is the run's own alias result, which must equal the pair-set oracle
  :func:`compute_alias_pairs`;
* **one condensation** — a run with all three lanes performs exactly
  one Tarjan-equivalent pass per graph (counter-asserted);
* **persistence** — lane blocks round-trip through a summary-cache
  record's metadata section, lane-less output stays byte-identical to
  pre-lane writers, and unknown future sections are skipped
  loudly-but-safely.

The Dyck-reachability baseline rides along as the precision oracle:
``ALIAS(q) ⊆ DYCK(q)`` on every program, never the other way.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.alias_pairs import compute_alias_pairs
from repro.baselines.dyck import compare_precision, compute_dyck_aliases
from repro.baselines.sections_sweep import analyze_sections_sweep
from repro.core.aliases import compute_aliases, factor_aliases_fused
from repro.core.arena import clear_arena_cache, get_arena
from repro.core.bitvec import OpCounter
from repro.core.persist import summary_to_dict
from repro.core.pipeline import analyze_side_effects, result_meta
from repro.core.varsets import EffectKind
from repro.lanes import LANE_NAMES, parse_lane_names
from repro.lanes.driver import solve_lanes
from repro.lanes.sections_lane import sections_payload
from repro.sections.solver import analyze_sections
from repro.workloads import corpus
from repro.workloads.generator import GeneratorConfig, generate_resolved

from tests.test_differential import CONFIGS, _config_id

ALL_LANES = ("sections", "refalias", "sections-use")


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def _assert_same_sections(solved, reference):
    """The production solve equals the sweep oracle: every ``GRS`` map,
    every per-site table and the rendered lane block."""
    assert solved.lattice_name == reference.lattice_name
    assert solved.kind is reference.kind
    assert solved.grs == reference.grs
    assert solved.site_sections == reference.site_sections
    assert _canon(sections_payload(solved)) == _canon(sections_payload(reference))


def _assert_lanes_match_reference(resolved, summary):
    """Each lane identical to its oracle on this program: the sections
    lanes (and the ``ranges`` solve of both kinds) to the sweep, the
    refalias lane to the pair-set alias worklist."""
    blocks = result_meta(summary)["lanes"]
    for name, kind in (("sections", EffectKind.MOD),
                       ("sections-use", EffectKind.USE)):
        reference = analyze_sections_sweep(resolved, kind)
        _assert_same_sections(summary.lanes[name], reference)
        assert _canon(blocks[name]) == _canon(sections_payload(reference))
        _assert_same_sections(
            analyze_sections(resolved, kind, lattice="ranges"),
            analyze_sections_sweep(resolved, kind, lattice="ranges"),
        )

    # The refalias lane is the run's own alias result, whose tables
    # equal the pair-set oracle's.
    assert summary.lanes["refalias"] is summary.aliases
    oracle = compute_alias_pairs(resolved, summary.universe)
    assert summary.aliases.partner_mask == oracle.partner_mask
    assert list(summary.aliases.domain_mask) == list(oracle.domain_mask)
    for proc in resolved.procs:
        assert summary.aliases.pairs_of(proc) == oracle.pairs[proc.pid]


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_lanes_identical_to_standalone_sweep(config):
    """The 30-program differential sweep, lane edition."""
    resolved = generate_resolved(config)
    clear_arena_cache()
    summary = analyze_side_effects(resolved, lanes=ALL_LANES)
    # Exactly one condensation per graph, lanes included.
    assert summary.condensations == {"beta": 1, "call": 1}
    _assert_lanes_match_reference(resolved, summary)
    # Dyck baseline: strictly coarser-or-equal, never unsound.
    report = compare_precision(resolved, summary.aliases, summary.universe)
    assert report.subset_holds, report.alias_only


@pytest.mark.parametrize("name", sorted(corpus.ALL))
def test_lanes_identical_on_corpus(name, corpus_programs):
    resolved = corpus_programs[name]
    clear_arena_cache()
    summary = analyze_side_effects(resolved, lanes=ALL_LANES)
    assert summary.condensations == {"beta": 1, "call": 1}
    _assert_lanes_match_reference(resolved, summary)
    report = compare_precision(resolved, summary.aliases, summary.universe)
    assert report.subset_holds, report.alias_only


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_lanes_identical_fuzz(seed):
    """Generator-driven fuzz: same identity on arbitrary shapes."""
    config = GeneratorConfig(
        seed=seed + 9000,
        num_procs=18,
        max_depth=3,
        nesting_prob=0.5,
        recursion_prob=0.4,
        prob_arg_global=0.35,
    )
    resolved = generate_resolved(config)
    clear_arena_cache()
    summary = analyze_side_effects(resolved, lanes=ALL_LANES)
    assert summary.condensations == {"beta": 1, "call": 1}
    _assert_lanes_match_reference(resolved, summary)


class TestLaneRegistry:
    def test_builtin_lanes_registered(self):
        assert LANE_NAMES == ("sections", "refalias", "sections-use")
        assert parse_lane_names(list(LANE_NAMES)) == list(LANE_NAMES)

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError, match="unknown lane 'warp'"):
            parse_lane_names("warp")
        with pytest.raises(ValueError, match="unknown lane"):
            parse_lane_names(["sections", "warp"])
        resolved = generate_resolved(GeneratorConfig(seed=38, num_procs=10))
        with pytest.raises(ValueError, match="unknown lane"):
            analyze_side_effects(resolved, lanes=("warp",))

    def test_parse_lane_names(self):
        assert parse_lane_names("sections,refalias") == ["sections", "refalias"]
        assert parse_lane_names(" sections , sections ") == ["sections"]
        assert parse_lane_names("sections-use") == ["sections-use"]
        assert parse_lane_names(("refalias", "refalias", "")) == ["refalias"]
        with pytest.raises(ValueError):
            parse_lane_names("sections,warp")


class TestOneCondensation:
    def test_three_lane_run_single_condensation(self):
        """All three lanes cost no pass beyond the GMOD walk's, and
        each sections solve walks every recorded component."""
        resolved = generate_resolved(
            GeneratorConfig(seed=31, num_procs=20, max_depth=3,
                            nesting_prob=0.5, recursion_prob=0.5)
        )
        clear_arena_cache()
        summary = analyze_side_effects(resolved, lanes=ALL_LANES)
        assert summary.condensations == {"beta": 1, "call": 1}
        arena = get_arena(resolved)
        _component_of, components = arena.call_condensation()
        for name in ("sections", "sections-use"):
            iterations = summary.lanes[name].component_iterations
            assert len(iterations) == len(components), name
        # Still one pass after both sections solves consumed it.
        assert arena.condensation_counts == {"beta": 1, "call": 1}

    def test_standalone_sections_shares_arena_condensation(self):
        """Satellite: the standalone sections path no longer runs a
        private SCC pass — the arena's counter stays at one however
        many times it is solved."""
        resolved = generate_resolved(
            GeneratorConfig(seed=32, num_procs=16, recursion_prob=0.5)
        )
        clear_arena_cache()
        analyze_sections(resolved, EffectKind.MOD)
        arena = get_arena(resolved)
        assert arena.condensation_counts == {"call": 1}
        analyze_sections(resolved, EffectKind.USE)
        analyze_sections(resolved, EffectKind.MOD)
        assert arena.condensation_counts == {"call": 1}


class TestRefAliasFactoring:
    def test_lane_is_a_view_with_one_fixpoint(self, monkeypatch):
        """The lane's tables *are* the run's alias tables, and the
        alias fixpoint runs once per analysis."""
        import repro.core.aliases as aliases_module
        import repro.core.pipeline as pipeline_module

        calls = []
        original = aliases_module.compute_aliases

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(aliases_module, "compute_aliases", counting)
        monkeypatch.setattr(pipeline_module, "compute_aliases", counting)
        resolved = generate_resolved(
            GeneratorConfig(seed=33, num_procs=20, max_depth=2,
                            nesting_prob=0.4, prob_arg_global=0.4)
        )
        clear_arena_cache()
        summary = analyze_side_effects(resolved, lanes=("refalias",))
        assert len(calls) == 1
        assert summary.lanes["refalias"] is summary.aliases

    def test_lane_masks_feed_fused_factoring(self):
        """The lane's AliasResult drives ``factor_aliases_fused`` to
        the same per-site MOD expansion the pipeline computed."""
        resolved = generate_resolved(
            GeneratorConfig(seed=33, num_procs=20, max_depth=2,
                            nesting_prob=0.4, prob_arg_global=0.4)
        )
        clear_arena_cache()
        summary = analyze_side_effects(resolved, lanes=("refalias",))
        lane_aliases = summary.lanes["refalias"]
        arena = get_arena(resolved)
        solution = summary.solutions[EffectKind.MOD]
        counters = [OpCounter()]
        refactored = factor_aliases_fused(
            [solution.dmod], lane_aliases, arena, 1, counters
        )
        assert refactored[0] == solution.mod


class TestLanePersistence:
    def _laned_summary(self):
        resolved = generate_resolved(
            GeneratorConfig(seed=34, num_procs=15, max_depth=3,
                            nesting_prob=0.5, prob_arg_global=0.3)
        )
        clear_arena_cache()
        return resolved, analyze_side_effects(resolved, lanes=ALL_LANES)

    def test_v4_trailer_roundtrip_and_sectionless_identity(self):
        """A laned summary's cache record carries the lane blocks in its
        metadata section, and its summary is the lane-less one."""
        from repro.core.persist import (
            SECTION_RESULT_META,
            decode_summary_container,
            summary_to_bytes,
        )
        from repro.service.cache import encode_record, record_meta

        resolved, summary = self._laned_summary()
        laned = encode_record(summary)
        payload, sections = decode_summary_container(laned)
        assert set(sections) == {SECTION_RESULT_META}
        decoded = record_meta(laned)["lanes"]
        blocks = result_meta(summary)["lanes"]
        assert list(decoded) == sorted(ALL_LANES)
        for name in ALL_LANES:
            assert _canon(decoded[name]) == _canon(blocks[name])
        assert decoded["sections-use"]["kind"] == "use"
        assert decoded["refalias"]["total_pairs"] == summary.aliases.total_pairs()
        assert payload == summary_to_dict(summary)

        # Sectionless output is byte-identical to a lane-less solve.
        clear_arena_cache()
        plain = analyze_side_effects(resolved)
        assert summary_to_bytes(summary) == summary_to_bytes(plain)

    def test_unknown_future_section_skipped_loudly(self):
        """Forward compat: a synthetic future tag warns and degrades,
        never raises."""
        from repro.core.persist import (
            SECTION_LANE_SECTIONS,
            UnknownSectionWarning,
            decode_summary_container,
            decode_summary_payload,
            split_unknown_sections,
            summary_to_bytes,
        )
        from tests.container_reference import encode_summary_payload

        _resolved, summary = self._laned_summary()
        # Re-wrap the real payload with one known (reserved) and one
        # future tag, as an earlier writer's v4 container.
        payload = decode_summary_payload(summary_to_bytes(summary))
        fixture = encode_summary_payload(
            payload,
            sections={
                SECTION_LANE_SECTIONS: b"\x00earlier-lane-data",
                99: b"\x01future-lane-data",
            },
        )
        decoded_payload, sections = decode_summary_container(fixture)
        assert decoded_payload == payload
        assert set(sections) == {SECTION_LANE_SECTIONS, 99}
        with pytest.warns(UnknownSectionWarning, match=r"\[99\]"):
            known, unknown = split_unknown_sections(sections)
        assert set(known) == {SECTION_LANE_SECTIONS}
        assert unknown == {99: b"\x01future-lane-data"}

    def test_known_sections_do_not_warn(self):
        import warnings as warnings_module

        from repro.core.persist import (
            SECTION_DEP_INDEX,
            SECTION_LANE_REFALIAS,
            split_unknown_sections,
        )

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            known, unknown = split_unknown_sections(
                {SECTION_DEP_INDEX: b"x", SECTION_LANE_REFALIAS: b"y"}
            )
        assert len(known) == 2 and not unknown


class TestLanePayloadPlumbing:
    def test_payload_lane_block_only_when_requested(self):
        resolved = generate_resolved(GeneratorConfig(seed=35, num_procs=12))
        clear_arena_cache()
        plain = analyze_side_effects(resolved)
        assert "lanes" not in result_meta(plain)
        clear_arena_cache()
        laned = analyze_side_effects(resolved, lanes=ALL_LANES)
        blocks = result_meta(laned)["lanes"]
        assert list(blocks) == list(ALL_LANES)
        # The summary block itself is untouched by lanes.
        assert _canon(summary_to_dict(laned)) == _canon(summary_to_dict(plain))
        # The refalias lane block agrees with the summary's aliases.
        assert blocks["refalias"]["pairs"] == summary_to_dict(laned)["aliases"]

    def test_sharded_route_lanes_match_monolithic(self):
        """A stale client that still asks the daemon for a sharded
        solve gets the one lane block there is: the daemon ignores the
        retired ``shards`` field like any unknown field."""
        from repro.lang.pretty import pretty
        from repro.server import ServerClient, ServerConfig, ServerThread
        from repro.workloads.generator import generate_program

        source = pretty(generate_program(
            GeneratorConfig(seed=39, num_procs=16, max_depth=3,
                            nesting_prob=0.5, prob_arg_global=0.4)
        ))
        clear_arena_cache()
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                sharded = client.request_raw(
                    "analyze", source=source, shards=3, lanes=list(ALL_LANES)
                )
        assert sharded["ok"], sharded.get("error")
        clear_arena_cache()
        plain = result_meta(analyze_side_effects(source, lanes=ALL_LANES))
        assert _canon(sharded["lanes"]) == _canon(plain["lanes"])
        assert sharded["lanes"]["refalias"]["total_pairs"] > 0

    def test_lane_timings_recorded(self):
        resolved = generate_resolved(GeneratorConfig(seed=36, num_procs=12))
        clear_arena_cache()
        summary = analyze_side_effects(resolved, lanes=ALL_LANES)
        for name in ALL_LANES:
            assert "lane.%s" % name in summary.timings
        assert summary.timings["lanes"] >= 0.0

    def test_solve_lanes_on_shared_arena(self):
        """Driving the lane solver directly on an arena that already
        served a GMOD solve adds no condensation passes: the lanes walk
        the components the GMOD walk recorded."""
        resolved = generate_resolved(
            GeneratorConfig(seed=37, num_procs=14, recursion_prob=0.5)
        )
        clear_arena_cache()
        analyze_side_effects(resolved)
        arena = get_arena(resolved)
        before = dict(arena.condensation_counts)
        aliases = compute_aliases(arena)
        results = solve_lanes(resolved, ALL_LANES, aliases)
        assert dict(arena.condensation_counts) == before
        assert list(results) == list(ALL_LANES)
        assert results["refalias"] is aliases


class TestDyckBaseline:
    def test_dyck_is_reflexively_coarse(self):
        """Two formals fed by one actual from unrelated chains: Dyck
        reports the pair, pair propagation does not."""
        from repro.lang.semantic import compile_source

        source = """
program p
  global g

  proc wide(a, b)
  begin
    a := b
  end

  proc left(x)
  begin
    call wide(x, g)
  end

  proc right(y)
  begin
    call wide(g, y)
  end

begin
  call left(g)
  call right(g)
end
"""
        resolved = compile_source(source)
        clear_arena_cache()
        summary = analyze_side_effects(resolved)
        report = compare_precision(resolved, summary.aliases, summary.universe)
        assert report.subset_holds
        # The coarse result must be at least as large everywhere.
        dyck = compute_dyck_aliases(resolved, summary.universe)
        for proc in resolved.procs:
            assert summary.aliases.pairs_of(proc) <= dyck[proc.pid]

    def test_dyck_never_in_fast_path(self):
        """The fast path must not import the baseline: analyzing with
        lanes loads nothing from repro.baselines."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.core.pipeline import analyze_side_effects\n"
            "from repro.workloads.generator import GeneratorConfig, "
            "generate_resolved\n"
            "resolved = generate_resolved(GeneratorConfig(seed=1, "
            "num_procs=10))\n"
            "analyze_side_effects(resolved, lanes=('sections', 'refalias'))\n"
            "assert not any(m.startswith('repro.baselines') "
            "for m in sys.modules), sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.baselines'))\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=120
        )


class TestStatsSchema:
    """Satellite: the stats-JSON document matches the one authoritative
    key catalogue (:data:`repro.service.stats.STATS_KEYS` + the module
    docstring), carries the ``lanes`` block, and round-trips through
    JSON unchanged."""

    def _corpus(self, tmp_path):
        from repro.workloads.files import write_generated_corpus

        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 3, base_seed=321,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        return str(root)

    def test_document_matches_key_catalogue(self, tmp_path):
        from repro.service.batch import run_batch
        from repro.service.stats import (
            STATS_KEYS,
            STATS_SCHEMA_VERSION,
            aggregate_stats,
        )

        root = self._corpus(tmp_path)
        stats = aggregate_stats(run_batch(root, jobs=1, lanes=ALL_LANES))
        # Exactly the documented keys — nothing undocumented sneaks in,
        # nothing documented goes missing.
        assert set(stats) == set(STATS_KEYS)
        assert list(stats["lanes"]) == ["requested", "per_lane"]
        assert stats["schema"] == STATS_SCHEMA_VERSION
        assert stats["lanes"]["requested"] == list(ALL_LANES)
        per_lane = stats["lanes"]["per_lane"]
        assert set(per_lane) == set(ALL_LANES)
        for name in ALL_LANES:
            assert per_lane[name]["files"] == 3
            assert per_lane[name]["seconds"] > 0.0
            # Lane seconds are the summed ``lane.<name>`` phase rows.
            assert per_lane[name]["seconds"] == pytest.approx(
                stats["phases"]["lane." + name]
            )

    def test_laneless_run_has_empty_lane_block(self, tmp_path):
        from repro.service.batch import run_batch
        from repro.service.stats import STATS_KEYS, aggregate_stats

        stats = aggregate_stats(run_batch(self._corpus(tmp_path), jobs=1))
        assert set(stats) == set(STATS_KEYS)  # block present even when off
        assert stats["lanes"] == {"requested": [], "per_lane": {}}

    def test_cli_round_trip_and_warm_cache_counts(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.stats import STATS_KEYS

        root = self._corpus(tmp_path)
        stats_path = str(tmp_path / "stats.json")
        assert main(["batch", root, "--jobs", "1",
                     "--lanes", ",".join(ALL_LANES),
                     "--stats-json", stats_path]) == 0
        out = capsys.readouterr().out
        assert "lanes: refalias" in out and "sections" in out
        with open(stats_path) as handle:
            cold = json.load(handle)
        assert set(cold) == set(STATS_KEYS)
        assert cold["lanes"]["requested"] == list(ALL_LANES)
        # The file on disk IS the aggregate — a decode/encode round
        # trip is canonical-identical (everything is plain JSON).
        assert json.loads(json.dumps(cold, sort_keys=True)) == cold

        # Warm run: every file comes from the cache, yet the cached
        # records' metadata still carries the lane blocks, so lane file counts
        # hold while lane seconds drop to zero (no solver ran).
        assert main(["batch", root, "--jobs", "1",
                     "--lanes", ",".join(ALL_LANES),
                     "--stats-json", stats_path]) == 0
        capsys.readouterr()
        with open(stats_path) as handle:
            warm = json.load(handle)
        assert warm["corpus"]["cached"] == 3
        for name in ALL_LANES:
            assert warm["lanes"]["per_lane"][name]["files"] == 3
            assert warm["lanes"]["per_lane"][name]["seconds"] == 0.0


class TestServerLanes:
    """Lane selection over the analysis server: the ``lanes`` request
    field feeds the cache key, the response and session carry lane
    blocks, ``query`` exposes them, and ``--state-dir`` persists them
    as v4 trailer sections."""

    SOURCE = """
program p
global g
global h
proc leaf(a, b)
begin
  a := g
  g := b
end
proc mid(x)
begin
  call leaf(x, h)
end
begin
  call mid(g)
  call leaf(g, h)
end
"""

    @pytest.fixture()
    def server(self):
        from repro.server import ServerConfig, ServerThread

        with ServerThread(ServerConfig(port=0)) as handle:
            yield handle

    @pytest.fixture()
    def client(self, server):
        from repro.server import ServerClient

        with ServerClient(port=server.port) as c:
            yield c

    def test_analyze_returns_lane_blocks(self, client):
        response = client.analyze(self.SOURCE, lanes=list(ALL_LANES))
        direct = result_meta(
            analyze_side_effects(self.SOURCE, lanes=ALL_LANES)
        )
        assert _canon(response["lanes"]) == _canon(direct["lanes"])
        # String form parses the same as the list form.
        again = client.analyze(self.SOURCE, lanes=", ".join(ALL_LANES))
        assert again["cached"] == "lru"

    def test_lanes_feed_cache_key(self, client):
        plain = client.analyze(self.SOURCE)
        assert "lanes" not in plain
        laned = client.analyze(self.SOURCE, lanes="refalias")
        assert laned["cached"] is False  # different key than lane-less
        assert laned["key"] != plain["key"]
        assert client.analyze(self.SOURCE, lanes="refalias")["cached"] == "lru"

    def test_bad_lanes_field_rejected(self, client):
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.analyze(self.SOURCE, lanes="warp")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServerError) as excinfo:
            client.analyze(self.SOURCE, lanes=7)
        assert excinfo.value.code == "bad_request"

    def test_query_lane_selects(self, client):
        from repro.server import ServerError

        client.analyze(self.SOURCE, session="laned", lanes="sections,refalias")
        listed = client.query("laned", "lanes")
        assert listed["result"] == ["refalias", "sections"]
        block = client.query("laned", "lane", lane="sections")["result"]
        direct = result_meta(
            analyze_side_effects(self.SOURCE, lanes=ALL_LANES)
        )
        assert _canon(block) == _canon(direct["lanes"]["sections"])

        client.analyze(self.SOURCE, session="plain")
        assert client.query("plain", "lanes")["result"] == []
        with pytest.raises(ServerError) as excinfo:
            client.query("plain", "lane", lane="sections")
        assert "re-analyze with a 'lanes' field" in str(excinfo.value)

    def test_state_file_carries_no_lane_sections(self, tmp_path):
        """The state file names the session's lanes in its metadata and
        stores none of their results: a restarted session re-solves
        them on its next update."""
        from repro.core.persist import (
            SECTION_DEP_INDEX,
            SECTION_SESSION_META,
            decode_summary_container,
        )
        from repro.server import ServerClient, ServerConfig, ServerThread

        with ServerThread(
            ServerConfig(port=0, state_dir=str(tmp_path))
        ) as handle:
            with ServerClient(port=handle.port) as c:
                c.analyze(self.SOURCE, session="laned", lanes=list(ALL_LANES))
            path = handle.server._session_state_path("laned")
        with open(path, "rb") as fh:
            _payload, sections = decode_summary_container(fh.read())
        assert set(sections) == {SECTION_DEP_INDEX, SECTION_SESSION_META}
        meta = json.loads(sections[SECTION_SESSION_META].decode("utf-8"))
        assert meta["lanes"] == list(ALL_LANES)

    def test_earlier_state_file_with_lane_sections_restores(self, tmp_path):
        """A state file an earlier build wrote, with its lane sections,
        still restores its session.  Its dependency index is format 2,
        which this reader refuses, so the next update is the documented
        downgrade: a full re-solve (``full_resolve``) whose summary
        equals a scratch solve, keeping the lanes its metadata names and
        re-solving them."""
        import shutil

        from repro.server import ServerClient, ServerConfig, ServerThread
        from tests.test_persist_roundtrip import GOLDEN_V4
        from tests.test_persist_roundtrip import SOURCE as LEDGER

        lanes = ("sections", "refalias")
        edited = LEDGER.replace("  slot := 2\n", "  slot := 3\n")
        assert edited != LEDGER
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as handle:
            shutil.copy(
                GOLDEN_V4 + ".cki",
                handle.server._session_state_path("golden"),
            )
            with ServerClient(port=handle.port) as c:
                reply = c.update("golden", edited)
        assert reply["update_stats"]["index_reloaded"] is True
        assert reply["update_stats"]["full_resolve"] is True
        assert reply["session"]["lanes"] == list(lanes)
        reference = analyze_side_effects(edited, lanes=lanes)
        assert _canon(reply["summary"]) == _canon(summary_to_dict(reference))
        assert _canon(reply["lanes"]) == _canon(result_meta(reference)["lanes"])

    def test_update_keeps_lanes_across_a_restart(self, tmp_path):
        """A laned session keeps its lanes through ``update``, in memory
        and after a restart: the reply's lane blocks equal a fresh laned
        analysis of the edited source, ``query select=lanes`` still
        lists them, and the state file names them without storing their
        sections."""
        from repro.core.persist import (
            SECTION_LANE_REFALIAS,
            SECTION_LANE_SECTIONS,
            SECTION_SESSION_META,
            decode_summary_container,
        )
        from repro.server import ServerClient, ServerConfig, ServerThread

        lanes = ("sections", "refalias")
        edited = self.SOURCE.replace("  a := g\n", "  a := g\n  h := b\n")
        assert edited != self.SOURCE

        def check(client, reply, source, path):
            reference = analyze_side_effects(source, lanes=lanes)
            assert _canon(reply["lanes"]) == _canon(
                result_meta(reference)["lanes"]
            )
            assert client.query("laned", "lanes")["result"] == ["refalias", "sections"]
            with open(path, "rb") as fh:
                _payload, sections = decode_summary_container(fh.read())
            assert not {SECTION_LANE_SECTIONS, SECTION_LANE_REFALIAS} & set(sections)
            meta = json.loads(sections[SECTION_SESSION_META].decode("utf-8"))
            assert meta["lanes"] == list(lanes)

        config = ServerConfig(port=0, state_dir=str(tmp_path))
        with ServerThread(config) as handle:
            path = handle.server._session_state_path("laned")
            with ServerClient(port=handle.port) as c:
                c.analyze(self.SOURCE, session="laned", lanes=",".join(lanes))
                reply = c.update("laned", edited)
                assert reply["update_stats"]["index_reloaded"] is False
                check(c, reply, edited, path)
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as handle:
            with ServerClient(port=handle.port) as c:
                reply = c.update("laned", self.SOURCE)
                assert reply["update_stats"]["index_reloaded"] is True
                assert reply["update_stats"]["full_resolve"] is False
                assert reply["session"]["lanes"] == list(lanes)
                check(c, reply, self.SOURCE, path)
