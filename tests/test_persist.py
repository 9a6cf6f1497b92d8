"""Summary serialization round-trip and verification tests."""

import copy
import json
import os

import pytest

from repro import analyze_side_effects
from repro.core.persist import (
    FORMAT_VERSION,
    LoadedSummary,
    summary_to_dict,
    summary_to_json,
    verify_against,
    write_file_atomic,
)
from repro.core.varsets import EffectKind
from repro.lang.semantic import compile_source
from repro.workloads import corpus, patterns


@pytest.fixture(scope="module")
def chain_summary():
    return analyze_side_effects(compile_source(patterns.chain(4)))


class TestSerialization:
    def test_payload_structure(self, chain_summary):
        payload = summary_to_dict(chain_summary)
        assert payload["version"] == FORMAT_VERSION
        assert payload["program"] == "chain"
        assert set(payload["procedures"]) == {"chain", "c1", "c2", "c3", "c4"}
        assert len(payload["call_sites"]) == 4

    def test_json_round_trip(self, chain_summary):
        text = summary_to_json(chain_summary)
        loaded = LoadedSummary.from_json(text)
        assert loaded.program_name == "chain"
        assert verify_against(loaded, chain_summary)

    def test_json_is_deterministic(self, chain_summary):
        assert summary_to_json(chain_summary) == summary_to_json(chain_summary)

    def test_gmod_names_accessible(self, chain_summary):
        loaded = LoadedSummary(summary_to_dict(chain_summary))
        assert loaded.gmod_names("c1") == ["c1::x"]
        assert loaded.rmod_names("c1") == ["x"]

    def test_mod_names_per_site(self, chain_summary):
        loaded = LoadedSummary(summary_to_dict(chain_summary))
        # Site 3 is main -> c1 (pid order: bodies resolved main-first,
        # but chain declares c1..c4 before main's call) — find it.
        entries = loaded.site_entries()
        main_sites = [e for e in entries if e["caller"] == "chain"]
        assert len(main_sites) == 1
        assert loaded.mod_names(main_sites[0]["site_id"]) == ["g"]

    def test_use_sets_serialized(self, chain_summary):
        loaded = LoadedSummary(summary_to_dict(chain_summary))
        entries = loaded.site_entries()
        assert all("use" in e and "duse" in e for e in entries)

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError):
            LoadedSummary({"version": 999})

    def test_verify_detects_stale_summary(self, chain_summary):
        stale = copy.deepcopy(summary_to_dict(chain_summary))  # Read-only.
        stale["procedures"]["c1"]["gmod"] = []
        changed = analyze_side_effects(compile_source(patterns.chain(4)))
        assert not verify_against(LoadedSummary(stale), changed)

    @pytest.mark.parametrize("name", sorted(corpus.ALL))
    def test_corpus_round_trip(self, name, corpus_programs):
        summary = analyze_side_effects(corpus_programs[name])
        text = summary_to_json(summary, indent=2)
        loaded = LoadedSummary.from_json(text)
        assert verify_against(loaded, summary)
        # Spot-check one set against the live object.
        site = summary.resolved.call_sites[0]
        live = {v.qualified_name for v in summary.mod(site)}
        assert set(loaded.mod_names(site.site_id)) == live


class TestWriteFileAtomic:
    def test_failed_replace_keeps_the_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.cki"
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_file_atomic(str(path), b"new")
        monkeypatch.undo()
        assert os.listdir(str(tmp_path)) == ["state.cki"]
        assert path.read_bytes() == b"old"
