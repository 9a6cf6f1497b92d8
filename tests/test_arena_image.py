"""The mmap container loader and the dependency floor.

* the **container loader** — earlier builds' v3 payloads and legacy
  JSON files load through the same mmap path, and torn or missing files
  fail with the documented exception classes;
* the **dependency floor** — analysis, persistence, the container load
  and the summary cache's store and hit use the standard library
  alone: NumPy is never imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.persist import load_summary_container_file, load_summary_payload_file
from tests.container_reference import encode_summary_payload

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


# ---------------------------------------------------------------------------
# The mmap container loader.
# ---------------------------------------------------------------------------


class TestContainerLoader:
    def test_payload_round_trip(self, tmp_path):
        payload = {"answer": 42, "sets": [1, 2, 3], "name": "x"}
        path = str(tmp_path / "payload.ckb")
        with open(path, "wb") as handle:
            handle.write(encode_summary_payload(payload))
        assert load_summary_payload_file(path) == payload
        loaded, sections = load_summary_container_file(path)
        assert loaded == payload
        assert sections == {}

    def test_legacy_json_round_trip(self, tmp_path):
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as handle:
            handle.write('{"answer": 42}')
        assert load_summary_payload_file(path) == {"answer": 42}
        loaded, sections = load_summary_container_file(path)
        assert loaded == {"answer": 42}
        assert sections == {}

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_summary_payload_file(str(tmp_path / "absent.ckb"))

    def test_garbage_is_valueerror(self, tmp_path):
        path = str(tmp_path / "torn.ckb")
        with open(path, "wb") as handle:
            handle.write(b"\x00\x01garbage")
        with pytest.raises(ValueError):
            load_summary_payload_file(path)


# ---------------------------------------------------------------------------
# The dependency floor.
# ---------------------------------------------------------------------------


def test_analysis_and_warm_start_never_import_numpy(tmp_path):
    """A 1000-procedure flat program, analyzed from source, written as
    a container, loaded back through the mmap path, and stored in and
    served from the summary cache as a batch run does, runs on the
    standard library alone.  A fresh interpreter keeps modules other
    tests imported out of the check."""
    script = textwrap.dedent(
        """
        import sys

        from repro.core.persist import (
            decode_summary_container, load_summary_container_file,
            summary_to_bytes,
        )
        from repro.core.pipeline import analyze_side_effects
        from repro.lang.pretty import pretty
        from repro.service.cache import SummaryCache, encode_record
        from repro.workloads.generator import GeneratorConfig, generate_program

        out_dir = sys.argv[1]
        source = pretty(generate_program(
            GeneratorConfig(seed=0, num_procs=1000, num_globals=200)))
        summary = analyze_side_effects(source)
        blob = summary_to_bytes(summary)
        with open(out_dir + "/summary.ckb", "wb") as handle:
            handle.write(blob)
        loaded = load_summary_container_file(out_dir + "/summary.ckb")
        assert loaded == decode_summary_container(blob)
        cache = SummaryCache(out_dir + "/cache")
        cache.put("key", encode_record(summary))
        assert cache.get("key") is not None
        assert "numpy" not in sys.modules, "numpy was imported"
        print("ok")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC_DIR, env.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
