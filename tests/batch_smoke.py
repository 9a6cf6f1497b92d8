"""CI smoke for ``ck-analyze batch``, run as a real OS process.

Generates a three-file corpus (one 300-procedure program, two small
ones) and runs the shipped ``python -m repro.cli batch`` on it twice
per lane choice — lane-less, then with ``--lanes sections,refalias`` —
each time cold and then warm, with ``--stats-json``, on the default
cache directory ``<corpus>/.ck-cache``.  It fails unless every run
exits 0, each warm run prints ``3 cached, 0 analyzed`` and reports 0
bit-vector steps and the cold run's per-lane file counts, and every
``.ck-cache/*.ckb`` entry loads through
``repro.core.persist.load_summary_container_file`` to exactly
``summary_to_dict(analyze_side_effects(source))`` for its source.
Invoked by ``make batch-smoke`` and the CI workflow — not collected by
pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)
sys.path.insert(0, REPO_SRC)

from repro.core.persist import load_summary_container_file, summary_to_dict  # noqa: E402
from repro.core.pipeline import analyze_side_effects  # noqa: E402
from repro.lang.pretty import pretty  # noqa: E402
from repro.service.cache import content_key  # noqa: E402
from repro.workloads.generator import GeneratorConfig, generate_program  # noqa: E402

#: The corpus: file name → generator shape.
CORPUS = {
    "big.ck": GeneratorConfig(seed=0, num_procs=300, num_globals=60),
    "small-a.ck": GeneratorConfig(seed=1, num_procs=12, num_globals=6),
    "small-b.ck": GeneratorConfig(seed=2, num_procs=12, num_globals=6, max_depth=3),
}

#: The lane choices each cold/warm pair runs with.
LANE_CHOICES = ((), ("sections", "refalias"))


def batch(corpus: str, lanes, stats_path: str):
    """One ``ck-analyze batch`` process; returns ``(stdout, stats)``."""
    command = [sys.executable, "-m", "repro.cli", "batch", corpus,
               "--stats-json", stats_path]
    if lanes:
        command += ["--lanes", ",".join(lanes)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
    )
    assert done.returncode == 0, "batch exited %d:\n%s%s" % (
        done.returncode, done.stdout, done.stderr)
    with open(stats_path) as handle:
        return done.stdout, json.load(handle)


def main() -> int:
    workdir = tempfile.mkdtemp()
    try:
        corpus = os.path.join(workdir, "corpus")
        os.makedirs(corpus)
        sources = {}
        for name, config in CORPUS.items():
            sources[name] = pretty(generate_program(config))
            with open(os.path.join(corpus, name), "w") as handle:
                handle.write(sources[name])
        assert max(config.num_procs for config in CORPUS.values()) >= 300

        expected_entries = {}
        for lanes in LANE_CHOICES:
            stats_path = os.path.join(workdir, "stats.json")
            out, cold = batch(corpus, lanes, stats_path)
            assert "3 ok (0 cached, 3 analyzed)" in out, out
            assert cold["ops"]["bit_vector_steps"] > 0
            out, warm = batch(corpus, lanes, stats_path)
            assert "3 ok (3 cached, 0 analyzed)" in out, out
            assert warm["ops"]["bit_vector_steps"] == 0
            assert warm["cache"]["hit_rate"] == 1.0
            files = {name: entry["files"]
                     for name, entry in cold["lanes"]["per_lane"].items()}
            assert files == {name: 3 for name in lanes}
            assert {name: entry["files"]
                    for name, entry in warm["lanes"]["per_lane"].items()} == files
            for name, source in sources.items():
                expected_entries[content_key(source, lanes) + ".ckb"] = name

        cache_dir = os.path.join(corpus, ".ck-cache")
        entries = sorted(name for name in os.listdir(cache_dir) if name.endswith(".ckb"))
        assert entries == sorted(expected_entries), entries
        for entry in entries:
            source = sources[expected_entries[entry]]
            payload, _sections = load_summary_container_file(
                os.path.join(cache_dir, entry))
            assert payload == summary_to_dict(analyze_side_effects(source)), entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("batch smoke: ok (%d files, %d lane choices, %d cache entries loaded)"
          % (len(CORPUS), len(LANE_CHOICES), len(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
