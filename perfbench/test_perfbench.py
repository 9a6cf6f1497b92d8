"""Checks of the benchmark itself (not part of the repository's suite).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import batch_child  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from inputs import edit_sequence, load_record, make_source  # noqa: E402

SMALL = "\n".join([
    "program small",
    "  global g",
    "  global h",
    "  proc p(x)",
    "  begin",
    "    x := 1",
    "    call q(g)",
    "  end",
    "  proc q(y)",
    "  begin",
    "    h := y",
    "  end",
    "begin",
    "  call p(h)",
    "end",
    "",
])


def _traced_sample(tmp_path, layers=None):
    """One in-process traced batch sample; returns (sample, spans file)."""
    source_path = tmp_path / "in.ck"
    source_path.write_text(SMALL)
    spans_path = tmp_path / "spans.json"
    original = spans.LAYERS
    if layers is not None:
        spans.LAYERS = layers
    try:
        out = tmp_path / "out.txt"
        argv = [repr(spans.clock()), str(source_path), str(tmp_path / "out.ckb"),
                str(spans_path)]
        stdout = sys.stdout
        with open(out, "w") as handle:
            sys.stdout = handle
            try:
                assert batch_child.main(argv) == 0
            finally:
                sys.stdout = stdout
    finally:
        spans.LAYERS = original
    sample = json.loads(out.read_text().strip().splitlines()[-1])
    return sample, json.loads(spans_path.read_text())


def test_rows_add_up_to_the_traced_total(tmp_path):
    sample, data = _traced_sample(tmp_path)
    rows, counts, total = spans.attribute(data["spans"], [tuple(sample["root"])])
    assert total == pytest.approx(sample["to_disk_s"])
    assert sum(rows.values()) == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert min(rows.values()) >= -1e-9
    assert counts["lang.semantic.procs"] == 3
    assert counts["core.persist.bytes"] > 0
    assert data["absent"] == []
    assert rows["core.incremental.s"] == 0 and rows["server.wire_s"] == 0


def test_missing_attribute_is_an_absent_layer(tmp_path, monkeypatch):
    """A later change that deletes or merges a layer keeps the trace
    running: its targets are skipped and the rows still add up."""
    import repro.core.pipeline as pipeline

    monkeypatch.delattr(pipeline, "findgmod_per_level_fused")
    layers = spans.LAYERS + (
        ("core.retired.s", ("repro.core.no_such_module:solve",
                            "repro.core.pipeline:no_such_solver"), None),
    )
    sample, data = _traced_sample(tmp_path, layers)
    assert "repro.core.pipeline:findgmod_per_level_fused" in data["missing"]
    assert "core.retired.s" in data["absent"]
    rows, _counts, total = spans.attribute(data["spans"], [tuple(sample["root"])])
    assert sum(rows.values()) == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert rows["core.gmod.s"] > 0  # The other GMOD targets still report.


def test_uninstall_restores_every_attribute():
    import repro.core.persist as persist

    before = persist.summary_to_dict
    recorder = spans.install()
    assert persist.summary_to_dict is not before
    spans.uninstall(recorder)
    assert persist.summary_to_dict is before


def test_attribute_clips_and_ignores_outside_spans():
    trace = [
        ["a", 1.0, 3.0, {"gc.collections": 1}],
        ["b", 1.5, 2.0, None],
        ["a", 5.0, 6.0, None],  # Outside every root: ignored.
    ]
    rows, counts, total = spans.attribute(trace, [(0.0, 4.0)])
    assert total == 4.0
    assert rows["a"] == pytest.approx(1.5)
    assert rows["b"] == pytest.approx(0.5)
    assert rows["other_s"] == pytest.approx(2.0)
    assert counts["gc.collections"] == 1


def test_inputs_are_deterministic_and_edits_keep_lines():
    record = load_record()
    for name, spec in record["workloads"].items():
        assert make_source(spec, 5) == make_source(spec, 5), name
    spec = record["workloads"]["session-500"]
    source = make_source(spec, 2)
    edits = edit_sequence(source, 2)
    first, second = next(edits), next(edits)
    assert first != source and second != first
    assert len(first.split("\n")) == len(source.split("\n"))
    changed = [a for a, b in zip(source.split("\n"), first.split("\n")) if a != b]
    assert len(changed) == 1


def test_nest_closed_form_matches_equation_one():
    spec = load_record()["workloads"]["nest-80"]
    source = make_source(spec, 3)
    depth = spec["input"]["depth"]
    direct = oracle.independent_gmod(source)["mod"]
    for name, names in oracle.deep_nest_gmod(depth).items():
        assert direct[name] == names


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_run_is_correct(trace):
    done = _run(["--workload", "nest-80", "--seed", "1", "--seconds", "1",
                 "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    group = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {metric["name"] for metric in bench[group]}
    if trace == "1":
        assert result["metrics"]["trace.residual_s"]["value"] == pytest.approx(0, abs=1e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(["--workload", "nest-80", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
