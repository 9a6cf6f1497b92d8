"""Incremental-engine benchmark (E13): demand-driven update vs scratch.

Protocol (mirrors an editor session on a large program):

1. Generate a 10k-procedure scale-free program, analyze it from
   scratch, and write its container with the dependency index
   section, as the analysis server writes a session's state file.
2. Pick a *leaf-local* edit target: the first procedure that forms a
   singleton call-graph SCC and owns a local that nothing modifies,
   and append ``local := local + 1`` to its body — a real edit whose
   true invalidation region is one procedure.
3. Measure three solves of the edited program:

   * **scratch** — full ``analyze_side_effects`` on a cold arena;
   * **warm** — ``incremental_update`` against the live old summary
     (the in-process server session path);
   * **reloaded** — ``incremental_update_from_index`` against the
     index read back from that container, cold arena (the
     post-restart server path).

   Each variant's summary must serialize to the *same bytes* as the
   scratch solve — the speedups are only meaningful because the answer
   is provably identical.

The record is written to ``BENCH_incremental.json`` at the repo root.
The headline claims, asserted by ``test_incremental_bench_10k``: both
warm and reloaded updates are ≥10x faster than scratch at 10k procs.

Environment knobs: ``CK_INCR_BENCH_PROCS`` / ``CK_INCR_BENCH_REPEATS``
resize the slow test; ``CK_INCR_BENCH_100K=1`` additionally runs the
100k-procedure region check (the invalidation region stays orders of
magnitude below program size while the result stays byte-identical).
"""

from __future__ import annotations

import copy
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.arena import clear_arena_cache, peek_arena
from repro.core.depindex import (
    build_dependency_index,
    index_from_container,
    index_section,
)
from repro.core.incremental import (
    incremental_update,
    incremental_update_from_index,
)
from repro.core.persist import SECTION_DEP_INDEX, summary_to_bytes
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.lang.nodes import Assign, BinOp, IntLit, VarRef
from repro.lang.semantic import analyze
from repro.workloads.generator import GeneratorConfig, generate_program

DEFAULT_PROCS = 10000
DEFAULT_GLOBALS = 600
DEFAULT_SEED = 7


def _config_for(num_procs: int) -> GeneratorConfig:
    return GeneratorConfig(
        seed=DEFAULT_SEED, num_procs=num_procs, num_globals=DEFAULT_GLOBALS
    )


def _pick_leaf_edit(resolved, summary):
    """``(proc, local)``: a singleton-SCC procedure with a local that
    no statement modifies — the smallest honest edit target."""
    arena = peek_arena(resolved)
    comp_of, comps = arena.call_condensation()
    lmod = summary.local.initial(EffectKind.MOD)
    for proc in resolved.procs:
        if proc.pid == resolved.main.pid:
            continue
        if len(comps[comp_of[proc.pid]]) != 1:
            continue
        for var in proc.locals:
            if not (lmod[proc.pid] >> var.uid) & 1:
                return proc, var
    raise AssertionError("workload has no singleton-SCC leaf target")


def _apply_edit(program, qualified_name: str, local_name: str):
    """Deep-copy the pristine AST and append ``local := local + 1`` to
    the named procedure's body."""

    def find(decls, path):
        for decl in decls:
            if decl.name == path[0]:
                return decl if len(path) == 1 else find(decl.nested, path[1:])
        raise KeyError(qualified_name)

    edited = copy.deepcopy(program)
    decl = find(edited.procs, qualified_name.split("."))
    decl.body.append(
        Assign(
            target=VarRef(local_name),
            value=BinOp("+", VarRef(local_name), IntLit(1)),
        )
    )
    return edited


def measure_incremental_benchmark(
    num_procs: int = DEFAULT_PROCS, repeats: int = 2
) -> Dict:
    """Run the full E13 protocol at one scale; returns the BENCH record."""
    program = generate_program(_config_for(num_procs))

    clear_arena_cache()
    old_resolved = analyze(copy.deepcopy(program))
    old_summary = analyze_side_effects(old_resolved)
    old_summary.dep_index = build_dependency_index(old_summary)
    blob = index_section(old_summary)
    state = summary_to_bytes(old_summary, sections={SECTION_DEP_INDEX: blob})

    proc, local = _pick_leaf_edit(old_resolved, old_summary)
    edited = _apply_edit(program, proc.qualified_name, local.name)

    gc.collect()
    gc.disable()
    try:
        # Scratch: cold arena, full pipeline, best of ``repeats``.
        scratch_s = float("inf")
        scratch_bytes = None
        for _ in range(repeats):
            clear_arena_cache()
            fresh = analyze(copy.deepcopy(edited))
            tick = time.perf_counter()
            scratch = analyze_side_effects(fresh)
            scratch_s = min(scratch_s, time.perf_counter() - tick)
            scratch_bytes = summary_to_bytes(scratch)
            del scratch

        # Warm: live old summary in memory (in-process session).
        warm_s = float("inf")
        warm_stats = None
        for _ in range(repeats):
            new_resolved = analyze(copy.deepcopy(edited))
            tick = time.perf_counter()
            warm, stats = incremental_update(old_summary, new_resolved)
            warm_s = min(warm_s, time.perf_counter() - tick)
            warm_stats = stats
            assert summary_to_bytes(warm) == scratch_bytes, (
                "warm incremental summary diverged from scratch")
            del warm

        # Reloaded: the index read back from the state file, cold
        # arena (post-restart).
        reloaded_index = index_from_container(state)
        reloaded_s = float("inf")
        reloaded_stats = None
        for _ in range(repeats):
            clear_arena_cache()
            new_resolved = analyze(copy.deepcopy(edited))
            tick = time.perf_counter()
            reloaded, stats = incremental_update_from_index(
                reloaded_index, new_resolved, reloaded=True)
            reloaded_s = min(reloaded_s, time.perf_counter() - tick)
            reloaded_stats = stats
            assert summary_to_bytes(reloaded) == scratch_bytes, (
                "reloaded incremental summary diverged from scratch")
            del reloaded
    finally:
        gc.enable()
        clear_arena_cache()

    return {
        "schema": "ck-bench-incremental/1",
        "workload": {
            "num_procs": num_procs,
            "num_globals": DEFAULT_GLOBALS,
            "seed": DEFAULT_SEED,
            "edit_target": proc.qualified_name,
            "num_call_sites": old_resolved.num_call_sites,
        },
        "repeats": repeats,
        "index_bytes": len(blob),
        "scratch_s": scratch_s,
        "warm_s": warm_s,
        "reloaded_s": reloaded_s,
        "warm_speedup": scratch_s / max(warm_s, 1e-9),
        "reloaded_speedup": scratch_s / max(reloaded_s, 1e-9),
        "byte_identical": True,  # Asserted above for every round.
        "warm_stats": warm_stats.to_dict(),
        "reloaded_stats": reloaded_stats.to_dict(),
    }


def measure_region_check(num_procs: int) -> Dict:
    """One warm update at ``num_procs``: asserts the re-solved region
    is a vanishing fraction of the program and the bytes still match.
    No scratch timing loop — this is a scale check, not a speed race."""
    program = generate_program(_config_for(num_procs))
    clear_arena_cache()
    old_resolved = analyze(copy.deepcopy(program))
    old_summary = analyze_side_effects(old_resolved)
    proc, local = _pick_leaf_edit(old_resolved, old_summary)
    edited = _apply_edit(program, proc.qualified_name, local.name)

    new_resolved = analyze(copy.deepcopy(edited))
    updated, stats = incremental_update(old_summary, new_resolved)

    clear_arena_cache()
    scratch = analyze_side_effects(analyze(copy.deepcopy(edited)))
    assert summary_to_bytes(updated) == summary_to_bytes(scratch), (
        "incremental summary diverged from scratch at %d procs" % num_procs)
    return {
        "num_procs": num_procs,
        "region_procs": stats.region_procs,
        "affected_procs": stats.affected_procs,
        "total_procs": stats.total_procs,
        "reuse_fraction": stats.reuse_fraction,
    }


def write_bench_json(result: Dict, path: Optional[Path] = None) -> Path:
    if path is None:
        path = REPO_ROOT / "BENCH_incremental.json"
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_incremental_bench_smoke():
    """Small run: the whole protocol executes, the result is
    byte-identical on all three paths, and the record is written.  No
    speedup assertions — at toy scale the timings are noise; CI's
    bench-smoke job runs this so the artifact upload always has a
    ``BENCH_incremental.json``."""
    result = measure_incremental_benchmark(num_procs=400, repeats=1)
    assert result["byte_identical"]
    assert result["warm_stats"]["reuse_fraction"] > 0.5
    assert result["reloaded_stats"]["index_reloaded"] is True
    assert result["index_bytes"] > 0
    path = write_bench_json(result)
    assert json.loads(path.read_text())["schema"] == "ck-bench-incremental/1"


def test_incremental_bench_10k():
    """The acceptance claims: a leaf edit at the 10k workload updates
    ≥10x faster than scratch, both warm and after an index reload, and
    every path produces byte-identical output (asserted inside the
    measurement)."""
    num_procs = int(os.environ.get("CK_INCR_BENCH_PROCS", DEFAULT_PROCS))
    repeats = int(os.environ.get("CK_INCR_BENCH_REPEATS", 2))
    result = measure_incremental_benchmark(num_procs=num_procs, repeats=repeats)
    write_bench_json(result)
    print(
        "\nincremental bench @%d: scratch %.2fs  warm %.3fs (%.1fx)  "
        "reloaded %.3fs (%.1fx)  region %d/%d procs"
        % (
            num_procs,
            result["scratch_s"],
            result["warm_s"],
            result["warm_speedup"],
            result["reloaded_s"],
            result["reloaded_speedup"],
            result["warm_stats"]["region_procs"],
            result["warm_stats"]["total_procs"],
        )
    )
    if num_procs == DEFAULT_PROCS:
        assert result["warm_speedup"] >= 10.0, (
            "warm update only %.1fx scratch" % result["warm_speedup"])
        assert result["reloaded_speedup"] >= 10.0, (
            "reloaded update only %.1fx scratch" % result["reloaded_speedup"])
        assert result["warm_stats"]["reuse_fraction"] > 0.99


def test_incremental_region_100k():
    """Env-gated (``CK_INCR_BENCH_100K=1``): at 100k procedures a leaf
    edit re-solves a region orders of magnitude smaller than the
    program, byte-identically."""
    import pytest

    if os.environ.get("CK_INCR_BENCH_100K") != "1":
        pytest.skip("set CK_INCR_BENCH_100K=1 to run the 100k region check")
    record = measure_region_check(100_000)
    print("\n100k region check: %s" % json.dumps(record, sort_keys=True))
    assert record["region_procs"] <= record["total_procs"] // 1000
    assert record["affected_procs"] <= record["total_procs"] // 1000
    assert record["reuse_fraction"] > 0.999
