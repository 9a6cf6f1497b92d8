"""Middle-end solver benchmark (E12): the fused-arena claims.

Measures the fused one-pass MOD+USE solve against the paper's per-kind
solvers (the oracle :func:`repro.baselines.per_kind.analyze_per_kind`,
called "legacy" in the record) on the same resolved programs, per
phase, at two scales (1k and 10k procedures):

* **Solve phase** — combined ``rmod + imod_plus + gmod + dmod`` wall
  time, fused vs legacy.  Claim: ≥1.5x at the 10k workload.  The fused
  path pays each graph traversal, SCC condensation, and site/binding
  decode once for both kinds; the legacy path pays them per kind.
* **End to end** — one full ``analyze_side_effects`` from source on
  the PR 4 benchmark workload, vs the recorded pre-arena baseline
  (``benchmarks/baseline_core.json``).  Claim: ≥1.25x.
* **Condensation accounting** — the arena's counter must show exactly
  one ``tarjan_scc``-equivalent pass per graph per analysis
  (``{"beta": 1, "call": 1}`` on a cold arena), and the β pass cached
  away entirely on a warm re-analysis.

Timing methodology matches the other benches: the collector is paused
inside timed regions, per-run minima over ``repeats`` rounds are
reported, and each path's summary is dropped before the other path
runs — at 10k scale a retained summary holds hundreds of MB of masks
and its heap pressure alone visibly taxes the successor measurement.

The result is written to ``BENCH_core.json`` at the repo root.

Environment knobs: ``CK_CORE_BENCH_PROCS`` (default 10000) and
``CK_CORE_BENCH_REPEATS`` (default 3) resize the slow test.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.baselines.per_kind import analyze_per_kind
from repro.core.arena import clear_arena_cache
from repro.core.pipeline import analyze_side_effects
from repro.lang.pretty import pretty
from repro.workloads.generator import (
    generate_program,
    generate_resolved,
    large_scale_config,
)

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_core.json"

DEFAULT_PROCS = 10000
DEFAULT_GLOBALS = 2000
DEFAULT_LOCALS_RANGE = (8, 12)
DEFAULT_SEED = 11

#: The phases whose sum is "the solve" (GMOD/GUSE through equation (2);
#: alias factoring is folded into the dmod mark in both paths).
SOLVE_PHASES = ("rmod", "imod_plus", "gmod", "dmod")
REPORT_PHASES = SOLVE_PHASES + ("graphs", "aliases", "total")


def _config_for(num_procs: int, num_globals: int):
    return large_scale_config(
        num_procs,
        seed=DEFAULT_SEED,
        num_globals=num_globals,
        locals_range=DEFAULT_LOCALS_RANGE,
    )


def _measure_path(resolved, fused: bool, repeats: int) -> Tuple[Dict, Dict]:
    """Best-of-``repeats`` run of one path; returns ``(record,
    condensations)`` where the record carries the per-phase timings of
    the fastest round."""
    best_total = float("inf")
    best_timings: Dict[str, float] = {}
    condensations: Dict[str, int] = {}
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            clear_arena_cache()
            tick = time.perf_counter()
            if fused:
                summary = analyze_side_effects(resolved)
            else:
                summary = analyze_per_kind(resolved)
            elapsed = time.perf_counter() - tick
            if elapsed < best_total:
                best_total = elapsed
                best_timings = dict(summary.timings)
            if fused:
                condensations = dict(summary.condensations or {})
            del summary
    finally:
        gc.enable()
        clear_arena_cache()
    record = {
        "total_s": best_total,
        "solve_s": sum(best_timings.get(phase, 0.0) for phase in SOLVE_PHASES),
        "timings": {
            phase: best_timings[phase]
            for phase in REPORT_PHASES
            if phase in best_timings
        },
    }
    return record, condensations


def _measure_warm_condensations(resolved) -> Dict[str, int]:
    """Condensation delta of a re-analysis on a warm arena: the cached
    β pass must not re-count."""
    clear_arena_cache()
    analyze_side_effects(resolved)
    warm = analyze_side_effects(resolved)
    clear_arena_cache()
    return dict(warm.condensations or {})


def measure_scale(num_procs: int, num_globals: int, repeats: int) -> Dict:
    """Fused-vs-legacy comparison at one workload scale."""
    resolved = generate_resolved(_config_for(num_procs, num_globals))
    legacy, _ = _measure_path(resolved, fused=False, repeats=repeats)
    fused, condensations = _measure_path(resolved, fused=True, repeats=repeats)
    warm_condensations = _measure_warm_condensations(resolved)
    return {
        "workload": {
            "num_procs": num_procs,
            "num_globals": num_globals,
            "locals_range": list(DEFAULT_LOCALS_RANGE),
            "seed": DEFAULT_SEED,
            "num_variables": len(resolved.variables),
            "num_call_sites": resolved.num_call_sites,
        },
        "legacy": legacy,
        "fused": fused,
        "solve_speedup": legacy["solve_s"] / max(fused["solve_s"], 1e-9),
        "total_speedup": legacy["total_s"] / max(fused["total_s"], 1e-9),
        "condensations": condensations,
        "condensations_warm": warm_condensations,
    }


def measure_end_to_end(num_procs: int, num_globals: int) -> Dict:
    """One honest from-source ``analyze_side_effects`` pass (the fused
    default path) on the PR 4 benchmark workload."""
    source = pretty(generate_program(_config_for(num_procs, num_globals)))
    clear_arena_cache()
    gc.collect()
    gc.disable()
    try:
        tick = time.perf_counter()
        analyze_side_effects(source)
        end_to_end_s = time.perf_counter() - tick
    finally:
        gc.enable()
        clear_arena_cache()
    record = {"end_to_end_s": end_to_end_s, "source_bytes": len(source)}
    baseline = _load_baseline()
    if baseline is not None:
        record["baseline"] = {
            "recorded_at_commit": baseline.get("recorded_at_commit"),
            "end_to_end_s": baseline["end_to_end_s"],
        }
        if baseline.get("workload", {}).get("num_procs") == num_procs:
            record["end_to_end_speedup_vs_baseline"] = (
                baseline["end_to_end_s"] / end_to_end_s
            )
    return record


def measure_core_benchmark(
    scales: Tuple[Tuple[str, int, int], ...] = (
        ("1k", 1000, 200),
        ("10k", DEFAULT_PROCS, DEFAULT_GLOBALS),
    ),
    repeats: int = 3,
    end_to_end: bool = True,
) -> Dict:
    """Run every middle-end measurement; returns the BENCH record."""
    result: Dict = {
        "schema": "ck-bench-core/4",
        "repeats": repeats,
        "scales": {},
    }
    for label, num_procs, num_globals in scales:
        result["scales"][label] = measure_scale(num_procs, num_globals, repeats)
    if end_to_end:
        last_label, last_procs, last_globals = scales[-1]
        result["end_to_end"] = measure_end_to_end(last_procs, last_globals)
    return result


def _load_baseline() -> Optional[Dict]:
    try:
        return json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        return None


def write_bench_json(result: Dict, path: Optional[Path] = None) -> Path:
    if path is None:
        path = REPO_ROOT / "BENCH_core.json"
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_core_bench_smoke():
    """Small run: every measurement executes and the record is written.

    No ratio assertions — absolute numbers at toy scale are noise; the
    speed claims live in the 10k test.  CI's bench-smoke job runs this
    so the artifact upload always has a ``BENCH_core.json``.  The
    condensation-count claims *are* asserted: they are structural, not
    timing-dependent.
    """
    result = measure_core_benchmark(
        scales=(("smoke", 300, 60),), repeats=1, end_to_end=False
    )
    scale = result["scales"]["smoke"]
    assert scale["legacy"]["solve_s"] > 0
    assert scale["fused"]["solve_s"] > 0
    assert scale["condensations"] == {"beta": 1, "call": 1}
    assert scale["condensations_warm"] == {"call": 1}
    path = write_bench_json(result)
    assert json.loads(path.read_text())["schema"] == "ck-bench-core/4"


def test_core_bench_10k():
    """The tentpole claims: ≥1.5x on the combined MOD+USE solve phase
    at the 10k workload vs the per-kind oracle, ≥1.25x end to end vs
    the recorded pre-arena baseline, and exactly one condensation per
    graph per analysis."""
    num_procs = int(os.environ.get("CK_CORE_BENCH_PROCS", DEFAULT_PROCS))
    repeats = int(os.environ.get("CK_CORE_BENCH_REPEATS", 3))
    big_label = "10k" if num_procs == DEFAULT_PROCS else str(num_procs)
    scales = (
        ("1k", 1000, 200),
        (big_label, num_procs, DEFAULT_GLOBALS),
    )
    result = measure_core_benchmark(scales=scales, repeats=repeats)
    write_bench_json(result)
    big = result["scales"][big_label]
    print(
        "\ncore bench @%s: solve legacy %.3fs fused %.3fs (%.2fx)  "
        "total %.3fs vs %.3fs (%.2fx)  end-to-end %.3fs"
        % (
            big_label,
            big["legacy"]["solve_s"],
            big["fused"]["solve_s"],
            big["solve_speedup"],
            big["legacy"]["total_s"],
            big["fused"]["total_s"],
            big["total_speedup"],
            result["end_to_end"]["end_to_end_s"],
        )
    )
    assert big["condensations"] == {"beta": 1, "call": 1}
    assert big["condensations_warm"] == {"call": 1}
    if num_procs == DEFAULT_PROCS:
        assert big["solve_speedup"] >= 1.5, (
            "fused solve only %.2fx the legacy path" % big["solve_speedup"]
        )
        speedup = result["end_to_end"].get("end_to_end_speedup_vs_baseline")
        if speedup is not None:
            assert speedup >= 1.25, (
                "end-to-end only %.2fx the recorded baseline" % speedup
            )
