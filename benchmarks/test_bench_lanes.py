"""Effect-lane benchmark (E15): marginal cost per added lane.

Protocol (mirrors a user turning on extra analyses for one corpus
pass):

1. Generate a scale-free program and solve the fused MOD+USE system
   three times on a cold arena, adding one lane per run: no lanes, then
   ``refalias``, then ``refalias,sections``.  Every run is timed end to
   end (generation excluded) and counter-asserts exactly **one**
   call-graph condensation.
2. Solve the §6 regular-sections system with the sweep oracle
   (:func:`analyze_sections_sweep` after a plain fused solve): the
   whole-map sweep, the algorithm the sections solver replaced.
3. Record the deltas: what each added lane cost on top of the previous
   run, and the sections lane's delta as a fraction of the sweep.

The record lands in ``BENCH_lanes.json`` at the repo root.  Headline
claim, asserted at the 10k default by ``test_lanes_bench_10k``: adding
the sections lane to a MOD+USE run costs **< 40%** of a sweep solve of
the same system (the delta-driven solve translates each fact once per
change instead of re-projecting every callee map on every sweep, and
rides the already-condensed arena).

Environment knobs: ``CK_LANE_BENCH_PROCS`` / ``CK_LANE_BENCH_REPEATS``
resize the slow test.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.baselines.sections_sweep import analyze_sections_sweep
from repro.core.arena import clear_arena_cache, get_arena
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.workloads.generator import GeneratorConfig, generate_resolved

DEFAULT_PROCS = 10000
DEFAULT_GLOBALS = 200
DEFAULT_SEED = 7

SCHEMA = "ck-bench-lanes/2"


def _config_for(num_procs: int, num_globals: int) -> GeneratorConfig:
    return GeneratorConfig(
        seed=DEFAULT_SEED,
        num_procs=num_procs,
        num_globals=num_globals,
        max_depth=3,
    )


def measure_lanes_benchmark(
    num_procs: int = DEFAULT_PROCS,
    num_globals: int = DEFAULT_GLOBALS,
    repeats: int = 2,
) -> Dict:
    """Run the full E15 protocol at one scale; returns the BENCH record."""
    config = _config_for(num_procs, num_globals)

    # Every run takes the default path: the GMOD walk records the
    # condensation the sections solver reads, so laned and lane-less
    # runs solve GMOD the same way.
    variants = (
        ("base", ()),
        ("one_lane", ("refalias",)),
        ("two_lane", ("refalias", "sections")),
    )
    times: Dict[str, float] = {}
    for label, lanes in variants:
        best = float("inf")
        for _ in range(repeats):
            clear_arena_cache()
            resolved = generate_resolved(config)  # Excluded from timing.
            tick = time.perf_counter()
            summary = analyze_side_effects(resolved, lanes=lanes)
            best = min(best, time.perf_counter() - tick)
            assert summary.condensations == {"beta": 1, "call": 1}, (
                "%s run condensed more than once: %r"
                % (label, summary.condensations)
            )
            assert get_arena(resolved).condensation_counts == {
                "beta": 1, "call": 1,
            }
            del summary
        times[label] = best

    # The comparator: the sweep oracle run after the fused MOD+USE
    # pipeline on the same program.  The arena's condensation is warm
    # (the sweep reads it too), so this measures the sweep and its
    # projection pass alone.
    sweep = float("inf")
    for _ in range(repeats):
        clear_arena_cache()
        resolved = generate_resolved(config)
        analyze_side_effects(resolved)
        tick = time.perf_counter()
        analyze_sections_sweep(resolved, EffectKind.MOD)
        sweep = min(sweep, time.perf_counter() - tick)
    clear_arena_cache()

    refalias_delta = times["one_lane"] - times["base"]
    sections_delta = times["two_lane"] - times["one_lane"]
    return {
        "schema": SCHEMA,
        "workload": {
            "num_procs": num_procs,
            "num_globals": num_globals,
            "seed": DEFAULT_SEED,
        },
        "repeats": repeats,
        "base_s": times["base"],
        "one_lane_s": times["one_lane"],
        "two_lane_s": times["two_lane"],
        "sweep_sections_s": sweep,
        "refalias_delta_s": refalias_delta,
        "sections_delta_s": sections_delta,
        "sections_fraction": sections_delta / max(sweep, 1e-9),
        "one_condensation": True,  # Asserted above for every run.
    }


def write_bench_json(result, path: Optional[Path] = None) -> Path:
    """Write one record or a list of per-scale records (1k + 10k)."""
    if path is None:
        path = REPO_ROOT / "BENCH_lanes.json"
    records = result if isinstance(result, list) else [result]
    payload = {"schema": SCHEMA, "scales": records}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_lanes_bench_smoke():
    """Small run: the whole protocol executes, every run condenses
    once, and the record is written.  No timing assertions — at toy
    scale the deltas are noise; CI's bench-smoke job runs this so the
    artifact upload always has a ``BENCH_lanes.json``."""
    result = measure_lanes_benchmark(num_procs=120, num_globals=24, repeats=1)
    assert result["one_condensation"]
    assert result["sweep_sections_s"] > 0.0
    path = write_bench_json(result)
    assert json.loads(path.read_text())["schema"] == SCHEMA


def test_lanes_bench_10k():
    """The acceptance claim at the 10k workload: adding the sections
    lane to MOD+USE costs < 40% of a sweep solve of the same system.
    The record pairs a 1k run with the headline scale so
    ``BENCH_lanes.json`` shows the fraction at both sizes."""
    num_procs = int(os.environ.get("CK_LANE_BENCH_PROCS", DEFAULT_PROCS))
    repeats = int(os.environ.get("CK_LANE_BENCH_REPEATS", 2))
    records = [measure_lanes_benchmark(num_procs=1000, repeats=repeats)]
    result = measure_lanes_benchmark(num_procs=num_procs, repeats=repeats)
    records.append(result)
    write_bench_json(records)
    print(
        "\nlane bench @%d: base %.2fs  +refalias %.2fs  +sections %.2fs  "
        "sweep oracle %.2fs  fraction %.1f%%"
        % (
            num_procs,
            result["base_s"],
            result["one_lane_s"],
            result["two_lane_s"],
            result["sweep_sections_s"],
            100.0 * result["sections_fraction"],
        )
    )
    if num_procs == DEFAULT_PROCS:
        assert result["sections_fraction"] < 0.40, (
            "sections lane delta is %.0f%% of a sweep solve"
            % (100.0 * result["sections_fraction"])
        )
