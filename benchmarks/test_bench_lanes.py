"""Effect-lane benchmark (E15): marginal cost per added lane.

Protocol (mirrors a user turning on extra analyses for one corpus
pass):

1. Generate a scale-free program and solve the fused MOD+USE system
   four times on a cold arena, adding one lane per run: no lanes, then
   ``refalias``, then ``refalias,sections``, then a third synthetic
   pass-through lane.  Every run is timed end to end (generation
   excluded) and counter-asserts exactly **one** call-graph
   condensation — the lane framework's core promise.
2. Solve the §6 regular-sections system *standalone*
   (:func:`analyze_sections` after a plain fused solve — what a user
   without lanes would run) at the same scale.
3. Record the deltas: what each added lane cost on top of the previous
   run, and the sections lane's delta as a fraction of the standalone
   sections solve.

The record lands in ``BENCH_lanes.json`` at the repo root.  Headline
claims, asserted at the 10k default by ``test_lanes_bench_10k``:

* adding the sections lane to a MOD+USE run costs **< 40%** of a
  separate sections solve (the lane rides the already-condensed,
  already-traversed arena instead of redoing the graph work);
* cost per added lane is sublinear — the third lane's delta is a small
  fraction of the second's, because the component walk, condensation,
  and fixpoint scheduling are shared across all lanes.

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

from repro.core.arena import clear_arena_cache, get_arena
from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.lanes import LaneSpec, get_lane, register_lane
from repro.sections.solver import analyze_sections
from repro.workloads.generator import GeneratorConfig, generate_resolved

DEFAULT_PROCS = 10000
DEFAULT_GLOBALS = 200
DEFAULT_SEED = 7

TRACER = "_bench_tracer"


class _TracerLane:
    """A pass-through up-lane: rides every component sweep, computes
    nothing.  Its delta isolates the framework's per-lane overhead
    (scheduling + one extra state walk) from any lane's own math."""

    direction = "up"

    def __init__(self, arena):
        self.components_seen = 0

    def sweep_component(self, comp_index, members, ctx):
        self.components_seen += 1
        return False

    def finalize(self, ctx):
        pass


def _ensure_tracer() -> None:
    try:
        get_lane(TRACER)
    except ValueError:
        register_lane(
            LaneSpec(
                name=TRACER,
                description="benchmark-only pass-through lane",
                direction="up",
                mask_width=lambda arena: 1,
                make_state=_TracerLane,
            )
        )


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
    _ensure_tracer()
    config = _config_for(num_procs, num_globals)

    # Every run takes the default path.  Lane mode once forced the
    # non-linear ``reference`` GMOD solver, the only one that read the
    # arena's cached condensation, and the lane-less baseline pinned it
    # too so the deltas measured lanes and nothing else.  Now the GMOD
    # walk records the condensation the lanes read, so laned and
    # lane-less runs solve GMOD the same way.
    variants = (
        ("base", ()),
        ("one_lane", ("refalias",)),
        ("two_lane", ("refalias", "sections")),
        ("three_lane", ("refalias", "sections", TRACER)),
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

    # The comparator: a user without lanes runs the fused MOD+USE
    # pipeline, then a separate sections solve on the same program.
    # The arena's condensation is warm (analyze_sections reuses it —
    # the satellite fix), so this measures the sections solver +
    # projection work, the honest lower bound on "a separate solve".
    standalone = float("inf")
    for _ in range(repeats):
        clear_arena_cache()
        resolved = generate_resolved(config)
        analyze_side_effects(resolved)
        tick = time.perf_counter()
        analyze_sections(resolved, EffectKind.MOD)
        standalone = min(standalone, time.perf_counter() - tick)
    clear_arena_cache()

    refalias_delta = times["one_lane"] - times["base"]
    sections_delta = times["two_lane"] - times["one_lane"]
    tracer_delta = times["three_lane"] - times["two_lane"]
    return {
        "schema": "ck-bench-lanes/1",
        "workload": {
            "num_procs": num_procs,
            "num_globals": num_globals,
            "seed": DEFAULT_SEED,
        },
        "repeats": repeats,
        "base_s": times["base"],
        "one_lane_s": times["one_lane"],
        "two_lane_s": times["two_lane"],
        "three_lane_s": times["three_lane"],
        "standalone_sections_s": standalone,
        "refalias_delta_s": refalias_delta,
        "sections_delta_s": sections_delta,
        "tracer_delta_s": tracer_delta,
        "sections_fraction": sections_delta / max(standalone, 1e-9),
        "one_condensation": True,  # Asserted above for every run.
    }


def write_bench_json(result, path: Optional[Path] = None) -> Path:
    """Write one record or a list of per-scale records (1k + 10k)."""
    if path is None:
        path = REPO_ROOT / "BENCH_lanes.json"
    records = result if isinstance(result, list) else [result]
    payload = {"schema": "ck-bench-lanes/1", "scales": records}
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
    assert result["standalone_sections_s"] > 0.0
    path = write_bench_json(result)
    assert json.loads(path.read_text())["schema"] == "ck-bench-lanes/1"


def test_lanes_bench_10k():
    """The acceptance claims at the 10k workload: adding the sections
    lane to MOD+USE costs < 40% of a separate sections solve, and the
    third lane's marginal cost is a small fraction of the second's.
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
        "+tracer %.2fs  standalone sections %.2fs  fraction %.1f%%"
        % (
            num_procs,
            result["base_s"],
            result["one_lane_s"],
            result["two_lane_s"],
            result["three_lane_s"],
            result["standalone_sections_s"],
            100.0 * result["sections_fraction"],
        )
    )
    if num_procs == DEFAULT_PROCS:
        assert result["sections_fraction"] < 0.40, (
            "sections lane delta is %.0f%% of a standalone solve"
            % (100.0 * result["sections_fraction"])
        )
        assert result["tracer_delta_s"] < 0.25 * max(
            result["sections_delta_s"], 1e-9
        ), "per-lane overhead is not sublinear"
