"""Corpus-level statistics aggregation.

Rolls the per-file record metadata of a
:class:`~repro.service.batch.BatchReport` up into one JSON document:
per-phase wall-time totals, the paper's bit-vector/single-bit step
tallies summed across the corpus, cache accounting, and throughput.
The schema is version-stamped so downstream dashboards can detect
drift the same way the summary cache does.

This docstring is the one authoritative catalogue of every top-level
stats-JSON key (mirrored as a table in the README; the schema-check
test pins the two against :data:`STATS_KEYS`).

Stats JSON schema (``STATS_SCHEMA_VERSION`` 2)::

    {
      "schema": 2,            # STATS_SCHEMA_VERSION of the writer
      "corpus": {"root", "files", "ok", "errors", "timeouts",
                 "cached", "analyzed", "procs", "call_sites"},
      "phases": {phase: seconds, ...},        # summed over analyzed files
      "ops": {"bit_vector_steps", "single_bit_steps", "meet_operations"},
      "cache": {"hits", "misses", "stores", "invalid", "evictions",
                "hit_rate"} | null,           # null: run had no cache dir
      "lanes": {"requested": [name, ...],     # [] for lane-less runs
                "per_lane": {name: {"files",  # files carrying the lane
                                    "seconds"}}},  # summed lane.<name> time
      "throughput": {"wall_time", "files_per_second", "jobs",
                     "analysis_seconds"},
      "files": [per-file records without full summaries]
    }

Key-by-key:

* ``schema`` — :data:`STATS_SCHEMA_VERSION` this document conforms to.
* ``corpus`` — file/outcome counts plus summed program sizes.
* ``phases`` — per-phase wall seconds, summed over *analyzed* (non-
  cached) files; includes ``lane.<name>`` entries when lanes ran.
* ``ops`` — the paper's operation tallies, summed likewise.
* ``cache`` — local summary-cache accounting, or null without a cache.
* ``lanes`` — which extra effect lanes the run requested and what they
  cost: per lane, the number of files whose metadata carries its block
  and the summed ``lane.<name>`` solver seconds.
* ``throughput`` — wall time, files/second, pool width, summed
  per-file analysis seconds.
* ``files`` — per-file outcome records (no full summaries).
"""

from __future__ import annotations

import json
from typing import Dict

from repro.service.batch import BatchReport

STATS_SCHEMA_VERSION = 2

OP_KEYS = ("bit_vector_steps", "single_bit_steps", "meet_operations")

#: Every top-level key of the stats document, exactly — the module
#: docstring documents each; the schema-check test asserts the
#: aggregate emits these and nothing else.
STATS_KEYS = (
    "schema",
    "corpus",
    "phases",
    "ops",
    "cache",
    "lanes",
    "throughput",
    "files",
)


def aggregate_stats(report: BatchReport) -> Dict:
    """The corpus-wide statistics document for one batch run."""
    phases: Dict[str, float] = {}
    ops = {key: 0 for key in OP_KEYS}
    procs = 0
    call_sites = 0
    analysis_seconds = 0.0
    per_lane: Dict[str, Dict] = {
        name: {"files": 0, "seconds": 0.0} for name in report.lanes
    }
    for record in report.results:
        meta = record.meta
        if meta is None:
            continue
        procs += meta["num_procs"]
        call_sites += meta["num_call_sites"]
        for name in meta.get("lanes") or ():
            per_lane.setdefault(name, {"files": 0, "seconds": 0.0})
            per_lane[name]["files"] += 1
        if record.cached:
            # A cache hit did no solver work this run; its stored
            # timings/ops describe the original solve, not this one.
            continue
        for phase, seconds in meta["timings"].items():
            phases[phase] = phases.get(phase, 0.0) + seconds
            if phase.startswith("lane."):
                lane_name = phase[len("lane."):]
                per_lane.setdefault(lane_name, {"files": 0, "seconds": 0.0})
                per_lane[lane_name]["seconds"] += seconds
        for key in OP_KEYS:
            ops[key] += meta["ops"][key]
        analysis_seconds += meta["timings"].get("total", 0.0)
    total_files = len(report.results)
    return {
        "schema": STATS_SCHEMA_VERSION,
        "corpus": {
            "root": report.root,
            "files": total_files,
            "ok": report.ok_count,
            "errors": report.error_count,
            "timeouts": report.timeout_count,
            "cached": report.cached_count,
            "analyzed": report.analyzed_count,
            "procs": procs,
            "call_sites": call_sites,
        },
        "phases": phases,
        "ops": ops,
        "cache": report.cache_stats.to_dict() if report.cache_stats else None,
        "lanes": {
            "requested": list(report.lanes),
            "per_lane": per_lane,
        },
        "throughput": {
            "wall_time": report.wall_time,
            "files_per_second": (
                total_files / report.wall_time if report.wall_time > 0 else 0.0
            ),
            "jobs": report.jobs,
            "analysis_seconds": analysis_seconds,
        },
        "files": [record.to_dict() for record in report.results],
    }


def write_stats_json(report: BatchReport, path: str, indent: int = 2) -> None:
    with open(path, "w") as handle:
        json.dump(aggregate_stats(report), handle, indent=indent, sort_keys=True)
        handle.write("\n")


def render_stats(report: BatchReport) -> str:
    """A terse human-readable roll-up for the CLI."""
    stats = aggregate_stats(report)
    corpus = stats["corpus"]
    lines = [
        "%d files: %d ok (%d cached, %d analyzed), %d errors, %d timeouts"
        % (
            corpus["files"],
            corpus["ok"],
            corpus["cached"],
            corpus["analyzed"],
            corpus["errors"],
            corpus["timeouts"],
        ),
        "%d procs, %d call sites, %d bit-vector steps"
        % (corpus["procs"], corpus["call_sites"], stats["ops"]["bit_vector_steps"]),
        "wall %.3fs (%.1f files/s, %d jobs)"
        % (
            stats["throughput"]["wall_time"],
            stats["throughput"]["files_per_second"],
            stats["throughput"]["jobs"],
        ),
    ]
    if stats["lanes"]["requested"]:
        lines.append(
            "lanes: "
            + ", ".join(
                "%s (%d files, %.3fs)"
                % (name, entry["files"], entry["seconds"])
                for name, entry in sorted(stats["lanes"]["per_lane"].items())
            )
        )
    if stats["cache"] is not None:
        lines.append(
            "cache: %d hits / %d misses (%.0f%% hit rate)"
            % (
                stats["cache"]["hits"],
                stats["cache"]["misses"],
                100.0 * stats["cache"]["hit_rate"],
            )
        )
    return "\n".join(lines)
