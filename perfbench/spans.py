"""Outside-in layer trace.

The benchmark times each layer from outside the program: it replaces
the module attributes through which callers reach a layer with timing
shims, and hooks ``gc.callbacks``.  Nothing under ``src/`` changes.

Every shim records one span ``(layer, start, end, counts)`` on the
system-wide monotonic clock, so spans recorded inside the daemon
process line up with the round trips the client measures.  Spans stay
in memory; the caller writes them out when the run ends.

A layer's self time is its span minus the spans nested inside it.
Nesting is decided by interval containment, not by thread, because the
daemon runs a request's work on a solver thread while the event-loop
thread awaits it.  The rows of all layers plus the roots' own self time
(``other_s``) therefore add up to the roots' total.

A target that no longer exists (a module or attribute deleted by a
later change) is skipped and its layer reported as absent; the trace
still runs and still adds up.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One clock for every process taking part in a run (CLOCK_MONOTONIC on
#: Linux is system-wide, so daemon spans and client round trips compare).
clock = time.monotonic


def _tokens(stream) -> Dict[str, float]:
    return {"lang.lexer.tokens": len(stream.codes)}


def _resolved(resolved) -> Dict[str, float]:
    return {
        "lang.semantic.procs": resolved.num_procs,
        "lang.semantic.call_sites": resolved.num_call_sites,
        "lang.semantic.variables": len(resolved.variables),
    }


def _pairs(aliases) -> Dict[str, float]:
    return {"core.aliases.pairs": aliases.total_pairs()}


def _steps(summary) -> Dict[str, float]:
    return {
        "core.bit_vector_steps": summary.counter.bit_vector_steps,
        "core.meet_operations": summary.counter.meet_operations,
    }


def _update_stats(result) -> Dict[str, float]:
    stats = result[1]
    return {
        "core.incremental.region_procs": stats.region_procs,
        "core.incremental.reuse_fraction": stats.reuse_fraction,
    }


def _size(metric: str) -> Callable[[bytes], Dict[str, float]]:
    return lambda blob: {metric: len(blob)}


#: (row metric, targets, counter) — a target is ``module:attr`` or
#: ``module:Class.method``; the counter reads counts off the return
#: value only.
LAYERS: Tuple[Tuple[str, Tuple[str, ...], Optional[Callable]], ...] = (
    ("lang.lexer.s", ("repro.lang.lexer:tokenize_stream",
                      "repro.lang.parser:tokenize_stream"), _tokens),
    ("lang.parser.s", ("repro.lang.parser:parse_token_stream",
                       "repro.lang.parser:parse_program"), None),
    ("lang.semantic.s", ("repro.lang.semantic:analyze",), _resolved),
    ("core.pipeline.s", ("repro.core.pipeline:analyze_side_effects",
                         "repro.server.daemon:analyze_side_effects"), _steps),
    ("core.arena.s", ("repro.core.pipeline:get_arena",
                      "repro.core.incremental:get_arena",
                      "repro.core.incremental:patch_arena"), None),
    ("core.arena.image_s", ("repro.core.arena:write_arena_image",), None),
    ("core.bitplane.s", ("repro.core.bitplane:resolve_backend",
                         "repro.core.bitplane:solve_rmod_numpy",
                         "repro.core.bitplane:solve_gmod_numpy",
                         "repro.core.bitplane:compute_dmod_numpy"), None),
    ("core.aliases.s", ("repro.core.pipeline:compute_aliases",
                        "repro.core.incremental:compute_aliases",
                        "repro.core.incremental:compute_aliases_incremental"),
     _pairs),
    ("core.aliases.factor_s", ("repro.core.pipeline:factor_aliases_fused",
                               "repro.core.pipeline:factor_aliases_into",
                               "repro.core.bitplane:factor_aliases_numpy"), None),
    ("core.rmod.s", ("repro.core.pipeline:solve_rmod_fused",
                     "repro.core.pipeline:solve_rmod"), None),
    ("core.imod_plus.s", ("repro.core.pipeline:compute_imod_plus_fused",
                          "repro.core.pipeline:compute_imod_plus"), None),
    ("core.gmod.s", ("repro.core.pipeline:findgmod_fused",
                     "repro.core.pipeline:findgmod_multilevel_fused",
                     "repro.core.pipeline:findgmod_per_level_fused",
                     "repro.core.pipeline:solve_equation4_reference_fused"), None),
    ("core.dmod.s", ("repro.core.pipeline:compute_dmod_fused",
                     "repro.core.pipeline:compute_dmod"), None),
    ("core.persist.to_dict_s", ("repro.core.persist:summary_to_dict",), None),
    ("core.persist.encode_s", ("repro.core.persist:encode_summary_payload",),
     _size("core.persist.bytes")),
    ("core.depindex.build_s", ("repro.core.depindex:build_dependency_index",
                               "repro.core.incremental:build_dependency_index"),
     None),
    ("core.depindex.encode_s", ("repro.core.depindex:index_to_bytes",),
     _size("core.depindex.bytes")),
    ("core.incremental.s", ("repro.core.incremental:incremental_update",), None),
    # Separate row target so only the inner call reports the stats.
    ("core.incremental.s", ("repro.core.incremental:incremental_update_from_index",),
     _update_stats),
    ("server.wire_s", ("repro.server.daemon:encode",),
     _size("server.reply_bytes")),
    ("server.state_s", ("repro.server.daemon:AnalysisServer._persist_session",),
     None),
    ("server.other_s", ("repro.server.daemon:AnalysisServer._dispatch_line",),
     None),
)

#: Row metric of garbage-collector pauses (from ``gc.callbacks``).
GC_ROW = "gc.pause_s"

#: Row metric of the roots' own time: what no shimmed layer covers.
OTHER_ROW = "other_s"

#: Count metrics summed per root (GC counts come from the callbacks).
COUNT_METRICS = (
    "lang.lexer.tokens",
    "lang.semantic.procs",
    "lang.semantic.call_sites",
    "lang.semantic.variables",
    "core.aliases.pairs",
    "core.bit_vector_steps",
    "core.meet_operations",
    "core.persist.bytes",
    "core.depindex.bytes",
    "core.incremental.region_procs",
    "core.incremental.reuse_fraction",
    "server.reply_bytes",
    "gc.collections",
    "gc.gen2_collections",
)


def shimmed_rows(layers: Optional[Sequence] = None) -> List[str]:
    """The rows of a layer table, in table order, each once."""
    rows: List[str] = []
    for row, _targets, _counter in LAYERS if layers is None else layers:
        if row not in rows:
            rows.append(row)
    return rows


def row_metrics() -> List[str]:
    """Every time row, in table order, then ``gc.pause_s`` and ``other_s``."""
    return shimmed_rows() + [GC_ROW, OTHER_ROW]


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, rows: Sequence[str] = ()) -> None:
        self.spans: List[list] = []
        self.rows = list(rows)
        self.installed: List[Tuple[str, str]] = []
        self.missing: List[str] = []
        self._originals: List[tuple] = []
        self._gc_start: Optional[float] = None

    def add(self, row: str, start: float, end: float,
            counts: Optional[Dict[str, float]] = None) -> None:
        self.spans.append([row, start, end, counts])

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        elif self._gc_start is not None:
            counts = {"gc.collections": 1}
            if info.get("generation") == 2:
                counts["gc.gen2_collections"] = 1
            self.spans.append([GC_ROW, self._gc_start, clock(), counts])
            self._gc_start = None

    def absent_rows(self) -> List[str]:
        """Rows none of whose targets could be shimmed."""
        live = {row for row, _target in self.installed}
        return [row for row in self.rows if row not in live]

    def dump(self, path: str) -> None:
        """Write the spans and the shim report as JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "missing": self.missing,
                       "absent": self.absent_rows()}, handle)


def _shim(recorder: Recorder, row: str, fn: Callable,
          counter: Optional[Callable]) -> Callable:
    add = recorder.add
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_shim(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                add(row, start, clock())

        return async_shim

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            add(row, start, clock())
            raise
        end = clock()
        add(row, start, end, counter(result) if counter is not None else None)
        return result

    return shim


def _resolve(target: str):
    """``(owner, attr_name, current)`` for a target, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    current = getattr(owner, attr, None)
    if current is None or not callable(current):
        return None
    return owner, attr, current


def install(layers: Optional[Sequence] = None) -> Recorder:
    """Shim every target of ``layers`` (default :data:`LAYERS`) that
    exists and hook the garbage collector.

    Target modules are imported first, so a module that copies a
    function with ``from ... import`` binds the original and its own
    attribute is shimmed separately, never twice.
    """
    layers = LAYERS if layers is None else layers
    recorder = Recorder(shimmed_rows(layers))
    resolved = []
    for row, targets, counter in layers:
        for target in targets:
            found = _resolve(target)
            if found is None:
                recorder.missing.append(target)
            else:
                resolved.append((row, target, counter, found))
    for row, target, counter, (owner, attr, current) in resolved:
        recorder._originals.append((owner, attr, current))
        setattr(owner, attr, _shim(recorder, row, current, counter))
        recorder.installed.append((row, target))
    gc.callbacks.append(recorder._on_gc)
    return recorder


def uninstall(recorder: Recorder) -> None:
    """Put every shimmed attribute back and unhook the collector."""
    for owner, attr, original in reversed(recorder._originals):
        setattr(owner, attr, original)
    recorder._originals.clear()
    if recorder._on_gc in gc.callbacks:
        gc.callbacks.remove(recorder._on_gc)


def attribute(spans: Iterable[Sequence], roots: Sequence[Tuple[float, float]]
              ) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Self time per row and summed counts over the spans inside
    ``roots``; returns ``(rows, counts, total)``.

    Spans outside every root (between requests, set-up) are ignored.
    ``rows[OTHER_ROW]`` is the roots' own self time, so
    ``sum(rows.values()) == total`` up to rounding.
    """
    nodes = [[OTHER_ROW, start, end, None] for start, end in roots]
    nodes += [list(span) for span in spans]
    # Outer spans first: by start, then longest first, roots before
    # shims that start on the same tick.
    order = sorted(
        range(len(nodes)),
        key=lambda i: (nodes[i][1], -nodes[i][2], i >= len(roots)),
    )
    rows: Dict[str, float] = {row: 0.0 for row in row_metrics()}
    counts: Dict[str, float] = {name: 0 for name in COUNT_METRICS}
    total = sum(end - start for start, end in roots)
    stack: List[int] = []
    for i in order:
        row, start, end, span_counts = nodes[i]
        while stack and nodes[stack[-1]][2] <= start:
            stack.pop()
        is_root = i < len(roots)
        if not is_root and not stack:
            continue  # Outside the measured window.
        if stack:
            # A span that outlives its parent (never seen in practice)
            # is clipped so the rows still partition the roots.
            end = min(end, nodes[stack[-1]][2])
            nodes[i][2] = end
            parent_row = nodes[stack[-1]][0]
            rows[parent_row] -= end - start
        rows[row] = rows.get(row, 0.0) + (end - start)
        if span_counts:
            for name, value in span_counts.items():
                counts[name] = counts.get(name, 0) + value
        stack.append(i)
    return rows, counts, total
