"""Batch analysis engine: fan the pipeline out over a corpus.

The driver analyzes every CK file under a directory, in parallel,
with three guarantees the single-file CLI cannot give:

* **isolation** — a malformed or crashing file yields a per-file
  error record; the rest of the corpus still completes;
* **idempotence** — with a cache directory, a file whose content hash
  already has a stored summary is never re-solved
  (:mod:`repro.service.cache`);
* **determinism** — results are reported in sorted path order and the
  per-file summaries are identical whether produced sequentially, by a
  process pool, or read back from the cache (the differential suite
  asserts this).

Each file's result is its summary-cache record
(:func:`repro.service.cache.encode_record`): the v5 summary container
with the analysis's timings, tallies and lane blocks in a metadata
section.  Workers run :func:`_analyze_task`, a module-level picklable
entry point, via :class:`concurrent.futures.ProcessPoolExecutor`; the
cache stores the record they return unchanged, and a hit hands it back
without decoding the summary.  A caller that wants a file's summary
decodes :attr:`FileResult.container` with the persist loaders
(:func:`repro.core.persist.decode_summary_payload`,
:class:`repro.core.persist.LoadedSummary`).
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence, Union

from repro.core.pipeline import analyze_side_effects
from repro.lang.errors import CkError
from repro.service.cache import (
    CacheStats,
    SummaryCache,
    content_key,
    encode_record,
    record_meta,
)

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


def _analyze_task(task) -> Dict:
    """Worker body: analyze one source, never raise.

    Every failure mode becomes a structured error record so one bad
    file cannot take down the pool or the run.
    """
    path, source, lanes = task
    try:
        container = encode_record(analyze_side_effects(source, lanes=lanes))
        return {"status": STATUS_OK, "path": path, "container": container}
    except CkError as error:
        message = "%s: %s" % (type(error).__name__, error)
        return {"status": STATUS_ERROR, "path": path, "error": message}
    except Exception as error:  # Defensive: keep the pool alive.
        message = "".join(
            traceback.format_exception_only(type(error), error)
        ).strip()
        return {"status": STATUS_ERROR, "path": path, "error": message}


@dataclass
class FileResult:
    """Outcome of one corpus file."""

    path: str
    status: str  # STATUS_OK / STATUS_ERROR / STATUS_TIMEOUT
    cached: bool = False
    #: The file's record (:func:`~repro.service.cache.encode_record`): a
    #: v5 summary container (None unless ok).
    container: Optional[bytes] = None
    #: The record's metadata (:func:`~repro.service.cache.record_meta`):
    #: timings, ops, num_procs, num_call_sites, the ``lanes`` block when
    #: lanes ran, and the record's schema fields (None unless ok).
    meta: Optional[Dict] = None
    error: str = ""
    key: str = ""  # Content-hash cache key ("" if the source was unreadable).
    elapsed: float = 0.0  # Wall seconds spent obtaining this result.

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict:
        entry: Dict = {
            "path": self.path,
            "status": self.status,
            "cached": self.cached,
            "elapsed": self.elapsed,
        }
        if self.error:
            entry["error"] = self.error
        if self.key:
            entry["key"] = self.key
        if self.meta is not None:
            entry["timings"] = self.meta["timings"]
            entry["ops"] = self.meta["ops"]
            entry["num_procs"] = self.meta["num_procs"]
            entry["num_call_sites"] = self.meta["num_call_sites"]
        return entry


@dataclass
class BatchReport:
    """Everything a batch run produced, in sorted path order."""

    root: str
    jobs: int
    results: List[FileResult] = field(default_factory=list)
    wall_time: float = 0.0
    cache_dir: str = ""
    cache_stats: Optional[CacheStats] = None
    #: Extra effect lanes requested for every file (lane names, request
    #: order); () for plain MOD+USE runs.
    lanes: tuple = ()

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def ok_count(self) -> int:
        return self._count(STATUS_OK)

    @property
    def error_count(self) -> int:
        return self._count(STATUS_ERROR)

    @property
    def timeout_count(self) -> int:
        return self._count(STATUS_TIMEOUT)

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def analyzed_count(self) -> int:
        return sum(1 for r in self.results if r.ok and not r.cached)

    @property
    def exit_code(self) -> int:
        """0 when the whole corpus analyzed; 1 on any partial failure."""
        return 0 if self.error_count == 0 and self.timeout_count == 0 else 1

    def errors(self) -> List[FileResult]:
        return [r for r in self.results if not r.ok]


def _stop_workers(executor: ProcessPoolExecutor) -> None:
    """Shut ``executor`` down without waiting for the tasks it is still
    running: terminate its worker processes, then let the executor reap
    them.  The executor offers no public way to stop its workers before
    Python 3.14's ``terminate_workers``, so this reads its process
    table.  Only the executor joins the workers: a second joiner races
    its manager thread for each exit status, and the loser returns
    before the winner records it, so a dead worker could stay listed in
    ``multiprocessing.active_children()``."""
    for process in list((executor._processes or {}).values()):
        process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


def discover_files(root: str, pattern: str = "*.ck") -> List[str]:
    """Corpus files under ``root`` matching ``pattern``, sorted.

    Dot-directories (including a cache directory placed inside the
    corpus) are skipped.  A ``root`` that is itself a file is a
    one-element corpus.
    """
    if os.path.isfile(root):
        return [root]
    found: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if fnmatch(name, pattern):
                found.append(os.path.join(dirpath, name))
    return found


def run_batch(
    root: Union[str, Sequence[str]],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    pattern: str = "*.ck",
    cache_max_entries: Optional[int] = None,
    lanes: Sequence[str] = (),
) -> BatchReport:
    """Analyze a corpus; the batch engine's programmatic entry point.

    ``root`` is a directory (scanned recursively for ``pattern``), a
    single file, or an explicit sequence of paths.  ``jobs`` caps the
    process-pool width (None/0 → ``os.cpu_count()``; 1 → run in-process
    with no pool).  ``cache_dir`` enables the content-hash summary
    cache.  ``timeout`` bounds the wait for each file's result once the
    driver turns to it (pool mode only); a file that exceeds it gets a
    ``timeout`` record and the run continues, and when the run ends the
    pool's workers are terminated rather than joined, so a file that
    never finishes cannot hold the run.  ``cache_max_entries``
    bounds the cache directory (LRU eviction; None = unbounded).

    ``lanes`` requests extra effect lanes (:mod:`repro.lanes`) for
    every file; lane blocks ride the per-file metadata and the cache
    key, so laned and lane-less runs never serve each other's entries.
    """
    lanes = tuple(lanes)
    if lanes:
        from repro.lanes import parse_lane_names

        lanes = tuple(parse_lane_names(lanes))
    started = time.perf_counter()
    if isinstance(root, str):
        paths = discover_files(root, pattern)
        report_root = root
    else:
        paths = list(root)
        report_root = os.path.commonprefix([os.path.dirname(p) for p in paths]) or "."

    cache = (
        SummaryCache(cache_dir, max_entries=cache_max_entries) if cache_dir else None
    )
    results: List[FileResult] = []
    by_path: Dict[str, FileResult] = {}
    work: List[FileResult] = []
    sources: Dict[str, str] = {}

    for path in paths:
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as error:
            record = FileResult(path=path, status=STATUS_ERROR, error=str(error))
            results.append(record)
            by_path[path] = record
            continue
        key = content_key(source, lanes)
        record = FileResult(path=path, status=STATUS_ERROR, key=key)
        results.append(record)
        by_path[path] = record
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                record.status = STATUS_OK
                record.cached = True
                record.container, record.meta = hit
                continue
        sources[path] = source
        work.append(record)

    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    effective_jobs = max(1, min(jobs, len(work))) if work else 1

    def _apply(record: FileResult, outcome: Dict, elapsed: float) -> None:
        record.status = outcome["status"]
        record.error = outcome.get("error", "")
        record.elapsed = elapsed
        if record.status == STATUS_OK:
            record.container = outcome["container"]
            record.meta = record_meta(record.container)
            if cache is not None:
                cache.put(record.key, record.container)

    if effective_jobs <= 1:
        for record in work:
            tick = time.perf_counter()
            outcome = _analyze_task((record.path, sources[record.path], lanes))
            _apply(record, outcome, time.perf_counter() - tick)
    else:
        executor = ProcessPoolExecutor(max_workers=effective_jobs)
        submitted = []
        try:
            for record in work:
                submitted.append((
                    record,
                    time.perf_counter(),
                    executor.submit(
                        _analyze_task, (record.path, sources[record.path], lanes)
                    ),
                ))
            for record, tick, future in submitted:
                try:
                    outcome = future.result(timeout=timeout)
                except FutureTimeoutError:
                    future.cancel()  # Still queued: never start it.
                    record.status = STATUS_TIMEOUT
                    record.error = "analysis exceeded %.3gs" % timeout
                    record.elapsed = time.perf_counter() - tick
                    continue
                except Exception as error:  # e.g. BrokenProcessPool
                    record.status = STATUS_ERROR
                    record.error = "%s: %s" % (type(error).__name__, error)
                    record.elapsed = time.perf_counter() - tick
                    continue
                _apply(record, outcome, time.perf_counter() - tick)
        finally:
            # A task still running past its timeout would hold a joining
            # shutdown for as long as it runs: stop the workers instead.
            if all(future.done() for _record, _tick, future in submitted):
                executor.shutdown()
            else:
                _stop_workers(executor)

    return BatchReport(
        root=report_root,
        jobs=effective_jobs,
        results=results,
        wall_time=time.perf_counter() - started,
        cache_dir=cache_dir or "",
        cache_stats=cache.stats if cache is not None else None,
        lanes=lanes,
    )
