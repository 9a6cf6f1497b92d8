"""Server observability: request counters, latency histograms,
solver phase-time accumulation.

Everything here is exposed two ways: live via the ``stats`` verb, and
as a ``--metrics-json`` dump written when the daemon exits, so a CI
smoke run or a long soak leaves a machine-readable record.  The
histogram uses fixed logarithmic millisecond buckets (the usual
Prometheus-style cumulative-friendly shape) rather than reservoir
sampling — bounded memory, deterministic output.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

#: Upper edges (milliseconds) of the latency buckets; one overflow
#: bucket is appended implicitly.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)


class LatencyHistogram:
    """Fixed-bucket latency histogram over one request class."""

    def __init__(self):
        self.counts: List[int] = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self.count += 1
        self.total_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        for index, edge in enumerate(LATENCY_BUCKETS_MS):
            if ms <= edge:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        buckets = {
            "<=%dms" % edge: self.counts[index]
            for index, edge in enumerate(LATENCY_BUCKETS_MS)
        }
        buckets[">%dms" % LATENCY_BUCKETS_MS[-1]] = self.counts[-1]
        return {
            "count": self.count,
            "mean_ms": self.mean_ms(),
            "max_ms": self.max_ms,
            "buckets": buckets,
        }


class ServerMetrics:
    """All daemon-lifetime counters, aggregated in one place."""

    def __init__(self):
        self.started = time.time()
        self._started_monotonic = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        #: Solver phase → summed wall seconds, from pipeline timings of
        #: every non-cached ``analyze`` this daemon performed.
        self.phase_seconds: Dict[str, float] = {}
        self.analyses = 0
        self.incremental_updates = 0
        self.reused_procs = 0
        self.affected_procs = 0
        self.region_procs = 0
        self.affected_sccs = 0
        self.cutoff_sccs = 0
        self.total_sccs = 0
        self.reloaded_updates = 0
        self.full_resolves = 0
        #: ``update`` replies sent as the empty delta (the client's
        #: ``since`` summary is unchanged) and with the whole summary.
        self.update_replies = {"delta": 0, "full": 0}
        #: ``update`` sources the front end spliced into the session's
        #: previous program, and those it compiled in full.
        self.update_front_end = {"spliced": 0, "full": 0}
        self.connections = 0

    def uptime(self) -> float:
        return time.monotonic() - self._started_monotonic

    def observe_request(
        self, verb: str, seconds: float, ok: bool, error_code: Optional[str] = None
    ) -> None:
        self.requests[verb] = self.requests.get(verb, 0) + 1
        if not ok and error_code:
            self.errors[error_code] = self.errors.get(error_code, 0) + 1
        histogram = self.latency.get(verb)
        if histogram is None:
            histogram = self.latency[verb] = LatencyHistogram()
        histogram.observe(seconds)

    def observe_phases(self, timings: Dict[str, float]) -> None:
        self.analyses += 1
        for phase, seconds in timings.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def observe_update(self, stats, delta: bool, spliced: bool) -> None:
        """Accumulate one ``UpdateStats`` from an ``update`` request,
        whether its reply was the empty delta and whether its source
        was spliced."""
        self.incremental_updates += 1
        self.update_replies["delta" if delta else "full"] += 1
        self.update_front_end["spliced" if spliced else "full"] += 1
        self.reused_procs += stats.reused_procs
        self.affected_procs += stats.affected_procs
        self.region_procs += stats.region_procs
        self.affected_sccs += stats.affected_sccs
        self.cutoff_sccs += stats.cutoff_sccs
        self.total_sccs += stats.total_sccs
        if stats.index_reloaded:
            self.reloaded_updates += 1
        if stats.full_resolve:
            self.full_resolves += 1

    def to_dict(self) -> Dict:
        touched = self.reused_procs + self.affected_procs
        return {
            "uptime_seconds": self.uptime(),
            "connections": self.connections,
            "requests": dict(self.requests),
            "errors": dict(self.errors),
            "latency_ms": {
                verb: histogram.to_dict()
                for verb, histogram in sorted(self.latency.items())
            },
            "phase_seconds": dict(self.phase_seconds),
            "analyses": self.analyses,
            "update_replies": dict(self.update_replies),
            "update_front_end": dict(self.update_front_end),
            "incremental": {
                "updates": self.incremental_updates,
                "reused_procs": self.reused_procs,
                "affected_procs": self.affected_procs,
                "reuse_fraction": self.reused_procs / touched if touched else 0.0,
                "region_procs": self.region_procs,
                "affected_sccs": self.affected_sccs,
                "cutoff_sccs": self.cutoff_sccs,
                "total_sccs": self.total_sccs,
                "scc_reuse_fraction": (
                    1.0 - self.affected_sccs / self.total_sccs
                    if self.total_sccs
                    else 0.0
                ),
                "reloaded_updates": self.reloaded_updates,
                "full_resolves": self.full_resolves,
            },
        }
