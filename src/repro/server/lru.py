"""In-memory LRU of resolved analyses.

The daemon keys this by the same content hash as the disk
:class:`repro.service.cache.SummaryCache`, but holds *live* values —
the :class:`~repro.core.summary.SideEffectSummary` plus, for a laned
analysis, its lane blocks, and no payload of its own — so a warm
``analyze`` can both answer without re-solving and seed an incremental
session.  The reply's container or payload is written from the
summary, once per summary (the summary keeps both).  The disk cache cannot seed a
session: its record is the v5 summary container plus a metadata
trailer, which carries neither a live summary nor a dependency index,
so a session opened from it would have nothing to update against.

Single-threaded by construction: the daemon mutates the cache from
event-loop coroutines only (solver work happens in executor threads,
bookkeeping does not), so no lock is needed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional


class LRUCache:
    """Bounded mapping with move-to-front on hit and hit/miss/eviction
    counters.  ``capacity <= 0`` disables storage entirely (every get
    is a miss, every put a no-op) so the daemon can run cache-free."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> Dict:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }
