"""Content-addressed summary cache.

A cache entry is keyed by the SHA-256 of the *resolved source bytes*
plus everything that could change the answer: the persist format
version, the cache record schema, and the effect lanes requested.  Two
consequences:

* an unchanged file is never re-solved — a warm batch run is pure
  cache reads;
* a schema bump (:data:`repro.core.persist.FORMAT_VERSION` or
  :data:`CACHE_SCHEMA_VERSION`) changes every key *and* is re-checked
  on read, so stale entries written by an older build are treated as
  misses, never misread.

Entries are one binary file per key (``<key>.ckb``, the
:mod:`repro.core.persist` v3 container — roughly an order of magnitude
smaller than the JSON form it replaced) under the cache root; legacy
``<key>.json`` entries written by older builds are still read, so an
existing cache stays warm across the format change.  Writes go
through :func:`~repro.core.persist.write_file_atomic` (a temp file of
their own + ``os.replace``) so concurrent batch runs sharing a cache
directory never observe torn entries.

The cache is optionally *bounded*: with ``max_entries`` set, a store
that pushes the directory past the limit evicts the least-recently
used entries, where recency is the file mtime — refreshed on every
hit via ``os.utime`` — so a long-lived daemon or repeated batch runs
cannot grow the directory without limit.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.persist import (
    FORMAT_VERSION,
    encode_summary_payload,
    load_summary_payload_file,
    write_file_atomic,
)

#: Version of the cache *record* envelope (not the summary payload —
#: that carries its own :data:`FORMAT_VERSION`).
CACHE_SCHEMA_VERSION = 1


def content_key(source: str, lanes=()) -> str:
    """SHA-256 cache key for one program source + lane choice.

    ``lanes`` (extra effect lanes solved alongside MOD+USE) feeds the
    key only when non-empty, so every pre-lane key — and every on-disk
    entry hashed from one — stays valid verbatim.  The literal ``auto``
    holds the slot where a GMOD solver choice once went, so keys hashed
    before that choice was retired stay valid too.
    """
    hasher = hashlib.sha256()
    hasher.update(b"ck-summary-cache\0")
    hasher.update(("%d\0%d\0auto\0" % (CACHE_SCHEMA_VERSION, FORMAT_VERSION)).encode())
    if lanes:
        hasher.update(("lanes=%s\0" % ",".join(lanes)).encode())
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but rejected (stale schema, torn JSON).
    invalid: int = 0
    #: Entries removed by the ``max_entries`` LRU bound.
    evictions: int = 0

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> Dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }


class SummaryCache:
    """On-disk cache of per-file analysis payloads.

    ``max_entries`` (None = unbounded, the historical behaviour) caps
    the number of entry files; exceeding it evicts in mtime order.
    """

    def __init__(self, root: str, max_entries: Optional[int] = None):
        self.root = root
        self.max_entries = max_entries
        self.stats = CacheStats()
        os.makedirs(root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + ".ckb")

    def legacy_path_for(self, key: str) -> str:
        """Where an entry written by a pre-binary build would live."""
        return os.path.join(self.root, key + ".json")

    def _read_record(self, key: str) -> Optional[Dict]:
        """The raw record envelope for ``key`` from disk, plus a mtime
        refresh on the file that provided it.  Returns None when no
        readable entry exists (``stats.invalid`` is bumped for files
        that exist but do not decode)."""
        for path in (self.path_for(key), self.legacy_path_for(key)):
            try:
                # mmap-decode: the container walks the mapped pages in
                # place instead of pulling the file through a read
                # buffer — the warm-batch fast path is page-cache reads.
                record = load_summary_payload_file(path)
            except OSError:
                continue
            except ValueError:
                self.stats.invalid += 1
                continue
            if not isinstance(record, dict):
                self.stats.invalid += 1
                continue
            try:
                os.utime(path, None)  # Refresh recency for the LRU bound.
            except OSError:
                pass  # Entry raced away or read-only cache; the hit stands.
            return record
        return None

    def get(self, key: str) -> Optional[Dict]:
        """The cached analysis payload for ``key``, or None on miss."""
        record = self._read_record(key)
        if record is None:
            self.stats.misses += 1
            return None
        if (
            record.get("cache_schema") != CACHE_SCHEMA_VERSION
            or record.get("format_version") != FORMAT_VERSION
            or "result" not in record
        ):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record["result"]

    def put(self, key: str, result: Dict) -> None:
        """Store one analysis payload under ``key`` (atomic write)."""
        blob = encode_summary_payload(
            {
                "cache_schema": CACHE_SCHEMA_VERSION,
                "format_version": FORMAT_VERSION,
                "key": key,
                "result": result,
            }
        )
        write_file_atomic(self.path_for(key), blob)
        self.stats.stores += 1
        self._evict_over_limit()

    def _evict_over_limit(self) -> None:
        """Drop least-recently-used entries past ``max_entries``.

        Recency is file mtime (refreshed on hit); races with concurrent
        runs sharing the directory are benign — a vanished file is
        simply skipped, and over-eviction only costs a future miss.
        """
        if self.max_entries is None:
            return
        try:
            names = [
                n for n in os.listdir(self.root) if n.endswith((".ckb", ".json"))
            ]
        except OSError:
            return
        if len(names) <= self.max_entries:
            return
        aged = []
        for name in names:
            try:
                aged.append((os.path.getmtime(os.path.join(self.root, name)), name))
            except OSError:
                continue
        aged.sort()
        for _, name in aged[: max(0, len(aged) - self.max_entries)]:
            try:
                os.unlink(os.path.join(self.root, name))
                self.stats.evictions += 1
            except OSError:
                continue
