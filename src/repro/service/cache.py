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

An entry is one file per key (``<key>.ckb``) under the cache root: the
analysis's v5 summary container, as
:func:`~repro.core.persist.summary_to_bytes` writes it, with one
:data:`~repro.core.persist.SECTION_RESULT_META` trailer section (see
:func:`encode_record`).  A hit reads only the container's header and
trailer (:func:`~repro.core.persist.read_container_trailer`) and decodes
no summary; a caller that wants the summary loads the container with
the persist loaders.  A record whose metadata does not parse, is not a
JSON object, lacks a field, or does not match the CRC of the summary it
rides with is an ``invalid`` miss — so is every record an earlier build
wrote, since none carries the section — and the next store overwrites
it.  Writes go through :func:`~repro.core.persist.write_file_atomic` (a
temp file of their own + ``os.replace``) so concurrent batch runs
sharing a cache directory never observe torn entries.

The cache is optionally *bounded*: with ``max_entries`` set, a store
that pushes the directory past the limit evicts the least-recently
used entries, where recency is the file mtime — refreshed on every
hit via ``os.utime`` — so a long-lived daemon or repeated batch runs
cannot grow the directory without limit.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.persist import (
    FORMAT_VERSION,
    SECTION_RESULT_META,
    read_container_trailer,
    summary_crc32,
    summary_to_bytes,
    write_file_atomic,
)

#: Version of the cache *record* schema (not the summary payload —
#: that carries its own :data:`FORMAT_VERSION`).  It feeds every key, so
#: it moves only with a change that must not serve earlier entries;
#: records that earlier builds wrote under the same keys already fail
#: the metadata check.
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


def _meta_crc(meta: Dict, head_crc: int) -> int:
    """The record CRC: ``head_crc`` (the container's string table and
    body) continued over the canonical JSON of every other metadata
    field, so a damaged figure in the metadata is caught too."""
    rest = {name: value for name, value in meta.items() if name != "crc32"}
    return zlib.crc32(json.dumps(rest, sort_keys=True).encode("utf-8"), head_crc)


def encode_record(summary) -> bytes:
    """The cache record of a finished analysis: its v5 container with
    one JSON metadata section — :func:`repro.core.pipeline.result_meta`'s
    fields (``timings``, ``ops``, ``num_procs``, ``num_call_sites`` and,
    when the analysis ran lanes, ``lanes``), then ``cache_schema``,
    ``format_version`` and the record CRC, ``crc32``."""
    from repro.core.pipeline import result_meta

    meta = result_meta(summary)
    meta["cache_schema"] = CACHE_SCHEMA_VERSION
    meta["format_version"] = FORMAT_VERSION
    meta["crc32"] = _meta_crc(meta, summary_crc32(summary))
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return summary_to_bytes(summary, sections={SECTION_RESULT_META: blob})


def record_meta(data) -> Dict:
    """The metadata of a cache record, checked against the record,
    without decoding its summary.  Raises :class:`ValueError` for a
    container whose framing is damaged, and for metadata that is
    missing, does not parse, is not a JSON object, lacks a field, names
    another schema or does not match the record's CRC."""
    sections, head_crc = read_container_trailer(data)
    blob = sections.get(SECTION_RESULT_META)
    if blob is None:
        raise ValueError("cache record has no result metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
        crc = _meta_crc(meta, head_crc) if isinstance(meta, dict) else None
    except RecursionError:
        raise ValueError("cache record metadata nests too deeply") from None
    if not isinstance(meta, dict):
        raise ValueError("cache record metadata is not a JSON object")
    required = ("timings", "ops", "num_procs", "num_call_sites",
                "cache_schema", "format_version", "crc32")
    missing = [name for name in required if name not in meta]
    if missing:
        raise ValueError("cache record metadata lacks %s" % ", ".join(missing))
    if (
        meta["cache_schema"] != CACHE_SCHEMA_VERSION
        or meta["format_version"] != FORMAT_VERSION
    ):
        raise ValueError("cache record written for another schema")
    if meta["crc32"] != crc:
        raise ValueError("cache record fails its CRC")
    return meta


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but rejected (see :func:`record_meta`).
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
    """On-disk cache of per-file analysis records.

    ``max_entries`` (None = unbounded, the historical behaviour) caps
    the number of entry files; exceeding it evicts in mtime order.
    The analysis server reads and stores from several solver threads at
    once, so every change to :attr:`stats` holds a lock.
    """

    def __init__(self, root: str, max_entries: Optional[int] = None):
        self.root = root
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + ".ckb")

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def get(self, key: str) -> Optional[Tuple[bytes, Dict]]:
        """``(record, metadata)`` for ``key``, or None on a miss.  Only
        the record's header and trailer are read (:func:`record_meta`);
        the summary stays encoded in ``record``."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._count(misses=1)
            return None
        try:
            meta = record_meta(data)
        except ValueError:
            self._count(invalid=1, misses=1)
            return None
        try:
            os.utime(path, None)  # Refresh recency for the LRU bound.
        except OSError:
            pass  # Entry raced away or read-only cache; the hit stands.
        self._count(hits=1)
        return data, meta

    def reject_hit(self) -> None:
        """Count a hit whose summary then failed to decode as the
        ``invalid`` miss it was."""
        self._count(hits=-1, invalid=1, misses=1)

    def put(self, key: str, record: bytes) -> None:
        """Store one :func:`encode_record` record under ``key`` (atomic
        write)."""
        write_file_atomic(self.path_for(key), record)
        self._count(stores=1)
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
            names = [n for n in os.listdir(self.root) if n.endswith(".ckb")]
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
                self._count(evictions=1)
            except OSError:
                continue
