"""The analysis daemon: ``ck-analyze serve``.

A long-running :mod:`asyncio` TCP server that keeps summaries hot so
clients never pay the batch engine's cold start.  Layering, front to
back, on an ``analyze`` request:

1. the in-memory :class:`~repro.server.lru.LRUCache` of *live*
   summaries (content-hash keyed, same key function as the disk
   cache) — a hit answers immediately and can still seed a session;
2. the on-disk :class:`~repro.service.cache.SummaryCache` shared with
   ``ck-analyze batch`` — a hit decodes the stored container instead of
   re-solving, or sends its bytes undecoded to a client that reads
   containers (skipped when the request opens a session, which needs
   the live object);
3. the full pipeline.

Tiers 2 and 3, the disk-cache store after a solve and a restarted
session's state reload all run on a bounded thread pool, under the same
admission control, so the event loop stays responsive.

Robustness contract (each clause has a test):

* **backpressure** — at most ``max_concurrent`` solves run at once and
  at most ``max_queue`` more may wait; past that, requests fail fast
  with an ``overloaded`` error instead of piling up latency;
* **timeouts** — every request is raced against ``request_timeout``
  and reports a ``timeout`` error when it loses (the worker thread is
  abandoned, not killed — CPython cannot interrupt it — so the pool
  bound still limits total concurrent work);
* **payload guard** — a request line longer than ``max_payload`` gets
  a ``payload_too_large`` error and the connection is closed (framing
  is lost at that point);
* **graceful drain** — SIGINT/SIGTERM or the ``shutdown`` verb stop
  accepting work, let in-flight requests finish (up to
  ``drain_timeout``), then exit; late requests get ``shutting_down``.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import persist
from repro.core.bitvec import mask_of
from repro.core.pipeline import analyze_side_effects, result_meta
from repro.core.varsets import EffectKind
from repro.lang.errors import CkError
from repro.server.lru import LRUCache
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    E_ANALYSIS_ERROR,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_OVERLOADED,
    E_PAYLOAD_TOO_LARGE,
    E_SHUTTING_DOWN,
    E_TIMEOUT,
    E_UNKNOWN_SESSION,
    E_UNKNOWN_VERB,
    MAX_PAYLOAD_DEFAULT,
    PROTOCOL_VERSION,
    VERBS,
    ProtocolError,
    accepts_container,
    decode,
    encode,
    error_response,
    ok_response,
    require_str,
)
from repro.server.sessions import Session, SessionStore
from repro.service.cache import SummaryCache, content_key, encode_record


@dataclass
class ServerConfig:
    """Everything ``ck-analyze serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral; the bound port is printed/reported.
    max_concurrent: int = 4  # Solver threads.
    max_queue: int = 16  # Waiting solves beyond that → overloaded.
    request_timeout: float = 30.0  # Seconds per request.
    max_payload: int = MAX_PAYLOAD_DEFAULT  # Bytes per request line.
    lru_size: int = 64  # Live summaries kept in memory.
    max_sessions: int = 32
    cache_dir: str = ""  # Optional disk summary cache (batch-shared).
    cache_max_entries: Optional[int] = None  # Disk-cache LRU bound.
    #: Optional session-state directory.  When set, every session's
    #: summary is persisted as a container with its dependency index
    #: after each analyze/update, and an ``update`` for a session this
    #: process has never seen reloads that index and re-solves only the
    #: invalidated region — incremental serving survives restarts.
    state_dir: str = ""
    drain_timeout: float = 10.0  # Grace period for in-flight work.
    #: Test hook: honor a ``"sleep": seconds`` request field inside the
    #: worker (deterministic timeout/overload tests).  Never enable in
    #: production serving.
    allow_sleep: bool = False

    def to_dict(self) -> Dict:
        return {
            "host": self.host,
            "port": self.port,
            "max_concurrent": self.max_concurrent,
            "max_queue": self.max_queue,
            "request_timeout": self.request_timeout,
            "max_payload": self.max_payload,
            "lru_size": self.lru_size,
            "max_sessions": self.max_sessions,
            "cache_dir": self.cache_dir,
            "cache_max_entries": self.cache_max_entries,
            "state_dir": self.state_dir,
            "drain_timeout": self.drain_timeout,
        }


class AnalysisServer:
    """One daemon instance; create, ``await start()``, then
    ``await serve_until_shutdown()`` (or use :class:`ServerThread`)."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        self.lru = LRUCache(self.config.lru_size)
        self.sessions = SessionStore(self.config.max_sessions)
        self.disk_cache = (
            SummaryCache(
                self.config.cache_dir, max_entries=self.config.cache_max_entries
            )
            if self.config.cache_dir
            else None
        )
        if self.config.state_dir:
            os.makedirs(self.config.state_dir, exist_ok=True)
        self.address: Tuple[str, int] = (self.config.host, self.config.port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._active = 0  # Heavy (solver) requests admitted right now.
        self._connections: set = set()  # Live (task, writer) pairs.

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._semaphore = asyncio.Semaphore(self.config.max_concurrent)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="ck-solver",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_payload,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Block until shutdown is requested, then drain and close."""
        assert self._server is not None and self._shutdown_event is not None
        try:
            await self._shutdown_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            deadline = time.monotonic() + self.config.drain_timeout
            while self._active > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            # Give handlers a moment to flush in-flight responses (the
            # shutdown acknowledgement in particular) and hang up on
            # their own, then hard-close whoever is left — a task
            # cancelled at loop teardown logs a spurious CancelledError
            # from the streams machinery.
            grace_end = time.monotonic() + 0.5
            while self._connections and time.monotonic() < grace_end:
                await asyncio.sleep(0.01)
            for task, writer in list(self._connections):
                writer.close()
            tasks = [task for task, _ in self._connections]
            if tasks:
                await asyncio.wait(tasks, timeout=1.0)
            if self._executor is not None:
                self._executor.shutdown(wait=False)

    async def run(self) -> None:
        await self.start()
        await self.serve_until_shutdown()

    def request_shutdown(self) -> None:
        """Thread/signal-safe and idempotent: begin graceful drain."""
        self._draining = True
        if self._loop is not None and self._shutdown_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown_event.set)
            except RuntimeError:
                pass  # Loop already closed — shutdown is complete.

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        entry = (asyncio.current_task(), writer)
        self._connections.add(entry)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: framing is gone; report and close.
                    writer.write(
                        encode(
                            error_response(
                                None,
                                None,
                                E_PAYLOAD_TOO_LARGE,
                                "request line exceeds %d bytes"
                                % self.config.max_payload,
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                response = await self._dispatch_line(line)
                writer.write(encode(response))
                await writer.drain()
                if self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.discard(entry)

    async def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        tick = time.perf_counter()
        request_id: Any = None
        verb: Optional[str] = None
        try:
            request = decode(line)
            request_id = request.get("id")
            verb = request.get("verb")
            if verb not in VERBS:
                raise ProtocolError(
                    E_UNKNOWN_VERB,
                    "unknown verb %r; expected one of %s" % (verb, list(VERBS)),
                )
            if self._draining and verb != "stats":
                raise ProtocolError(E_SHUTTING_DOWN, "server is draining")
            handler = getattr(self, "_verb_%s" % verb)
            response = await asyncio.wait_for(
                handler(request_id, request), timeout=self.config.request_timeout
            )
        except asyncio.TimeoutError:
            response = error_response(
                request_id,
                verb,
                E_TIMEOUT,
                "request exceeded %.3gs" % self.config.request_timeout,
            )
        except ProtocolError as error:
            response = error_response(request_id, verb, error.code, str(error))
        except CkError as error:
            response = error_response(
                request_id,
                verb,
                E_ANALYSIS_ERROR,
                "%s: %s" % (type(error).__name__, error),
            )
        except Exception as error:  # Defensive: one bad request ≠ dead server.
            response = error_response(
                request_id, verb, E_INTERNAL, "%s: %s" % (type(error).__name__, error)
            )
        error_obj = response.get("error")
        self.metrics.observe_request(
            verb or "invalid",
            time.perf_counter() - tick,
            bool(response.get("ok")),
            error_obj["code"] if error_obj else None,
        )
        return response

    # -- heavy-work plumbing -------------------------------------------------

    async def _run_heavy(self, work: Callable[[], Any]) -> Any:
        """Run ``work`` on the solver pool under admission control."""
        limit = self.config.max_concurrent + self.config.max_queue
        if self._active >= limit:
            raise ProtocolError(
                E_OVERLOADED,
                "server at capacity (%d running/queued, limit %d); retry later"
                % (self._active, limit),
            )
        assert self._semaphore is not None and self._executor is not None
        self._active += 1
        try:
            async with self._semaphore:
                return await asyncio.get_running_loop().run_in_executor(
                    self._executor, work
                )
        finally:
            self._active -= 1

    def _request_sleep(self, request: Dict[str, Any]) -> float:
        if not self.config.allow_sleep:
            return 0.0
        try:
            return max(0.0, float(request.get("sleep", 0)))
        except (TypeError, ValueError):
            return 0.0

    @staticmethod
    def _lanes(request: Dict[str, Any]) -> tuple:
        """Validated effect-lane names from the optional ``lanes``
        field (a comma-joined string or a list of names)."""
        raw = request.get("lanes")
        if raw is None or raw == "" or raw == []:
            return ()
        from repro.lanes import parse_lane_names

        if isinstance(raw, list):
            raw = ",".join(str(item) for item in raw)
        if not isinstance(raw, str):
            raise ProtocolError(
                E_BAD_REQUEST, "field 'lanes' must be a string or list of lane names"
            )
        try:
            return tuple(parse_lane_names(raw))
        except ValueError as exc:
            raise ProtocolError(E_BAD_REQUEST, str(exc))

    # -- session persistence -------------------------------------------------

    def _session_state_path(self, name: str) -> str:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.config.state_dir, digest + ".cki")

    def _persist_session(self, session: Session) -> None:
        """Write a session's summary + dependency index + metadata as one
        container (atomic rename) — runs on the solver pool.  The lanes
        are named in the metadata, not stored: an update re-solves them."""
        from repro.core.depindex import index_section
        from repro.core.persist import (
            SECTION_DEP_INDEX,
            SECTION_SESSION_META,
            summary_to_bytes,
            write_file_atomic,
        )

        summary = session.summary
        meta = {"name": session.name, "key": session.key,
                "lanes": list(session.lanes)}
        blob = summary_to_bytes(
            summary,
            sections={
                SECTION_DEP_INDEX: index_section(summary),
                SECTION_SESSION_META: json.dumps(
                    meta, sort_keys=True
                ).encode("utf-8"),
            },
        )
        write_file_atomic(self._session_state_path(session.name), blob)

    async def _save_session_state(self, session: Session) -> None:
        if not self.config.state_dir:
            return
        assert self._executor is not None
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self._persist_session, session
        )

    def _load_session_state(self, name: str):
        """``(dep_index or None, lanes)`` for a persisted session, or
        ``None`` when nothing usable is on disk.  The update works from
        the index (its blob and the body's masks), never from the
        payload.  A container without an index section, an index of an
        earlier format or a damaged body degrades to ``(None, lanes)`` —
        the update falls back to a full re-solve instead of failing the
        session.  Session metadata that does not parse, or is not a JSON
        object, means no lanes.  Runs on the solver pool."""
        if not self.config.state_dir:
            return None
        from repro.core.depindex import index_from_container
        from repro.core.persist import (
            SECTION_SESSION_META,
            read_container_trailer,
            split_unknown_sections,
        )

        try:
            with open(self._session_state_path(name), "rb") as handle:
                data = handle.read()
            sections, crc = read_container_trailer(data)
        except (OSError, ValueError):
            return None
        # A state file written by a newer build may carry sections this
        # reader has never heard of (a future lane, a new index kind) —
        # warn once and proceed on what we understand.
        sections, _future = split_unknown_sections(
            sections, context="session state %r" % name
        )
        lanes: tuple = ()
        meta_blob = sections.get(SECTION_SESSION_META)
        if meta_blob is not None:
            try:
                meta = json.loads(meta_blob.decode("utf-8"))
                if isinstance(meta, dict):
                    lanes = self._lanes(meta)
            except (ValueError, UnicodeDecodeError, ProtocolError):
                pass
        try:
            index = index_from_container(data, (sections, crc))
        except ValueError:
            # No index, format drift or a damaged body → full re-solve.
            index = None
        return index, lanes

    # -- verbs ---------------------------------------------------------------

    async def _verb_ping(self, request_id: Any, request: Dict) -> Dict:
        return ok_response(request_id, "ping", protocol=PROTOCOL_VERSION)

    async def _verb_analyze(self, request_id: Any, request: Dict) -> Dict:
        source = require_str(request, "source")
        lanes = self._lanes(request)
        session_name = request.get("session")
        if session_name is not None and not isinstance(session_name, str):
            raise ProtocolError(E_BAD_REQUEST, "field 'session' must be a string")
        containers = accepts_container(request)
        # ``lanes`` feeds the key: a laned payload carries extra blocks
        # a lane-less one does not.
        key = content_key(source, lanes)
        sleep = self._request_sleep(request)

        cached: Any = False
        summary = None
        entry = self.lru.get(key)
        if entry is not None:
            summary, blocks = entry
            cached = "lru"
            fields = await asyncio.get_running_loop().run_in_executor(
                self._executor, _analyze_fields, summary, blocks, containers
            )
        else:
            # The disk cache holds no live summary, which a session
            # needs, so a session goes through the solver.
            use_disk = self.disk_cache is not None and session_name is None

            def work():
                if use_disk:
                    hit = self._disk_hit(key, decode=not containers)
                    if hit is not None:
                        return None, None, hit
                if sleep:
                    time.sleep(sleep)
                live = analyze_side_effects(source, lanes=lanes)
                if self.disk_cache is not None:
                    self.disk_cache.put(key, encode_record(live))
                blocks = _lane_blocks(live)
                return live, blocks, _analyze_fields(live, blocks, containers)

            summary, blocks, fields = await self._run_heavy(work)
            if summary is None:
                cached = "disk"
            else:
                self.metrics.observe_phases(summary.timings)
                self.lru.put(key, (summary, blocks))

        response = ok_response(request_id, "analyze", key=key, cached=cached, **fields)
        if session_name is not None:
            assert summary is not None
            existing = self.sessions.get(session_name)
            if existing is not None and existing.key == key:
                existing.analyzes += 1
                session = existing
            else:
                session = Session(
                    name=session_name,
                    key=key,
                    summary=summary,
                    lane_blocks=blocks,
                    analyzes=1,
                    lanes=lanes,
                )
                self.sessions.put(session)
            await self._save_session_state(session)
            response["session"] = session.brief()
        return response

    def _disk_hit(self, key: str, decode: bool) -> Optional[Dict[str, Any]]:
        """The reply fields of the disk cache's record for ``key`` (see
        :func:`_analyze_fields`), or None on a miss.  The sizes and lane
        blocks are the record's result metadata.  With ``decode`` the
        summary goes as ``summary``, decoded, and a record whose summary
        then fails to decode counts as the ``invalid`` miss it is;
        without it, as ``container``, the record's bytes, which the
        cache's CRC has checked.  Runs on the solver pool."""
        hit = self.disk_cache.get(key)
        if hit is None:
            return None
        record, meta = hit
        fields = {name: meta[name] for name in ("num_procs", "num_call_sites", "lanes")
                  if name in meta}
        if not decode:
            fields["container"] = base64.b64encode(record).decode("ascii")
            return fields
        try:
            fields["summary"] = persist.decode_summary_payload(record)
        except ValueError:
            self.disk_cache.reject_hit()
            return None
        return fields

    async def _verb_update(self, request_id: Any, request: Dict) -> Dict:
        from repro.core.incremental import (
            _full_resolve,
            incremental_update,
            incremental_update_from_index,
        )
        from repro.lang.semantic import compile_source

        session_name = require_str(request, "session")
        source = require_str(request, "source")
        containers = accepts_container(request)
        since = request.get("since")
        if since is not None and not isinstance(since, str):
            raise ProtocolError(E_BAD_REQUEST, "field 'since' must be a string")
        session = self.sessions.get(session_name)
        sleep = self._request_sleep(request)
        old_summary = session.summary if session is not None else None
        # Does the client hold ``old_summary``?  It does when ``since``
        # names the session's key as this request arrives (a concurrent
        # update of the session may replace both meanwhile).
        holds = session is not None and since == session.key

        def work():
            reloaded_index = None
            if session is None:
                # Not in memory — maybe a previous process persisted it.
                state = self._load_session_state(session_name)
                if state is None:
                    raise ProtocolError(
                        E_UNKNOWN_SESSION,
                        "no session %r; open one with analyze+session first"
                        % session_name,
                    )
                reloaded_index, lanes = state
            else:
                lanes = session.lanes
            if sleep:
                time.sleep(sleep)
            previous = old_summary.resolved if old_summary is not None else None
            new_resolved = compile_source(source, previous=previous)
            # A spliced program shares its symbols with its donor.
            spliced = previous is not None and new_resolved.main is previous.main
            carried = False
            if old_summary is not None:
                new_summary, stats = incremental_update(old_summary, new_resolved)
                carried = persist.carry(old_summary, new_summary)
            elif reloaded_index is not None:
                new_summary, stats = incremental_update_from_index(
                    reloaded_index, new_resolved, reloaded=True
                )
            else:
                # Legacy state file without an index: correctness over
                # reuse — solve from scratch, report it as such.
                new_summary, stats = _full_resolve(
                    new_resolved,
                    [EffectKind.MOD, EffectKind.USE],
                    set(),
                    reloaded=True,
                )
            if lanes:
                # The incremental engine solves MOD+USE only; the
                # session's lanes are solved on the updated arena.
                from repro.lanes.driver import solve_lanes

                new_summary.lanes = solve_lanes(
                    new_summary.resolved,
                    lanes,
                    new_summary.aliases,
                    new_summary.timings,
                )
            blocks = _lane_blocks(new_summary)
            key = content_key(source, lanes)
            # The incremental result is bit-identical to a from-scratch
            # solve (asserted by the test suite), so it may warm both
            # cache tiers under the new content key.
            if self.disk_cache is not None:
                self.disk_cache.put(key, encode_record(new_summary))
            # A container byte-identical to the one the client holds
            # means no set moved: the client holds this summary.
            unchanged = holds and carried
            fields = {"delta": {}} if unchanged else _summary_field(new_summary, containers)
            return new_summary, blocks, stats, lanes, key, spliced, unchanged, fields

        (new_summary, blocks, stats, lanes, key, spliced, unchanged,
         fields) = await self._run_heavy(work)
        self.metrics.observe_update(stats, unchanged, spliced)

        if session is None:
            session = Session(
                name=session_name,
                key=key,
                summary=new_summary,
                lanes=lanes,
            )
            self.sessions.put(session)
        session.key = key
        session.summary = new_summary
        session.lane_blocks = blocks
        session.updates += 1
        session.last_update = stats.to_dict()
        self.lru.put(key, (new_summary, blocks))
        await self._save_session_state(session)

        response = ok_response(
            request_id,
            "update",
            key=key,
            update_stats=session.last_update,
            session=session.brief(),
        )
        response.update(fields)
        if blocks is not None:
            response["lanes"] = blocks
        return response

    async def _verb_query(self, request_id: Any, request: Dict) -> Dict:
        session_name = require_str(request, "session")
        session = self.sessions.get(session_name)
        if session is None:
            raise ProtocolError(E_UNKNOWN_SESSION, "no session %r" % session_name)
        select = require_str(request, "select")
        summary = session.summary

        if select == "procedures":
            result: Any = sorted(persist.procedure_entries(summary.resolved))
        elif select in ("proc", "site", "sites"):
            # Set names, so the payload, rendered once per summary on
            # the solver pool.
            summary_dict = await asyncio.get_running_loop().run_in_executor(
                self._executor, persist.summary_to_dict, summary
            )
            if select == "proc":
                name = require_str(request, "proc")
                entry = summary_dict["procedures"].get(name)
                if entry is None:
                    raise ProtocolError(
                        E_BAD_REQUEST,
                        "no procedure %r in session %r" % (name, session_name),
                    )
                result = dict(entry, name=name)
            elif select == "site":
                site_id = request.get("site")
                sites = summary_dict["call_sites"]
                # A JSON boolean decodes to a bool, which is an int subclass.
                if (
                    isinstance(site_id, bool)
                    or not isinstance(site_id, int)
                    or not 0 <= site_id < len(sites)
                ):
                    raise ProtocolError(
                        E_BAD_REQUEST,
                        "field 'site' must be an integer in [0, %d)" % len(sites),
                    )
                result = sites[site_id]
            else:
                result = summary_dict["call_sites"]
        elif select == "lanes":
            result = sorted(session.lane_blocks or {})
        elif select == "lane":
            lane_name = require_str(request, "lane")
            lane_blocks = session.lane_blocks or {}
            block = lane_blocks.get(lane_name)
            if block is None:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    "session %r was not analyzed with lane %r (has: %s); "
                    "re-analyze with a 'lanes' field"
                    % (session_name, lane_name, sorted(lane_blocks) or "none"),
                )
            result = block
        elif select == "who_modifies":
            variable = require_str(request, "variable")
            kind = request.get("kind", "mod")
            if kind not in ("mod", "use"):
                raise ProtocolError(
                    E_BAD_REQUEST, "field 'kind' must be 'mod' or 'use'"
                )
            procs, sites = _who_modifies(summary, variable, EffectKind(kind))
            result = {"variable": variable, "kind": kind,
                      "procedures": procs, "sites": sites}
        else:
            raise ProtocolError(
                E_BAD_REQUEST,
                "unknown select %r; expected procedures/proc/site/sites/"
                "lanes/lane/who_modifies" % select,
            )
        return ok_response(
            request_id, "query", select=select, session=session_name, result=result
        )

    async def _verb_stats(self, request_id: Any, request: Dict) -> Dict:
        return ok_response(request_id, "stats", stats=self.stats_snapshot())

    async def _verb_shutdown(self, request_id: Any, request: Dict) -> Dict:
        self.request_shutdown()
        return ok_response(request_id, "shutdown", draining=True)

    # -- reporting -----------------------------------------------------------

    def stats_snapshot(self) -> Dict:
        """The full observability document (``stats`` verb and
        ``--metrics-json``)."""
        snapshot = self.metrics.to_dict()
        snapshot.update(
            {
                "protocol": PROTOCOL_VERSION,
                "config": self.config.to_dict(),
                "address": list(self.address),
                "inflight": self._active,
                "lru": self.lru.to_dict(),
                "disk_cache": (
                    self.disk_cache.stats.to_dict()
                    if self.disk_cache is not None
                    else None
                ),
                "sessions": self.sessions.to_dict(),
            }
        )
        return snapshot


def _who_modifies(summary, variable: str, kind: EffectKind) -> Tuple[List[str], List[int]]:
    """The procedures, sorted, whose G row, and the call sites, in
    order, whose MOD (or USE) set holds a variable named ``variable``:
    what a scan of :func:`~repro.core.persist.summary_to_dict`'s name
    lists finds, read from the masks with no set named."""
    solution = summary.solutions[kind]
    wanted = mask_of(
        uid for uid, name in enumerate(summary.universe.names) if name == variable
    )
    procs = sorted(
        name
        for name, proc in persist.procedure_entries(summary.resolved).items()
        if solution.gmod[proc.pid] & wanted
    )
    sites = [
        site.site_id
        for site in summary.resolved.call_sites
        if solution.mod[site.site_id] & wanted
    ]
    return procs, sites


def _lane_blocks(summary) -> Optional[Dict[str, Dict]]:
    """A laned summary's ``lanes`` reply block, as its cache record
    stores it, else None."""
    return result_meta(summary).get("lanes")


def _analyze_fields(summary, blocks, containers: bool) -> Dict[str, Any]:
    """An ``analyze`` reply's fields for a live summary besides its key:
    the program's size, the lane blocks if any and the summary itself
    (see :func:`_summary_field`).  Runs on the solver pool."""
    fields = _summary_field(summary, containers)
    fields["num_procs"] = summary.resolved.num_procs
    fields["num_call_sites"] = summary.resolved.num_call_sites
    if blocks is not None:
        fields["lanes"] = blocks
    return fields


def _summary_field(summary, containers: bool) -> Dict[str, Any]:
    """The reply field a live summary travels in: ``container``, the
    base64 text of its container, for a client that reads containers,
    else ``summary``, its payload.  Runs on the solver pool: the payload
    names every set, once per summary."""
    if containers:
        blob = _summary_container(summary)
        return {"container": base64.b64encode(blob).decode("ascii")}
    return {"summary": persist.summary_to_dict(summary)}


def _summary_container(summary) -> bytes:
    """The v5 container a reply carries for a live summary, with no
    trailer section.  Its string table and body are written once per
    summary and shared with the state file and the cache record."""
    return persist.summary_to_bytes(summary)


class ServerThread:
    """Run an :class:`AnalysisServer` on a background thread — the
    embedding used by tests, benchmarks, and library callers that want
    a live endpoint without managing an event loop.

    Usage::

        with ServerThread(ServerConfig(port=0)) as handle:
            client = ServerClient(port=handle.port)
            ...
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.server = AnalysisServer(config)
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.address[1]

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="ck-analysis-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("analysis server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                "analysis server failed to start: %s" % self._startup_error
            )
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        await self.server.serve_until_shutdown()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
