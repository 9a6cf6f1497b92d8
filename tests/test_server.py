"""Analysis server tests: protocol, caching tiers, incremental
sessions, robustness (timeout / overload / malformed), and the
concurrent-clients acceptance workload.

Every summary the daemon returns is compared against a from-scratch
``analyze_side_effects`` of the same source, serialized the same way —
the server must be an *optimization*, never a different answer.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.core.persist import summary_to_dict
from repro.core.pipeline import analyze_side_effects
from repro.server import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServerClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.lru import LRUCache
from repro.server.metrics import LatencyHistogram
from repro.service.batch import run_batch
from repro.service.cache import content_key
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.lang.pretty import pretty


def scratch_summary(source: str) -> dict:
    return summary_to_dict(analyze_side_effects(source))


def canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def head_edit(length: int) -> str:
    """chain(length) with a global write added to the first link —
    downstream links stay clean, so most GMOD work is reusable."""
    return patterns.chain(length).replace(
        "proc c1(x)\n  begin",
        "proc c1(x)\n  begin\n    g := 9",
    )


def raw_request(port: int, data: bytes) -> dict:
    """One raw line on a fresh socket; returns the decoded response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        handle = sock.makefile("rb")
        line = handle.readline()
    assert line, "server closed without responding"
    return json.loads(line)


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, allow_sleep=True)
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestProtocol:
    def test_ping_reports_protocol_version(self, client):
        assert client.ping()["protocol"] == PROTOCOL_VERSION

    def test_id_is_echoed(self, client):
        response = client.request("ping")
        assert response["id"] == client._next_id

    def test_malformed_json_is_bad_request(self, server):
        response = raw_request(server.port, b"this is not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_non_object_request_is_bad_request(self, server):
        response = raw_request(server.port, b"[1, 2, 3]\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_unknown_verb(self, server):
        response = raw_request(server.port, b'{"verb": "frobnicate"}\n')
        assert response["error"]["code"] == "unknown_verb"

    def test_missing_source_is_bad_request(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("analyze")
        assert excinfo.value.code == "bad_request"

    def test_analysis_error_is_structured(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.analyze("program t begin x := end")
        assert excinfo.value.code == "analysis_error"
        assert "ParseError" in str(excinfo.value)

    def test_oversized_payload_rejected(self):
        config = ServerConfig(port=0, max_payload=1024)
        with ServerThread(config) as handle:
            big = "program t begin end" + " " * 4096
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as sock:
                sock.sendall(
                    json.dumps({"verb": "analyze", "source": big}).encode() + b"\n"
                )
                reader = sock.makefile("rb")
                response = json.loads(reader.readline())
                assert response["error"]["code"] == "payload_too_large"
                # Framing is unrecoverable: the server hangs up.
                assert reader.readline() == b""

    def test_oversized_reply_fails_cleanly(self, server):
        """A reply over the client's cap raises an error naming the cap
        and closes the connection, so its unread tail is never taken
        for the next reply."""
        source = pretty(generate_program(
            GeneratorConfig(seed=4, num_procs=500, num_globals=60)))
        with ServerClient(port=server.port, max_payload=64 * 1024) as small:
            with pytest.raises(ProtocolError, match="max_payload of 65536") as excinfo:
                small.analyze(source)
            assert excinfo.value.code == "payload_too_large"
            with pytest.raises(ConnectionError):
                small.ping()
        with ServerClient(port=server.port) as fresh:
            assert fresh.analyze(source)["ok"]
            assert fresh.ping()["ok"]


class TestAnalyze:
    def test_summary_matches_from_scratch(self, client):
        source = patterns.call_tree(3)
        response = client.analyze(source)
        assert canon(response["summary"]) == canon(scratch_summary(source))
        assert response["cached"] is False

    def test_second_analyze_hits_lru_and_is_identical(self, client):
        source = patterns.ring(4)
        cold = client.analyze(source)
        warm = client.analyze(source)
        assert warm["cached"] == "lru"
        assert canon(warm["summary"]) == canon(cold["summary"])

    def test_stale_gmod_method_is_ignored(self, client):
        """The retired ``gmod_method`` field is ignored like any unknown
        field: a stale client gets the one summary there is, from the
        entry a request without the field warmed."""
        source = head_edit(5)
        warm = client.analyze(source)
        for stale in ("reference", "nope"):
            response = client.analyze(source, session="stale", gmod_method=stale)
            assert response["cached"] == "lru"
            assert response["key"] == warm["key"]
            assert canon(response["summary"]) == canon(scratch_summary(source))
            assert "gmod_method" not in response["session"]

    def test_key_matches_earlier_builds(self, client):
        """Keys hash the literal ``auto`` where the retired solver choice
        went, so disk-cache entries and persisted session keys written
        before stay valid."""
        key = "6903f6d6571b93dca8b238f370c32d8370d917c1060149ce60d84a140d7df7fa"
        assert content_key(patterns.chain(3)) == key
        assert client.analyze(patterns.chain(3))["key"] == key

    def test_disk_cache_shared_with_batch(self, tmp_path):
        source_path = tmp_path / "prog.ck"
        source_path.write_text(patterns.chain(4))
        cache_dir = str(tmp_path / "cache")
        prime = run_batch(str(source_path), jobs=1, cache_dir=cache_dir)
        assert prime.ok_count == 1
        config = ServerConfig(port=0, cache_dir=cache_dir)
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                response = client.analyze(source_path.read_text())
                assert response["cached"] == "disk"
                assert canon(response["summary"]) == canon(
                    scratch_summary(source_path.read_text())
                )

    def test_lru_capacity_zero_never_caches(self):
        config = ServerConfig(port=0, lru_size=0)
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(patterns.chain(2))
                assert client.analyze(patterns.chain(2))["cached"] is False


class TestShardedAnalyze:
    """The daemon has one solve path.  A client that still sends the
    retired ``shards``/``partition`` fields gets the one summary there
    is: the daemon ignores them like any unknown field."""

    def test_sharded_analyze_is_bit_identical(self):
        source = patterns.call_tree(4)
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                stale = client.request_raw(
                    "analyze", source=source, shards=4, partition="separator"
                )
        assert stale["ok"], stale.get("error")
        assert stale["cached"] is False
        assert "shard_info" not in stale
        assert canon(stale["summary"]) == canon(scratch_summary(source))

    def test_shards_field_validated(self, client):
        """No value of the retired fields is an error any more, the
        malformed ones included."""
        expected = canon(scratch_summary(patterns.chain(2)))
        for bad in (0, -2, "four", True):
            response = client.request_raw(
                "analyze", source=patterns.chain(2), shards=bad, partition=bad
            )
            assert response["ok"], response.get("error")
            assert canon(response["summary"]) == expected

    def test_sharded_metrics_in_stats(self):
        """A stale sharded request leaves no sharded block and no shard
        or fleet config keys in ``stats``."""
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                client.request_raw("analyze", source=patterns.ring(5), shards=2)
                stats = client.stats()
        assert "sharded" not in stats
        assert not any(
            key.startswith(("shard", "fleet")) for key in stats["config"]
        )

    def test_cache_key_blind_to_shards(self):
        # A monolithic analyze warms the LRU; the stale sharded request
        # for the same source is a hit with the same summary.
        config = ServerConfig(port=0)
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                cold = client.analyze(patterns.chain(5))
                warm = client.request_raw(
                    "analyze", source=patterns.chain(5), shards=4
                )
        assert warm["cached"] == "lru"
        assert canon(warm["summary"]) == canon(cold["summary"])


class TestSessions:
    def test_update_matches_from_scratch_and_reuses(self, client):
        base = patterns.chain(10)
        edited = head_edit(10)
        client.analyze(base, session="head-edit")
        response = client.update("head-edit", edited)
        assert canon(response["summary"]) == canon(scratch_summary(edited))
        stats = response["update_stats"]
        assert stats["dirty_procs"] == ["c1"]
        # The acceptance bar: a one-procedure local edit reuses more
        # than half of the GMOD-phase per-procedure sets.
        assert stats["reuse_fraction"] > 0.5
        assert stats["reused_procs"] + stats["affected_procs"] == stats["total_procs"]

    def test_update_unknown_session(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.update("never-opened", patterns.chain(2))
        assert excinfo.value.code == "unknown_session"

    def test_update_chain_preserves_correctness(self, client):
        """A session surviving several edits stays equal to scratch."""
        config = GeneratorConfig(seed=41, num_procs=12, num_globals=5)
        base = pretty(generate_program(config))
        client.analyze(base, session="evolving")
        current = base
        for round_no in range(3):
            current = current + "\n"  # Whitespace-only: main unchanged.
            response = client.update("evolving", current)
            assert canon(response["summary"]) == canon(scratch_summary(current))

    def test_query_proc_and_site(self, client):
        source = patterns.chain(4)
        client.analyze(source, session="q")
        procs = client.query("q", "procedures")["result"]
        assert "c1" in procs and "chain" in procs
        entry = client.query("q", "proc", proc="c1")["result"]
        assert entry["name"] == "c1"
        assert "gmod" in entry and "rmod" in entry
        site = client.query("q", "site", site=0)["result"]
        assert site["caller"] == "chain"
        assert site["callee"] == "c1"
        assert "mod" in site and "use" in site

    def test_query_site_takes_only_an_integer(self, client):
        """``true``/``false`` are not site ids 1/0, as ``1.0`` and
        ``"1"`` are not."""
        client.analyze(patterns.chain(4), session="qsite")
        for value in (True, False, 1.0, "1"):
            with pytest.raises(ServerError) as excinfo:
                client.query("qsite", "site", site=value)
            assert excinfo.value.code == "bad_request", value
        assert client.query("qsite", "site", site=1)["result"]["site_id"] == 1

    def test_query_who_modifies(self, client):
        source = patterns.chain(4)
        client.analyze(source, session="whom")
        result = client.query("whom", "who_modifies", variable="g")["result"]
        scratch = scratch_summary(source)
        expected_procs = sorted(
            name
            for name, entry in scratch["procedures"].items()
            if "g" in entry["gmod"]
        )
        assert result["procedures"] == expected_procs
        expected_sites = [
            site["site_id"] for site in scratch["call_sites"] if "g" in site["mod"]
        ]
        assert result["sites"] == expected_sites

    def test_query_errors(self, client):
        client.analyze(patterns.chain(3), session="qerr")
        for kwargs, code in (
            (dict(select="proc", proc="nope"), "bad_request"),
            (dict(select="site", site=999), "bad_request"),
            (dict(select="nonsense"), "bad_request"),
            (dict(select="who_modifies", variable="g", kind="wat"), "bad_request"),
        ):
            with pytest.raises(ServerError) as excinfo:
                client.query("qerr", **kwargs)
            assert excinfo.value.code == code
        with pytest.raises(ServerError) as excinfo:
            client.query("no-such-session", "procedures")
        assert excinfo.value.code == "unknown_session"

    def test_session_eviction_is_lru(self):
        config = ServerConfig(port=0, max_sessions=2)
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(patterns.chain(2), session="a")
                client.analyze(patterns.chain(3), session="b")
                client.query("a", "procedures")  # Refresh "a".
                client.analyze(patterns.chain(4), session="c")  # Evicts "b".
                client.query("a", "procedures")
                with pytest.raises(ServerError) as excinfo:
                    client.query("b", "procedures")
                assert excinfo.value.code == "unknown_session"
                stats = client.stats()
                assert stats["sessions"]["evictions"] == 1


class TestRobustness:
    def test_request_timeout(self):
        config = ServerConfig(port=0, allow_sleep=True, request_timeout=0.3)
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                tick = time.monotonic()
                with pytest.raises(ServerError) as excinfo:
                    client.analyze(patterns.chain(2), sleep=5.0)
                assert excinfo.value.code == "timeout"
                assert time.monotonic() - tick < 3.0

    def test_overload_fails_fast(self):
        config = ServerConfig(
            port=0, allow_sleep=True, max_concurrent=1, max_queue=0,
            request_timeout=30.0,
        )
        with ServerThread(config) as handle:
            slow_done = threading.Event()
            slow_error = []

            def slow():
                try:
                    with ServerClient(port=handle.port) as c1:
                        c1.analyze(patterns.chain(2), sleep=1.5)
                except Exception as error:  # pragma: no cover
                    slow_error.append(error)
                finally:
                    slow_done.set()

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.4)  # Let the slow solve occupy the only slot.
            with ServerClient(port=handle.port) as c2:
                with pytest.raises(ServerError) as excinfo:
                    c2.analyze(patterns.chain(3))
                assert excinfo.value.code == "overloaded"
            slow_done.wait(timeout=10)
            thread.join(timeout=10)
            assert not slow_error

    def test_stats_shape(self, client):
        client.analyze(patterns.chain(2))
        stats = client.stats()
        for key in (
            "uptime_seconds", "requests", "errors", "latency_ms",
            "phase_seconds", "lru", "sessions", "config", "protocol",
            "incremental", "inflight",
        ):
            assert key in stats
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["requests"]["analyze"] >= 1
        assert stats["phase_seconds"].get("gmod", 0.0) >= 0.0
        histogram = stats["latency_ms"]["analyze"]
        assert histogram["count"] == stats["requests"]["analyze"]
        assert sum(histogram["buckets"].values()) == histogram["count"]


class TestConcurrentAcceptance:
    """The PR's acceptance scenario: a 200-request mixed workload from
    4 concurrent clients, each with its own incremental session, with
    zero divergence from from-scratch summaries."""

    # Per client: 1 analyze + 13 rounds × 4 requests = 53; ×4 clients
    # = 212 requests total.
    ROUNDS = 13

    def test_mixed_workload_no_divergence(self, server):
        base = patterns.chain(8)
        edited = head_edit(8)
        expected = {
            base: canon(scratch_summary(base)),
            edited: canon(scratch_summary(edited)),
        }
        failures = []
        request_counts = []

        def worker(worker_id: int) -> None:
            session = "load-%d" % worker_id
            sent = 0
            try:
                with ServerClient(port=server.port) as c:
                    response = c.analyze(base, session=session)
                    sent += 1
                    if canon(response["summary"]) != expected[base]:
                        failures.append((worker_id, "analyze diverged"))
                    current = base
                    for _ in range(self.ROUNDS):
                        nxt = edited if current == base else base
                        response = c.update(session, nxt)
                        sent += 1
                        if canon(response["summary"]) != expected[nxt]:
                            failures.append((worker_id, "update diverged"))
                        if response["update_stats"]["reuse_fraction"] <= 0.0:
                            failures.append((worker_id, "no reuse on local edit"))
                        current = nxt
                        result = c.query(
                            session, "who_modifies", variable="g"
                        )["result"]
                        sent += 1
                        # Main always writes g; c1 only in the edited
                        # version — who_modifies must track the flip.
                        wants_c1 = current == edited
                        if ("chain" not in result["procedures"]
                                or ("c1" in result["procedures"]) != wants_c1):
                            failures.append((worker_id, "query diverged"))
                        site = c.query(session, "site", site=0)["result"]
                        sent += 1
                        if site["callee"] != "c1":
                            failures.append((worker_id, "site query diverged"))
                        c.stats()
                        sent += 1
            except Exception as error:
                failures.append((worker_id, repr(error)))
            finally:
                request_counts.append(sent)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert failures == []
        assert sum(request_counts) >= 200


class TestUnits:
    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # Refresh "a".
        cache.put("c", 3)  # Evicts "b".
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1
        stats = cache.to_dict()
        assert stats["entries"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_lru_zero_capacity(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_latency_histogram_buckets(self):
        histogram = LatencyHistogram()
        for seconds in (0.0005, 0.004, 0.03, 7.0):
            histogram.observe(seconds)
        data = histogram.to_dict()
        assert data["count"] == 4
        assert sum(data["buckets"].values()) == 4
        assert data["buckets"]["<=1ms"] == 1
        assert data["buckets"][">5000ms"] == 1
        assert data["max_ms"] == pytest.approx(7000.0)


class TestCliIntegration:
    def test_query_subcommand_roundtrip(self, server, tmp_path, capsys):
        from repro.cli import main

        source_path = tmp_path / "prog.ck"
        source_path.write_text(patterns.chain(3))
        port = str(server.port)
        assert main(["query", "ping", "--port", port]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main([
            "query", "analyze", "--port", port,
            "--file", str(source_path), "--session", "cli",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert canon(payload["summary"]) == canon(
            scratch_summary(source_path.read_text())
        )
        assert main([
            "query", "query", "--port", port, "--session", "cli",
            "--select", "who_modifies", "--variable", "g",
        ]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert "chain" in result["procedures"]

    def test_query_subcommand_error_exit_code(self, server, capsys):
        from repro.cli import main

        assert main([
            "query", "query", "--port", str(server.port),
            "--session", "missing", "--select", "procedures",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["code"] == "unknown_session"


class TestSessionPersistence:
    """``--state-dir`` makes incremental sessions survive a daemon
    restart: the summary + dependency index land in a v4 container on
    disk, and the first post-restart ``update`` re-solves only the
    affected region — byte-identical to scratch, with nonzero reuse."""

    BASE = patterns.chain(6)
    EDIT = BASE.replace("proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9")

    def _open_session(self, state_dir, name="persist"):
        with ServerThread(ServerConfig(port=0, state_dir=state_dir)) as handle:
            with ServerClient(port=handle.port) as c:
                c.analyze(self.BASE, session=name)
            return handle.server._session_state_path(name)

    def test_analyze_writes_state_file(self, tmp_path):
        path = self._open_session(str(tmp_path))
        import os
        assert os.path.exists(path)
        with open(path, "rb") as handle:
            assert handle.read(4) == b"CKSB"

    def test_update_survives_restart_with_reuse(self, tmp_path):
        self._open_session(str(tmp_path))
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                response = c.update("persist", self.EDIT)
                stats = response["update_stats"]
                assert stats["index_reloaded"] is True
                assert stats["full_resolve"] is False
                assert stats["reuse_fraction"] > 0.0
                assert canon(response["summary"]) == canon(
                    scratch_summary(self.EDIT))
                snapshot = c.stats()["incremental"]
                assert snapshot["reloaded_updates"] == 1
                assert snapshot["full_resolves"] == 0
                assert snapshot["region_procs"] >= 1
                assert snapshot["total_sccs"] > 0
                # A restored session keeps working like a live one.
                second = c.update("persist", self.BASE)
                assert second["update_stats"]["index_reloaded"] is False

    def test_legacy_state_file_downgrades_to_full_resolve(self, tmp_path):
        from repro.core.persist import summary_to_bytes
        from repro.core.pipeline import analyze_side_effects

        path = self._open_session(str(tmp_path), name="legacy")
        # Overwrite with a container holding a valid summary and no
        # index section.
        with open(path, "wb") as handle:
            handle.write(summary_to_bytes(analyze_side_effects(self.BASE)))
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                response = c.update("legacy", self.EDIT)
                stats = response["update_stats"]
                assert stats["full_resolve"] is True
                assert stats["reuse_fraction"] == 0.0
                assert canon(response["summary"]) == canon(
                    scratch_summary(self.EDIT))
                assert c.stats()["incremental"]["full_resolves"] == 1

    @pytest.mark.parametrize(
        "meta",
        [[], "auto", 7, {"name": "meta", "gmod_method": "reference", "lanes": []}],
        ids=["list", "string", "number", "earlier_build"],
    )
    def test_session_meta_of_any_shape_restores(self, tmp_path, meta):
        """Session metadata that is JSON but not an object, or one an
        earlier build wrote with its ``gmod_method``, still restores the
        session: the update proceeds from the index with no lanes."""
        from repro.core.persist import SECTION_SESSION_META, summary_to_bytes

        path = self._open_session(str(tmp_path), name="meta")
        if isinstance(meta, dict):
            meta = dict(meta, key=content_key(self.BASE))
        blob = summary_to_bytes(
            analyze_side_effects(self.BASE),
            include_index=True,
            sections={SECTION_SESSION_META: json.dumps(meta).encode("utf-8")},
        )
        with open(path, "wb") as handle:
            handle.write(blob)
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                response = c.update("meta", self.EDIT)
                assert response["update_stats"]["index_reloaded"] is True
                assert response["update_stats"]["full_resolve"] is False
                assert canon(response["summary"]) == canon(
                    scratch_summary(self.EDIT))
                assert response["session"]["lanes"] == []
                assert "gmod_method" not in response["session"]

    def test_corrupt_state_file_is_unknown_session(self, tmp_path):
        path = self._open_session(str(tmp_path), name="corrupt")
        with open(path, "wb") as handle:
            handle.write(b"not a container at all")
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                with pytest.raises(ServerError) as excinfo:
                    c.update("corrupt", self.EDIT)
                assert excinfo.value.code == "unknown_session"

    def test_torn_state_file_is_unknown_session(self, tmp_path):
        """A state file cut short inside its trailer is corrupt state,
        not an internal error."""
        path = self._open_session(str(tmp_path), name="torn")
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-200])
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                with pytest.raises(ServerError) as excinfo:
                    c.update("torn", self.EDIT)
                assert excinfo.value.code == "unknown_session"

    def test_no_state_dir_forgets_sessions_on_restart(self):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as c:
                c.analyze(self.BASE, session="ephemeral")
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as c:
                with pytest.raises(ServerError) as excinfo:
                    c.update("ephemeral", self.EDIT)
                assert excinfo.value.code == "unknown_session"

    def test_update_persists_refreshed_state(self, tmp_path):
        """The state file tracks the session across edits: restart
        after an update resumes from the *edited* version."""
        self._open_session(str(tmp_path))
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                c.update("persist", self.EDIT)
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as h:
            with ServerClient(port=h.port) as c:
                response = c.update("persist", self.BASE)
                assert response["update_stats"]["index_reloaded"] is True
                assert response["update_stats"]["full_resolve"] is False
                assert canon(response["summary"]) == canon(
                    scratch_summary(self.BASE))

    def _reopen(self, state_dir):
        """Open the session, restart the daemon, then re-open it with the
        same source and update it; returns the state dir's listing."""
        self._open_session(state_dir)
        with ServerThread(ServerConfig(port=0, state_dir=state_dir)) as h:
            with ServerClient(port=h.port) as c:
                reopened = c.analyze(self.BASE, session="persist")
                updated = c.update("persist", self.EDIT)
        assert reopened["cached"] is False
        assert canon(reopened["summary"]) == canon(scratch_summary(self.BASE))
        assert canon(updated["summary"]) == canon(scratch_summary(self.EDIT))
        return sorted(os.listdir(state_dir))

    @staticmethod
    def _state_path(tmp_path, name="persist"):
        from repro.server.daemon import AnalysisServer

        server = AnalysisServer(ServerConfig(state_dir=str(tmp_path)))
        return server._session_state_path(name)

    def test_reopen_after_restart_solves_from_source(self, tmp_path):
        """A restarted daemon re-opening an unchanged session builds it
        as any analysis does, and the session persists as one file."""
        assert self._reopen(str(tmp_path)) == [
            os.path.basename(self._state_path(tmp_path))
        ]

    def test_reopen_leaves_an_earlier_builds_arena_image_alone(self, tmp_path):
        """A ``.cka`` arena image an earlier build left beside the state
        file is never read, rewritten or deleted."""
        state = self._state_path(tmp_path)
        stray = os.path.splitext(state)[0] + ".cka"
        with open(stray, "wb") as handle:
            handle.write(b"an arena image from an earlier build")
        before = os.stat(stray).st_mtime_ns
        assert self._reopen(str(tmp_path)) == sorted(
            os.path.basename(path) for path in (state, stray)
        )
        with open(stray, "rb") as handle:
            assert handle.read() == b"an arena image from an earlier build"
        assert os.stat(stray).st_mtime_ns == before

    def test_concurrent_saves_of_one_session(self, tmp_path, monkeypatch):
        """Two saves of one session on two solver threads, each holding
        its finished temp file at ``os.replace`` until the other gets
        there too: both saves land, no temp file is left behind, and the
        state file holds the session's summary."""
        from repro.core.persist import load_summary_container_file
        from repro.server.daemon import AnalysisServer
        from repro.server.sessions import Session

        server = AnalysisServer(ServerConfig(state_dir=str(tmp_path)))
        summary = analyze_side_effects(self.BASE)
        session = Session(
            name="race", key=content_key(self.BASE), summary=summary, payload={}
        )
        barrier = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".cki"):
                barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        errors = []

        def save():
            try:
                server._persist_session(session)
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=save) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        path = server._session_state_path("race")
        assert os.listdir(str(tmp_path)) == [os.path.basename(path)]
        payload, _sections = load_summary_container_file(path)
        assert payload == summary_to_dict(summary)

    def test_concurrent_updates_of_one_session(self, tmp_path):
        """Rounds of four ``update``s of one session from four clients
        at once: every one answers ``ok`` with the summary of its own
        source, and the state dir holds one state file."""
        base = patterns.chain(40)
        sources = [
            base.replace(
                "proc c%d(x)\n  begin" % link,
                "proc c%d(x)\n  begin\n    g := 9" % link,
            )
            for link in (1, 2, 3, 4)
        ]
        expected = [canon(scratch_summary(source)) for source in sources]
        config = ServerConfig(port=0, state_dir=str(tmp_path), max_concurrent=4)
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                c.analyze(base, session="shared")
            start = threading.Barrier(len(sources), timeout=30)
            failures = []

            def client(which):
                try:
                    with ServerClient(port=h.port) as c:
                        for _round in range(3):
                            start.wait()
                            response = c.request_raw(
                                "update", session="shared", source=sources[which]
                            )
                            if not response.get("ok"):
                                failures.append(response.get("error"))
                            elif canon(response["summary"]) != expected[which]:
                                failures.append((which, "diverged from scratch"))
                except Exception as error:
                    failures.append((which, repr(error)))

            threads = [
                threading.Thread(target=client, args=(which,))
                for which in range(len(sources))
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert os.listdir(str(tmp_path)) == [
            os.path.basename(self._state_path(tmp_path, "shared"))
        ]


class TestOffTheLoop:
    """The disk cache and the session-state reload read and write files
    (a cache store encodes a whole summary), so they run on the solver
    pool: none of them may hold up the event loop."""

    BASE = patterns.chain(6)
    EDIT = BASE.replace("proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9")

    def test_disk_tier_and_state_reload_leave_the_loop(self, tmp_path, monkeypatch):
        from repro.server.daemon import AnalysisServer
        from repro.service.cache import SummaryCache

        threads = []

        def recording(cls, name):
            real = getattr(cls, name)

            def spy(*args, **kwargs):
                threads.append((name, threading.current_thread().name))
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)

        recording(SummaryCache, "get")
        recording(SummaryCache, "put")
        recording(AnalysisServer, "_load_session_state")
        config = ServerConfig(
            port=0, cache_dir=str(tmp_path / "cache"), state_dir=str(tmp_path / "state")
        )
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                assert c.analyze(self.BASE)["cached"] is False  # A miss, stored.
                c.analyze(self.BASE, session="s")
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                hit = c.analyze(self.BASE)
                assert hit["cached"] == "disk"
                assert canon(hit["summary"]) == canon(scratch_summary(self.BASE))
                reply = c.update("s", self.EDIT)  # Restart, then update.
                assert reply["update_stats"]["index_reloaded"] is True
                assert reply["update_stats"]["full_resolve"] is False
        assert {name for name, _thread in threads} == {
            "get", "put", "_load_session_state"
        }
        on_loop = [name for name, thread in threads if thread == "ck-analysis-server"]
        assert on_loop == []

    def test_disk_hit_that_fails_to_decode_is_resolved(self, tmp_path, monkeypatch):
        """A record whose summary does not decode counts as ``invalid``
        and is solved again; the reply is never ``internal_error``."""
        import repro.core.persist as persist

        config = ServerConfig(port=0, cache_dir=str(tmp_path))
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                c.analyze(self.BASE)

        def corrupt(_data):
            raise ValueError("corrupt binary summary: injected")

        monkeypatch.setattr(persist, "decode_summary_payload", corrupt)
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                response = c.analyze(self.BASE)
                disk = c.stats()["disk_cache"]
        assert response["cached"] is False
        assert canon(response["summary"]) == canon(scratch_summary(self.BASE))
        assert (disk["hits"], disk["invalid"], disk["misses"], disk["stores"]) == (
            0, 1, 1, 1
        )

    def test_restarted_update_decodes_no_summary(self, tmp_path, monkeypatch):
        """A restarted daemon's first ``update`` reads the state file's
        trailer only: the stored summary's body is never decoded."""
        import repro.core.persist as persist

        config = ServerConfig(port=0, state_dir=str(tmp_path))
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                c.analyze(self.BASE, session="s")

        def refuse(*_args, **_kwargs):
            raise AssertionError("the stored summary was decoded")

        monkeypatch.setattr(persist, "_decode_summary_body", refuse)
        monkeypatch.setattr(persist, "_decode_value", refuse)
        with ServerThread(config) as h:
            with ServerClient(port=h.port) as c:
                reply = c.update("s", self.EDIT)
        assert reply["update_stats"]["index_reloaded"] is True
        assert reply["update_stats"]["full_resolve"] is False
        assert canon(reply["summary"]) == canon(scratch_summary(self.EDIT))
