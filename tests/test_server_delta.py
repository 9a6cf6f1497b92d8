"""Update replies that name the summary the client already holds, and
the two forms a due summary travels in.

:class:`ServerClient` sends the ``key`` of its last reply for a session
as ``since`` on ``update``.  When the update moves no set, the daemon
answers ``"delta": {}`` in place of the whole summary and the client
puts back the summary it holds.  Where a summary is due, the stock
client, which asks for containers, gets ``container`` (the base64 v5
container) and loads it; a JSON-lines client that does not ask
(:class:`LineClient`) gets ``summary``, as in protocol 2.  The oracle
is the full JSON reply: after every step of the edit-sequence fuzz, and
after re-sending each step's source (which moves nothing), the summary
either client returns equals the JSON round trip of a from-scratch
``summary_to_dict``, key order included, and the line the daemon wrote
carried ``delta`` exactly where the two versions' scratch containers
are byte-identical and, elsewhere, the summary in the form its client
asked for.  A session of the stock client's traffic never renders.
"""

from __future__ import annotations

import base64
import json
import os
import random
import re
import socket
import sys
import threading

import pytest

import repro.server.daemon as daemon_module
from repro.core.persist import summary_to_bytes, summary_to_dict
from repro.core.pipeline import analyze_side_effects, result_meta
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.server import ServerClient, ServerConfig, ServerError, ServerThread
from repro.server.protocol import ProtocolError, encode
from repro.workloads import patterns
from repro.workloads.generator import GeneratorConfig, generate_program
from tests.test_incremental_fuzz import FUZZ_CASES, EditFuzzer

#: The four fuzz cases plus one 500-procedure sequence.
SEQUENCES = FUZZ_CASES + [(GeneratorConfig(seed=7, num_procs=500, num_globals=100), 7)]
SEQUENCE_IDS = ["small-a", "small-b", "medium", "nested", "p500"]
STEPS = 20

#: The fields of a protocol-1 ``update`` reply of a lane-less session.
FULL_REPLY = {"ok", "id", "verb", "key", "summary", "update_stats", "session"}

#: The field a due summary travels in, to the stock client
#: (``container``) and to a JSON-lines client (``summary``), and the
#: field that reply must not carry.
OTHER_FORM = {"container": "summary", "summary": "container"}

BASE = patterns.chain(8)
#: ``BASE`` with a global write added to ``c1``: the sets move.
EDITED = BASE.replace("proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9")


def scratch(source: str):
    """What ``json.loads`` of a full reply gives for the summary of a
    from-scratch analysis of ``source``."""
    return json.loads(encode(summary_to_dict(analyze_side_effects(source))))


def scratch_forms(source: str):
    """A from-scratch analysis of ``source`` as :func:`as_sent` text of
    its :func:`scratch` summary, and as its container."""
    summary = analyze_side_effects(source)
    text = as_sent(json.loads(encode(summary_to_dict(summary))))
    return text, summary_to_bytes(summary)


def as_sent(summary_dict) -> str:
    """``summary_dict`` as compact JSON in its own key order."""
    return json.dumps(summary_dict, separators=(",", ":"))


def literal_edit(source: str) -> str:
    """``source`` with its first assigned one-digit literal changed: no
    set and no line moves."""
    match = re.search(r":= (\d)\b", source)
    assert match is not None, "no one-digit literal to edit"
    digit = "2" if match.group(1) != "2" else "3"
    return source[: match.start(1)] + digit + source[match.end(1):]


class LineClient:
    """A protocol-2 client on a raw socket: JSON lines and no ``accept``,
    so every due summary comes back as ``summary``.  Like a JSON-only
    client in any language, it sends the ``key`` of its last reply for a
    session as ``since`` on ``update`` and puts the summary it holds back
    for the empty delta, in the reply's sorted key order."""

    def __init__(self, port: int):
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=120)
        self._file = self._socket.makefile("rwb")
        self._held = {}

    def request(self, verb: str, **fields):
        session = fields.get("session")
        held = self._held.get(session)
        if verb == "update" and held is not None:
            fields.setdefault("since", held[0])
        self._file.write((json.dumps(dict(fields, verb=verb)) + "\n").encode("utf-8"))
        self._file.flush()
        reply = json.loads(self._file.readline())
        if not reply["ok"]:
            raise ServerError(reply)
        if verb in ("analyze", "update") and session is not None:
            if "delta" in reply:
                assert reply.pop("delta") == {} and held[0] == fields["since"]
                reply = dict(sorted(dict(reply, summary=held[1]).items()))
            self._held[session] = (reply["key"], reply["summary"])
        return reply

    def analyze(self, source: str, session=None, **extra):
        if session is not None:
            extra["session"] = session
        return self.request("analyze", source=source, **extra)

    def update(self, session: str, source: str, **extra):
        return self.request("update", session=session, source=source, **extra)

    def stats(self):
        return self.request("stats")["stats"]

    def close(self):
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def connect(form: str, port: int):
    """A client that gets due summaries in ``form``."""
    if form == "container":
        return ServerClient(port=port, max_payload=1 << 26)
    return LineClient(port)


def carries(line, form: str) -> bool:
    """Does a reply line carry its summary in ``form``, and not the
    other?"""
    return form in line and OTHER_FORM[form] not in line


def no_summary(line) -> bool:
    """Does a reply line carry the summary in neither form?"""
    return "summary" not in line and "container" not in line


@pytest.fixture()
def wire(monkeypatch):
    """Every line the daemon writes, as bytes, in order."""
    lines = []
    encode_line = daemon_module.encode

    def recording(message):
        line = encode_line(message)
        lines.append(line)
        return line

    monkeypatch.setattr(daemon_module, "encode", recording)
    return lines


def last(wire):
    """The last line the daemon wrote, decoded."""
    return json.loads(wire[-1])


def walk_sequence(config, seed, form: str, wire) -> None:
    """One client, which gets due summaries in ``form``, opens a session
    and walks the sequence by ``update``, sending every step's source
    twice.  Each summary it returns equals a scratch render's JSON round
    trip, values and key order; the first update of a step carried
    ``delta`` exactly when the two versions' scratch containers are
    byte-identical, and the second always did; every other line carried
    the summary in ``form``."""
    fuzzer = EditFuzzer(config, seed)
    source = pretty(fuzzer.program)
    old_text, old_blob = scratch_forms(source)
    # The front end's own verdicts along the chain: each step's first
    # update splices exactly when this does, its resend always does.
    local = compile_source(source)
    spliced = STEPS
    with ServerThread(ServerConfig(port=0)) as handle:
        with connect(form, handle.port) as client:
            opened = client.analyze(source, session="fuzz")
            assert carries(last(wire), form)
            assert as_sent(opened["summary"]) == old_text
            for step in range(STEPS):
                op = fuzzer.step()
                source = pretty(fuzzer.program)
                previous, local = local, compile_source(source, previous=local)
                spliced += local.main is previous.main
                context = "step %d (%s)" % (step, op)
                new_text, new_blob = scratch_forms(source)
                reply = client.update("fuzz", source)
                assert as_sent(reply["summary"]) == new_text, context
                line = last(wire)
                assert ("delta" in line) == (new_blob == old_blob), context
                if "delta" in line:
                    assert line["delta"] == {} and no_summary(line), context
                else:
                    assert carries(line, form), context
                again = client.update("fuzz", source)
                line = last(wire)
                assert line["delta"] == {} and no_summary(line), context
                assert again["summary"] is reply["summary"], context
                assert set(again) == FULL_REPLY, context
                assert list(again) == sorted(again), context
                old_text, old_blob = new_text, new_blob
            stats = client.stats()
    replies = stats["update_replies"]
    assert replies["delta"] + replies["full"] == 2 * STEPS
    assert replies["delta"] >= STEPS
    assert stats["update_front_end"] == {
        "spliced": spliced, "full": 2 * STEPS - spliced
    }


class TestDaemonOracle:
    @pytest.mark.parametrize("config, seed", SEQUENCES, ids=SEQUENCE_IDS)
    def test_edit_sequences_match_scratch(self, config, seed, wire):
        """The stock client walks the sequence (:func:`walk_sequence`);
        every full reply line carries ``container``."""
        walk_sequence(config, seed, "container", wire)

    @pytest.mark.parametrize("config, seed", SEQUENCES, ids=SEQUENCE_IDS)
    def test_edit_sequences_match_scratch_over_json_lines(self, config, seed, wire):
        """A protocol-2 client walks the same sequence; every full reply
        line carries ``summary``, as before protocol 3."""
        walk_sequence(config, seed, "summary", wire)

    @pytest.mark.parametrize("form", sorted(OTHER_FORM))
    def test_an_edit_of_a_row_the_body_hides_answers_a_delta(self, form, wire):
        """Main's ``g1 := 1`` made ``g1 := g2`` moves only main's GUSE
        row, which the container hides behind the procedure named after
        the program: the containers are byte-identical, so the update
        answers the empty delta."""
        from tests.test_persist_writer import COLLISIONS, HIDDEN_EDIT

        assert scratch_forms(HIDDEN_EDIT)[1] == scratch_forms(COLLISIONS)[1]
        with ServerThread(ServerConfig(port=0)) as handle:
            with connect(form, handle.port) as client:
                client.analyze(COLLISIONS, session="s")
                reply = client.update("s", HIDDEN_EDIT)
        assert last(wire)["delta"] == {} and no_summary(last(wire))
        assert as_sent(reply["summary"]) == scratch_forms(HIDDEN_EDIT)[0]

    def test_literal_edit_line_is_small(self, wire):
        """At 500 procedures / 100 globals a literal edit leaves every
        set and line as it was: the update line is the empty delta plus
        the statistics, under 2 KB against megabytes for the summary."""
        source = pretty(generate_program(
            GeneratorConfig(seed=7, num_procs=500, num_globals=100)))
        edited = literal_edit(source)
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port, max_payload=1 << 26) as client:
                opened = client.analyze(source, session="s")
                full = len(wire[-1])
                updated = client.update("s", edited)
        assert last(wire)["delta"] == {}
        assert len(wire[-1]) < 2048 < full
        assert updated["summary"] is opened["summary"]
        assert updated["summary"] == scratch(edited)


class TestEdgeCases:
    def test_without_since_the_reply_is_protocol_one(self, wire):
        """An update without ``since`` is answered in full, in the form
        its client asks for."""
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as opener:
                opener.analyze(BASE, session="s")
            for form in OTHER_FORM:
                with connect(form, handle.port) as client:
                    reply = client.update("s", literal_edit(BASE))
                assert set(last(wire)) == FULL_REPLY - {"summary"} | {form}
                assert reply["summary"] == scratch(literal_edit(BASE))

    def test_a_second_clients_update_makes_the_next_reply_full(self, wire):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as first, \
                    ServerClient(port=handle.port) as second:
                first.analyze(BASE, session="s")
                second.update("s", EDITED)
                reply = first.update("s", literal_edit(EDITED))
                assert carries(last(wire), "container")
                assert reply["summary"] == scratch(literal_edit(EDITED))
                # The full reply re-synchronised the first client.
                reply = first.update("s", EDITED)
                assert last(wire)["delta"] == {}
                assert reply["summary"] == scratch(EDITED)
                replies = first.stats()["update_replies"]
        assert replies == {"delta": 1, "full": 2}

    def test_a_session_edited_back_still_answers_a_delta(self, wire):
        """``since`` names a source, not a moment: a session another
        client took away and back to the held source matches it."""
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as first, \
                    ServerClient(port=handle.port) as second:
                first.analyze(BASE, session="s")
                second.update("s", EDITED)
                second.update("s", BASE)
                reply = first.update("s", literal_edit(BASE))
        assert last(wire)["delta"] == {}
        assert reply["summary"] == scratch(literal_edit(BASE))

    def test_a_restarted_daemon_answers_its_first_update_in_full(self, tmp_path, wire):
        """A reloaded session is not in memory until its first update,
        which is answered in full whatever ``since`` says."""
        config = ServerConfig(port=0, state_dir=str(tmp_path))
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                key = client.analyze(BASE, session="s")["key"]
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as client:
                reply = client.request_raw(
                    "update", session="s", source=literal_edit(BASE), since=key)
                assert reply["ok"] and carries(last(wire), "container")
                assert reply["summary"] == scratch(literal_edit(BASE))
                reply = client.update("s", BASE)
                assert last(wire)["delta"] == {}
                assert reply["summary"] == scratch(BASE)
                replies = client.stats()["update_replies"]
        assert replies == {"delta": 1, "full": 1}

    def test_non_string_since_is_bad_request(self):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(BASE, session="s")
                for bad in (7, ["x"], {"g": 1}, True):
                    reply = client.request_raw(
                        "update", session="s", source=BASE, since=bad)
                    assert not reply["ok"]
                    assert reply["error"]["code"] == "bad_request"

    def test_failed_update_keeps_the_held_summary(self, wire):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(BASE, session="s")
                with pytest.raises(ServerError) as excinfo:
                    client.update("s", "program broken begin call nosuch( end")
                assert excinfo.value.code == "analysis_error"
                reply = client.update("s", literal_edit(BASE))
        assert last(wire)["delta"] == {}
        assert reply["summary"] == scratch(literal_edit(BASE))

    def test_laned_session_keeps_its_lanes_block(self, wire):
        lanes = ("refalias", "sections")
        edited = literal_edit(BASE)
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(BASE, session="s", lanes=list(lanes))
                reply = client.update("s", edited)
        assert last(wire)["delta"] == {} and "lanes" in last(wire)
        fresh = result_meta(analyze_side_effects(edited, lanes=lanes))
        assert reply["lanes"] == json.loads(encode(fresh["lanes"]))
        assert reply["summary"] == scratch(edited)

    def test_concurrent_updates_return_each_clients_summary(self, tmp_path):
        """Four clients update one session at once, each with another
        source every round: two sources and a literal edit of each.
        With a state dir each reply waits on a save while the others
        land.  Every returned summary equals its own source's scratch
        render, whichever replies came as deltas."""
        sources = [BASE, literal_edit(BASE), EDITED, literal_edit(EDITED)]
        expected = [scratch(source) for source in sources]
        rounds = 6
        config = ServerConfig(port=0, state_dir=str(tmp_path), max_concurrent=4,
                              allow_sleep=True)
        with ServerThread(config) as handle:
            with ServerClient(port=handle.port) as opener:
                opener.analyze(BASE, session="shared")
            start = threading.Barrier(len(sources), timeout=30)
            failures = []

            def client(which):
                try:
                    with ServerClient(port=handle.port) as c:
                        c.analyze(BASE, session="shared")
                        for round_no in range(rounds):
                            start.wait()
                            pick = (which + round_no) % len(sources)
                            # The sleep lets every request of a round
                            # arrive before any of them lands.
                            reply = c.request_raw("update", session="shared",
                                                  source=sources[pick], sleep=0.02)
                            if not reply.get("ok"):
                                failures.append(reply.get("error"))
                            elif reply["summary"] != expected[pick]:
                                failures.append((which, round_no, "diverged"))
                except Exception as error:
                    failures.append((which, repr(error)))

            threads = [threading.Thread(target=client, args=(which,))
                       for which in range(len(sources))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            with ServerClient(port=handle.port) as observer:
                replies = observer.stats()["update_replies"]
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert replies["delta"] + replies["full"] == rounds * len(sources)
        assert replies["delta"] > 0


class TestReplyForms:
    """Each reply a summary is due in, to both clients: the line carries
    the summary in the form its client asked for, and the summary the
    client returns equals the scratch JSON round trip, key order
    included."""

    @pytest.mark.parametrize("form", sorted(OTHER_FORM))
    def test_a_set_moving_update(self, form, wire):
        with ServerThread(ServerConfig(port=0)) as handle:
            with connect(form, handle.port) as client:
                client.analyze(BASE, session="s")
                reply = client.update("s", EDITED)
        assert carries(last(wire), form)
        assert as_sent(reply["summary"]) == as_sent(scratch(EDITED))
        assert set(reply) == FULL_REPLY and list(reply) == sorted(reply)

    @pytest.mark.parametrize("form", sorted(OTHER_FORM))
    def test_an_lru_hit(self, form, wire):
        with ServerThread(ServerConfig(port=0)) as handle:
            with connect(form, handle.port) as client:
                client.analyze(BASE, session="s")
                hit = client.analyze(BASE)
        assert hit["cached"] == "lru" and carries(last(wire), form)
        assert as_sent(hit["summary"]) == as_sent(scratch(BASE))
        assert list(hit) == sorted(hit)

    def test_a_disk_hit_goes_to_a_container_client_undecoded(
        self, tmp_path, wire, monkeypatch
    ):
        """The daemon answers a container client's disk hit with the
        cache record's bytes and decodes nothing; a JSON client's hit
        is decoded on the solver pool.  Both clients return the same
        summary."""
        import repro.core.persist as persist

        config = ServerConfig(port=0, cache_dir=str(tmp_path))
        with ServerThread(config) as handle:
            with connect("summary", handle.port) as client:
                client.analyze(BASE)  # A miss, stored.
        (entry,) = os.listdir(str(tmp_path))
        with open(os.path.join(str(tmp_path), entry), "rb") as handle:
            record = handle.read()
        decoders = []
        decode_payload = persist.decode_summary_payload

        def watched(data):
            decoders.append(threading.current_thread().name)
            return decode_payload(data)

        monkeypatch.setattr(persist, "decode_summary_payload", watched)
        with ServerThread(config) as handle:
            with connect("container", handle.port) as client:
                hit = client.analyze(BASE)
            sent = last(wire)
            with connect("summary", handle.port) as client:
                json_hit = client.analyze(BASE)
        assert hit["cached"] == json_hit["cached"] == "disk"
        assert base64.b64decode(sent["container"]) == record
        assert [name.startswith("ck-solver") for name in decoders] == [False, True]
        assert as_sent(hit["summary"]) == as_sent(json_hit["summary"])
        assert as_sent(hit["summary"]) == as_sent(scratch(BASE))
        assert hit["num_procs"] == json_hit["num_procs"]

    @pytest.mark.parametrize("form", sorted(OTHER_FORM))
    def test_a_laned_session(self, form, wire):
        lanes = ("refalias", "sections")
        with ServerThread(ServerConfig(port=0)) as handle:
            with connect(form, handle.port) as client:
                opened = client.analyze(BASE, session="s", lanes=list(lanes))
                opening = last(wire)
                reply = client.update("s", EDITED)
        for line in (opening, last(wire)):
            assert carries(line, form) and "lanes" in line
        assert as_sent(opened["summary"]) == as_sent(scratch(BASE))
        assert as_sent(reply["summary"]) == as_sent(scratch(EDITED))
        fresh = result_meta(analyze_side_effects(EDITED, lanes=lanes))
        assert reply["lanes"] == json.loads(encode(fresh["lanes"]))

    def test_a_stock_client_session_never_renders(self, tmp_path, wire, monkeypatch):
        """An open, ten single-literal updates and a ``who_modifies``
        query of each kind after each: the stock client's traffic.  With
        the render refused, every reply comes, every update is the empty
        delta, and each answer is the scratch payload's."""
        import repro.core.persist as persist

        source = pretty(generate_program(
            GeneratorConfig(seed=7, num_procs=60, num_globals=20)))
        rng = random.Random(7)
        literal = re.compile(r"^(\s+\w+ := )(\d)$")
        lines = source.split("\n")
        candidates = [n for n, line in enumerate(lines) if literal.match(line)]
        variable = "g0"
        versions, answers = [], []

        def refuse(_summary):
            raise AssertionError("the session rendered a payload")

        monkeypatch.setattr(persist, "summary_to_dict", refuse)
        with ServerThread(ServerConfig(port=0, state_dir=str(tmp_path))) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(source, session="s")
                for _ in range(10):
                    number = rng.choice(candidates)
                    head, value = literal.match(lines[number]).groups()
                    lines[number] = head + str((int(value) + rng.randint(1, 9)) % 10)
                    versions.append("\n".join(lines))
                    client.update("s", versions[-1])
                    assert last(wire)["delta"] == {} and no_summary(last(wire))
                    answers.append([
                        client.query("s", "who_modifies", variable=variable,
                                     kind=kind)["result"]
                        for kind in ("mod", "use")])
        monkeypatch.undo()
        from tests.test_server import payload_scan

        for version, answer in zip(versions, answers):
            payload = scratch(version)
            assert answer == [payload_scan(payload, variable, kind)
                              for kind in ("mod", "use")]
            assert answer[0]["procedures"] and answer[1]["procedures"]

    def test_a_json_reply_is_protocol_two_byte_for_byte(self, wire):
        """Without ``accept`` the line is the protocol-2 reply."""
        from repro.server.protocol import ok_response
        from repro.service.cache import content_key

        summary = analyze_side_effects(BASE)
        with ServerThread(ServerConfig(port=0)) as handle:
            with connect("summary", handle.port) as client:
                client.request("analyze", source=BASE, id=5)
        assert wire[-1] == encode(ok_response(
            5, "analyze", key=content_key(BASE), cached=False,
            summary=summary_to_dict(summary),
            num_procs=summary.resolved.num_procs,
            num_call_sites=summary.resolved.num_call_sites,
        ))

    def test_the_container_is_the_summarys_own(self, wire):
        """A live summary's container is its ``summary_to_bytes``, with
        no trailer section."""
        with ServerThread(ServerConfig(port=0)) as handle:
            with connect("container", handle.port) as client:
                client.analyze(BASE, session="s")
        sent = base64.b64decode(last(wire)["container"])
        assert sent == summary_to_bytes(analyze_side_effects(BASE))

    def test_any_other_accept_is_bad_request(self):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze(BASE, session="s")
                for verb in ("analyze", "update"):
                    for bad in ("json", "Container", 1, ["container"]):
                        reply = client.request_raw(
                            verb, source=BASE, session="s", accept=bad)
                        assert reply["error"]["code"] == "bad_request"

    def test_a_container_that_does_not_load_keeps_what_the_client_holds(
        self, monkeypatch
    ):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(port=handle.port) as client:
                opened = client.analyze(BASE, session="s")
                held = dict(client._held)
                monkeypatch.setattr(
                    daemon_module, "_summary_container", lambda _summary: b"CKSB?")
                with pytest.raises(ProtocolError) as excinfo:
                    client.update("s", EDITED)
                assert excinfo.value.code == "bad_request"
                assert client._held == held
                assert client._held["s"] == (opened["key"], opened["summary"])
