"""CI smoke for the analysis daemon, run as a real OS process.

Launches ``ck-analyze serve`` as a subprocess on an ephemeral port
(with ``--state-dir`` so sessions persist), opens a session with the
``sections`` and ``refalias`` lanes, performs two updates and one
``query`` through the client, shuts it down with the ``shutdown`` verb,
and asserts a zero exit status plus a written ``--metrics-json`` dump
carrying the incremental region counters.  The session is opened three
times: through the stock client, and on a raw socket with and without
``"accept": "container"``; the reply to the request with ``accept``
carries ``container`` and no ``summary``, the other ``summary`` and no
``container``, and the three summaries are equal.  Both update replies must
carry both lanes; the first edit moves sets and is answered in full,
the second changes only a literal and is answered with the empty delta,
and the summary the client returns for it must equal a second client's
fresh ``analyze`` of that source.  It then starts a second daemon on
the same ``--state-dir`` and updates the session again: the update must
reload the persisted dependency index, be answered in full and still
carry both lanes, and the state directory must hold nothing but
``.cki`` state files.  Invoked by ``make server-smoke`` and the CI
workflow — not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import base64
import json
import os
import re
import socket
import subprocess
import sys
import tempfile

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)
sys.path.insert(0, REPO_SRC)

from repro.core.persist import decode_summary_payload  # noqa: E402
from repro.server.client import wait_for_server  # noqa: E402
from repro.workloads import patterns  # noqa: E402


#: The effect lanes the smoke session is opened with.
LANES = ["refalias", "sections"]


def start_daemon(state_dir: str, metrics_path: str):
    """``ck-analyze serve`` as an OS process; returns ``(process, port)``."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--metrics-json", metrics_path,
            "--state-dir", state_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = daemon.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", banner)
    if not match:
        daemon.kill()
        daemon.wait()
        raise AssertionError("unexpected banner: %r" % banner)
    return daemon, int(match.group(2))


def raw_request(port: int, message: dict) -> dict:
    """One JSON request line on a socket of its own; the reply, decoded."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        with sock.makefile("rwb") as stream:
            stream.write((json.dumps(message) + "\n").encode("utf-8"))
            stream.flush()
            return json.loads(stream.readline())


def stop_daemon(daemon) -> None:
    if daemon.poll() is None:
        daemon.kill()
        daemon.wait()


def main() -> int:
    workdir = tempfile.mkdtemp()
    metrics_path = os.path.join(workdir, "metrics.json")
    state_dir = os.path.join(workdir, "state")
    source = patterns.chain(5)
    edited = source.replace(
        "proc c1(x)\n  begin", "proc c1(x)\n  begin\n    g := 9"
    )
    # A literal edit of ``edited``: no set moves.
    retouched = edited.replace("g := 9", "g := 7")
    daemon, port = start_daemon(state_dir, metrics_path)
    try:
        with wait_for_server(port) as client:
            analyzed = client.analyze(source, session="smoke", lanes=",".join(LANES))
            assert analyzed["ok"] and analyzed["num_procs"] == 6
            assert sorted(analyzed["lanes"]) == LANES
            # The same open on a raw socket, as a JSON-only client and
            # as one that reads containers.
            request = {"verb": "analyze", "source": source, "session": "smoke",
                       "lanes": LANES}
            plain = raw_request(port, request)
            packed = raw_request(port, dict(request, accept="container"))
            assert "summary" in plain and "container" not in plain
            assert "container" in packed and "summary" not in packed, (
                "the reply to a container client carries the summary JSON")
            loaded = decode_summary_payload(base64.b64decode(packed["container"]))
            assert analyzed["summary"] == plain["summary"] == loaded, (
                "the three opens returned different summaries")
            assert analyzed["lanes"] == plain["lanes"] == packed["lanes"]

            updated = client.update("smoke", edited)
            assert updated["ok"]
            assert updated["update_stats"]["reuse_fraction"] > 0.0
            assert sorted(updated["lanes"]) == LANES, "update dropped the lanes"
            retouched_reply = client.update("smoke", retouched)
            assert sorted(retouched_reply["lanes"]) == LANES

            result = client.query("smoke", "who_modifies", variable="g")["result"]
            assert "chain" in result["procedures"]

            stats = client.stats()
            assert stats["requests"]["analyze"] == 3
            assert stats["update_replies"] == {"delta": 1, "full": 1}, (
                "the literal edit was not answered with the empty delta")
            # The line-inserting edit compiled in full; the literal edit
            # re-read one procedure.
            assert stats["update_front_end"] == {"spliced": 1, "full": 1}, (
                "the literal edit was not spliced into the previous program")
            # The summary the client put back for that delta is what a
            # second client's fresh analysis of the same source gets.
            with wait_for_server(port) as fresh:
                scratch = fresh.analyze(retouched)
            assert retouched_reply["summary"] == scratch["summary"], (
                "the held summary differs from a fresh analyze")

            client.shutdown()

        returncode = daemon.wait(timeout=30)
        assert returncode == 0, "daemon exited with %d" % returncode
        assert os.listdir(state_dir), "no session state persisted"
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        assert metrics["requests"]["analyze"] == 4
        assert metrics["requests"]["update"] == 2
        assert metrics["update_replies"] == {"delta": 1, "full": 1}
        assert metrics["update_front_end"] == {"spliced": 1, "full": 1}
        assert metrics["requests"]["query"] == 1
        incremental = metrics["incremental"]
        assert incremental["updates"] == 2
        assert incremental["reused_procs"] > 0
        assert incremental["region_procs"] >= 1
        assert incremental["total_sccs"] > 0
        assert 0.0 < incremental["scc_reuse_fraction"] <= 1.0
        requests = sum(metrics["requests"].values())
    finally:
        stop_daemon(daemon)

    # A second daemon on the same state directory resumes the session
    # from its persisted index, lanes included.
    daemon, port = start_daemon(state_dir, metrics_path)
    try:
        with wait_for_server(port) as client:
            resumed = client.update("smoke", source)
            assert resumed["update_stats"]["index_reloaded"] is True
            # A refused index also reports ``index_reloaded``; only
            # ``full_resolve`` tells that the index drove the update.
            assert resumed["update_stats"]["full_resolve"] is False
            assert sorted(resumed["lanes"]) == LANES, "restart dropped the lanes"
            assert client.query("smoke", "lanes")["result"] == LANES
            client.shutdown()
        returncode = daemon.wait(timeout=30)
        assert returncode == 0, "restarted daemon exited with %d" % returncode
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        assert metrics["update_replies"] == {"delta": 0, "full": 1}, (
            "the restarted daemon's update was not answered in full")
        # No program was in memory to splice into.
        assert metrics["update_front_end"] == {"spliced": 0, "full": 1}
    finally:
        stop_daemon(daemon)
    # A session persists as one state file.
    leftovers = [
        name for name in os.listdir(state_dir) if not name.endswith(".cki")
    ]
    assert not leftovers, "state dir holds more than .cki files: %r" % leftovers
    print("server smoke: ok (port %d, %d requests, restart resumed the session)"
          % (port, requests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
