"""End-to-end benchmark: CK source → summary → bytes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their shapes and why each was chosen are in
``perfbench/record.json``.  Batch workloads time fresh ``batch_child.py``
processes (source → ``SideEffectSummary`` → v3 container file); the
session workload drives the shipped daemon (``serve_child.py``) over
one connection in a closed loop.  GC stays on, as shipped.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the run's samples; times in reference seconds, see
:data:`CALIBRATION_REFERENCE_S`).  With ``--trace 1`` it carries the
per-layer rows of ``spans.py`` (means per sample, so they add up), plus
``trace.overhead_s``: traced median minus untraced median, both measured
in the same run.  Every output is checked outside the timed regions
(``oracle.py``); a failed check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import oracle
import spans
from inputs import edit_sequence, load_record, make_source

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

clock = time.monotonic

#: Edit cycles per daemon lifetime in the session workload.
UPDATES_PER_ROUND = 3
#: |rows + other_s - total| allowed in a traced run, as a share of total.
SUM_TOLERANCE = 0.005
#: Largest reply line the client accepts (a 1k-procedure update reply
#: is ~15 MB; the stock client default of 4 MiB cannot read it).
MAX_REPLY = 256 * 1024 * 1024
#: Seconds any single child step may take before it counts as failed.
STEP_TIMEOUT = 120.0
#: The global the session's ``who_modifies`` queries ask about.
QUERY_VARIABLE = "g0"

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "to_disk_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "B",
}

#: Median wall time of :func:`calibrate` on the reference host (a 2-core
#: 2.1 GHz VM).  End-to-end times are reported in reference seconds: the
#: run's wall-time median times this over the median of the kernel
#: readings taken between the run's samples.  On a shared host the same
#: sample drifts by 20-30% from one minute to the next; the kernel
#: drifts with it, so the ratio is what stays comparable between runs.
CALIBRATION_REFERENCE_S = 0.3


def calibrate() -> float:
    """Wall time of a fixed pure-Python kernel: dict, string, sort and
    big-int work like the analysis does, with the collector paused so
    the benchmark's own heap does not enter the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table = {}
        for i in range(120000):
            table["k%07d" % (i * 7919 % 120000)] = (i, "v%d" % i)
        ordered = sorted(table.items())
        mask = 0
        for i in range(45000):
            mask |= 1 << (i * 37 % 5000)
        del table, ordered
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class Outcome:
    """Attempts, failures and the samples of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.kernels: List[float] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def calibrate(self) -> None:
        self.kernels.append(calibrate())

    def to_reference(self) -> float:
        """Factor from this run's wall seconds to reference seconds."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.kernels)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Expectation:
    """What every output of one (workload, seed) must contain."""

    def __init__(self, spec: Dict, seed: int, source: str) -> None:
        self.recorded = spec.get("digests", {}).get(str(seed))
        self.gmod = oracle.expected_gmod(spec, source)
        self.digest: Optional[str] = None
        self.query: Optional[Dict] = None

    def check_payload(self, payload: Dict) -> Optional[str]:
        """Full check of one decoded payload; None when it passes."""
        view = oracle.canonical_view(payload)
        digest = oracle.digest_of_view(view)
        if self.recorded is not None and digest != self.recorded:
            return "digest %s differs from the recorded %s" % (digest[:12], self.recorded[:12])
        if self.digest is not None and digest != self.digest:
            return "digest differs between samples of one input"
        reason = oracle.check_gmod(view, self.gmod)
        if reason is not None:
            return reason
        self.digest = digest
        if self.query is None:
            self.query = oracle.who_modifies(view, QUERY_VARIABLE)
        return None


# -- batch workloads --------------------------------------------------------


def run_batch(spec: Dict, seed: int, seconds: float, trace: bool,
              work: str) -> Tuple[Outcome, Dict]:
    from repro.core.persist import load_summary_payload_file

    source = make_source(spec, seed)
    source_path = os.path.join(work, "input.ck")
    with open(source_path, "w") as handle:
        handle.write(source)
    expect = Expectation(spec, seed, source)
    outcome = Outcome()
    traced_roots: List[Tuple[List, List[float]]] = []
    totals = {True: [], False: []}
    checked_hash: Optional[str] = None

    deadline = clock() + seconds
    last = 0.0
    outcome.calibrate()
    while True:
        traced = trace and outcome.attempted % 2 == 1
        out_path = os.path.join(work, "out-%d.ckb" % outcome.attempted)
        spans_path = os.path.join(work, "spans-%d.json" % outcome.attempted) if traced else None
        outcome.attempted += 1
        began = clock()
        command = [sys.executable, os.path.join(HERE, "batch_child.py"),
                   repr(clock()), source_path, out_path]
        if spans_path:
            command.append(spans_path)
        try:
            done = subprocess.run(command, cwd=ROOT, env=child_env(),
                                  capture_output=True, timeout=STEP_TIMEOUT)
        except subprocess.TimeoutExpired:
            outcome.fail("child timed out")
            break
        outcome.calibrate()
        last = clock() - began
        if done.returncode != 0:
            outcome.fail("child exited %d: %s" % (
                done.returncode, done.stderr.decode(errors="replace")[-300:]))
        else:
            reason = None
            try:
                sample = json.loads(done.stdout.decode().splitlines()[-1])
                blob_hash = sha256_file(out_path)
                if blob_hash != checked_hash:
                    reason = expect.check_payload(load_summary_payload_file(out_path))
                    if reason is None:
                        checked_hash = blob_hash
            except (OSError, ValueError, KeyError, IndexError) as error:
                reason = "unreadable output: %s: %s" % (type(error).__name__, error)
            if reason is not None:
                outcome.fail(reason)
            else:
                totals[traced].append(sample["to_disk_s"])
                if traced:
                    with open(spans_path) as handle:
                        traced_roots.append((json.load(handle), sample["root"]))
                else:
                    for name in END_TO_END:
                        outcome.add(name, sample[name])
        if os.path.exists(out_path):
            os.unlink(out_path)
        if clock() + last > deadline:
            # A traced run needs one sample of each kind.
            need_both = trace and not (totals[True] and totals[False])
            if not need_both or outcome.attempted >= 6:
                break

    layers: Dict = {}
    if trace and traced_roots:
        layers = aggregate(
            [(data, [tuple(root)]) for data, root in traced_roots],
            len(traced_roots), totals,
        )
    return outcome, layers


# -- session workload -------------------------------------------------------


class Daemon:
    """One ``ck-analyze serve`` process and one stock client connection."""

    def __init__(self, work: str, tag: str, spans_path: Optional[str] = None) -> None:
        from repro.server.client import ServerClient

        state_dir = os.path.join(work, "state-%s" % tag)
        os.makedirs(state_dir)
        self._log = open(os.path.join(work, "daemon-%s.log" % tag), "wb")
        command = [sys.executable, os.path.join(HERE, "serve_child.py"), state_dir]
        if spans_path:
            command.append(spans_path)
        self.client = None
        spawned = clock()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, stderr=self._log)
        try:
            readable, _, _ = select.select([self.proc.stdout], [], [], STEP_TIMEOUT)
            line = self.proc.stdout.readline().decode() if readable else ""
            if "listening on" not in line:
                raise RuntimeError("daemon did not start: %r" % line)
            port = int(line.rsplit(":", 1)[1])
            # The stock client reads at most 4 MiB per reply by default,
            # less than a 1k-procedure update reply; pass the cap.
            self.client = ServerClient(port, timeout=STEP_TIMEOUT, max_payload=MAX_REPLY)
            self.call("ping")
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - spawned

    def call(self, verb: str, **fields) -> Tuple[Dict, float, float]:
        """One request; ``(reply, sent, decoded)`` on the run's clock."""
        start = clock()
        reply = self.client.request_raw(verb, **fields)
        return reply, start, clock()

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        if self.client is not None:
            try:
                self.client.request_raw("shutdown")
            except (OSError, ValueError):
                pass
            self.client.close()
            self.client = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def reply_bytes(reply: Dict) -> int:
    """Bytes of a reply line as the daemon wrote it (its encoding is
    deterministic: sorted keys, compact separators)."""
    from repro.server.protocol import encode

    return len(encode(reply))


def run_session(spec: Dict, seed: int, seconds: float, trace: bool,
                work: str) -> Tuple[Outcome, Dict]:
    """Rounds of: start a daemon, open a session on the current source,
    then ``UPDATES_PER_ROUND`` cycles of one edit (``update``) and one
    ``who_modifies`` query, then shut down.  Each round opens the source
    as the previous round left it, so every update is a single-literal
    edit.  In a traced run, odd rounds run with the layer shims."""
    current = make_source(spec, seed)
    expect = Expectation(spec, seed, current)
    edits = edit_sequence(current, seed)
    outcome = Outcome()
    base: Optional[Dict] = None
    totals = {True: [], False: []}
    queries: List[float] = []
    traces = []
    cycles = 0

    def check(reply: Dict) -> Optional[str]:
        nonlocal base
        if not reply.get("ok"):
            return "%s failed: %r" % (reply.get("verb"), reply.get("error"))
        summary = reply["summary"]
        if base is not None and summary == base:
            return None
        reason = expect.check_payload(summary)
        if reason is None:
            base = summary
        return reason

    def one_round(daemon: Daemon, traced: bool) -> List[Tuple[float, float]]:
        """Open, then the update+query cycles; returns the traced roots."""
        nonlocal current, cycles
        roots: List[Tuple[float, float]] = []
        outcome.attempted += 1
        reply, sent, done = daemon.call("analyze", source=current, session="bench")
        reason = check(reply)
        if reason is not None:
            outcome.fail(reason)
            return roots
        if not traced:
            outcome.add("setup_s", daemon.setup_s)
            outcome.add("analyze_s", done - sent)
        for _ in range(UPDATES_PER_ROUND):
            current = next(edits)
            outcome.attempted += 1
            reply, sent, done = daemon.call("update", session="bench", source=current)
            reason = check(reply)
            if reason is not None:
                outcome.fail(reason)
                break
            update, nbytes = (sent, done), reply_bytes(reply)
            outcome.attempted += 1
            reply, sent, done = daemon.call(
                "query", session="bench", select="who_modifies", variable=QUERY_VARIABLE)
            if not reply.get("ok") or reply.get("result") != expect.query:
                outcome.fail("who_modifies answer differs from the oracle")
                break
            totals[traced].append(update[1] - update[0] + done - sent)
            if traced:
                roots += [update, (sent, done)]
                cycles += 1
            else:
                outcome.add("to_disk_s", update[1] - update[0])
                outcome.add("output_bytes", nbytes)
                queries.append(done - sent)
        if not traced:
            outcome.add("peak_rss_mb", daemon.peak_rss_mb())
        return roots

    deadline = clock() + seconds
    last = 0.0
    rounds = 0
    outcome.calibrate()
    while rounds == 0 or clock() + last <= deadline or (
            trace and rounds < 4 and not (totals[True] and totals[False])):
        traced = trace and rounds % 2 == 1
        began = clock()
        spans_path = os.path.join(work, "spans-%d.json" % rounds) if traced else None
        rounds += 1
        try:
            daemon = Daemon(work, "%d" % rounds, spans_path)
        except (OSError, RuntimeError) as error:
            outcome.attempted += 1
            outcome.fail("daemon did not start: %s" % error)
            continue
        roots: List[Tuple[float, float]] = []
        try:
            roots = one_round(daemon, traced)
        except (OSError, ValueError, KeyError) as error:  # Transport or reply shape.
            outcome.fail("%s: %s" % (type(error).__name__, error))
        finally:
            daemon.stop()
        outcome.calibrate()
        if traced and roots:
            with open(spans_path) as handle:
                traces.append((json.load(handle), roots))
        last = clock() - began

    layers: Dict = {}
    if trace and cycles:
        layers = aggregate(traces, cycles, totals)
        layers["server.query_s"] = statistics.median(queries) if queries else 0.0
    return outcome, layers


# -- reporting --------------------------------------------------------------


def aggregate(traces, count: int, totals: Dict[bool, List[float]]) -> Dict[str, float]:
    """Per-layer means over ``count`` samples plus the trace bookkeeping."""
    rows: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    total = 0.0
    absent = set()
    for data, roots in traces:
        part_rows, part_counts, part_total = spans.attribute(data["spans"], roots)
        for name, value in part_rows.items():
            rows[name] = rows.get(name, 0.0) + value
        for name, value in part_counts.items():
            counts[name] = counts.get(name, 0) + value
        total += part_total
        absent.update(data.get("absent", ()))
    layers = {name: value / count for name, value in rows.items()}
    layers.update({name: value / count for name, value in counts.items()})
    layers["trace.total_s"] = total / count
    layers["trace.residual_s"] = (sum(rows.values()) - total) / count
    layers["trace.overhead_s"] = (
        statistics.median(totals[True]) - statistics.median(totals[False])
        if totals[True] and totals[False] else 0.0
    )
    layers["_absent"] = sorted(absent)
    return layers


def per_layer_units() -> Dict[str, str]:
    units = {row: "s" for row in spans.row_metrics()}
    for name in spans.COUNT_METRICS:
        units[name] = "count"
    units.update({
        "core.persist.bytes": "B",
        "core.depindex.bytes": "B",
        "server.reply_bytes": "B",
        "core.incremental.reuse_fraction": "fraction",
        "server.query_s": "s",
        "trace.total_s": "s",
        "trace.residual_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def highest_percentile(values: List[float]) -> Optional[Tuple[int, float]]:
    """The highest of p75/p90/p95/p99 with at least ten samples above it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program sources at %s; run from the root of a checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_record()["workloads"].get(args.workload)
    if spec is None:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", "%d" % os.getpid())
    os.makedirs(work)
    try:
        runner = run_session if spec["kind"] == "session" else run_batch
        outcome, layers = runner(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in outcome.reasons:
        print("failure: %s" % reason)
    if args.trace:
        if not layers:
            print("error: the traced run produced no traced sample", file=sys.stderr)
            return 1
        absent = layers.pop("_absent")
        if absent:
            print("absent layers: %s" % ", ".join(absent))
        residual_ok = abs(layers["trace.residual_s"]) <= SUM_TOLERANCE * layers["trace.total_s"]
        if not residual_ok:
            outcome.fail("layer rows + other_s miss the traced total by %.6fs"
                         % layers["trace.residual_s"])
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_units().items()}
        for name, entry in metrics.items():
            print("%-34s %14.6f %s" % (name, entry["value"], entry["unit"]))
    else:
        missing = [name for name in END_TO_END if not outcome.samples.get(name)]
        if missing:
            print("error: no successful sample for %s" % ", ".join(missing), file=sys.stderr)
            return 1
        factor = outcome.to_reference()
        print("host speed: calibration kernel median %.4f s over %d readings;"
              " times below are reference seconds = wall x %.4f"
              % (statistics.median(outcome.kernels), len(outcome.kernels), factor))
        metrics = {}
        for name, unit in END_TO_END.items():
            values = outcome.samples[name]
            scale = factor if unit == "s" else 1.0
            metrics[name] = {"value": statistics.median(values) * scale, "unit": unit}
            tail = highest_percentile(values)
            print("%-12s median %.6f %s  n=%d%s%s" % (
                name, metrics[name]["value"], unit, len(values),
                "  wall median %.6f" % statistics.median(values) if unit == "s" else "",
                "  p%d %.6f" % (tail[0], tail[1] * scale) if tail
                else "  (too few samples for a tail percentile)"))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
