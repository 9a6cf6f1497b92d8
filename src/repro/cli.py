"""Command-line driver: ``ck-analyze`` (or ``python -m repro.cli``).

Subcommands:

* ``analyze FILE``   — run the full pipeline and print the per-procedure
  and per-call-site summary (add ``--sections`` for Figure 3 style
  regular sections, ``--dot-callgraph`` / ``--dot-binding`` for
  Graphviz output);
* ``run FILE``       — execute the program under the tracing
  interpreter and print its output plus observed per-site effects;
* ``gen``            — emit a random program (see
  :mod:`repro.workloads.generator`);
* ``constants FILE`` — interprocedural constant propagation report;
* ``summary FILE``   — write the analysis summary as JSON (for build
  systems / the recompilation analysis);
* ``recompile OLD.json NEW.json --edited a,b`` — which procedures need
  recompilation after an edit;
* ``profile [FILE]`` — run one full analysis under ``cProfile`` and
  print the per-phase timing breakdown (lex / parse / resolve /
  graphs / solvers), the time ``summary_to_bytes`` takes to persist
  the result, plus the hottest functions; with no file, a generated
  workload is profiled (``--gen-procs``);
* ``batch DIR``      — analyze every ``.ck`` file under a directory in
  parallel, with a content-hash summary cache and a corpus stats
  report (see :mod:`repro.service`);
* ``serve``          — run the long-lived analysis daemon: TCP,
  line-delimited JSON, incremental sessions (see :mod:`repro.server`);
* ``query``          — one request against a running daemon, response
  printed as JSON (scripting surface of :mod:`repro.server.client`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.pipeline import analyze_side_effects
from repro.core.varsets import EffectKind
from repro.lang.errors import CkError, LexError
from repro.lang.interp import Interpreter
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source


def _read_source(path: str) -> str:
    """The text of a CK source file, newlines normalized as text-mode
    ``open`` does.  Bytes that are not UTF-8 end in a :class:`LexError`
    at the line and column of the first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        before = _normalize_newlines(data[: error.start].decode("utf-8"))
        raise LexError(
            "byte 0x%02x is not UTF-8 text" % data[error.start],
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
        ) from None
    return _normalize_newlines(text)


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lane_list(text: str) -> tuple:
    """The ``--lanes`` argument type: validated lane names."""
    from repro.lanes import parse_lane_names

    try:
        return tuple(parse_lane_names(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _cmd_analyze(args: argparse.Namespace) -> int:
    resolved = compile_source(_read_source(args.file))
    summary = analyze_side_effects(resolved, lanes=args.lanes)
    if args.dot_callgraph:
        print(summary.call_graph.to_dot())
        return 0
    if args.dot_binding:
        print(summary.binding_graph.to_dot())
        return 0
    print(summary.report())
    if args.lanes:
        from repro.lanes.driver import lane_payloads

        print("\neffect lanes (one shared condensation):")
        for name, block in lane_payloads(summary).items():
            spent = summary.timings.get("lane.%s" % name, 0.0)
            if name == "sections":
                filled = sum(
                    1 for rendered in block["sites"] if rendered
                )
                print(
                    "  %-10s %s lattice, %d/%d sites with sections (%.3fs)"
                    % (name, block["lattice"], filled,
                       len(block["sites"]), spent)
                )
            elif name == "refalias":
                print(
                    "  %-10s %d alias pairs over %d procedures (%.3fs)"
                    % (name, block["total_pairs"],
                       block["domain_procs"], spent)
                )
            else:
                print("  %-10s solved (%.3fs)" % (name, spent))
    if args.sections:
        from repro.sections import analyze_sections

        print("\nregular sections (MOD, %s lattice):" % args.lattice)
        section_analysis = analyze_sections(
            resolved, EffectKind.MOD, lattice=args.lattice
        )
        for site in resolved.call_sites:
            rendered = section_analysis.describe_site(site)
            print(
                "  site %d -> %s: %s"
                % (site.site_id, site.callee.qualified_name, ", ".join(rendered) or "(none)")
            )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    resolved = compile_source(_read_source(args.file))
    inputs = [int(token) for token in args.inputs.split(",")] if args.inputs else []
    interpreter = Interpreter(
        resolved, inputs=inputs, max_steps=args.max_steps, max_depth=args.max_depth
    )
    trace = interpreter.run()
    print("status: %s (%d steps)" % (trace.reason, trace.steps))
    if trace.output:
        print("output: %s" % " ".join(str(v) for v in trace.output))
    if args.trace:
        for site in resolved.call_sites:
            observed = trace.observed_mod.get(site.site_id)
            if observed is None:
                continue
            names = sorted(v.qualified_name for v in observed)
            print("site %d observed MOD: {%s}" % (site.site_id, ", ".join(names)))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.workloads.generator import GeneratorConfig, generate_program

    config = GeneratorConfig(
        seed=args.seed,
        num_procs=args.procs,
        num_globals=args.globals_,
        max_depth=args.depth,
        allow_recursion=not args.acyclic,
    )
    source = pretty(generate_program(config))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
    else:
        sys.stdout.write(source)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    from repro.extensions.constprop import solve_constants

    resolved = compile_source(_read_source(args.file))
    result = solve_constants(resolved, kill_policy=args.kill_policy)
    report = result.report()
    print(report or "(no constant formals found)")
    print(
        "%d constant formals (%d substitutable) under the %s kill policy"
        % (result.constants_found(), result.substitutable_found(), args.kill_policy)
    )
    return 0


def _cmd_purity(args: argparse.Namespace) -> int:
    from repro.extensions.purity import purity_report

    resolved = compile_source(_read_source(args.file))
    print(purity_report(analyze_side_effects(resolved)))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.core.persist import summary_to_json

    resolved = compile_source(_read_source(args.file))
    text = summary_to_json(analyze_side_effects(resolved), indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _load_summary_file(path: str) -> dict:
    """The payload of a summary file (JSON or binary container), with a
    ``procedures`` object and a ``call_sites`` list; anything else ends
    in :class:`ValueError`."""
    from repro.core.persist import LoadedSummary

    with open(path, "rb") as handle:
        payload = LoadedSummary.from_bytes(handle.read()).payload
    if not isinstance(payload.get("procedures"), dict):
        raise ValueError("summary has no 'procedures' object")
    if not isinstance(payload.get("call_sites"), list):
        raise ValueError("summary has no 'call_sites' list")
    return payload


def _cmd_recompile(args: argparse.Namespace) -> int:
    from repro.extensions.recompilation import recompilation_report

    payloads = []
    for path in (args.old, args.new):
        try:
            payloads.append(_load_summary_file(path))
        except ValueError as error:
            print("error: %s: %s" % (path, error), file=sys.stderr)
            return 1
    edited = [name for name in args.edited.split(",") if name]
    print(recompilation_report(*payloads, edited=edited))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats
    import time

    if args.file:
        source = _read_source(args.file)
    else:
        from repro.workloads.generator import (
            generate_program,
            large_scale_config,
        )

        config = large_scale_config(
            args.gen_procs, seed=args.seed, num_globals=args.gen_globals
        )
        source = pretty(generate_program(config))
        print(
            "profiling generated workload: %d procedures, %d globals, seed %d"
            % (args.gen_procs, args.gen_globals, args.seed)
        )

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.repeat):
        summary = analyze_side_effects(source)
    profiler.disable()

    timings = summary.timings or {}
    split_front_end = {"lex", "parse", "resolve"} <= timings.keys()
    total = timings.get("total", 0.0)
    print("\nper-phase breakdown (last run):")
    for phase, seconds in timings.items():
        if phase == "total":
            continue
        if phase == "compile" and split_front_end:
            continue  # Sum of lex+parse+resolve; shown via its parts.
        share = (100.0 * seconds / total) if total else 0.0
        print("  %-16s %8.4fs  %5.1f%%" % (phase, seconds, share))
    print("  %-16s %8.4fs" % ("total", total))

    # Writing the container is the rest of what a batch run pays from
    # source to bytes on disk; timed outside the profiler.
    from repro.core.persist import summary_to_bytes

    start = time.perf_counter()
    summary_to_bytes(summary)
    persist = time.perf_counter() - start
    print(
        "  %-16s %8.4fs  %5.1f%% of source to bytes (%.4fs)"
        % ("persist", persist, 100.0 * persist / (total + persist), total + persist)
    )

    print("\ncProfile hot spots (%s, top %d):" % (args.sort, args.top))
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(buffer.getvalue().rstrip())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import os

    from repro.service.batch import run_batch
    from repro.service.stats import render_stats, write_stats_json

    if not os.path.isdir(args.dir) and not os.path.isfile(args.dir):
        print("error: no such file or directory: %s" % args.dir, file=sys.stderr)
        return 1
    cache_dir = None
    if not args.no_cache:
        base = args.dir if os.path.isdir(args.dir) else os.path.dirname(args.dir) or "."
        cache_dir = args.cache_dir or os.path.join(base, ".ck-cache")
    report = run_batch(
        args.dir,
        jobs=args.jobs,
        cache_dir=cache_dir,
        timeout=args.timeout,
        pattern=args.pattern,
        cache_max_entries=args.cache_max_entries,
        lanes=args.lanes,
    )
    if not report.results:
        # An empty corpus is a misconfiguration (wrong directory or
        # pattern), not a successful run of zero files.
        print(
            "error: no files matching %r under %s" % (args.pattern, args.dir),
            file=sys.stderr,
        )
        return 1
    for record in report.results:
        if record.ok:
            print(
                "ok    %s (%s)"
                % (record.path, "cached" if record.cached else "analyzed")
            )
        else:
            print(
                "%-5s %s: %s" % (record.status, record.path, record.error),
                file=sys.stderr,
            )
    print(render_stats(report))
    if args.stats_json:
        write_stats_json(report, args.stats_json)
        print("stats written to %s" % args.stats_json)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.server.daemon import AnalysisServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        request_timeout=args.timeout,
        max_payload=args.max_payload,
        lru_size=args.lru_size,
        max_sessions=args.max_sessions,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries,
        drain_timeout=args.drain_timeout,
        state_dir=args.state_dir,
    )
    server = AnalysisServer(config)

    async def amain() -> None:
        host, port = await server.start()
        # Parseable by scripts that launched us with --port 0.
        print("ck-analyze serve: listening on %s:%d" % (host, port), flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, ValueError):
                pass  # Non-main thread or platform without signal support.
        await server.serve_until_shutdown()

    asyncio.run(amain())
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(server.stats_snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("metrics written to %s" % args.metrics_json, file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.server.client import ServerClient
    from repro.server.protocol import ProtocolError

    fields = {}
    if args.file:
        fields["source"] = _read_source(args.file)
    if args.session:
        fields["session"] = args.session
    if args.select:
        fields["select"] = args.select
    if args.site is not None:
        fields["site"] = args.site
    if args.proc:
        fields["proc"] = args.proc
    if args.variable:
        fields["variable"] = args.variable
    if args.kind:
        fields["kind"] = args.kind
    try:
        with ServerClient(
            port=args.port, host=args.host, timeout=args.timeout
        ) as client:
            response = client.request_raw(args.verb, **fields)
    except (ConnectionError, ProtocolError) as error:  # A reply past max_payload.
        print("error: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ck-analyze",
        description="Interprocedural side-effect analysis (Cooper & Kennedy, PLDI 1988)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = sub.add_parser("analyze", help="analyze a CK source file")
    analyze_cmd.add_argument("file")
    analyze_cmd.add_argument("--sections", action="store_true",
                             help="also print regular sections per call site")
    analyze_cmd.add_argument("--lattice", choices=("figure3", "ranges"),
                             default="figure3",
                             help="section lattice instance (with --sections)")
    analyze_cmd.add_argument(
        "--lanes", type=_lane_list, default=(),
        help="extra effect lanes to solve on the shared condensation, "
        "comma-separated (e.g. sections,refalias)",
    )
    analyze_cmd.add_argument("--dot-callgraph", action="store_true",
                             help="emit the call multi-graph as Graphviz DOT")
    analyze_cmd.add_argument("--dot-binding", action="store_true",
                             help="emit the binding multi-graph as Graphviz DOT")
    analyze_cmd.set_defaults(func=_cmd_analyze)

    run_cmd = sub.add_parser("run", help="execute a CK source file")
    run_cmd.add_argument("file")
    run_cmd.add_argument("--inputs", default="", help="comma-separated read inputs")
    run_cmd.add_argument("--max-steps", type=int, default=1_000_000)
    run_cmd.add_argument("--max-depth", type=int, default=500)
    run_cmd.add_argument("--trace", action="store_true",
                         help="print observed per-site MOD sets")
    run_cmd.set_defaults(func=_cmd_run)

    gen_cmd = sub.add_parser("gen", help="generate a random CK program")
    gen_cmd.add_argument("--seed", type=int, default=0)
    gen_cmd.add_argument("--procs", type=int, default=20)
    gen_cmd.add_argument("--globals", dest="globals_", type=int, default=8)
    gen_cmd.add_argument("--depth", type=int, default=1, help="max nesting depth")
    gen_cmd.add_argument("--acyclic", action="store_true", help="forbid recursion")
    gen_cmd.add_argument("-o", "--output", default="")
    gen_cmd.set_defaults(func=_cmd_gen)

    constants_cmd = sub.add_parser(
        "constants", help="interprocedural constant propagation report"
    )
    constants_cmd.add_argument("file")
    constants_cmd.add_argument(
        "--kill-policy", choices=("precise", "worstcase"), default="precise"
    )
    constants_cmd.set_defaults(func=_cmd_constants)

    purity_cmd = sub.add_parser(
        "purity", help="pure/observer/mutator procedure classification"
    )
    purity_cmd.add_argument("file")
    purity_cmd.set_defaults(func=_cmd_purity)

    summary_cmd = sub.add_parser("summary", help="write the analysis summary as JSON")
    summary_cmd.add_argument("file")
    summary_cmd.add_argument("-o", "--output", default="")
    summary_cmd.set_defaults(func=_cmd_summary)

    recompile_cmd = sub.add_parser(
        "recompile", help="diff two summary JSON files for recompilation"
    )
    recompile_cmd.add_argument("old")
    recompile_cmd.add_argument("new")
    recompile_cmd.add_argument(
        "--edited", default="", help="comma-separated edited procedure names"
    )
    recompile_cmd.set_defaults(func=_cmd_recompile)

    profile_cmd = sub.add_parser(
        "profile",
        help="profile one full analysis (cProfile + per-phase breakdown)",
    )
    profile_cmd.add_argument(
        "file", nargs="?", default="",
        help="CK source file (omit to profile a generated workload)",
    )
    profile_cmd.add_argument(
        "--gen-procs", type=int, default=2000,
        help="generated workload size when no file is given (default 2000)",
    )
    profile_cmd.add_argument(
        "--gen-globals", type=int, default=200,
        help="generated workload global count (default 200)",
    )
    profile_cmd.add_argument("--seed", type=int, default=0)
    profile_cmd.add_argument(
        "--repeat", type=int, default=1,
        help="profile this many back-to-back runs (default 1)",
    )
    profile_cmd.add_argument(
        "--top", type=int, default=15,
        help="cProfile rows to print (default 15)",
    )
    profile_cmd.add_argument(
        "--sort", choices=("cumulative", "tottime", "calls"),
        default="cumulative", help="cProfile sort key",
    )
    profile_cmd.set_defaults(func=_cmd_profile)

    batch_cmd = sub.add_parser(
        "batch", help="analyze a whole directory of CK files in parallel"
    )
    batch_cmd.add_argument("dir")
    batch_cmd.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = one per CPU, 1 = no pool)",
    )
    batch_cmd.add_argument(
        "--cache-dir", default="",
        help="summary cache directory (default: DIR/.ck-cache)",
    )
    batch_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash summary cache",
    )
    batch_cmd.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="bound the cache directory (LRU eviction; default unbounded)",
    )
    batch_cmd.add_argument(
        "--stats-json", default="",
        help="write the aggregated corpus stats report to this path",
    )
    batch_cmd.add_argument(
        "--timeout", type=float, default=None,
        help="per-file result timeout in seconds (pool mode)",
    )
    batch_cmd.add_argument(
        "--pattern", default="*.ck", help="source file glob (default: *.ck)"
    )
    batch_cmd.add_argument(
        "--lanes", type=_lane_list, default=(),
        help="extra effect lanes to solve per file, comma-separated "
             "(e.g. sections,refalias); lane blocks ride the payloads "
             "and the stats report",
    )
    batch_cmd.set_defaults(func=_cmd_batch)

    serve_cmd = sub.add_parser(
        "serve", help="run the analysis daemon (line-delimited JSON over TCP)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=7947,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    serve_cmd.add_argument(
        "--max-concurrent", type=int, default=4,
        help="solver threads (concurrent analyses)",
    )
    serve_cmd.add_argument(
        "--max-queue", type=int, default=16,
        help="waiting analyses beyond the pool before 'overloaded'",
    )
    serve_cmd.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request timeout in seconds",
    )
    serve_cmd.add_argument(
        "--max-payload", type=int, default=4 * 1024 * 1024,
        help="max request line length in bytes",
    )
    serve_cmd.add_argument(
        "--lru-size", type=int, default=64,
        help="live summaries kept in the in-memory LRU",
    )
    serve_cmd.add_argument(
        "--max-sessions", type=int, default=32,
        help="named incremental sessions kept resident",
    )
    serve_cmd.add_argument(
        "--cache-dir", default="",
        help="optional on-disk summary cache (shared with batch)",
    )
    serve_cmd.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="bound the disk cache (LRU eviction; default unbounded)",
    )
    serve_cmd.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="grace period for in-flight requests on shutdown",
    )
    serve_cmd.add_argument(
        "--state-dir", default="",
        help="persist session summaries + dependency indexes here so"
             " incremental sessions survive a daemon restart",
    )
    serve_cmd.add_argument(
        "--metrics-json", default="",
        help="write the final stats snapshot to this path on exit",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    query_cmd = sub.add_parser(
        "query", help="send one request to a running analysis daemon"
    )
    query_cmd.add_argument(
        "verb",
        choices=("analyze", "update", "query", "stats", "ping", "shutdown"),
    )
    query_cmd.add_argument("--host", default="127.0.0.1")
    query_cmd.add_argument("--port", type=int, default=7947)
    query_cmd.add_argument("--timeout", type=float, default=60.0)
    query_cmd.add_argument(
        "--file", default="", help="CK source file (analyze / update)"
    )
    query_cmd.add_argument("--session", default="", help="session name")
    query_cmd.add_argument(
        "--select", default="",
        help="query selector: procedures | proc | site | sites | who_modifies",
    )
    query_cmd.add_argument("--site", type=int, default=None, help="call-site id")
    query_cmd.add_argument("--proc", default="", help="qualified procedure name")
    query_cmd.add_argument("--variable", default="", help="variable name")
    query_cmd.add_argument("--kind", default="", choices=("", "mod", "use"))
    query_cmd.set_defaults(func=_cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CkError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
