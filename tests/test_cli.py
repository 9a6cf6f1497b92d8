"""CLI driver tests (exercised in-process through main(argv))."""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads import patterns

#: Pinned ``analyze --sections`` output (see :class:`TestSectionsGolden`).
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.ck"
    path.write_text(patterns.chain(3))
    return str(path)


class TestAnalyze:
    def test_analyze_prints_summary(self, chain_file, capsys):
        assert main(["analyze", chain_file]) == 0
        out = capsys.readouterr().out
        assert "GMOD" in out
        assert "RMOD" in out
        assert "site 0" in out

    def test_sections_flag(self, tmp_path, capsys):
        path = tmp_path / "m.ck"
        path.write_text(
            """
            program t
              global array m[4][4]
              proc f(t, r)
                local j
              begin
                for j := 0 to 3 do
                  t[r][j] := 0
                end
              end
            begin call f(m, 1) end
            """
        )
        assert main(["analyze", str(path), "--sections"]) == 0
        out = capsys.readouterr().out
        assert "regular sections" in out
        assert "m(1,*)" in out

    def test_dot_callgraph(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--dot-callgraph"]) == 0
        assert "digraph callgraph" in capsys.readouterr().out

    def test_dot_binding(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--dot-binding"]) == 0
        assert "digraph binding" in capsys.readouterr().out

    def test_missing_file_reports_error(self, capsys):
        assert main(["analyze", "/nonexistent/x.ck"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.ck"
        path.write_text("program t begin x := end")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_prints_status(self, chain_file, capsys):
        assert main(["run", chain_file]) == 0
        assert "completed" in capsys.readouterr().out

    def test_run_with_trace(self, chain_file, capsys):
        assert main(["run", chain_file, "--trace"]) == 0
        assert "observed MOD" in capsys.readouterr().out

    def test_run_with_inputs(self, tmp_path, capsys):
        path = tmp_path / "io.ck"
        path.write_text("program t global a begin read a print a end")
        assert main(["run", str(path), "--inputs", "41"]) == 0
        assert "output: 41" in capsys.readouterr().out

    def test_budget_options(self, tmp_path, capsys):
        path = tmp_path / "loop.ck"
        path.write_text("program t global x begin while 1 > 0 do x := x + 1 end end")
        assert main(["run", str(path), "--max-steps", "100"]) == 0
        assert "step budget" in capsys.readouterr().out


class TestGen:
    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--seed", "4", "--procs", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("program generated")

    def test_gen_to_file_and_analyze(self, tmp_path, capsys):
        path = tmp_path / "gen.ck"
        assert main(["gen", "--seed", "4", "--procs", "5", "-o", str(path)]) == 0
        assert main(["analyze", str(path)]) == 0

    def test_gen_acyclic(self, tmp_path):
        path = tmp_path / "dag.ck"
        assert main(["gen", "--seed", "1", "--procs", "8", "--acyclic",
                     "-o", str(path)]) == 0
        from repro.graphs.callgraph import build_call_graph
        from repro.lang.semantic import compile_source

        graph = build_call_graph(compile_source(path.read_text()))
        # Acyclic: every SCC is trivial.
        from repro.graphs.scc import tarjan_scc

        _, components = tarjan_scc(graph.num_nodes, graph.successors)
        assert all(len(c) == 1 for c in components)

    def test_gen_nested(self, capsys):
        assert main(["gen", "--seed", "2", "--procs", "12", "--depth", "3"]) == 0


class TestConstants:
    def test_constants_report(self, tmp_path, capsys):
        path = tmp_path / "c.ck"
        path.write_text(
            "program t global g proc f(a) begin g := a end begin call f(42) end"
        )
        assert main(["constants", str(path)]) == 0
        out = capsys.readouterr().out
        assert "f::a = 42" in out
        assert "1 constant formals" in out

    def test_constants_worstcase_policy(self, tmp_path, capsys):
        path = tmp_path / "c.ck"
        path.write_text(
            "program t global g proc f(a) begin g := a end begin call f(42) end"
        )
        assert main(["constants", str(path), "--kill-policy", "worstcase"]) == 0
        assert "worstcase" in capsys.readouterr().out

    def test_constants_none_found(self, tmp_path, capsys):
        path = tmp_path / "c.ck"
        path.write_text(
            "program t global g proc f(a) begin end begin call f(g) end"
        )
        assert main(["constants", str(path)]) == 0
        assert "no constant formals" in capsys.readouterr().out


class TestSummaryAndRecompile:
    def test_summary_json_stdout(self, chain_file, capsys):
        assert main(["summary", chain_file]) == 0
        out = capsys.readouterr().out
        import json

        payload = json.loads(out)
        assert payload["program"] == "chain"

    def test_summary_to_file_and_recompile(self, tmp_path, capsys):
        old = tmp_path / "v1.ck"
        old.write_text(
            "program t global g, h proc m() begin g := 2 end begin call m() end"
        )
        new = tmp_path / "v2.ck"
        new.write_text(
            "program t global g, h proc m() begin g := 2 h := 3 end begin call m() end"
        )
        old_json = tmp_path / "v1.json"
        new_json = tmp_path / "v2.json"
        assert main(["summary", str(old), "-o", str(old_json)]) == 0
        assert main(["summary", str(new), "-o", str(new_json)]) == 0
        assert main(["recompile", str(old_json), str(new_json),
                     "--edited", "m"]) == 0
        out = capsys.readouterr().out
        assert "call-site annotations changed" in out
        assert "recompile 2 of 2" in out


class TestPurity:
    def test_purity_report(self, tmp_path, capsys):
        path = tmp_path / "p.ck"
        path.write_text(
            """
            program t
              global g
              proc pure(a) local x begin x := a end
              proc mut() begin g := 1 end
            begin call pure(1) call mut() end
            """
        )
        assert main(["purity", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pure" in out
        assert "mutator" in out


class TestSectionsLatticeFlag:
    def test_ranges_lattice_via_cli(self, tmp_path, capsys):
        path = tmp_path / "r.ck"
        path.write_text(
            """
            program t
              global array m[8][8]
              proc one(t, r, c) begin t[r][c] := 1 end
              proc grp(t)
              begin
                call one(t, 0, 0)
                call one(t, 2, 0)
              end
            begin call grp(m) end
            """
        )
        assert main(["analyze", str(path), "--sections",
                     "--lattice", "ranges"]) == 0
        out = capsys.readouterr().out
        assert "ranges lattice" in out
        assert "m(0:2,0)" in out


class TestSectionsGolden:
    """``analyze --sections [--lattice ranges]`` stdout on programs from
    ``gen --seed N --procs 30 --depth 3``: the sections block equals its
    golden file, and the whole stdout its pinned SHA-256."""

    STDOUT_SHA256 = {
        (0, "figure3"): "d37b710a62ab9b6b0ce591710110bd26f594a5e5215e5a69ebe3623b6a6edb98",
        (0, "ranges"): "bfa35b5bba87ed840dcc078700e9997f4f1b2218e0b2674e7dcc3b60dc24e7ed",
        (1, "figure3"): "893f428a3cc1797c439ff62b531e65e9fd2b50b356ea8206cbb4a2cdb2dbb4d4",
        (1, "ranges"): "b430d3c89e97e91507e9f7273f488204ad87dd393ab0b860aeb5b4cc6e6333e0",
        (2, "figure3"): "31871d1e382ad6c6c94a446127b167a53454151aaa44dfc1ac8d13ecea5f0495",
        (2, "ranges"): "aaebf81cffb48ced60a9ced97f267ab941c4683b97b57195e674294b57055e81",
    }

    @pytest.mark.parametrize("lattice", ["figure3", "ranges"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sections_stdout(self, tmp_path, capsys, seed, lattice):
        path = str(tmp_path / "p.ck")
        assert main(["gen", "--seed", str(seed), "--procs", "30",
                     "--depth", "3", "-o", path]) == 0
        argv = ["analyze", path, "--sections"]
        if lattice != "figure3":
            argv += ["--lattice", lattice]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        golden = GOLDEN / ("sections-seed%d-%s.txt" % (seed, lattice))
        assert out[out.index("regular sections (MOD"):] == golden.read_text()
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.STDOUT_SHA256[seed, lattice]


class TestBadInput:
    """Every input ends in a summary or one ``error:`` line and exit 1:
    never a traceback."""

    @staticmethod
    def _one_error_line(err: str) -> str:
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return lines[0]

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["run"], ["constants"], ["purity"], ["summary"],
        ["profile"], ["query", "analyze", "--port", "1", "--file"],
    ], ids=lambda argv: argv[0])
    def test_non_utf8_source_is_a_located_error(self, tmp_path, capsys, argv):
        path = tmp_path / "f.ck"
        path.write_bytes(b"\xff\xfe\x00program t begin end")
        assert main(argv + [str(path)]) == 1
        line = self._one_error_line(capsys.readouterr().err)
        assert "line 1, col 1" in line and "0xff" in line

    def test_bad_byte_after_crlf_lines(self, tmp_path, capsys):
        path = tmp_path / "f.ck"
        path.write_bytes(b"program t\r\nbegin\r\n  x\xc3( end\r\n")
        assert main(["analyze", str(path)]) == 1
        line = self._one_error_line(capsys.readouterr().err)
        assert "line 3, col 4" in line and "0xc3" in line

    @pytest.mark.parametrize("text", ["not json", "[]", '{"version": 2}'],
                             ids=["not-json", "list", "no-sets"])
    def test_recompile_rejects_a_file_that_is_not_a_summary(
        self, tmp_path, capsys, chain_file, text
    ):
        good = tmp_path / "good.json"
        assert main(["summary", chain_file, "-o", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["recompile", str(good), str(bad)]) == 1
        line = self._one_error_line(capsys.readouterr().err)
        assert line.startswith("error: %s: " % bad)

    def test_query_reply_over_the_client_limit(self, tmp_path, capsys, monkeypatch):
        """A reply longer than the client's ``max_payload`` is one
        ``error:`` line and exit 1, not a ``ProtocolError`` traceback."""
        from repro.server import ServerConfig, ServerThread
        from repro.server.client import ServerClient

        real_init = ServerClient.__init__

        def small_limit(self, *args, **kwargs):
            real_init(self, *args, **dict(kwargs, max_payload=1024))

        monkeypatch.setattr(ServerClient, "__init__", small_limit)
        # The reply's container is about 5 KB of base64.
        path = tmp_path / "chain.ck"
        path.write_text(patterns.chain(80))
        with ServerThread(ServerConfig(port=0)) as handle:
            argv = ["query", "analyze", "--file", str(path),
                    "--port", str(handle.port)]
            assert main(argv) == 1
        line = self._one_error_line(capsys.readouterr().err)
        assert "max_payload of 1024 bytes" in line

    def test_recompile_rejects_a_deeply_nested_container(self, tmp_path, capsys):
        from tests.test_persist_roundtrip import nested_lists_container

        deep = tmp_path / "deep.ckb"
        deep.write_bytes(nested_lists_container(5000))
        assert main(["recompile", str(deep), str(deep)]) == 1
        line = self._one_error_line(capsys.readouterr().err)
        assert line.startswith("error: %s: " % deep) and "nest" in line

    @pytest.mark.parametrize("command", ["analyze", "batch"])
    def test_unknown_lane_is_a_usage_error(self, chain_file, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, chain_file, "--lanes", "sections,warp"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown lane 'warp'" in err and "Traceback" not in err


class TestQueryOpen:
    def test_a_1k_session_opens_with_default_limits(self, tmp_path, capsys):
        """``ck-analyze query analyze --session`` on the generated 1k
        program, against a daemon and a client at their default limits:
        the reply carries the summary's container, about 160 KB of
        base64, where the summary JSON is 14.6 MB, past the client's
        4 MiB.  It prints what a protocol-2 reply decodes to."""
        import json

        from repro.lang.pretty import pretty
        from repro.server import ServerConfig, ServerThread
        from repro.workloads.generator import GeneratorConfig, generate_program
        from tests.test_server_delta import LineClient

        source = pretty(generate_program(
            GeneratorConfig(seed=0, num_procs=1000, num_globals=200)))
        path = tmp_path / "p1k.ck"
        path.write_text(source)
        with ServerThread(ServerConfig(port=0)) as handle:
            argv = ["query", "analyze", "--file", str(path), "--session", "s",
                    "--port", str(handle.port)]
            assert main(argv) == 0
            printed = json.loads(capsys.readouterr().out)
            with LineClient(handle.port) as plain:
                expected = plain.analyze(source)
        assert printed["session"]["name"] == "s" and printed["num_procs"] == 1001
        assert printed["summary"] == expected["summary"]


class TestShard:
    def test_batch_shards_flag(self, tmp_path, capsys):
        """``batch --shards`` is an unknown argument, not a no-op: the
        same run without it succeeds."""
        source_dir = tmp_path / "corpus"
        source_dir.mkdir()
        (source_dir / "a.ck").write_text(patterns.chain(3))
        argv = ["batch", str(source_dir), "--no-cache", "--jobs", "1"]
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--shards", "2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err
        assert main(argv) == 0
        assert "ok" in capsys.readouterr().out


class TestRetiredSurface:
    """The sharded solver, the fleet, the summary store and the GMOD
    solver switch are gone: their subcommands and flags are unknown
    arguments, not no-ops."""

    def test_help_lists_no_retired_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("shard", "worker", "store"):
            assert name not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["shard", "x.ck"],
            ["worker", "--connect", "127.0.0.1:1"],
            ["store", "--dir", "d"],
            ["batch", "d", "--partition", "greedy"],
            ["batch", "d", "--fleet", "0"],
            ["batch", "d", "--fleet-store", "127.0.0.1:1"],
            ["serve", "--shard-jobs", "2"],
            ["serve", "--fleet-port", "0"],
            ["profile", "--shards", "2"],
            ["profile", "--jobs", "2"],
            ["query", "analyze", "--shards", "2"],
            ["query", "analyze", "--partition", "greedy"],
            ["analyze", "x.ck", "--gmod-method", "reference"],
            ["profile", "--gmod-method", "reference"],
            ["batch", "d", "--gmod-method", "reference"],
            ["query", "analyze", "--gmod-method", "reference"],
        ],
        ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv),
    )
    def test_retired_arguments_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err


class TestProfile:
    def test_persist_row_follows_the_phase_table(self, chain_file, capsys):
        assert main(["profile", chain_file, "--top", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        total = next(i for i, line in enumerate(lines) if line.split()[:1] == ["total"])
        persist = lines[total + 1].split()
        assert persist[0] == "persist"
        assert persist[1].endswith("s") and persist[2].endswith("%")
        assert "of source to bytes" in lines[total + 1]
