"""CLI driver tests (exercised in-process through main(argv))."""

import pytest

from repro.cli import main
from repro.workloads import patterns


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

    def test_analyze_with_method(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--gmod-method", "reference"]) == 0
        assert "GMOD" in capsys.readouterr().out

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


class TestShard:
    def test_shard_prints_summary_and_plan(self, chain_file, capsys):
        assert main(["shard", chain_file, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "GMOD" in out
        assert "shard plan (strategy=greedy, requested=2" in out
        assert "binding graph (RMOD)" in out
        assert "call graph (GMOD)" in out

    def test_shard_matches_analyze_output_sets(self, chain_file, capsys):
        assert main(["analyze", chain_file]) == 0
        mono = capsys.readouterr().out
        assert main(["shard", chain_file, "--shards", "4",
                     "--strategy", "chunk"]) == 0
        sharded = capsys.readouterr().out
        # The per-procedure report is identical; the shard run merely
        # appends its plan block.
        assert sharded.startswith(mono)

    def test_shard_stats_json(self, chain_file, capsys):
        import json as json_module

        assert main(["shard", chain_file, "--shards", "2", "--stats-json"]) == 0
        info = json_module.loads(capsys.readouterr().out)
        assert info["requested_shards"] == 2
        assert "beta" in info and "call" in info
        assert info["rmod"]["num_shards"] >= 1

    def test_batch_shards_flag(self, tmp_path, capsys):
        source_dir = tmp_path / "corpus"
        source_dir.mkdir()
        (source_dir / "a.ck").write_text(patterns.chain(3))
        assert main(["batch", str(source_dir), "--no-cache",
                     "--jobs", "1", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out


class TestProfile:
    def test_persist_row_follows_the_phase_table(self, chain_file, capsys):
        assert main(["profile", chain_file, "--top", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        total = next(i for i, line in enumerate(lines) if line.split()[:1] == ["total"])
        persist = lines[total + 1].split()
        assert persist[0] == "persist"
        assert persist[1].endswith("s") and persist[2].endswith("%")
        assert "of source to bytes" in lines[total + 1]
