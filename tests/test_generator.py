"""Workload generator tests: validity and structural control."""

import pytest

from repro.graphs.callgraph import build_call_graph
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.workloads.generator import (
    GeneratorConfig,
    generate_program,
    generate_resolved,
    large_scale_config,
)


class TestValidity:
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_programs_compile(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(seed=seed, num_procs=25, max_depth=3, nesting_prob=0.5)
        )
        assert resolved.num_procs == 26

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_source_text_compiles(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, num_procs=15))
        compile_source(pretty(program))

    @pytest.mark.parametrize("seed", range(10))
    def test_every_procedure_reachable(self, seed):
        resolved = generate_resolved(
            GeneratorConfig(
                seed=seed, num_procs=30, max_depth=4, nesting_prob=0.6,
                recursion_prob=0.6,
            )
        )
        graph = build_call_graph(resolved)
        assert graph.unreachable_procs() == []

    def test_reachability_flag_off(self):
        config = GeneratorConfig(seed=1, num_procs=20, ensure_reachable=True)
        # ensure_reachable is applied inside generate(); just sanity
        # check the attribute is honoured when off by comparing sizes.
        with_fix = generate_resolved(config)
        graph = build_call_graph(with_fix)
        assert graph.unreachable_procs() == []


class TestStructuralControl:
    def test_flat_when_depth_one(self):
        resolved = generate_resolved(GeneratorConfig(seed=2, num_procs=20, max_depth=1))
        assert resolved.max_nesting_level == 1

    def test_nesting_depth_respected(self):
        resolved = generate_resolved(
            GeneratorConfig(seed=3, num_procs=40, max_depth=3, nesting_prob=0.9)
        )
        assert 2 <= resolved.max_nesting_level <= 3

    def test_acyclic_mode(self):
        import networkx as nx

        resolved = generate_resolved(
            GeneratorConfig(seed=4, num_procs=30, allow_recursion=False)
        )
        graph = build_call_graph(resolved)
        nx_graph = nx.DiGraph()
        for node in range(graph.num_nodes):
            nx_graph.add_node(node)
            for succ in graph.successors[node]:
                nx_graph.add_edge(node, succ)
        assert nx.is_directed_acyclic_graph(nx_graph)

    def test_formals_range(self):
        resolved = generate_resolved(
            GeneratorConfig(seed=5, num_procs=20, formals_range=(2, 2))
        )
        for proc in resolved.procs[1:]:
            assert len(proc.formals) == 2

    def test_num_globals(self):
        resolved = generate_resolved(GeneratorConfig(seed=6, num_globals=13))
        assert len(resolved.globals) == 13

    def test_array_globals(self):
        resolved = generate_resolved(
            GeneratorConfig(seed=7, num_globals=10, array_global_fraction=1.0)
        )
        assert all(g.is_array for g in resolved.globals)

    def test_calls_per_proc_drives_edges(self):
        small = build_call_graph(
            generate_resolved(
                GeneratorConfig(seed=8, num_procs=30, calls_per_proc_range=(1, 1))
            )
        )
        large = build_call_graph(
            generate_resolved(
                GeneratorConfig(seed=8, num_procs=30, calls_per_proc_range=(4, 4))
            )
        )
        assert large.num_edges > small.num_edges

    def test_determinism(self):
        config = GeneratorConfig(seed=99, num_procs=20, max_depth=3)
        assert pretty(generate_program(config)) == pretty(generate_program(config))

    def test_different_seeds_differ(self):
        a = pretty(generate_program(GeneratorConfig(seed=1, num_procs=20)))
        b = pretty(generate_program(GeneratorConfig(seed=2, num_procs=20)))
        assert a != b


class TestScaleFree:
    """The large-scale preferential-attachment mode behind
    large_scale_config (the large-scale benchmark workload)."""

    def test_determinism(self):
        config = large_scale_config(300, seed=42)
        assert pretty(generate_program(config)) == pretty(generate_program(config))

    def test_resolves_and_stays_flat(self):
        resolved = generate_resolved(large_scale_config(400, seed=9))
        assert resolved.num_procs == 401  # main + 400
        assert resolved.max_nesting_level == 1

    def test_in_degree_is_skewed(self):
        # Preferential attachment concentrates calls on early hubs:
        # the busiest procedure should see far more than the mean
        # in-degree, and a heavy tail of procedures should see little.
        resolved = generate_resolved(large_scale_config(1000, seed=4))
        graph = build_call_graph(resolved)
        indeg = [0] * graph.num_nodes
        for node in range(graph.num_nodes):
            for succ in graph.successors[node]:
                indeg[succ] += 1
        mean = sum(indeg) / len(indeg)
        assert max(indeg) > 10 * mean
        assert sum(1 for d in indeg if d <= 1) > len(indeg) / 4

    def test_uniform_mode_is_not_skewed_like_scale_free(self):
        from dataclasses import replace

        config = large_scale_config(1000, seed=4)
        uniform = replace(config, scale_free=False)
        def max_indeg(cfg):
            graph = build_call_graph(generate_resolved(cfg))
            indeg = [0] * graph.num_nodes
            for node in range(graph.num_nodes):
                for succ in graph.successors[node]:
                    indeg[succ] += 1
            return max(indeg)
        assert max_indeg(config) > 3 * max_indeg(uniform)

    def test_locals_range_parameter(self):
        resolved = generate_resolved(
            large_scale_config(60, seed=2, locals_range=(3, 3))
        )
        for proc in resolved.procs[1:]:
            assert len(proc.locals) == 3

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            large_scale_config(0)


#: sha256 of ``pretty(generate_program(config))``, recorded before the
#: generator's lists were cached: perfbench's recorded digests and the
#: pinned container bytes rest on these programs, so the same seed must
#: give the same program byte for byte, the RNG drawn exactly as then.
PINNED_PROGRAMS = {
    "flat-1k-0": (
        GeneratorConfig(seed=0, num_procs=1000, num_globals=200),
        "f7ecac349432f805d91f21749ea10235d822fe432def8bdcac1fc4d9ad1153a1",
    ),
    "flat-1k-7": (
        GeneratorConfig(seed=7, num_procs=1000, num_globals=200),
        "9e03434671fdab7efc7ec21338d7593bc14a6e403b7535fd9a91374be01673f9",
    ),
    "session-500-0": (
        GeneratorConfig(seed=0, num_procs=500, num_globals=100),
        "af487d298648a6134140ee1fcb17aeb9c02c2595ef965fed7c12f570ad17a5f4",
    ),
    "session-500-7": (
        GeneratorConfig(seed=7, num_procs=500, num_globals=100),
        "c9710e967822f7601d4040089c03a54f00f6f6405cca3d685478d12e6b3b6610",
    ),
    "nested": (
        GeneratorConfig(seed=5, num_procs=200, num_globals=30, max_depth=3,
                        nesting_prob=0.5, array_global_fraction=0.2),
        "3ce51675ba0e93d6e522441538df548b365868f7e6e01fe1edf503b4b7233651",
    ),
    "scale-free": (
        large_scale_config(600, seed=3),
        "6ebbe430050897fca2857356cf5289fd9506d884ce15a0fcd747815d747c5a56",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PROGRAMS))
def test_programs_are_pinned(name):
    import hashlib

    config, digest = PINNED_PROGRAMS[name]
    text = pretty(generate_program(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
