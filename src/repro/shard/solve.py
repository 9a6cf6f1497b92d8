"""Hierarchical (sharded) solving of the paper's propagation systems.

The three-phase shape — shard-local condense, global stitch over the
boundary nodes, per-shard back-substitution — applied to both solver
graphs:

1. **summarize** (parallel): every shard solves its subgraph
   symbolically and emits, for each node another shard imports, a
   transfer summary ``(const, deps)`` (:mod:`repro.shard.boundary`);
2. **stitch** (serial, small): the boundary nodes form a dependency
   graph whose edges are the summaries' deps.  Because the
   partitioner never splits an SCC across shards
   (:mod:`repro.shard.partition`), this graph is acyclic — a cycle
   through two shards would be a spanning SCC — so one reverse
   topological sweep fixes every boundary value;
3. **back-substitute** (parallel): with exact import values, each
   shard's local least solution *is* the global least solution
   restricted to that shard, so a plain concrete re-solve finishes the
   job.

The result is bit-identical to the monolithic solvers: both compute
the least solution of the same boolean system (equation (6) for
``RMOD``, equation (4) for ``GMOD``), and least solutions are unique.
The differential suite asserts this over the 30-program corpus and a
randomized fuzz sweep for shard counts {1, 2, 4, 8}.

``solve_hierarchical`` is generic over the canonical system described
in :mod:`repro.shard.boundary`; :func:`solve_rmod_sharded` and
:func:`solve_gmod_sharded` instantiate it, and
:func:`analyze_side_effects_sharded` is the drop-in pipeline entry
point (same phases, same summary object, plus ``shard_info``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.bitvec import OpCounter, iter_bits
from repro.core.local import LocalAnalysis
from repro.core.rmod import RmodResult
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import BindingMultiGraph
from repro.graphs.callgraph import CallMultiGraph
from repro.graphs.scc import tarjan_scc
from repro.lang.symbols import ResolvedProgram
from repro.shard.boundary import (
    BacksubResult,
    ShardProblem,
    ShardSummary,
    _solve_concrete,
    backsub_shard,
    stitch_tree,
    summarize_shard,
)
from repro.shard import wire
from repro.shard.partition import ShardPlan, partition_graph
from repro.shard.runner import ShardRunner


@dataclass
class HierarchicalStats:
    """What one hierarchical solve did (one graph, one kind)."""

    num_shards: int = 1
    cut_edges: int = 0
    boundary_nodes: int = 0
    maskless_shards: int = 0
    masked_shards: int = 0
    summarize_time: float = 0.0
    stitch_time: float = 0.0
    backsub_time: float = 0.0
    #: Max in-worker seconds — the parallel critical path.
    summarize_span: float = 0.0
    backsub_span: float = 0.0
    steps: int = 0

    def to_dict(self) -> Dict:
        return {
            "num_shards": self.num_shards,
            "cut_edges": self.cut_edges,
            "boundary_nodes": self.boundary_nodes,
            "maskless_shards": self.maskless_shards,
            "masked_shards": self.masked_shards,
            "summarize_time": self.summarize_time,
            "stitch_time": self.stitch_time,
            "backsub_time": self.backsub_time,
            "summarize_span": self.summarize_span,
            "backsub_span": self.backsub_span,
            "steps": self.steps,
        }

    def accumulate(self, other: "HierarchicalStats") -> None:
        self.num_shards = max(self.num_shards, other.num_shards)
        self.cut_edges = max(self.cut_edges, other.cut_edges)
        self.boundary_nodes = max(self.boundary_nodes, other.boundary_nodes)
        self.maskless_shards += other.maskless_shards
        self.masked_shards += other.masked_shards
        self.summarize_time += other.summarize_time
        self.stitch_time += other.stitch_time
        self.backsub_time += other.backsub_time
        self.summarize_span += other.summarize_span
        self.backsub_span += other.backsub_span
        self.steps += other.steps


def _stitch(
    problems: List[ShardProblem],
    summaries: List[ShardSummary],
    plan: ShardPlan,
    local_of: List[int],
) -> Tuple[Dict[int, int], int]:
    """Solve the boundary system; returns node id → value, and steps.

    The boundary dependency graph is acyclic by the partitioner's
    SCC invariant; the sweep still runs through Tarjan so a violation
    would converge (and be caught by the differential tests) instead
    of corrupting results silently.

    Separator plans skip the global system entirely: their hierarchy's
    wave schedule decomposes the stitch into one small step per shard
    (:func:`repro.shard.boundary.stitch_tree`), bottom-up along the
    tree, each touching only that separator's carriers.
    """
    hierarchy = getattr(plan, "hierarchy", None)
    if hierarchy is not None and not hierarchy.fallback and hierarchy.waves:
        return stitch_tree(problems, summaries, hierarchy)
    boundary: List[int] = sorted(
        {node for problem in problems for node in problem.imports}
    )
    if not boundary:
        return {}, 0
    index_of = {node: index for index, node in enumerate(boundary)}
    const = [0] * len(boundary)
    # deps[b] → list of (boundary index, mask) — mask is -1 for
    # maskless summaries.
    deps: List[List[Tuple[int, int]]] = [[] for _ in boundary]
    steps = 0
    for bindex, node in enumerate(boundary):
        owner = plan.shard_of[node]
        problem = problems[owner]
        summary = summaries[owner]
        local = local_of[node]
        const[bindex] = summary.const[local]
        entry = summary.deps[local]
        if problem.masked:
            for import_index, mask in entry.items():
                target = problem.imports[import_index]
                deps[bindex].append((index_of[target], mask))
        else:
            # Maskless summaries encode the dependency set as a bit
            # mask over import indices; decoding it into edge records
            # is inherently per-bit (each bit names a different target
            # node).  Bounded by the cut size, not the graph — the
            # steps tally below charges it.
            for import_index in iter_bits(entry):
                target = problem.imports[import_index]
                deps[bindex].append((index_of[target], -1))
        steps += 1 + len(deps[bindex])

    successors = [[target for target, _ in deps[b]] for b in range(len(boundary))]
    comp_of, comps = tarjan_scc(len(boundary), successors)
    value = [0] * len(boundary)
    for comp_index, members in enumerate(comps):
        for node in members:
            acc = const[node]
            for target, mask in deps[node]:
                if comp_of[target] != comp_index:
                    acc |= value[target] & mask
            value[node] = acc
        changed = len(members) > 1
        while changed:
            changed = False
            for node in members:
                acc = value[node]
                for target, mask in deps[node]:
                    if comp_of[target] == comp_index:
                        acc |= value[target] & mask
                steps += len(deps[node])
                if acc != value[node]:
                    value[node] = acc
                    changed = True
    return {node: value[index_of[node]] for node in boundary}, steps


class ShardedSystem:
    """One graph, partitioned once, solvable for many seed vectors.

    Splitting the canonical system along a :class:`ShardPlan` — local
    adjacency, import tables, export sets, shard-local SCC structure,
    per-component strip unions, per-node seed masks — depends only on
    the graph and the plan, not on the seeds.  The pipeline solves the
    same two graphs for ``MOD`` and ``USE``, so this structure is
    built once and each :meth:`solve` call only swaps seeds in and
    re-runs the three phases.

    ``carrier``, when given, must be a positive mask satisfying
    ``seeds[n] & ~strips[n] ⊆ carrier`` for every seed vector this
    system will solve (see :func:`narrow_carrier`).  It turns the
    per-node seed masks into narrow positive ints, so seed stripping —
    and everything downstream, since propagated values stay inside the
    carrier — costs O(carrier width) instead of O(universe width).
    """

    def __init__(
        self,
        num_nodes: int,
        successors: Sequence[Sequence[int]],
        strips: Optional[Sequence[int]],
        plan: ShardPlan,
        carrier: Optional[int] = None,
    ):
        self.num_nodes = num_nodes
        self.strips = strips
        self.plan = plan
        self.carrier = carrier
        local_of = [0] * num_nodes
        for members in plan.shards:
            for index, node in enumerate(members):
                local_of[node] = index
        self.local_of = local_of

        # A node's receive mask can only matter if the node both pulls
        # something in (has successors) and is pulled from (has
        # predecessors) — see _select_engines.
        has_pred = [False] * num_nodes
        for node in range(num_nodes):
            for q in successors[node]:
                has_pred[q] = True

        # Shard-local SCC structure, derived from the partitioner's
        # condensation when available (one global pass instead of one
        # Tarjan run per shard): components never span shards, and the
        # global reverse topological order restricts to a valid
        # shard-local one.
        shard_comps: Optional[List[List[List[int]]]] = None
        cond = plan.condensation
        if cond is not None:
            shard_comps = [[] for _ in plan.shards]
            for comp_members in cond.components:
                owner = plan.shard_of[comp_members[0]]
                shard_comps[owner].append(
                    [local_of[node] for node in comp_members]
                )

        problems: List[ShardProblem] = []
        imported_by: List[List[int]] = [[] for _ in range(len(plan.shards))]
        consumer_strips: List[int] = []
        for shard_id, members in enumerate(plan.shards):
            succ: List[List[int]] = []
            cross: List[List[int]] = []
            import_index: Dict[int, int] = {}
            imports: List[int] = []
            strip_union = 0
            for node in members:
                local_succ: List[int] = []
                local_cross: List[int] = []
                for q in successors[node]:
                    if plan.shard_of[q] == shard_id:
                        local_succ.append(local_of[q])
                    else:
                        index = import_index.get(q)
                        if index is None:
                            index = len(imports)
                            import_index[q] = index
                            imports.append(q)
                        local_cross.append(index)
                succ.append(local_succ)
                cross.append(local_cross)
                if (
                    strips is not None
                    and has_pred[node]
                    and (local_succ or local_cross)
                ):
                    strip_union |= strips[node]
            for q in imports:
                imported_by[plan.shard_of[q]].append(q)
            if strips is None:
                shard_strips = None
            elif carrier is not None:
                # Everything a shard ever holds — seeds and propagated
                # values — lives inside the carrier, so strip masks can
                # be narrowed to it: ``v & ~s == v & ~(s & carrier)``
                # for ``v ⊆ carrier``.  This turns the problems'
                # dominant payload (full-universe strip ints) into
                # carrier-width ones, which is what makes shipping them
                # to pool workers affordable (see repro.shard.wire).
                shard_strips = [strips[node] & carrier for node in members]
            else:
                shard_strips = [strips[node] for node in members]
            problem = ShardProblem(
                shard_id=shard_id,
                nodes=list(members),
                succ=succ,
                cross=cross,
                imports=imports,
                seeds=[],
                strips=shard_strips,
                exports=[],
            )
            if shard_comps is not None:
                problem.comps = shard_comps[shard_id]
                comp_of = [0] * len(members)
                for comp_index, comp in enumerate(problem.comps):
                    for member in comp:
                        comp_of[member] = comp_index
                problem.comp_of = comp_of
            else:
                problem.comp_of, problem.comps = tarjan_scc(
                    len(members), succ
                )
            if strips is not None:
                pstrips = problem.strips
                comp_bite: List[int] = []
                for comp in problem.comps:
                    if len(comp) == 1:
                        comp_bite.append(pstrips[comp[0]])
                    else:
                        acc = 0
                        for member in comp:
                            acc |= pstrips[member]
                        comp_bite.append(acc)
                problem.comp_bite = comp_bite
            problems.append(problem)
            consumer_strips.append(strip_union)
        for shard_id, problem in enumerate(problems):
            exported = sorted(set(imported_by[shard_id]))
            problem.exports = [local_of[node] for node in exported]
        # Per-node seed masks, precomputed so each solve() pays one AND
        # per node.  With a carrier (a narrow positive superset of
        # every strippable seed bit) the masks are narrow positive
        # ints, so the ANDs cost O(carrier width) instead of
        # O(universe width).
        if strips is None:
            self._seed_masks: Optional[List[List[int]]] = None
        elif carrier is not None:
            # carrier & ~strips[n], written without the full-width
            # negation: both AND and XOR stay inside the carrier.
            self._seed_masks = [
                [
                    carrier ^ (carrier & strips[node])
                    for node in problem.nodes
                ]
                for problem in problems
            ]
        else:
            self._seed_masks = [
                [~strips[node] for node in problem.nodes]
                for problem in problems
            ]
        self.problems = problems
        self.consumer_strips = consumer_strips
        self.have_boundary = any(problem.imports for problem in problems)
        #: Quotient-graph SCC structure for the engine check's
        #: reachable-seed sweep (seed-independent).
        self.quotient_comp_of, self.quotient_comps = tarjan_scc(
            len(plan.shards), plan.quotient
        )
        #: Acyclic shard quotient (always true for "chunk" plans) —
        #: enables the direct one-pass solve when running in-process
        #: and the wave-parallel concrete solve under a pool.
        self.quotient_acyclic = all(
            len(comp) == 1 for comp in self.quotient_comps
        )
        #: Lazily-built wire registrations ``(key, static blob)`` per
        #: problem — computed on the first pooled solve, reused by
        #: every later map call (see :mod:`repro.shard.wire`).
        self._wire: Optional[List[Tuple[int, bytes]]] = None

    def _wire_statics(self) -> List[Tuple[int, bytes]]:
        if self._wire is None:
            self._wire = [
                wire.encode_static(problem) for problem in self.problems
            ]
        return self._wire

    def _select_engines(self) -> None:
        """Static check: can an imported bit be stripped in a shard?

        For each shard ``t`` let ``S_t`` be the union of its
        (pre-stripped) seeds and ``R_t`` the union of ``S_u`` over
        every shard ``u`` reachable from ``t`` in the quotient graph
        (including ``t``).  Every value a shard exports satisfies
        ``P ⊆ R_t`` — bits only enter the system through seeds.  A
        shard ``s`` may use the maskless dependency engine iff::

            (OR over imports i of R_{shard(i)}) & consumer_strips(s) == 0

        where ``consumer_strips`` unions the strips of nodes that both
        pull and are pulled from — a strip at a node nobody consumes
        (the main program: no callers) cannot affect any other value.
        ``RMOD`` has no strips and always passes; ``GMOD`` of flat
        programs passes because imported bits are global (equation (4)
        makes ``GMOD(q) − LOCAL(q)`` of a flat procedure all-global)
        while strips are locals.  Shards that fail — nested-program
        shapes — fall back to the exact masked engine.
        """
        plan = self.plan
        problems = self.problems
        seed_union = [0] * len(problems)
        for shard_id, problem in enumerate(problems):
            acc = 0
            for seed in problem.seeds:
                acc |= seed
            seed_union[shard_id] = acc

        comp_reach = [0] * len(self.quotient_comps)
        comp_of = self.quotient_comp_of
        for comp_index, members in enumerate(self.quotient_comps):
            acc = 0
            for shard_id in members:
                acc |= seed_union[shard_id]
                for succ in plan.quotient[shard_id]:
                    acc |= comp_reach[comp_of[succ]]
            comp_reach[comp_index] = acc

        for shard_id, problem in enumerate(problems):
            if problem.strips is None:
                problem.masked = False
                continue
            incoming = 0
            for node in problem.imports:
                incoming |= comp_reach[comp_of[plan.shard_of[node]]]
            problem.masked = (incoming & self.consumer_strips[shard_id]) != 0


    def solve(
        self,
        seeds: Sequence[int],
        runner: ShardRunner,
        emit: str = "value",
    ) -> Tuple[List[int], HierarchicalStats]:
        """Solve for one seed vector.

        ``seeds`` are the raw per-node seeds (stripped internally
        against the system's strips); ``emit`` selects the output —
        ``"value"`` returns ``P(n)``, ``"succ_or"`` returns
        ``D(n) = OR_{n->q} P(q)``.
        """
        plan = self.plan
        stats = HierarchicalStats(
            num_shards=plan.num_shards, cut_edges=plan.cut_edges
        )
        if self.num_nodes == 0:
            return [], stats
        problems = self.problems
        for shard_id, problem in enumerate(problems):
            if self._seed_masks is None:
                problem.seeds = [seeds[node] for node in problem.nodes]
            else:
                masks = self._seed_masks[shard_id]
                problem.seeds = [
                    seeds[node] & mask
                    for node, mask in zip(problem.nodes, masks)
                ]
            problem.emit = emit
        self._select_engines()
        stats.maskless_shards = sum(1 for p in problems if not p.masked)
        stats.masked_shards = sum(1 for p in problems if p.masked)
        stats.boundary_nodes = sum(len(p.exports) for p in problems)

        # Fan out only when a pool exists, there is more than one shard
        # to feed it, *and* the graph is big enough that per-task wire
        # encoding plus pool round-trips cost less than the in-worker
        # compute they buy (same economics as the per-wave gate in
        # ``_solve_waves``; fleets advertise ``min_fanout_nodes=0``).
        fanout = (
            runner.jobs > 1
            and len(problems) > 1
            and self.num_nodes >= runner.min_fanout_nodes
        )
        if not fanout and self.have_boundary and self.quotient_acyclic:
            # No pool worth engaging and an acyclic shard quotient: the
            # summaries and the stitch buy nothing — solve shards in
            # reverse topological quotient order, each reading final
            # import values straight off already-solved shards.  One
            # concrete pass over every shard, same least solution.
            return self._solve_direct(stats, emit)

        use_wire = fanout
        hierarchy = getattr(plan, "hierarchy", None)
        serial_chain = (
            hierarchy is not None
            and not hierarchy.fallback
            and bool(hierarchy.waves)
            and hierarchy.max_wave_width <= 1
        )
        if use_wire and self.quotient_acyclic and not serial_chain:
            # A pool *and* an acyclic quotient: concrete solves in
            # topological waves — independent shards of a wave fan out
            # over the pool with final import values, so the symbolic
            # summarize phase (a second full solve's worth of work) is
            # never paid.  Same least solution as the direct path.
            return self._solve_waves(stats, emit, runner)
        # A separator plan whose waves are all singletons (a serial
        # chain) gains nothing from wave dispatch — summarize every
        # shard at once, tree-stitch, back-substitute every shard at
        # once: full fan-out on both heavy phases instead of none.

        statics = self._wire_statics() if use_wire else None
        seed_blobs = (
            [wire.encode_masks(problem.seeds) for problem in problems]
            if use_wire
            else None
        )

        import_values: Dict[int, int] = {}
        if self.have_boundary:
            tick = time.perf_counter()
            if use_wire:
                summaries = runner.map(
                    wire.summarize_shard_wire,
                    [
                        (
                            statics[index][0],
                            statics[index][1],
                            problem.masked,
                            seed_blobs[index],
                        )
                        for index, problem in enumerate(problems)
                    ],
                    label="summarize",
                    nodes=self.num_nodes,
                    decode=lambda blob, index: wire.decode_summary(
                        blob, problems[index]
                    ),
                )
            else:
                summaries = runner.map(
                    summarize_shard,
                    problems,
                    label="summarize",
                    nodes=self.num_nodes,
                )
            stats.summarize_time = time.perf_counter() - tick
            stats.summarize_span = max(s.elapsed for s in summaries)
            stats.steps += sum(s.steps for s in summaries)

            tick = time.perf_counter()
            import_values, stitch_steps = _stitch(
                problems, summaries, plan, self.local_of
            )
            stats.stitch_time = time.perf_counter() - tick
            stats.steps += stitch_steps

        tick = time.perf_counter()
        if use_wire:
            results = runner.map(
                wire.backsub_shard_wire,
                [
                    (
                        statics[index][0],
                        statics[index][1],
                        emit,
                        seed_blobs[index],
                        wire.encode_masks(
                            [import_values[node] for node in problem.imports]
                        ),
                    )
                    for index, problem in enumerate(problems)
                ],
                label="backsub",
                nodes=self.num_nodes,
                decode=lambda blob, index: wire.decode_backsub(
                    blob, problems[index]
                )[0],
            )
        else:
            results = runner.map(
                backsub_shard,
                [
                    (problem, [import_values[node] for node in problem.imports])
                    for problem in problems
                ],
                label="backsub",
                nodes=self.num_nodes,
            )
        stats.backsub_time = time.perf_counter() - tick
        stats.backsub_span = max(r.elapsed for r in results)
        stats.steps += sum(r.steps for r in results)

        out = [0] * self.num_nodes
        for problem, result in zip(problems, results):
            for local, node in enumerate(problem.nodes):
                out[node] = result.values[local]
        return out, stats

    def _solve_waves(
        self, stats: HierarchicalStats, emit: str, runner: ShardRunner
    ) -> Tuple[List[int], HierarchicalStats]:
        """Concrete wave-parallel solve over an acyclic shard quotient.

        Shards are grouped by depth in the quotient DAG (sinks first);
        every shard in a wave has final import values when the wave
        starts, so the wave's shards run :func:`_solve_concrete`
        independently — over the pool through the wire codec when the
        wave is wide, in-process when it is a singleton (a one-shard
        wave gains nothing from a worker round-trip).  Total work is
        one concrete pass per shard, exactly the direct path's.
        """
        tick = time.perf_counter()
        plan = self.plan
        problems = self.problems
        hierarchy = getattr(plan, "hierarchy", None)
        if hierarchy is not None and hierarchy.waves:
            # Separator plans carry the callee-first wave schedule.
            waves = hierarchy.waves
        else:
            # Depth per shard: sinks at 0.  quotient_comps is in
            # reverse topological order (all singletons here), so
            # every quotient successor's depth is final before its
            # importer's is set.
            depth = [0] * len(problems)
            for comp in self.quotient_comps:
                shard_id = comp[0]
                best = 0
                for succ in plan.quotient[shard_id]:
                    if depth[succ] >= best:
                        best = depth[succ] + 1
                depth[shard_id] = best
            waves = [[] for _ in range(max(depth) + 1)]
            for shard_id, d in enumerate(depth):
                waves[d].append(shard_id)

        statics = None
        #: Final P value per exported global node id.
        value_at: Dict[int, int] = {}
        out = [0] * self.num_nodes
        steps = 0
        span = 0.0
        for wave_index, wave in enumerate(waves):
            wave_nodes = sum(len(problems[s].nodes) for s in wave)
            if (
                len(wave) == 1
                or runner.jobs <= 1
                or wave_nodes < runner.min_fanout_nodes
            ):
                for shard_id in wave:
                    problem = problems[shard_id]
                    imports = [value_at[node] for node in problem.imports]
                    value, shard_steps = _solve_concrete(problem, imports)
                    steps += shard_steps
                    for local in problem.exports:
                        value_at[problem.nodes[local]] = value[local]
                    if emit == "succ_or":
                        succ = problem.succ
                        cross = problem.cross
                        for local, node in enumerate(problem.nodes):
                            acc = 0
                            for q in succ[local]:
                                acc |= value[q]
                            for i in cross[local]:
                                acc |= imports[i]
                            steps += len(succ[local]) + len(cross[local])
                            out[node] = acc
                    else:
                        for local, node in enumerate(problem.nodes):
                            out[node] = value[local]
                continue
            if statics is None:
                statics = self._wire_statics()
            if wave_index + 1 < len(waves):
                # Warm the next wave's static blobs while this wave
                # computes (no-op locally; the fleet runner pushes
                # them to idle workers).
                runner.prefetch(
                    [statics[s] for s in waves[wave_index + 1]]
                )
            exports_of: Dict[int, List[int]] = {}

            def _decode(blob: bytes, index: int, wave=wave) -> BacksubResult:
                shard_id = wave[index]
                result, export_values = wire.decode_backsub(
                    blob, problems[shard_id]
                )
                exports_of[shard_id] = export_values
                return result

            results = runner.map(
                wire.backsub_shard_wire,
                [
                    (
                        statics[shard_id][0],
                        statics[shard_id][1],
                        emit,
                        wire.encode_masks(problems[shard_id].seeds),
                        wire.encode_masks(
                            [
                                value_at[node]
                                for node in problems[shard_id].imports
                            ]
                        ),
                    )
                    for shard_id in wave
                ],
                label="backsub",
                decode=_decode,
            )
            for shard_id, result in zip(wave, results):
                problem = problems[shard_id]
                steps += result.steps
                if result.elapsed > span:
                    span = result.elapsed
                for local, value in zip(
                    problem.exports, exports_of[shard_id]
                ):
                    value_at[problem.nodes[local]] = value
                for local, node in enumerate(problem.nodes):
                    out[node] = result.values[local]
        stats.backsub_time = time.perf_counter() - tick
        stats.backsub_span = span
        stats.steps += steps
        return out, stats

    def _solve_direct(
        self, stats: HierarchicalStats, emit: str
    ) -> Tuple[List[int], HierarchicalStats]:
        tick = time.perf_counter()
        plan = self.plan
        local_of = self.local_of
        values_of: List[Optional[List[int]]] = [None] * len(self.problems)
        out = [0] * self.num_nodes
        steps = 0
        # Reverse topological order over the quotient: every singleton
        # component in Tarjan's emission order (sinks first), so a
        # shard's imports are final before it runs.
        for comp in self.quotient_comps:
            shard_id = comp[0]
            problem = self.problems[shard_id]
            imports = [
                values_of[plan.shard_of[node]][local_of[node]]
                for node in problem.imports
            ]
            value, shard_steps = _solve_concrete(problem, imports)
            values_of[shard_id] = value
            steps += shard_steps
            if emit == "succ_or":
                for local, node in enumerate(problem.nodes):
                    acc = 0
                    for q in problem.succ[local]:
                        acc |= value[q]
                    for i in problem.cross[local]:
                        acc |= imports[i]
                    steps += len(problem.succ[local]) + len(
                        problem.cross[local]
                    )
                    out[node] = acc
            else:
                for local, node in enumerate(problem.nodes):
                    out[node] = value[local]
        stats.backsub_time = time.perf_counter() - tick
        stats.steps += steps
        return out, stats


def solve_hierarchical(
    num_nodes: int,
    successors: Sequence[Sequence[int]],
    seeds: Sequence[int],
    strips: Optional[Sequence[int]],
    plan: ShardPlan,
    runner: ShardRunner,
    emit: str = "value",
) -> Tuple[List[int], HierarchicalStats]:
    """One-shot convenience over :class:`ShardedSystem`."""
    system = ShardedSystem(num_nodes, successors, strips, plan)
    return system.solve(seeds, runner, emit=emit)


# ---------------------------------------------------------------------------
# Instantiations: RMOD on β, GMOD on the call multi-graph.
# ---------------------------------------------------------------------------


def narrow_carrier(resolved: ResolvedProgram, universe: VariableUniverse) -> int:
    """A narrow superset of every bit equation (4) can propagate.

    ``P(p) = GMOD(p) − LOCAL(p)`` only carries variables that outlive
    some procedure's strip: globals, plus the locals of procedures
    that have nested children (visible to — hence strippable by — a
    descendant, never by the owner).  For flat programs this is
    exactly the global mask, which occupies the contiguous low uids —
    a narrow positive int, while ``~LOCAL(p)`` masks are full-universe
    wide.  Seeds satisfy ``IMOD+(p) ⊆ visible(p)``, so
    ``IMOD+(p) & ~LOCAL(p) ⊆ carrier`` always holds.
    """
    has_children = [False] * resolved.num_procs
    for proc in resolved.procs:
        if proc.parent is not None:
            has_children[proc.parent.pid] = True
    carrier = universe.global_mask
    for proc in resolved.procs:
        if has_children[proc.pid]:
            carrier |= universe.local_mask[proc.pid]
    return carrier


def _as_system(
    plan_or_system: Union[ShardPlan, ShardedSystem],
    num_nodes: int,
    successors: Sequence[Sequence[int]],
    strips: Optional[Sequence[int]],
    carrier: Optional[int] = None,
) -> ShardedSystem:
    if isinstance(plan_or_system, ShardedSystem):
        return plan_or_system
    return ShardedSystem(
        num_nodes, successors, strips, plan_or_system, carrier=carrier
    )


def solve_rmod_sharded(
    graph: BindingMultiGraph,
    local: LocalAnalysis,
    kind: EffectKind,
    plan: Union[ShardPlan, ShardedSystem],
    runner: ShardRunner,
    counter: Optional[OpCounter] = None,
) -> Tuple[RmodResult, HierarchicalStats]:
    """Figure 1's problem, solved hierarchically.

    Equation (6) is the canonical system with 0/1 seeds (``IMOD`` bit
    per β node) and no receive masks, so every shard runs the maskless
    engine and the per-shard sweeps stay single-bit, one-pass.
    Produces an :class:`~repro.core.rmod.RmodResult` bit-identical to
    :func:`~repro.core.rmod.solve_rmod`.  ``plan`` may be a prebuilt
    :class:`ShardedSystem` over β to amortise shard construction
    across effect kinds.
    """
    if counter is None:
        counter = OpCounter()
    resolved = graph.resolved
    initial = local.initial(kind)
    num_nodes = graph.num_formals
    seeds = [
        (initial[formal.proc.pid] >> formal.uid) & 1 for formal in graph.formals
    ]
    system = _as_system(plan, num_nodes, graph.successors, None)
    values, stats = system.solve(seeds, runner, emit="value")
    counter.single_bit_steps += stats.steps
    node_value = [bool(v) for v in values]
    proc_mask = [0] * resolved.num_procs
    for node, formal in enumerate(graph.formals):
        if node_value[node]:
            proc_mask[formal.proc.pid] |= 1 << formal.uid
    result = RmodResult(
        kind=kind,
        graph=graph,
        node_value=node_value,
        proc_mask=proc_mask,
        counter=counter,
    )
    return result, stats


def solve_gmod_sharded(
    call_graph: CallMultiGraph,
    imod_plus: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind,
    plan: Union[ShardPlan, ShardedSystem],
    runner: ShardRunner,
    counter: Optional[OpCounter] = None,
) -> Tuple[List[int], HierarchicalStats]:
    """Equation (4), solved hierarchically.

    Substituting ``P(p) = GMOD(p) − LOCAL(p)`` turns equation (4) into
    the canonical system with seeds ``IMOD+`` and strips ``LOCAL``;
    the shards propagate only the narrow ``P`` slice (for flat
    programs: global bits) and ``GMOD(p) = IMOD+(p) | D(p)`` is
    assembled from the back-substituted successor unions in one
    bit-vector step per procedure.  ``plan`` may be a prebuilt
    :class:`ShardedSystem` over the call graph (with ``LOCAL`` strips)
    to amortise shard construction across effect kinds.
    """
    if counter is None:
        counter = OpCounter()
    num_nodes = call_graph.num_nodes
    system = _as_system(
        plan,
        num_nodes,
        call_graph.successors,
        universe.local_mask,
        carrier=narrow_carrier(call_graph.resolved, universe),
    )
    succ_or, stats = system.solve(list(imod_plus), runner, emit="succ_or")
    counter.bit_vector_steps += stats.steps + num_nodes
    gmod = [imod_plus[pid] | succ_or[pid] for pid in range(num_nodes)]
    return gmod, stats


# ---------------------------------------------------------------------------
# Pipeline entry point.
# ---------------------------------------------------------------------------


def analyze_side_effects_sharded(
    program: Union[str, ResolvedProgram],
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    num_shards: int = 4,
    jobs: int = 1,
    strategy: str = "greedy",
    runner: Optional[ShardRunner] = None,
):
    """Run the complete analysis with the sharded solver.

    Drop-in for :func:`repro.core.pipeline.analyze_side_effects`: the
    same phases, the same :class:`SideEffectSummary`, bit-identical
    masks (the differential suite asserts it) — plus ``shard_info``
    partition/engine statistics and ``shard_*`` timing keys.

    ``jobs`` caps the shard process pool (1 = in-process, the
    sequential mode); a caller-provided ``runner`` overrides it and
    stays open for reuse.
    """
    from repro.core.aliases import compute_aliases, factor_aliases_into
    from repro.core.arena import get_arena
    from repro.core.dmod import compute_dmod
    from repro.core.imod_plus import compute_imod_plus
    from repro.core.pipeline import mark_phase, run_front_end
    from repro.core.summary import EffectSolution, SideEffectSummary

    timings: Dict[str, float] = {}
    started = time.perf_counter()
    resolved, tick = run_front_end(program, timings, started)

    counter = OpCounter()

    # The shared lowering: graphs, local sets, and — crucially here —
    # the two cached condensations the partitioner would otherwise
    # recompute with its own Tarjan passes.
    arena = get_arena(resolved)
    universe = arena.universe
    call_graph = arena.call_graph
    binding_graph = arena.binding_graph
    local = arena.local
    tick = mark_phase(timings, "graphs", tick)
    aliases = compute_aliases(resolved, universe, counter)
    tick = mark_phase(timings, "aliases", tick)

    beta_plan = partition_graph(
        binding_graph.num_formals,
        binding_graph.successors,
        num_shards,
        strategy,
        condensation=arena.beta_condense_full(),
    )
    call_plan = partition_graph(
        call_graph.num_nodes,
        call_graph.successors,
        num_shards,
        strategy,
        condensation=arena.call_condense_full(),
    )
    # Build the two sharded systems once; MOD and USE reuse them with
    # different seed vectors.
    beta_system = ShardedSystem(
        binding_graph.num_formals, binding_graph.successors, None, beta_plan
    )
    call_system = ShardedSystem(
        call_graph.num_nodes,
        call_graph.successors,
        universe.local_mask,
        call_plan,
        carrier=narrow_carrier(resolved, universe),
    )
    tick = mark_phase(timings, "partition", tick)

    own_runner = runner is None
    active = runner if runner is not None else ShardRunner(jobs)
    rmod_stats = HierarchicalStats()
    gmod_stats = HierarchicalStats()
    try:
        solutions: Dict[EffectKind, EffectSolution] = {}
        for kind in kinds:
            rmod, stats = solve_rmod_sharded(
                binding_graph, local, kind, beta_system, active, counter
            )
            rmod_stats.accumulate(stats)
            tick = mark_phase(timings, "rmod", tick)
            imod_plus = compute_imod_plus(resolved, local, rmod, kind, counter)
            tick = mark_phase(timings, "imod_plus", tick)
            gmod, stats = solve_gmod_sharded(
                call_graph, imod_plus, universe, kind, call_system, active, counter
            )
            gmod_stats.accumulate(stats)
            tick = mark_phase(timings, "gmod", tick)
            dmod = compute_dmod(resolved, gmod, universe, kind, counter)
            mod = factor_aliases_into(dmod, aliases, resolved, counter)
            tick = mark_phase(timings, "dmod", tick)
            solutions[kind] = EffectSolution(
                kind=kind,
                rmod=rmod,
                imod_plus=imod_plus,
                gmod=gmod,
                dmod=dmod,
                mod=mod,
                gmod_method="sharded",
            )
    finally:
        if own_runner:
            active.close()

    for stats in (rmod_stats, gmod_stats):
        timings["shard_summarize"] = (
            timings.get("shard_summarize", 0.0) + stats.summarize_time
        )
        timings["shard_stitch"] = timings.get("shard_stitch", 0.0) + stats.stitch_time
        timings["shard_backsub"] = (
            timings.get("shard_backsub", 0.0) + stats.backsub_time
        )
    timings["total"] = time.perf_counter() - started

    shard_info = {
        "requested_shards": num_shards,
        "jobs": active.jobs,
        "strategy": strategy,
        "beta": beta_plan.to_dict(),
        "call": call_plan.to_dict(),
        "rmod": rmod_stats.to_dict(),
        "gmod": gmod_stats.to_dict(),
    }
    return SideEffectSummary(
        resolved=resolved,
        universe=universe,
        call_graph=call_graph,
        binding_graph=binding_graph,
        local=local,
        aliases=aliases,
        solutions=solutions,
        counter=counter,
        timings=timings,
        shard_info=shard_info,
    )
