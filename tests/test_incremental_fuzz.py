"""Edit-sequence fuzz oracle for the incremental engine.

The strongest statement the incremental solver makes is *byte
identity*: after any edit, the summary produced by
``incremental_update`` serializes to exactly the bytes a from-scratch
analysis of the same source would produce — from both the fused
arena solver and the per-kind oracle
(:func:`repro.baselines.per_kind.analyze_per_kind`).  A single hand-picked
edit cannot pin that; a randomized *sequence* of structural edits can,
because each step chains the previous incremental output as the next
baseline, so any drift (a stale mask, a missed invalidation, an
unsound reuse) compounds until the bytes diverge.

The fuzzer applies five edit species, mirroring what an editor
session does to a program:

* **body edits** — append an assignment through a visible variable, or
  drop a trailing statement (which may remove a call site);
* **add procedure** — a fresh procedure plus a call to it from an
  existing body;
* **delete procedure** — only fuzzer-added ones, with every call to
  them scrubbed from all bodies first;
* **call rewires** — retarget an existing call site at another
  procedure of the same arity;
* **formal renames** — rename a formal and every reference to it in
  the owning body (a signature change that leaves callers untouched).

Everything is seeded: a failure reproduces with the printed
``(config, seed)`` pair.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.baselines.alias_pairs import compute_alias_pairs
from repro.baselines.per_kind import analyze_per_kind
from repro.core.arena import ProgramArena, peek_arena
from repro.core.depindex import index_from_bytes, index_to_bytes
from repro.core.incremental import (
    incremental_update,
    incremental_update_from_index,
)
from repro.core.persist import summary_to_bytes, summary_to_dict
from repro.core.pipeline import analyze_side_effects
from repro.lang.nodes import (
    Assign,
    BinOp,
    CallStmt,
    For,
    If,
    IntLit,
    Print,
    ProcDecl,
    Read,
    VarDecl,
    VarRef,
    While,
)
from repro.lang.pretty import pretty
from repro.lang.semantic import compile_source
from repro.workloads.generator import GeneratorConfig, generate_program


def _walk_bodies(program):
    """Yield every statement list in the program (proc bodies, nested
    proc bodies, control-flow arms, and the main body)."""

    def from_stmts(stmts):
        yield stmts
        for stmt in stmts:
            if isinstance(stmt, If):
                yield from from_stmts(stmt.then_body)
                yield from from_stmts(stmt.else_body)
            elif isinstance(stmt, (While, For)):
                yield from from_stmts(stmt.body)

    def from_proc(proc):
        yield from from_stmts(proc.body)
        for nested in proc.nested:
            yield from from_proc(nested)

    for proc in program.procs:
        yield from from_proc(proc)
    yield from from_stmts(program.body)


def _rename_in_expr(expr, old: str, new: str) -> None:
    if isinstance(expr, VarRef):
        if expr.name == old:
            expr.name = new
        for index in expr.indices:
            _rename_in_expr(index, old, new)
    elif isinstance(expr, BinOp):
        _rename_in_expr(expr.left, old, new)
        _rename_in_expr(expr.right, old, new)
    elif hasattr(expr, "operand"):  # UnOp
        _rename_in_expr(expr.operand, old, new)


def _rename_in_stmts(stmts, old: str, new: str) -> None:
    for stmt in stmts:
        if isinstance(stmt, Assign):
            _rename_in_expr(stmt.target, old, new)
            _rename_in_expr(stmt.value, old, new)
        elif isinstance(stmt, CallStmt):
            for arg in stmt.args:
                _rename_in_expr(arg, old, new)
        elif isinstance(stmt, If):
            _rename_in_expr(stmt.cond, old, new)
            _rename_in_stmts(stmt.then_body, old, new)
            _rename_in_stmts(stmt.else_body, old, new)
        elif isinstance(stmt, While):
            _rename_in_expr(stmt.cond, old, new)
            _rename_in_stmts(stmt.body, old, new)
        elif isinstance(stmt, For):
            _rename_in_expr(stmt.var, old, new)
            _rename_in_expr(stmt.lo, old, new)
            _rename_in_expr(stmt.hi, old, new)
            _rename_in_stmts(stmt.body, old, new)
        elif isinstance(stmt, Read):
            _rename_in_expr(stmt.target, old, new)
        elif isinstance(stmt, Print):
            for value in stmt.values:
                _rename_in_expr(value, old, new)


class EditFuzzer:
    """Owns a pristine (never-analysed) AST and mutates it in place."""

    def __init__(self, config: GeneratorConfig, seed: int):
        self.rng = random.Random(seed)
        self.program = generate_program(config)
        self.added: List[str] = []
        self.counter = 0

    # -- helpers -------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self.counter += 1
        return "%s%d" % (prefix, self.counter)

    def _global_name(self) -> str:
        return self.rng.choice(self.program.globals).name

    def _visible_scalar(self, proc: ProcDecl) -> str:
        """A random scalar variable name legal inside ``proc``."""
        pool = list(proc.params)
        pool.extend(d.name for d in proc.locals if not d.is_array)
        pool.extend(d.name for d in self.program.globals if not d.is_array)
        return self.rng.choice(pool)

    def _scrub_calls(self, callee: str) -> None:
        for body in _walk_bodies(self.program):
            body[:] = [
                stmt
                for stmt in body
                if not (isinstance(stmt, CallStmt) and stmt.callee == callee)
            ]
        # Keep every proc body non-empty so the printed source reparses.
        for proc in self.program.procs:
            if not proc.body:
                proc.body.append(
                    Assign(target=VarRef(self._global_name()), value=IntLit(0))
                )

    # -- edit species --------------------------------------------------------

    def edit_body(self) -> str:
        proc = self.rng.choice(self.program.procs)
        if len(proc.body) > 1 and self.rng.random() < 0.4:
            proc.body.pop(self.rng.randrange(len(proc.body)))
            return "pop(%s)" % proc.name
        target = self._visible_scalar(proc)
        source = self._visible_scalar(proc)
        proc.body.append(
            Assign(
                target=VarRef(target),
                value=BinOp("+", VarRef(source), IntLit(self.rng.randrange(9))),
            )
        )
        return "append(%s: %s := %s + k)" % (proc.name, target, source)

    def add_proc(self) -> str:
        name = self._fresh("fz")
        decl = ProcDecl(
            name=name,
            params=["a0", "a1"],
            locals=[VarDecl("t0")],
            body=[
                Assign(target=VarRef("t0"), value=BinOp("+", VarRef("a0"), IntLit(1))),
                Assign(target=VarRef("a1"), value=VarRef("t0")),
                Assign(target=VarRef(self._global_name()), value=VarRef("a1")),
            ],
        )
        self.program.procs.append(decl)
        self.added.append(name)
        caller = self.rng.choice(self.program.procs[:-1])
        first = (
            VarRef(self.rng.choice(caller.params))
            if caller.params and self.rng.random() < 0.5
            else VarRef(self._global_name())
        )
        caller.body.append(CallStmt(callee=name, args=[first, VarRef(self._global_name())]))
        return "add(%s, called from %s)" % (name, caller.name)

    def delete_proc(self) -> str:
        name = self.added.pop(self.rng.randrange(len(self.added)))
        self.program.procs = [p for p in self.program.procs if p.name != name]
        self._scrub_calls(name)
        return "delete(%s)" % name

    def rewire_call(self) -> str:
        calls = [
            stmt
            for body in _walk_bodies(self.program)
            for stmt in body
            if isinstance(stmt, CallStmt)
        ]
        by_arity = {}
        for proc in self.program.procs:
            by_arity.setdefault(len(proc.params), []).append(proc.name)
        candidates = [c for c in calls if len(by_arity.get(len(c.args), [])) > 1]
        if not candidates:
            return self.edit_body()
        call = self.rng.choice(candidates)
        choices = [n for n in by_arity[len(call.args)] if n != call.callee]
        old = call.callee
        call.callee = self.rng.choice(choices)
        return "rewire(%s -> %s)" % (old, call.callee)

    def rename_formal(self) -> str:
        candidates = [p for p in self.program.procs if p.params and not p.nested]
        if not candidates:
            return self.edit_body()
        proc = self.rng.choice(candidates)
        slot = self.rng.randrange(len(proc.params))
        old = proc.params[slot]
        new = self._fresh("rf")
        proc.params[slot] = new
        _rename_in_stmts(proc.body, old, new)
        return "rename(%s.%s -> %s)" % (proc.name, old, new)

    def step(self) -> str:
        ops = [self.edit_body, self.edit_body, self.add_proc, self.rewire_call,
               self.rename_formal]
        if self.added:
            ops.append(self.delete_proc)
        return self.rng.choice(ops)()


FUZZ_CASES = [
    (GeneratorConfig(seed=11, num_procs=10, num_globals=6), 101),
    (GeneratorConfig(seed=12, num_procs=10, num_globals=6), 102),
    (GeneratorConfig(seed=13, num_procs=35, num_globals=10), 103),
    (GeneratorConfig(seed=14, num_procs=35, num_globals=10,
                     max_depth=3, nesting_prob=0.6), 104),
]


def _assert_arenas_equal(got, want, where):
    """Field-for-field equality of two arenas over the same program:
    universe masks, local rows, site and ref tables, both CSRs and both
    graphs."""
    assert got is not None and got is not want, where
    assert got.resolved is want.resolved, where
    assert got.width == want.width, where
    for field in ("size", "global_mask", "local_mask", "formal_mask",
                  "level_mask"):
        assert getattr(got.universe, field) == getattr(want.universe, field), (
            where, "universe", field)
    for field in ("imod_plain", "iuse_plain", "imod", "iuse"):
        assert getattr(got.local, field) == getattr(want.local, field), (
            where, "local", field)
    for field in ("site_caller", "site_callee", "site_lmod", "site_luse",
                  "site_ref_heads", "ref_formal_uid", "ref_base_uid",
                  "ref_formal_node", "beta_formal_pid", "beta_formal_uid"):
        assert getattr(got, field) == getattr(want, field), (where, field)
    for name in ("call_csr", "beta_csr"):
        left, right = getattr(got, name), getattr(want, name)
        assert (left.num_nodes, left.heads, left.succ, left.edge_site) == (
            right.num_nodes, right.heads, right.succ, right.edge_site
        ), (where, name)
    left, right = got.call_graph, want.call_graph
    assert left.successors == right.successors, (where, "call successors")
    assert left.predecessors == right.predecessors, (where, "call predecessors")
    assert left.edge_sites == right.edge_sites, (where, "call edge sites")
    left, right = got.binding_graph, want.binding_graph
    assert left.formals == right.formals, (where, "β formals")
    assert left.node_of_uid == right.node_of_uid, (where, "β node_of_uid")
    assert left.successors == right.successors, (where, "β successors")
    assert left.edges == right.edges, (where, "β edges")


@pytest.mark.parametrize(
    "config, seed", FUZZ_CASES,
    ids=["small-a", "small-b", "medium", "nested"],
)
def test_edit_sequence_oracle(config, seed):
    """20 random edits; after each, the chained incremental summary is
    byte-identical to from-scratch analyses by the fused solver and
    the per-kind oracle, and its alias tables (carried, remapped or
    re-derived) equal the pair-set oracle's.

    Each step also runs the restarted daemon's path: the predecessor's
    index through ``index_to_bytes`` → ``index_from_bytes``, then
    :func:`incremental_update_from_index` on it.  That update must meet
    the same oracles and report the same statistics, apart from
    ``index_reloaded``."""
    fuzzer = EditFuzzer(config, seed)
    summary = analyze_side_effects(pretty(fuzzer.program))
    for step in range(20):
        op = fuzzer.step()
        source = pretty(fuzzer.program)
        previous = summary
        summary, stats = incremental_update(previous, compile_source(source))
        reloaded, reloaded_stats = incremental_update_from_index(
            index_from_bytes(index_to_bytes(previous.dep_index)),
            compile_source(source),
            reloaded=True,
        )
        context = "step %d (%s), config seed %d, fuzz seed %d" % (
            step, op, config.seed, seed)
        for path, updated in (("live", summary), ("reloaded", reloaded)):
            _assert_arenas_equal(
                peek_arena(updated.resolved), ProgramArena(updated.resolved),
                "%s update's arena, %s" % (path, context),
            )
        fused = summary_to_bytes(analyze_side_effects(source))
        legacy = summary_to_bytes(analyze_per_kind(compile_source(source)))
        for path, updated in (("live", summary), ("reloaded", reloaded)):
            where = "%s update, %s" % (path, context)
            got = summary_to_bytes(updated)
            assert got == fused, "fused-path divergence at " + where
            assert got == legacy, "legacy-path divergence at " + where
            oracle = compute_alias_pairs(updated.resolved, updated.universe)
            assert updated.aliases.partner_mask == oracle.partner_mask, where
            assert updated.aliases.domain_mask == oracle.domain_mask, where
        assert stats.total_procs == summary.resolved.num_procs
        assert not stats.full_resolve and not reloaded_stats.full_resolve
        assert reloaded_stats.index_reloaded and not stats.index_reloaded
        reloaded_stats.index_reloaded = False
        assert reloaded_stats == stats, context


def _lowering_case(index, summary) -> str:
    """How an update lowered its arena: ``fresh`` when the uid or pid
    space moved (nothing to patch against), ``kept`` when every site's
    caller, callee and by-reference rows survived from the donor index,
    else ``rewalked`` (site ids shifted or an edited call was rebound)."""
    resolved = summary.resolved
    if index.var_names != [v.qualified_name for v in resolved.variables] or (
        index.proc_names != [p.qualified_name for p in resolved.procs]
    ):
        return "fresh"
    arena = peek_arena(resolved)
    rows = ("site_caller", "site_callee", "site_ref_heads", "ref_formal_uid",
            "ref_base_uid")
    if all(getattr(arena, row) == getattr(index, row) for row in rows):
        return "kept"
    return "rewalked"


def test_edit_sequences_exercise_every_lowering_case():
    """The 80 live steps of the four fuzz sequences reach every way an
    update lowers its arena, so the per-step arena check above covers
    all of them."""
    counts = {"fresh": 0, "kept": 0, "rewalked": 0}
    for config, seed in FUZZ_CASES:
        fuzzer = EditFuzzer(config, seed)
        summary = analyze_side_effects(pretty(fuzzer.program))
        for _ in range(20):
            fuzzer.step()
            previous = summary
            summary, _stats = incremental_update(
                previous, compile_source(pretty(fuzzer.program)))
            counts[_lowering_case(previous.dep_index, summary)] += 1
    assert counts == {"fresh": 36, "kept": 18, "rewalked": 26}, counts


def test_fuzzer_is_reproducible():
    config, seed = FUZZ_CASES[0]
    runs = []
    for _ in range(2):
        fuzzer = EditFuzzer(config, seed)
        ops = [fuzzer.step() for _ in range(20)]
        runs.append((ops, pretty(fuzzer.program)))
    assert runs[0] == runs[1]


class TestInvalidationSoundness:
    """The recorded invalidation region must cover every procedure
    whose published facts actually changed — reuse is only sound if
    nothing outside the region moved."""

    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
    def test_affected_names_cover_changed_facts(self, seed):
        config = GeneratorConfig(seed=seed, num_procs=25, num_globals=8)
        fuzzer = EditFuzzer(config, seed * 7)
        old = analyze_side_effects(pretty(fuzzer.program))
        old_procs = summary_to_dict(old)["procedures"]
        fuzzer.step()
        summary, stats = incremental_update(
            old, compile_source(pretty(fuzzer.program)))
        new_procs = summary_to_dict(summary)["procedures"]
        changed = {
            name
            for name in new_procs
            if old_procs.get(name) != new_procs[name]
        }
        region = set(stats.affected_names) | set(stats.dirty_procs)
        assert changed <= region, (
            "facts changed outside the invalidation region: %s"
            % sorted(changed - region))
