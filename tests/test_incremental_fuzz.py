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
from repro.core.incremental import incremental_update
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


@pytest.mark.parametrize(
    "config, seed", FUZZ_CASES,
    ids=["small-a", "small-b", "medium", "nested"],
)
def test_edit_sequence_oracle(config, seed):
    """20 random edits; after each, the chained incremental summary is
    byte-identical to from-scratch analyses by the fused solver and
    the per-kind oracle, and its alias tables (carried, remapped or
    re-derived) equal the pair-set oracle's."""
    fuzzer = EditFuzzer(config, seed)
    summary = analyze_side_effects(pretty(fuzzer.program))
    for step in range(20):
        op = fuzzer.step()
        source = pretty(fuzzer.program)
        summary, stats = incremental_update(summary, compile_source(source))
        got = summary_to_bytes(summary)
        fused = summary_to_bytes(analyze_side_effects(source))
        legacy = summary_to_bytes(analyze_per_kind(compile_source(source)))
        context = "step %d (%s), config seed %d, fuzz seed %d" % (
            step, op, config.seed, seed)
        assert got == fused, "fused-path divergence at " + context
        assert got == legacy, "legacy-path divergence at " + context
        oracle = compute_alias_pairs(summary.resolved, summary.universe)
        assert summary.aliases.partner_mask == oracle.partner_mask, context
        assert summary.aliases.domain_mask == oracle.domain_mask, context
        assert stats.total_procs == summary.resolved.num_procs


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
