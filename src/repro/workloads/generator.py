"""Random CK program generator.

Generates semantically valid programs whose structural parameters are
the ones the paper's complexity claims are stated in:

* ``num_procs`` → ``N_C`` (plus one for main);
* ``calls_per_proc`` → ``E_C ≈ N_C · calls_per_proc``;
* ``formals_range`` → ``µ_f`` (and ``c_P``, the per-procedure maximum);
* argument-kind probabilities → ``µ_a`` and the density of β edges;
* ``max_depth`` / ``nesting_prob`` → ``d_P``;
* ``allow_recursion`` → whether the call multi-graph has cycles.

Every generated program is closed under the front end's rules: all
names resolve, all arities match, all call targets are lexically
visible, and (when ``ensure_reachable`` is set) every procedure is
reachable from main — the precondition Section 3.3 assumes.

Generation is deterministic in ``seed``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.nodes import (
    Assign,
    BinOp,
    CallStmt,
    Expr,
    If,
    IntLit,
    ProcDecl,
    Program,
    Stmt,
    VarDecl,
    VarRef,
    While,
)
from repro.lang.semantic import analyze
from repro.lang.symbols import ResolvedProgram


@dataclass
class GeneratorConfig:
    """Tunable structure for :func:`generate_program`."""

    seed: int = 0
    num_procs: int = 20
    num_globals: int = 8
    #: Maximum procedure nesting level (1 = flat, C/Fortran-style).
    max_depth: int = 1
    #: Probability that a procedure nests inside an earlier procedure
    #: (only meaningful when max_depth > 1).
    nesting_prob: float = 0.5
    formals_range: Tuple[int, int] = (1, 4)
    locals_range: Tuple[int, int] = (0, 2)
    calls_per_proc_range: Tuple[int, int] = (1, 3)
    #: Actual-argument kind probabilities; the remainder is a by-value
    #: constant.  prob_arg_formal controls the density of β edges.
    prob_arg_formal: float = 0.45
    prob_arg_global: float = 0.2
    prob_arg_local: float = 0.2
    #: Probability that each formal is assigned somewhere in its body
    #: (seeds IMOD on β nodes).
    prob_modify_formal: float = 0.35
    #: Expected number of distinct globals assigned per procedure.
    globals_modified_per_proc: float = 1.0
    #: Probability that each local is assigned in the body.
    prob_modify_local: float = 0.5
    #: Allow cyclic call structure (recursion / mutual recursion).
    allow_recursion: bool = True
    #: Probability that a call targets a proc that may close a cycle
    #: (any visible proc) instead of a strictly later one.
    recursion_prob: float = 0.3
    #: Wrap some statements in `if`/`while` for interpreter realism.
    control_flow_prob: float = 0.25
    #: Add calls so every procedure is reachable from main.
    ensure_reachable: bool = True
    #: Fraction of globals declared as (small 2-D) arrays.
    array_global_fraction: float = 0.0
    #: Large-scale mode: pick callees by preferential attachment so
    #: the call multi-graph is scale-free (a few hub procedures with
    #: high in-degree, a long tail of leaves) — the realistic shape
    #: for 1k–50k-procedure programs.  Only applies to flat programs
    #: (``max_depth == 1``); nested structure falls back to the
    #: uniform picker.
    scale_free: bool = False


@dataclass
class _ProcInfo:
    index: int
    name: str
    decl: ProcDecl
    parent: Optional["_ProcInfo"]
    depth: int  # Nesting level (1 for top-level).
    formals: List[str] = field(default_factory=list)
    locals: List[str] = field(default_factory=list)
    children: List["_ProcInfo"] = field(default_factory=list)

    def chain(self) -> List["_ProcInfo"]:
        node, out = self, []
        while node is not None:
            out.append(node)
            node = node.parent
        return out


class _Runs:
    """List suffixes ``items[start:]`` read in place as one sequence:
    ``random.choice`` reads only ``len`` and one index, so a pick draws
    the RNG exactly as a pick from the concatenated copy would."""

    def __init__(self, runs: Sequence[Tuple[list, int]]):
        self.runs = runs
        self.length = sum(len(items) - start for items, start in runs)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int):
        for items, start in self.runs:
            if index < len(items) - start:
                return items[start + index]
            index -= len(items) - start
        raise IndexError(index)


class _Generator:
    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.globals: List[VarDecl] = []
        self.procs: List[_ProcInfo] = []
        #: Preferential-attachment pool for scale-free mode: each proc
        #: index appears once per incoming call plus once at birth, so
        #: sampling the list uniformly is degree-proportional in O(1).
        self._attachment: List[int] = []
        #: Built once the structure is: the scalar global names and the
        #: top-level procedures.
        self._scalars: List[str] = []
        self._top: List[_ProcInfo] = []

    # -- structure ------------------------------------------------------------

    def build_structure(self) -> None:
        config = self.config
        for index in range(config.num_globals):
            if self.rng.random() < config.array_global_fraction:
                self.globals.append(VarDecl(name="g%d" % index, dims=(8, 8)))
            else:
                self.globals.append(VarDecl(name="g%d" % index))

        # The procedures so far that may take a nested one.
        candidates: List[_ProcInfo] = []
        for index in range(config.num_procs):
            parent: Optional[_ProcInfo] = None
            if (
                config.max_depth > 1
                and self.procs
                and self.rng.random() < config.nesting_prob
            ):
                if candidates:
                    parent = self.rng.choice(candidates)
            depth = 1 if parent is None else parent.depth + 1
            decl = ProcDecl(name="p%d" % index)
            info = _ProcInfo(index=index, name=decl.name, decl=decl, parent=parent, depth=depth)
            num_formals = self.rng.randint(*config.formals_range)
            for position in range(num_formals):
                formal = "f%d" % position
                decl.params.append(formal)
                info.formals.append(formal)
            num_locals = self.rng.randint(*config.locals_range)
            for position in range(num_locals):
                local = "v%d" % position
                decl.locals.append(VarDecl(name=local))
                info.locals.append(local)
            if parent is None:
                pass  # Attached to the Program at assembly time.
            else:
                parent.decl.nested.append(decl)
                parent.children.append(info)
            self.procs.append(info)
            if depth < config.max_depth:
                candidates.append(info)
        self._scalars = [g.name for g in self.globals if not g.is_array]
        self._top = [p for p in self.procs if p.parent is None]

    def visible_procs(self, info: Optional[_ProcInfo]) -> _Runs:
        """Call targets lexically visible from ``info`` (None = main):
        its children, then the siblings of each procedure on its lexical
        chain, each list in index order."""
        if info is None:
            return _Runs([(self._top, 0)])
        lists = [info.children]
        node: Optional[_ProcInfo] = info
        while node is not None:
            lists.append(node.parent.children if node.parent else self._top)
            node = node.parent
        return _Runs([(procs, 0) for procs in lists])

    @staticmethod
    def later_procs(visible: _Runs, caller_index: int) -> _Runs:
        """The visible procedures with an index past ``caller_index``,
        in order: a suffix of each list."""
        return _Runs([
            (procs, bisect_right(procs, caller_index, key=attrgetter("index")))
            for procs, _start in visible.runs
        ])

    # -- expressions / arguments -----------------------------------------------

    def pick_argument(self, caller: Optional[_ProcInfo]) -> Expr:
        """An actual argument for a call made from ``caller``."""
        config = self.config
        roll = self.rng.random()
        if caller is not None:
            # Visible formals: caller's own and its lexical ancestors'
            # (the §3.3 cross-nest binding case).
            visible_formals = []
            for node in caller.chain():
                visible_formals.extend(node.formals)
            if roll < config.prob_arg_formal and visible_formals:
                return VarRef(self.rng.choice(visible_formals))
            roll -= config.prob_arg_formal
            if roll < config.prob_arg_local and caller.locals:
                return VarRef(self.rng.choice(caller.locals))
            roll -= config.prob_arg_local
        scalars = self._scalars
        if roll < config.prob_arg_global and scalars:
            return VarRef(self.rng.choice(scalars))
        return IntLit(self.rng.randint(0, 9))

    def simple_rhs(self, caller: Optional[_ProcInfo]) -> Expr:
        """A small arithmetic right-hand side over visible scalars."""
        runs = [] if caller is None else [(caller.formals, 0), (caller.locals, 0)]
        names = _Runs(runs + [(self._scalars, 0)])
        if names and self.rng.random() < 0.7:
            base: Expr = VarRef(self.rng.choice(names))
            if self.rng.random() < 0.5:
                return BinOp("+", base, IntLit(self.rng.randint(0, 3)))
            return base
        return IntLit(self.rng.randint(0, 9))

    # -- bodies ------------------------------------------------------------------

    def make_call(self, caller: Optional[_ProcInfo], callee: _ProcInfo) -> CallStmt:
        args = [self.pick_argument(caller) for _ in callee.formals]
        return CallStmt(callee=callee.name, args=args)

    def pick_callees_scale_free(self, caller: Optional[_ProcInfo]) -> List[_ProcInfo]:
        """Preferential attachment: each call targets an *earlier* proc
        with probability proportional to its in-degree (plus one), so
        hubs emerge and — recursion rolls aside — the graph stays
        acyclic by construction.  Flat programs only: every top-level
        proc is visible to every other, so any earlier index is a
        legal lexical target."""
        config, rng = self.config, self.rng
        count = rng.randint(*config.calls_per_proc_range)
        caller_index = -1 if caller is None else caller.index
        visible = self.visible_procs(caller)
        callees: List[_ProcInfo] = []
        for _ in range(count):
            if config.allow_recursion and rng.random() < config.recursion_prob:
                callees.append(rng.choice(visible))
                continue
            pick: Optional[int] = None
            pool = self._attachment
            if pool and caller_index > 0:
                for _attempt in range(4):
                    candidate = pool[rng.randrange(len(pool))]
                    if candidate < caller_index:
                        pick = candidate
                        break
            if pick is None:
                later = self.later_procs(visible, caller_index)
                if later:
                    callees.append(rng.choice(later))
                elif config.allow_recursion:
                    callees.append(rng.choice(visible))
                continue
            callees.append(self.procs[pick])
        for callee in callees:
            self._attachment.append(callee.index)
        return callees

    def pick_callees(self, caller: Optional[_ProcInfo]) -> List[_ProcInfo]:
        config = self.config
        if config.scale_free and config.max_depth == 1:
            return self.pick_callees_scale_free(caller)
        visible = self.visible_procs(caller)
        if not visible:
            return []
        count = self.rng.randint(*config.calls_per_proc_range)
        callees = []
        caller_index = -1 if caller is None else caller.index
        for _ in range(count):
            if config.allow_recursion and self.rng.random() < config.recursion_prob:
                callees.append(self.rng.choice(visible))
            else:
                later = self.later_procs(visible, caller_index)
                if later:
                    callees.append(self.rng.choice(later))
                elif config.allow_recursion:
                    callees.append(self.rng.choice(visible))
        return callees

    def wrap_control_flow(self, statements: List[Stmt],
                          caller: Optional[_ProcInfo]) -> List[Stmt]:
        """Occasionally nest statements inside `if` (never `while`, to
        keep generated programs terminating under the interpreter)."""
        out: List[Stmt] = []
        for stmt in statements:
            if self.rng.random() < self.config.control_flow_prob:
                cond = BinOp("<", self.simple_rhs(caller), IntLit(self.rng.randint(1, 9)))
                out.append(If(cond=cond, then_body=[stmt]))
            else:
                out.append(stmt)
        return out

    def fill_body(self, info: _ProcInfo) -> None:
        config = self.config
        statements: List[Stmt] = []
        for formal in info.formals:
            if self.rng.random() < config.prob_modify_formal:
                statements.append(Assign(target=VarRef(formal), value=self.simple_rhs(info)))
        for local in info.locals:
            if self.rng.random() < config.prob_modify_local:
                statements.append(Assign(target=VarRef(local), value=self.simple_rhs(info)))
        scalars = self._scalars
        if scalars:
            expected = config.globals_modified_per_proc
            count = int(expected)
            if self.rng.random() < expected - count:
                count += 1
            for name in self.rng.sample(scalars, min(count, len(scalars))):
                statements.append(Assign(target=VarRef(name), value=self.simple_rhs(info)))
        for callee in self.pick_callees(info):
            statements.append(self.make_call(info, callee))
        info.decl.body = self.wrap_control_flow(statements, info)
        # Birth occurrence: once filled, the proc is a (unit-weight)
        # attachment target for every later proc in scale-free mode.
        self._attachment.append(info.index)

    # -- assembly ---------------------------------------------------------------

    def ensure_reachability(self, program: Program) -> None:
        """Add a direct parent→child call for every procedure not
        reachable from main, so the Section 3.3 precondition holds.

        Reachability is computed for real (a procedure called only by
        itself or by other unreachable procedures is unreachable);
        processing in declaration order makes each parent reachable
        before its children are examined.
        """
        by_name = {info.name: info for info in self.procs}
        callees_of: Dict[str, List[str]] = {info.name: [] for info in self.procs}
        main_callees: List[str] = []

        def scan(body: List[Stmt], out: List[str]) -> None:
            for stmt in body:
                if isinstance(stmt, CallStmt):
                    out.append(stmt.callee)
                elif isinstance(stmt, If):
                    scan(stmt.then_body, out)
                    scan(stmt.else_body, out)
                elif isinstance(stmt, While):
                    scan(stmt.body, out)

        scan(program.body, main_callees)
        for info in self.procs:
            scan(info.decl.body, callees_of[info.name])

        reachable: set = set()

        def grow(names: List[str]) -> None:
            stack = list(names)
            while stack:
                name = stack.pop()
                if name in reachable:
                    continue
                reachable.add(name)
                stack.extend(callees_of[name])

        grow(main_callees)
        for info in self.procs:
            if info.name in reachable:
                continue
            target_body = info.parent.decl.body if info.parent else program.body
            caller = info.parent  # None means main; parents are already
            # reachable here (smaller index, handled earlier).
            target_body.append(self.make_call(caller, info))
            grow([info.name])

    def generate(self) -> Program:
        self.build_structure()
        for info in self.procs:
            self.fill_body(info)
        program = Program(name="generated")
        program.globals = self.globals
        program.procs = [info.decl for info in self.procs if info.parent is None]
        main_statements: List[Stmt] = []
        scalars = self._scalars
        for name in scalars[: min(3, len(scalars))]:
            main_statements.append(
                Assign(target=VarRef(name), value=IntLit(self.rng.randint(1, 9)))
            )
        for callee in self.pick_callees(None):
            main_statements.append(self.make_call(None, callee))
        program.body = main_statements
        self.ensure_reachability(program)
        return program


def large_scale_config(
    num_procs: int,
    seed: int = 0,
    num_globals: Optional[int] = None,
    calls_per_proc_range: Tuple[int, int] = (2, 5),
    locals_range: Tuple[int, int] = (0, 1),
) -> GeneratorConfig:
    """A scale-free, flat configuration for 1k–50k-procedure programs.

    The shape the large-scale benchmarks and ``profile`` use: wide
    variable universe (many globals → long bit vectors), dense
    scale-free call structure, a pinch of recursion so the solvers see
    nontrivial SCCs, and no control
    flow (it is irrelevant to the side-effect problems but expensive
    to generate at this size).
    """
    if num_procs < 1:
        raise ValueError("num_procs must be >= 1, got %d" % num_procs)
    if num_globals is None:
        num_globals = max(64, num_procs // 5)
    return GeneratorConfig(
        seed=seed,
        num_procs=num_procs,
        num_globals=num_globals,
        max_depth=1,
        scale_free=True,
        formals_range=(1, 3),
        locals_range=locals_range,
        calls_per_proc_range=calls_per_proc_range,
        globals_modified_per_proc=1.5,
        allow_recursion=True,
        recursion_prob=0.05,
        control_flow_prob=0.0,
    )


def generate_program(config: GeneratorConfig) -> Program:
    """Generate a raw (unresolved) random program."""
    return _Generator(config).generate()


def generate_resolved(config: GeneratorConfig) -> ResolvedProgram:
    """Generate and run semantic analysis in one step."""
    return analyze(generate_program(config))
