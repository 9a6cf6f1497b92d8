"""Tracing interpreter for CK programs.

The interpreter is the *dynamic soundness oracle* for the side-effect
analysis: every scalar cell and array carries read/write epochs, and
around each executed call the interpreter snapshots which variables
visible in the caller were touched during the callee's execution.  The
resulting per-call-site observed ``MOD``/``USE`` sets must be subsets of
the statically computed ones — the property the fuzz tests check.

By-reference semantics match the analysis model: a bare variable actual
binds the formal to the caller's storage; a subscripted actual binds to
an element view of the caller's array; any other expression is passed
by value into a fresh cell (no side-effect channel).

Execution is budgeted (``max_steps``, ``max_depth``).  Exhausting a
budget or hitting a runtime fault does not raise — the
:class:`TraceResult` records the outcome, and effects observed up to
the stop are still valid observations (they occurred on a genuine
execution prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.lang.errors import RuntimeCkError
from repro.lang.nodes import (
    Assign,
    BinOp,
    CallStmt,
    Expr,
    For,
    If,
    IntLit,
    Print,
    Read,
    Return,
    Stmt,
    UnOp,
    VarRef,
    While,
)
from repro.lang.symbols import CallSite, ProcSymbol, ResolvedProgram, VarSymbol


class _Halt(Exception):
    """Internal: stop execution (budget exhausted or runtime fault)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _ReturnSignal(Exception):
    """Internal: unwind to the current procedure-body boundary."""


class Cell:
    """A scalar storage location with read/write epoch stamps."""

    __slots__ = ("value", "write_epoch", "read_epoch")

    def __init__(self, value: int = 0):
        self.value = value
        self.write_epoch = 0
        self.read_epoch = 0

    def load(self, epoch: int) -> int:
        self.read_epoch = epoch
        return self.value

    def store(self, value: int, epoch: int) -> None:
        self.value = value
        self.write_epoch = epoch

    def touched_since(self, epoch: int) -> bool:
        return self.write_epoch > epoch

    def read_since(self, epoch: int) -> bool:
        return self.read_epoch > epoch


class ArrayValue:
    """An array with whole-object read/write epoch stamps plus
    per-element write/read epochs (the §6 element-level oracle)."""

    __slots__ = ("dims", "data", "write_epoch", "read_epoch",
                 "element_write_epoch", "element_read_epoch")

    def __init__(self, dims: Sequence[int]):
        self.dims = tuple(dims)
        size = 1
        for dim in self.dims:
            size *= dim
        self.data = [0] * size
        self.write_epoch = 0
        self.read_epoch = 0
        self.element_write_epoch: Dict[int, int] = {}
        self.element_read_epoch: Dict[int, int] = {}

    def flat_index(self, indices: Sequence[int]) -> int:
        if len(indices) != len(self.dims):
            raise RuntimeCkError(
                "array of rank %d subscripted with %d indices"
                % (len(self.dims), len(indices))
            )
        flat = 0
        for index, dim in zip(indices, self.dims):
            if not 0 <= index < dim:
                raise RuntimeCkError(
                    "subscript %d out of range [0, %d)" % (index, dim)
                )
            flat = flat * dim + index
        return flat

    def load(self, indices: Sequence[int], epoch: int) -> int:
        self.read_epoch = epoch
        flat = self.flat_index(indices)
        self.element_read_epoch[flat] = epoch
        return self.data[flat]

    def store(self, indices: Sequence[int], value: int, epoch: int) -> None:
        self.write_epoch = epoch
        flat = self.flat_index(indices)
        self.element_write_epoch[flat] = epoch
        self.data[flat] = value

    def touched_since(self, epoch: int) -> bool:
        return self.write_epoch > epoch

    def read_since(self, epoch: int) -> bool:
        return self.read_epoch > epoch

    def unflatten(self, flat: int) -> tuple:
        """Invert :meth:`flat_index`."""
        indices = []
        for dim in reversed(self.dims):
            indices.append(flat % dim)
            flat //= dim
        return tuple(reversed(indices))

    def elements_written_since(self, epoch: int):
        """Multi-indices of elements written after ``epoch``."""
        return [
            self.unflatten(flat)
            for flat, stamp in self.element_write_epoch.items()
            if stamp > epoch
        ]

    def elements_read_since(self, epoch: int):
        return [
            self.unflatten(flat)
            for flat, stamp in self.element_read_epoch.items()
            if stamp > epoch
        ]


class ElementRef:
    """A scalar view of one array element (a subscripted actual)."""

    __slots__ = ("array", "flat")

    def __init__(self, array: ArrayValue, flat: int):
        self.array = array
        self.flat = flat

    def load(self, epoch: int) -> int:
        self.array.read_epoch = epoch
        self.array.element_read_epoch[self.flat] = epoch
        return self.array.data[self.flat]

    def store(self, value: int, epoch: int) -> None:
        self.array.write_epoch = epoch
        self.array.element_write_epoch[self.flat] = epoch
        self.array.data[self.flat] = value

    def touched_since(self, epoch: int) -> bool:
        return self.array.write_epoch > epoch

    def read_since(self, epoch: int) -> bool:
        return self.array.read_epoch > epoch


class _Activation:
    """One procedure activation: storage map plus the static link."""

    __slots__ = ("proc", "env", "access_link")

    def __init__(self, proc: ProcSymbol, access_link: Optional["_Activation"]):
        self.proc = proc
        self.env: Dict[VarSymbol, object] = {}
        self.access_link = access_link

    def resolve(self, symbol: VarSymbol) -> object:
        """Find the storage for ``symbol`` via the static-link chain."""
        activation: Optional[_Activation] = self
        while activation is not None:
            if activation.proc is symbol.proc:
                return activation.env[symbol]
            activation = activation.access_link
        raise RuntimeCkError("no activation holds %s" % symbol.qualified_name)


@dataclass(frozen=True)
class ElementObservation:
    """One array element touched during one execution of a call site.

    ``entry_values`` holds the scalar value each formal received at the
    observed call (``None`` for array bindings) — what a regular
    section's symbolic ``FORMAL`` subscripts concretise to for this
    occurrence.
    """

    site_id: int
    symbol: VarSymbol
    indices: tuple
    kind: str  # "mod" or "use".
    entry_values: tuple


@dataclass
class TraceResult:
    """Everything observed during one program execution."""

    completed: bool
    reason: str
    steps: int
    output: List[int]
    #: site_id -> variables visible in the caller observed modified by the call.
    observed_mod: Dict[int, Set[VarSymbol]]
    #: site_id -> variables visible in the caller observed used by the call.
    observed_use: Dict[int, Set[VarSymbol]]
    #: site_id -> number of times the site was executed.
    call_counts: Dict[int, int] = field(default_factory=dict)
    #: Element-level MOD/USE observations (the §6 oracle).
    element_observations: List[ElementObservation] = field(default_factory=list)


class Interpreter:
    """Executes a resolved CK program with side-effect tracing.

    Parameters
    ----------
    resolved:
        The program, after semantic analysis.
    inputs:
        Values consumed by ``read`` statements; 0 once exhausted.
    max_steps / max_depth:
        Execution budgets; exceeding one stops the run gracefully.
    trace_calls:
        Set to False to skip the per-call visibility snapshots (faster;
        used by benchmarks that only need the final state).
    """

    def __init__(
        self,
        resolved: ResolvedProgram,
        inputs: Optional[Sequence[int]] = None,
        max_steps: int = 100_000,
        max_depth: int = 200,
        trace_calls: bool = True,
        element_trace_limit: int = 200_000,
    ):
        self.resolved = resolved
        self.inputs = list(inputs or [])
        self.input_pos = 0
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.trace_calls = trace_calls
        self.element_trace_limit = element_trace_limit
        self.steps = 0
        self.epoch = 1
        self.depth = 0
        self.output: List[int] = []
        self.observed_mod: Dict[int, Set[VarSymbol]] = {}
        self.observed_use: Dict[int, Set[VarSymbol]] = {}
        self.call_counts: Dict[int, int] = {}
        self.element_observations: List[ElementObservation] = []
        self.sites_by_id = {site.site_id: site for site in resolved.call_sites}
        # Visible-variable lists per caller are snapshotted around calls;
        # cache them since they never change.
        self._visible_cache: Dict[int, List[VarSymbol]] = {}

    # -- bookkeeping ----------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise _Halt("step budget exhausted")

    def _next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch

    def _visible(self, proc: ProcSymbol) -> List[VarSymbol]:
        cached = self._visible_cache.get(proc.pid)
        if cached is None:
            cached = list(self.resolved.visible_variables(proc).values())
            self._visible_cache[proc.pid] = cached
        return cached

    def _extant_snapshot(self, activation: _Activation) -> List[tuple]:
        """Every (symbol, storage) whose instance is live in the given
        activation: the whole static-link chain, not just the nameable
        set — an inner declaration shadows an outer *name*, but the
        outer instance can still be modified through aliases, and the
        soundness oracle must observe that."""
        snapshot = []
        link: Optional[_Activation] = activation
        while link is not None:
            snapshot.extend(link.env.items())
            link = link.access_link
        return snapshot

    def _fresh_storage(self, symbol: VarSymbol) -> object:
        if symbol.is_array:
            return ArrayValue(symbol.dims)
        return Cell(0)

    # -- expression evaluation ---------------------------------------------------

    def _eval(self, expr: Expr, activation: _Activation) -> int:
        self._tick()
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, VarRef):
            return self._load(expr, activation)
        if isinstance(expr, BinOp):
            if expr.op == "and":
                left = self._eval(expr.left, activation)
                if left == 0:
                    return 0
                return 1 if self._eval(expr.right, activation) != 0 else 0
            if expr.op == "or":
                left = self._eval(expr.left, activation)
                if left != 0:
                    return 1
                return 1 if self._eval(expr.right, activation) != 0 else 0
            left = self._eval(expr.left, activation)
            right = self._eval(expr.right, activation)
            return self._apply(expr.op, left, right)
        if isinstance(expr, UnOp):
            operand = self._eval(expr.operand, activation)
            if expr.op == "-":
                return -operand
            if expr.op == "not":
                return 1 if operand == 0 else 0
            raise RuntimeCkError("unknown unary operator %r" % expr.op)
        raise RuntimeCkError("unknown expression node %r" % (expr,))

    def _apply(self, op: str, left: int, right: int) -> int:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op in ("/", "div"):
            if right == 0:
                raise _Halt("division by zero")
            return left // right
        if op == "mod":
            if right == 0:
                raise _Halt("modulo by zero")
            return left % right
        if op == "=":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        raise RuntimeCkError("unknown operator %r" % op)

    def _load(self, ref: VarRef, activation: _Activation) -> int:
        storage = activation.resolve(ref.symbol)
        epoch = self._next_epoch()
        if ref.indices:
            indices = [self._eval(index, activation) for index in ref.indices]
            if not isinstance(storage, ArrayValue):
                raise _Halt("subscripting a non-array value %r" % ref.name)
            try:
                return storage.load(indices, epoch)
            except RuntimeCkError as exc:
                raise _Halt(exc.message)
        if isinstance(storage, (Cell, ElementRef)):
            return storage.load(epoch)
        raise _Halt("array %r used where a scalar is required" % ref.name)

    def _store(self, ref: VarRef, value: int, activation: _Activation) -> None:
        storage = activation.resolve(ref.symbol)
        epoch = self._next_epoch()
        if ref.indices:
            indices = [self._eval(index, activation) for index in ref.indices]
            if not isinstance(storage, ArrayValue):
                raise _Halt("subscripting a non-array value %r" % ref.name)
            try:
                storage.store(indices, value, epoch)
            except RuntimeCkError as exc:
                raise _Halt(exc.message)
            return
        if isinstance(storage, (Cell, ElementRef)):
            storage.store(value, epoch)
            return
        raise _Halt("cannot assign to whole array %r" % ref.name)

    # -- statement execution -------------------------------------------------------

    def _exec_body(self, body: List[Stmt], activation: _Activation) -> None:
        for stmt in body:
            self._exec(stmt, activation)

    def _exec(self, stmt: Stmt, activation: _Activation) -> None:
        self._tick()
        if isinstance(stmt, Assign):
            value = self._eval(stmt.value, activation)
            self._store(stmt.target, value, activation)
        elif isinstance(stmt, CallStmt):
            self._exec_call(stmt, activation)
        elif isinstance(stmt, If):
            if self._eval(stmt.cond, activation) != 0:
                self._exec_body(stmt.then_body, activation)
            else:
                self._exec_body(stmt.else_body, activation)
        elif isinstance(stmt, While):
            while self._eval(stmt.cond, activation) != 0:
                self._exec_body(stmt.body, activation)
        elif isinstance(stmt, For):
            lo = self._eval(stmt.lo, activation)
            hi = self._eval(stmt.hi, activation)
            counter = lo
            while counter <= hi:
                self._store(stmt.var, counter, activation)
                self._exec_body(stmt.body, activation)
                counter += 1
        elif isinstance(stmt, Return):
            raise _ReturnSignal()
        elif isinstance(stmt, Read):
            if self.input_pos < len(self.inputs):
                value = self.inputs[self.input_pos]
                self.input_pos += 1
            else:
                value = 0
            self._store(stmt.target, value, activation)
        elif isinstance(stmt, Print):
            for expr in stmt.values:
                self.output.append(self._eval(expr, activation))
        else:
            raise RuntimeCkError("unknown statement node %r" % (stmt,))

    # -- calls -------------------------------------------------------------------

    def _bind_argument(self, arg: Expr, activation: _Activation) -> object:
        """Produce the storage a formal gets bound to for actual ``arg``."""
        if isinstance(arg, VarRef):
            storage = activation.resolve(arg.symbol)
            if arg.indices:
                indices = [self._eval(index, activation) for index in arg.indices]
                if not isinstance(storage, ArrayValue):
                    raise _Halt("subscripting a non-array value %r" % arg.name)
                try:
                    flat = storage.flat_index(indices)
                except RuntimeCkError as exc:
                    raise _Halt(exc.message)
                return ElementRef(storage, flat)
            return storage
        value = self._eval(arg, activation)
        return Cell(value)

    def _static_link(self, callee: ProcSymbol, activation: _Activation) -> Optional[_Activation]:
        """The activation of the callee's lexical parent, via the
        caller's static-link chain (standard nested-procedure display
        discipline)."""
        link: Optional[_Activation] = activation
        while link is not None:
            if link.proc is callee.parent:
                return link
            link = link.access_link
        raise RuntimeCkError(
            "no activation of %s (lexical parent of %s) on static chain"
            % (callee.parent.qualified_name, callee.qualified_name)
        )

    def _exec_call(self, stmt: CallStmt, activation: _Activation) -> None:
        callee: ProcSymbol = stmt.proc
        self.depth += 1
        if self.depth > self.max_depth:
            self.depth -= 1
            raise _Halt("call depth budget exhausted")
        try:
            # Evaluate argument storages in the caller before
            # snapshotting, so argument evaluation itself is not
            # attributed to the callee.
            storages = [self._bind_argument(arg, activation) for arg in stmt.args]
            snapshot = None
            epoch0 = 0
            if self.trace_calls:
                snapshot = self._extant_snapshot(activation)
                epoch0 = self.epoch
                self.call_counts[stmt.site_id] = self.call_counts.get(stmt.site_id, 0) + 1
            callee_activation = _Activation(callee, self._static_link(callee, activation))
            for formal, storage in zip(callee.formals, storages):
                callee_activation.env[formal] = storage
            for local in callee.locals:
                callee_activation.env[local] = self._fresh_storage(local)
            entry_values = None
            if snapshot is not None:
                entry_values = tuple(
                    storage.array.data[storage.flat]
                    if isinstance(storage, ElementRef)
                    else (storage.value if isinstance(storage, Cell) else None)
                    for storage in storages
                )
            try:
                self._exec_body(self.resolved.body_of(callee), callee_activation)
            except _ReturnSignal:
                pass
            finally:
                # Record what was touched even if the callee halted.
                if snapshot is not None:
                    mods = self.observed_mod.setdefault(stmt.site_id, set())
                    uses = self.observed_use.setdefault(stmt.site_id, set())
                    for symbol, storage in snapshot:
                        if storage.touched_since(epoch0):
                            mods.add(symbol)
                        if storage.read_since(epoch0):
                            uses.add(symbol)
                        if (
                            isinstance(storage, ArrayValue)
                            and len(self.element_observations)
                            < self.element_trace_limit
                        ):
                            for indices in storage.elements_written_since(epoch0):
                                self.element_observations.append(
                                    ElementObservation(
                                        site_id=stmt.site_id,
                                        symbol=symbol,
                                        indices=indices,
                                        kind="mod",
                                        entry_values=entry_values,
                                    )
                                )
                            for indices in storage.elements_read_since(epoch0):
                                self.element_observations.append(
                                    ElementObservation(
                                        site_id=stmt.site_id,
                                        symbol=symbol,
                                        indices=indices,
                                        kind="use",
                                        entry_values=entry_values,
                                    )
                                )
        finally:
            self.depth -= 1

    # -- driver --------------------------------------------------------------------

    def run(self) -> TraceResult:
        """Execute the program from the main body and collect the trace."""
        main = self.resolved.main
        root = _Activation(main, None)
        for symbol in main.scope.values():
            root.env[symbol] = self._fresh_storage(symbol)
        completed = True
        reason = "completed"
        try:
            try:
                self._exec_body(self.resolved.body_of(main), root)
            except _ReturnSignal:
                pass
        except _Halt as halt:
            completed = False
            reason = halt.reason
        return TraceResult(
            completed=completed,
            reason=reason,
            steps=self.steps,
            output=self.output,
            observed_mod=self.observed_mod,
            observed_use=self.observed_use,
            call_counts=self.call_counts,
            element_observations=self.element_observations,
        )


def run_program(resolved: ResolvedProgram, inputs: Optional[Sequence[int]] = None,
                max_steps: int = 100_000, max_depth: int = 200) -> TraceResult:
    """Convenience wrapper: build an :class:`Interpreter` and run it."""
    interpreter = Interpreter(resolved, inputs=inputs, max_steps=max_steps, max_depth=max_depth)
    return interpreter.run()
