"""The variable universe: uid-indexed bit masks for the program's
variables, plus the structural masks (``GLOBAL``, ``LOCAL(p)``,
per-level) the equations intersect against.

Every analysis set in this package — ``IMOD``, ``GMOD``, ``DMOD``, … —
is an ``int`` whose bit ``i`` stands for the variable with
``uid == i``; :class:`VariableUniverse` is the one place that knows how
to translate between masks and :class:`~repro.lang.symbols.VarSymbol`
objects.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.core.bitvec import mask_of, members, members_from
from repro.lang.symbols import ProcSymbol, ResolvedProgram, VarSymbol


class EffectKind(enum.Enum):
    """Which side-effect problem is being solved.

    The paper develops ``MOD`` in full and notes "the USE problem has
    an analogous solution"; every solver here is parameterised on this
    enum so both problems share one implementation.
    """

    MOD = "mod"
    USE = "use"


class VariableUniverse:
    """Masks and translations for one resolved program."""

    def __init__(self, resolved: ResolvedProgram):
        self.resolved = resolved
        self.size = len(resolved.variables)
        #: Mask of all level-0 variables (the paper's ``GLOBAL`` set).
        self.global_mask = mask_of(v.uid for v in resolved.variables if v.is_global)
        #: ``LOCAL(p)`` per pid: formals + locals (for main: the globals),
        #: i.e. every name deallocated when p returns.
        self.local_mask: List[int] = []
        #: Formal parameters of p, per pid.
        self.formal_mask: List[int] = []
        for proc in resolved.procs:
            self.local_mask.append(mask_of(v.uid for v in proc.local_set()))
            self.formal_mask.append(mask_of(v.uid for v in proc.formals))
        #: Variables declared at each nesting level (level 0 = globals).
        max_level = max((v.level for v in resolved.variables), default=0)
        self.level_mask: List[int] = [0] * (max_level + 1)
        for var in resolved.variables:
            self.level_mask[var.level] |= 1 << var.uid
        self._visible_cache: Dict[int, int] = {}
        self._names: Optional[List[str]] = None

    @classmethod
    def spliced(
        cls,
        resolved: ResolvedProgram,
        global_mask: int,
        local_mask: Iterable[int],
        formal_mask: Iterable[int],
        level_mask: Iterable[int],
        dirty_pids: Iterable[int],
    ) -> "VariableUniverse":
        """Rebuild a universe from a previous version's masks instead of
        re-walking every declaration.

        Valid only when the uid and pid spaces are pinned (identical
        variable and procedure name lists — the incremental engine's
        ``patchable`` precondition): every structural mask is then a
        function of the declaration *names*, except the formal/local
        split of an edited procedure, which is recomputed for the
        ``dirty_pids``.
        """
        self = object.__new__(cls)
        self.resolved = resolved
        self.size = len(resolved.variables)
        self.global_mask = global_mask
        self.local_mask = list(local_mask)
        self.formal_mask = list(formal_mask)
        for pid in dirty_pids:
            proc = resolved.procs[pid]
            self.local_mask[pid] = mask_of(v.uid for v in proc.local_set())
            self.formal_mask[pid] = mask_of(v.uid for v in proc.formals)
        self.level_mask = list(level_mask)
        self._visible_cache = {}
        self._names = None
        return self

    # -- translations -------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Qualified variable names, uid-indexed (built on first use:
        ``VarSymbol.qualified_name`` formats a fresh string per call)."""
        if self._names is None:
            self._names = [var.qualified_name for var in self.resolved.variables]
        return self._names

    def to_symbols(self, mask: int) -> List[VarSymbol]:
        """Decode a mask to its symbols, uid-ascending."""
        return members(mask, self.resolved.variables)

    def to_names(
        self, mask: int, base: int = 0, base_names: Sequence[str] = ()
    ) -> List[str]:
        """Decode a mask to qualified names, uid-ascending; from
        ``base_names``, the names of ``base``, where that is cheaper (see
        :func:`~repro.core.bitvec.members_from`)."""
        return members_from(mask, base, base_names, self.names)

    def mask_of_symbols(self, symbols: Iterable[VarSymbol]) -> int:
        return mask_of(symbol.uid for symbol in symbols)

    def mask_of_names(self, names: Iterable[str]) -> int:
        """Build a mask from qualified names (test convenience)."""
        return mask_of(self.resolved.var_named(name).uid for name in names)

    # -- structural masks ------------------------------------------------------

    def visible_mask(self, proc: ProcSymbol) -> int:
        """Variables visible inside ``proc`` after lexical shadowing."""
        cached = self._visible_cache.get(proc.pid)
        if cached is None:
            visible = self.resolved.visible_variables(proc).values()
            cached = mask_of(symbol.uid for symbol in visible)
            self._visible_cache[proc.pid] = cached
        return cached

    def extant_mask(self, proc: ProcSymbol) -> int:
        """Variables whose instances are live while ``proc`` runs:
        globals plus the locals/formals of every procedure on its
        lexical chain.  A superset of :meth:`visible_mask` — an inner
        declaration shadows an outer *name*, but the outer instance
        stays extant (and modifiable through aliases)."""
        mask = self.global_mask
        for scope_proc in proc.lexical_chain():
            mask |= self.local_mask[scope_proc.pid]
        return mask

    def levels(self) -> int:
        """Number of distinct variable levels (``d_P`` can exceed this
        when deep procedures declare nothing)."""
        return len(self.level_mask)

    def format(self, mask: int) -> str:
        """Human-readable rendering, used by the CLI and examples."""
        return "{%s}" % ", ".join(self.to_names(mask))
