"""The result object of the full analysis: every intermediate and
final set, with convenient query methods.

The attribute names follow the paper: ``imod``, ``rmod``, ``imod_plus``,
``gmod``, ``dmod``, ``mod`` (and their ``USE`` mirrors).  All sets are
uid bit masks; translate via ``summary.universe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.aliases import AliasResult
from repro.core.bitvec import OpCounter
from repro.core.local import LocalAnalysis
from repro.core.rmod import RmodResult
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import BindingMultiGraph
from repro.graphs.callgraph import CallMultiGraph
from repro.lang.symbols import CallSite, ProcSymbol, ResolvedProgram, VarSymbol


@dataclass
class EffectSolution:
    """All sets for one problem (``MOD`` or ``USE``)."""

    kind: EffectKind
    rmod: RmodResult
    imod_plus: List[int]
    gmod: List[int]
    dmod: List[int]  # Per site_id.
    mod: List[int]  # Per site_id, alias-expanded.
    #: Which solver produced ``gmod``, as a record: ``figure2`` or
    #: ``multilevel`` (chosen by nesting depth), ``incremental``, or an
    #: oracle's name in the per-kind baseline.
    gmod_method: str = ""


@dataclass
class SideEffectSummary:
    """Full analysis output for one program."""

    resolved: ResolvedProgram
    universe: VariableUniverse
    call_graph: CallMultiGraph
    binding_graph: BindingMultiGraph
    local: LocalAnalysis
    aliases: AliasResult
    solutions: Dict[EffectKind, EffectSolution]
    counter: OpCounter = field(default_factory=OpCounter)
    #: Per-phase wall times (seconds) recorded by the pipeline driver;
    #: keys like ``compile``, ``graphs``, ``rmod``, ``gmod``, ``total``.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-kind operation tallies (the program total ``counter`` is
    #: their fold plus the kind-independent phases).  Populated by the
    #: pipeline and by the per-kind oracle
    #: (:mod:`repro.baselines.per_kind`) so the differential suite can
    #: compare their tallies kind by kind; not serialized.
    kind_counters: Optional[Dict[EffectKind, OpCounter]] = None
    #: Condensation passes this analysis ran on the arena, per graph
    #: (None for the per-kind oracle); not serialized.
    condensations: Optional[Dict[str, int]] = None
    #: Fine-grained dependency index driving demand-driven incremental
    #: updates (:mod:`repro.core.depindex`).  Built lazily by
    #: :func:`repro.core.incremental.incremental_update` or
    #: :func:`repro.core.depindex.index_section` and cached here;
    #: serialized only into the binary container's index trailer
    #: section, never into the dataclass payload.
    dep_index: Optional[object] = None
    #: Effect-lane results (:mod:`repro.lanes`) keyed by lane name, in
    #: request order, when the analysis was run with extra lanes; None
    #: otherwise.  A sections lane holds a
    #: :class:`~repro.sections.solver.SectionAnalysis`, ``refalias``
    #: holds :attr:`aliases` itself.  Lane payloads serialize into the
    #: service payload's ``lanes`` block.
    lanes: Optional[Dict[str, object]] = None
    #: The binary container's string table and body, once
    #: :func:`repro.core.persist.summary_to_bytes` has written them, and
    #: the read-only payload, once :func:`repro.core.persist.summary_to_dict`
    #: has rendered it.  :func:`repro.core.persist.carry` hands both to a
    #: successor whose container would be byte-identical.  Never
    #: serialized.
    head: Optional[Tuple[bytes, bytes]] = field(default=None, repr=False, compare=False)
    payload: Optional[Dict] = field(default=None, repr=False, compare=False)

    # -- mask accessors -------------------------------------------------------

    def solution(self, kind: EffectKind = EffectKind.MOD) -> EffectSolution:
        return self.solutions[kind]

    def gmod_mask(self, proc: ProcSymbol, kind: EffectKind = EffectKind.MOD) -> int:
        return self.solutions[kind].gmod[proc.pid]

    def dmod_mask(self, site: CallSite, kind: EffectKind = EffectKind.MOD) -> int:
        return self.solutions[kind].dmod[site.site_id]

    def mod_mask(self, site: CallSite, kind: EffectKind = EffectKind.MOD) -> int:
        return self.solutions[kind].mod[site.site_id]

    # -- symbol accessors --------------------------------------------------------

    def gmod(self, proc: ProcSymbol, kind: EffectKind = EffectKind.MOD) -> Set[VarSymbol]:
        return set(self.universe.to_symbols(self.gmod_mask(proc, kind)))

    def rmod(self, proc: ProcSymbol, kind: EffectKind = EffectKind.MOD) -> Set[VarSymbol]:
        return set(self.solutions[kind].rmod.formals_of(proc.pid))

    def dmod(self, site: CallSite, kind: EffectKind = EffectKind.MOD) -> Set[VarSymbol]:
        return set(self.universe.to_symbols(self.dmod_mask(site, kind)))

    def mod(self, site: CallSite, kind: EffectKind = EffectKind.MOD) -> Set[VarSymbol]:
        return set(self.universe.to_symbols(self.mod_mask(site, kind)))

    def use(self, site: CallSite) -> Set[VarSymbol]:
        return self.mod(site, EffectKind.USE)

    # -- reporting -----------------------------------------------------------------

    def names(self, mask: int) -> List[str]:
        return self.universe.to_names(mask)

    def report(self) -> str:
        """A human-readable dump of the per-procedure and per-site sets."""
        lines: List[str] = []
        fmt = self.universe.format
        for proc in self.resolved.procs:
            lines.append("proc %s (level %d)" % (proc.qualified_name, proc.level))
            lines.append("  IMOD  = %s" % fmt(self.local.imod[proc.pid]))
            for kind in (EffectKind.MOD, EffectKind.USE):
                if kind not in self.solutions:
                    continue
                sol = self.solutions[kind]
                tag = kind.value.upper()
                rmod_names = [f.name for f in sol.rmod.formals_of(proc.pid)]
                lines.append("  R%s  = {%s}" % (tag, ", ".join(rmod_names)))
                lines.append("  I%s+ = %s" % (tag, fmt(sol.imod_plus[proc.pid])))
                lines.append("  G%s  = %s" % (tag, fmt(sol.gmod[proc.pid])))
        for site in self.resolved.call_sites:
            lines.append(
                "site %d: %s -> %s (line %d)"
                % (
                    site.site_id,
                    site.caller.qualified_name,
                    site.callee.qualified_name,
                    site.line,
                )
            )
            for kind in self.solutions:
                sol = self.solutions[kind]
                tag = kind.value.upper()
                lines.append("  D%s = %s" % (tag, fmt(sol.dmod[site.site_id])))
                lines.append("  %s  = %s" % (tag, fmt(sol.mod[site.site_id])))
        return "\n".join(lines)
