"""Interprocedural regular-section propagation (Section 6).

Generalises the ``GMOD`` system from bit vectors to *vectors of lattice
elements*: for every procedure, a map ``variable → Section`` describing
which part of each array (or scalar) an invocation may modify (or use).
The system is the sectioned analogue of equation (4) + the ``rsd``
equations of Section 6::

    GRS(p) = lrsd(p)  ⊓  ⊓_{e=(p,q)} g_e(GRS(q))

where ``g_e`` (:mod:`repro.sections.binding_fn`) maps callee formals to
the actuals' bases (embedding through element bindings), renames
symbolic subscripts, and drops the callee's locals.

The solver condenses the call multi-graph and iterates within each
strongly connected component until stable.  Because sections only ever
*widen* (meet moves down a lattice of depth ``rank + 2``), each
component stabilises in a handful of sweeps; per-component iteration
counts are recorded so benchmark E8 can check the paper's claim that
the framework's cost is effectively independent of lattice depth when
the cycle restriction ``g_p(x) ⊓ x = x`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.bitvec import OpCounter
from repro.core.local import local_effect_of
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.callgraph import CallMultiGraph, build_call_graph
from repro.lang.symbols import CallSite, ProcSymbol, ResolvedProgram
from repro.sections.descriptors import SectionMap, extended_local_sections
from repro.sections.lattice import Section


def _default_lattice():
    from repro.sections.framework import FIGURE3

    return FIGURE3


def _merge_into(dst: SectionMap, uid: int, section: Section,
                counter: OpCounter) -> bool:
    """Meet ``section`` into ``dst[uid]``; True if anything changed."""
    if section.is_bottom:
        return False
    current = dst.get(uid)
    if current is None:
        dst[uid] = section
        return True
    counter.meet_operations += 1
    merged = current.meet(section)
    if merged != current:
        dst[uid] = merged
        return True
    return False


def project_section_map(
    source: SectionMap,
    site: CallSite,
    universe: VariableUniverse,
    counter: OpCounter,
    lattice=None,
) -> List[Tuple[int, Section]]:
    """Apply ``g_e`` to a callee's map, yielding caller-context items."""
    from repro.sections.framework import translate_through_binding_generic

    if lattice is None:
        lattice = _default_lattice()
    callee = site.callee
    resolved = universe.resolved
    local_mask = universe.local_mask[callee.pid]
    formal_binding: Dict[int, object] = {}
    for binding in site.bindings:
        if binding.by_reference:
            formal = callee.formals[binding.position]
            formal_binding[formal.uid] = binding

    out: List[Tuple[int, Section]] = []
    for uid, section in source.items():
        symbol = resolved.variables[uid]
        if symbol.is_formal and symbol.proc is callee:
            binding = formal_binding.get(uid)
            if binding is None:
                continue  # By-value actual: no channel back.
            translated = translate_through_binding_generic(
                lattice, section, site, binding
            )
            out.append((binding.base.uid, translated))
        elif (local_mask >> uid) & 1:
            continue  # Deallocated on return.
        else:
            out.append((uid, lattice.translate_subscripts(section, site)))
    return out


@dataclass
class SectionAnalysis:
    """Sectioned summaries for one program and one effect kind."""

    resolved: ResolvedProgram
    universe: VariableUniverse
    kind: EffectKind
    #: Which lattice instance produced the sections ("figure3"/"ranges").
    lattice_name: str
    #: Per pid: variable uid -> modified/used Section.
    grs: List[SectionMap]
    #: Per site_id: variable uid -> Section (the sectioned DMOD).
    site_sections: List[SectionMap]
    counter: OpCounter = field(default_factory=OpCounter)
    #: Fixpoint sweeps used per non-trivial call-graph component.
    component_iterations: List[int] = field(default_factory=list)

    def section_of(self, proc: ProcSymbol, qualified_name: str) -> Section:
        """The section of one variable in ``GRS(proc)`` (by name)."""
        uid = self.resolved.var_named(qualified_name).uid
        return self.grs[proc.pid].get(uid, Section.make_bottom())

    def site_section(self, site: CallSite, qualified_name: str) -> Section:
        uid = self.resolved.var_named(qualified_name).uid
        return self.site_sections[site.site_id].get(uid, Section.make_bottom())

    def nonbottom_mask(self, pid: int) -> int:
        """Bit mask of variables with a non-⊥ section — comparable to
        the bit-level ``GMOD`` (tests assert they agree)."""
        mask = 0
        for uid, section in self.grs[pid].items():
            if not section.is_bottom:
                mask |= 1 << uid
        return mask

    def describe_site(self, site: CallSite) -> List[str]:
        """Readable section list for a call site, Figure 3 style."""
        out = []
        for uid, section in sorted(self.site_sections[site.site_id].items()):
            symbol = self.resolved.variables[uid]
            out.append(section.render(symbol.qualified_name))
        return out


def analyze_sections(
    resolved: ResolvedProgram,
    kind: EffectKind = EffectKind.MOD,
    universe: Optional[VariableUniverse] = None,
    call_graph: Optional[CallMultiGraph] = None,
    lattice=None,
) -> SectionAnalysis:
    """Solve the sectioned side-effect system for ``resolved``.

    ``lattice`` selects the section representation: a
    :class:`repro.sections.framework.SectionLattice`, or one of the
    names ``"figure3"`` (default) / ``"ranges"``.

    Components come from the program arena's call-graph condensation:
    the record an analysis's GMOD walk left there, or one Tarjan pass
    shared with every later consumer.
    """
    if lattice is None:
        lattice = _default_lattice()
    elif isinstance(lattice, str):
        from repro.sections.framework import LATTICES

        lattice = LATTICES[lattice]
    if universe is None:
        universe = VariableUniverse(resolved)
    if call_graph is None:
        call_graph = build_call_graph(resolved)
    counter = OpCounter()
    num_procs = resolved.num_procs

    grs: List[SectionMap] = [
        dict(table)
        for table in extended_local_sections(resolved, universe, kind, lattice)
    ]
    sites_by_caller: List[List[CallSite]] = [[] for _ in range(num_procs)]
    for site in resolved.call_sites:
        sites_by_caller[site.caller.pid].append(site)

    from repro.core.arena import get_arena

    component_of, components = get_arena(resolved).call_condensation()
    component_iterations: List[int] = []
    for comp_index, members in enumerate(components):
        sweeps = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for pid in members:
                for site in sites_by_caller[pid]:
                    items = project_section_map(
                        grs[site.callee.pid], site, universe, counter, lattice
                    )
                    for uid, section in items:
                        if _merge_into(grs[pid], uid, section, counter):
                            changed = True
            if len(members) == 1 and not any(
                component_of[succ] == comp_index
                for succ in call_graph.successors[members[0]]
            ):
                break  # Trivial component: one sweep suffices.
        component_iterations.append(sweeps)

    site_sections: List[SectionMap] = []
    for site in resolved.call_sites:
        table: SectionMap = {}
        for uid, section in project_section_map(
            grs[site.callee.pid], site, universe, counter, lattice
        ):
            _merge_into(table, uid, section, counter)
        site_sections.append(table)

    return SectionAnalysis(
        resolved=resolved,
        universe=universe,
        kind=kind,
        lattice_name=lattice.name,
        grs=grs,
        site_sections=site_sections,
        counter=counter,
        component_iterations=component_iterations,
    )
