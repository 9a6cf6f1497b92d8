"""The plain Section 6 sweep: the oracle of the regular-sections solver.

Each sweep over a call-graph component visits every call site and
re-projects the callee's **entire** ``GRS`` map through ``g_e``; a
component is swept until nothing changes, and one last projection pass
fills the per-site tables.  This is the textbook schedule for the
system :func:`repro.sections.solver.analyze_sections` solves
delta-driven.  Both reach the same least fixpoint, so the differential
suites compare the two map for map; the sweep's
:class:`~repro.core.bitvec.OpCounter` tally counts its own (larger)
number of meets.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.arena import get_arena
from repro.core.bitvec import OpCounter
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.symbols import CallSite, ResolvedProgram
from repro.sections.descriptors import SectionMap, extended_local_sections
from repro.sections.framework import translate_through_binding_generic
from repro.sections.lattice import Section
from repro.sections.solver import SectionAnalysis, _merge_into, lattice_of


def _project(
    source: SectionMap,
    site: CallSite,
    universe: VariableUniverse,
    lattice,
) -> List[Tuple[int, Section]]:
    """Apply ``g_e`` to a callee's map, yielding caller-context items."""
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


def analyze_sections_sweep(
    resolved: ResolvedProgram,
    kind: EffectKind = EffectKind.MOD,
    lattice=None,
) -> SectionAnalysis:
    """Solve the sectioned side-effect system by whole-map sweeps over
    the arena's call-graph components (see the module docstring)."""
    lattice = lattice_of(lattice)
    arena = get_arena(resolved)
    universe = arena.universe
    successors_of = arena.call_csr.successors_of
    counter = OpCounter()
    num_procs = resolved.num_procs

    grs: List[SectionMap] = [
        dict(table)
        for table in extended_local_sections(resolved, universe, kind, lattice)
    ]
    sites_by_caller: List[List[CallSite]] = [[] for _ in range(num_procs)]
    for site in resolved.call_sites:
        sites_by_caller[site.caller.pid].append(site)

    component_of, components = arena.call_condensation()
    component_iterations: List[int] = []
    for comp_index, members in enumerate(components):
        sweeps = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for pid in members:
                for site in sites_by_caller[pid]:
                    items = _project(grs[site.callee.pid], site, universe, lattice)
                    for uid, section in items:
                        if _merge_into(grs[pid], uid, section, counter):
                            changed = True
            if len(members) == 1 and not any(
                component_of[succ] == comp_index
                for succ in successors_of(members[0])
            ):
                break  # Trivial component: one sweep suffices.
        component_iterations.append(sweeps)

    site_sections: List[SectionMap] = []
    for site in resolved.call_sites:
        table: SectionMap = {}
        for uid, section in _project(grs[site.callee.pid], site, universe, lattice):
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
