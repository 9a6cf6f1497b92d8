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

The solver walks the components of the call multi-graph recorded in
the program arena (the GMOD walk's record, or one Tarjan pass shared
with every later consumer) and iterates within each strongly connected
component until stable.  Because sections only ever *widen* (meet
moves down a lattice of depth ``rank + 2``), each component stabilises
in a handful of sweeps; per-component iteration counts are recorded so
benchmark E8 can check the paper's claim that the framework's cost is
effectively independent of lattice depth when the cycle restriction
``g_p(x) ⊓ x = x`` holds.

The solve is *delta-driven*.  Every procedure keeps an append-only
changelog of the uids whose section changed, and every call site keeps
a cursor into its callee's changelog, so a sweep translates exactly the
facts that are new since the site was last visited instead of
re-projecting the callee's whole map.  Each translated fact is merged
into the per-site section table as it flows past, so no projection pass
follows the fixpoint: by quiescence every cursor sits at the end of its
callee's log, and the meet of a fact's descending value chain equals
its final value.  Chaotic iteration over a finite-height lattice with
an associative, commutative, idempotent meet converges to the same
least fixpoint whatever the schedule, so the result equals the plain
sweep's, :func:`repro.baselines.sections_sweep.analyze_sections_sweep`,
which the differential suites hold this solver to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.arena import get_arena
from repro.core.bitvec import OpCounter
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.symbols import CallSite, ProcSymbol, ResolvedProgram
from repro.sections import binding_fn
from repro.sections.descriptors import SectionMap, extended_local_sections
from repro.sections.framework import (
    FIGURE3,
    LATTICES,
    SectionLattice,
    translate_through_binding_generic,
)
from repro.sections.lattice import Section


def lattice_of(lattice=None) -> SectionLattice:
    """A :class:`SectionLattice` from ``None`` (Figure 3), one of the
    names ``"figure3"`` / ``"ranges"``, or an instance."""
    if lattice is None:
        return FIGURE3
    if isinstance(lattice, str):
        return LATTICES[lattice]
    return lattice


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
    #: Fixpoint sweeps used per call-graph component.
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


def _transfer(lattice: SectionLattice):
    """``(translate, through_binding)``: the lattice's two halves of
    ``g_e``.  Figure 3's strategy functions are thin wrappers that
    import their target on every call; binding the targets directly
    keeps the per-fact transfer as cheap as the fact itself."""
    if lattice is FIGURE3:
        return binding_fn.translate_subscripts, binding_fn.translate_through_binding

    def through_binding(section, site, binding):
        return translate_through_binding_generic(lattice, section, site, binding)

    return lattice.translate_subscripts, through_binding


def analyze_sections(
    resolved: ResolvedProgram,
    kind: EffectKind = EffectKind.MOD,
    lattice=None,
) -> SectionAnalysis:
    """Solve the sectioned side-effect system for ``resolved``.

    ``lattice`` selects the section representation: a
    :class:`repro.sections.framework.SectionLattice`, or one of the
    names ``"figure3"`` (default) / ``"ranges"``.  The universe, the
    call sites and the call graph's components come from the program
    arena, so the solve adds no condensation pass.
    """
    lattice = lattice_of(lattice)
    arena = get_arena(resolved)
    universe = arena.universe
    translate, through_binding = _transfer(lattice)
    counter = OpCounter()

    grs: List[SectionMap] = [
        dict(table)
        for table in extended_local_sections(resolved, universe, kind, lattice)
    ]
    #: Per pid: uids whose section changed, in change order (the seeds
    #: count as the first changes).  Append-only.
    changelog: List[List[int]] = [list(table) for table in grs]
    #: Per site id: how much of the callee's changelog the site has
    #: already translated.
    cursor = [0] * resolved.num_call_sites
    site_sections: List[SectionMap] = [{} for _ in range(resolved.num_call_sites)]
    # Per site: the callee's by-reference formals, by uid.
    formal_binding: List[Dict[int, object]] = []
    sites_by_caller: List[List[int]] = [[] for _ in range(resolved.num_procs)]
    for site in resolved.call_sites:
        formals = site.callee.formals
        formal_binding.append({
            formals[binding.position].uid: binding
            for binding in site.bindings
            if binding.by_reference
        })
        sites_by_caller[site.caller.pid].append(site.site_id)

    call_sites = resolved.call_sites
    site_callee = arena.site_callee
    local_mask = universe.local_mask
    formal_mask = universe.formal_mask
    successors_of = arena.call_csr.successors_of
    component_of, components = arena.call_condensation()
    component_iterations: List[int] = []
    for comp_index, members in enumerate(components):
        trivial = len(members) == 1 and not any(
            component_of[succ] == comp_index for succ in successors_of(members[0])
        )
        sweeps = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for pid in members:
                target = grs[pid]
                log_out = changelog[pid]
                for sid in sites_by_caller[pid]:
                    callee_pid = site_callee[sid]
                    log = changelog[callee_pid]
                    pos = cursor[sid]
                    if pos >= len(log):
                        continue
                    site = call_sites[sid]
                    source = grs[callee_pid]
                    site_table = site_sections[sid]
                    bindings = formal_binding[sid]
                    formals = formal_mask[callee_pid]
                    locals_ = local_mask[callee_pid]
                    seen = set()
                    # ``log`` may grow while it drains (a self-recursive
                    # site appends to its own callee's log); the loop
                    # ends because the lattice has finite height.
                    while pos < len(log):
                        uid = log[pos]
                        pos += 1
                        if uid in seen:
                            continue  # Same fact, same current value.
                        seen.add(uid)
                        section = source[uid]
                        if (formals >> uid) & 1:
                            binding = bindings.get(uid)
                            if binding is None:
                                continue  # By-value actual: no channel back.
                            out_uid = binding.base.uid
                            translated = through_binding(section, site, binding)
                        elif (locals_ >> uid) & 1:
                            continue  # Deallocated on return.
                        else:
                            out_uid = uid
                            translated = translate(section, site)
                        if _merge_into(target, out_uid, translated, counter):
                            log_out.append(out_uid)
                            seen.discard(out_uid)
                            changed = True
                        _merge_into(site_table, out_uid, translated, counter)
                    cursor[sid] = pos
            if trivial:
                break  # One sweep settles an acyclic procedure.
        component_iterations.append(sweeps)

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
