"""Dependence testing over regular sections — the §6 client API.

Callahan & Kennedy's framework needs, per the paper, "the cost of
determining whether two lattice elements represent an intersecting
subsection (used for dependence testing)".  This module packages that
test at the level a parallelising compiler uses it: may two *call
statements* conflict, and is a sequence of calls pairwise-independent
(parallelisable)?

Conflicts follow Bernstein's conditions over the sectioned summaries:

* write/write — both calls' MOD sections of some variable intersect;
* write/read — one call's MOD section intersects the other's USE
  section (either direction).

Scalars participate too (their sections are rank-0), so this subsumes
the whole-array test: with bit-level summaries every shared array
access conflicts, and the refinement is exactly what Section 6 is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.varsets import EffectKind
from repro.lang.symbols import CallSite, ResolvedProgram
from repro.sections.lattice import Section
from repro.sections.solver import analyze_sections


@dataclass(frozen=True)
class Conflict:
    """One reason two call sites may not be reordered/overlapped."""

    variable: str
    kind: str  # "write/write", "write/read", or "read/write".
    first: Section
    second: Section

    def render(self) -> str:
        return "%s on %s: %s vs %s" % (
            self.kind,
            self.variable,
            self.first.render(self.variable),
            self.second.render(self.variable),
        )


class DependenceTester:
    """Sectioned MOD/USE summaries plus pairwise conflict queries."""

    def __init__(self, resolved: ResolvedProgram, lattice=None):
        self.resolved = resolved
        # Both kind runs read the program arena's universe and its one
        # call-graph condensation.
        self.mod = analyze_sections(resolved, EffectKind.MOD, lattice)
        self.use = analyze_sections(resolved, EffectKind.USE, lattice)

    def _site_tables(self, site: CallSite) -> Tuple[Dict[int, Section], Dict[int, Section]]:
        return (
            self.mod.site_sections[site.site_id],
            self.use.site_sections[site.site_id],
        )

    def conflicts(self, first: CallSite, second: CallSite) -> List[Conflict]:
        """Every Bernstein-condition violation between two call sites."""
        out: List[Conflict] = []
        first_mod, first_use = self._site_tables(first)
        second_mod, second_use = self._site_tables(second)
        variables = self.resolved.variables
        for uid, section in first_mod.items():
            other = second_mod.get(uid)
            if other is not None and section.intersects(other):
                out.append(Conflict(variables[uid].qualified_name,
                                    "write/write", section, other))
            other = second_use.get(uid)
            if other is not None and section.intersects(other):
                out.append(Conflict(variables[uid].qualified_name,
                                    "write/read", section, other))
        for uid, section in first_use.items():
            other = second_mod.get(uid)
            if other is not None and section.intersects(other):
                out.append(Conflict(variables[uid].qualified_name,
                                    "read/write", section, other))
        return out

    def independent(self, first: CallSite, second: CallSite) -> bool:
        return not self.conflicts(first, second)

    def parallelisable(self, sites: List[CallSite]) -> Tuple[bool, List[Conflict]]:
        """Are the calls pairwise independent?  Returns the verdict and
        the first batch of conflicts found (empty when parallel)."""
        for index, first in enumerate(sites):
            for second in sites[index + 1:]:
                found = self.conflicts(first, second)
                if found:
                    return False, found
        return True, []

    def whole_array_parallelisable(self, sites: List[CallSite]) -> bool:
        """The verdict a bit-level (whole-object) summary would give:
        any shared touched variable is a conflict."""
        touched: List[Tuple[set, set]] = []
        for site in sites:
            mod_table, use_table = self._site_tables(site)
            touched.append((set(mod_table), set(use_table)))
        for index, (first_mod, first_use) in enumerate(touched):
            for second_mod, second_use in touched[index + 1:]:
                if first_mod & (second_mod | second_use):
                    return False
                if first_use & second_mod:
                    return False
        return True
