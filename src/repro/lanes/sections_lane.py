"""The ``sections`` and ``sections-use`` lane blocks.

A sections lane's result is a
:class:`~repro.sections.solver.SectionAnalysis`.  Its ``lanes`` payload
block carries the rendered per-site sections, in site order, and each
procedure's non-⊥ mask, in pid order.
"""

from __future__ import annotations

from typing import Dict


def sections_payload(analysis) -> Dict:
    """JSON-safe lane block of a :class:`SectionAnalysis`."""
    return {
        "lattice": analysis.lattice_name,
        "kind": analysis.kind.value,
        "sites": [
            analysis.describe_site(site) for site in analysis.resolved.call_sites
        ],
        "nonbottom": [
            analysis.nonbottom_mask(pid)
            for pid in range(analysis.resolved.num_procs)
        ],
    }
