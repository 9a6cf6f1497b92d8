"""The ``refalias`` lane block.

The lane publishes the Banning may-alias pairs for reference formals:
per-procedure partner tables (uid → mask of may-alias partners over the
variable universe) and their domain masks, exactly the two structures
the Section 5 factoring step consumes.

It is a *view*, not a solver.  Every analysis already runs the one
alias fixpoint, :func:`repro.core.aliases.compute_aliases`, before its
MOD/USE phases, and the lane's result is that
:class:`~repro.core.aliases.AliasResult` itself.  What the lane adds is
the publication: a ``lanes`` payload block with per-procedure name
pairs (derived from the masks on demand).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.aliases import AliasResult, iter_pairs, named_pairs


def refalias_payload(
    aliases: AliasResult, resolved, names: Sequence[str]
) -> Dict:
    """JSON-safe lane block: per-procedure sorted name pairs (the exact
    shape of the summary payload's ``aliases`` block) plus mask-level
    totals."""
    pairs = {
        proc.qualified_name: named_pairs(iter_pairs(table), names)
        for proc, table in zip(resolved.procs, aliases.partner_mask)
    }
    return {
        "pairs": pairs,
        "total_pairs": aliases.total_pairs(),
        "domain_procs": sum(1 for mask in aliases.domain_mask if mask),
    }
