"""The ``refalias`` lane block and its blob codec.

The lane publishes the Banning may-alias pairs for reference formals:
per-procedure partner tables (uid → mask of may-alias partners over the
variable universe) and their domain masks, exactly the two structures
the Section 5 factoring step consumes.

It is a *view*, not a solver.  Every analysis already runs the one
alias fixpoint, :func:`repro.core.aliases.compute_aliases`, before its
MOD/USE phases, and the lane's result is that
:class:`~repro.core.aliases.AliasResult` itself.  What the lane adds is
the publication: a ``lanes`` payload block with per-procedure name
pairs (derived from the masks on demand) and a container trailer
section holding the tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.aliases import AliasResult, named_pairs
from repro.core.binio import (
    read_signed_mask,
    read_varint,
    write_signed_mask,
    write_varint,
)


def refalias_payload(
    aliases: AliasResult, resolved, names: Sequence[str]
) -> Dict:
    """JSON-safe lane block: per-procedure sorted name pairs (the exact
    shape of the summary payload's ``aliases`` block) plus mask-level
    totals."""
    pairs = {
        proc.qualified_name: named_pairs(table, names)
        for proc, table in zip(resolved.procs, aliases.partner_mask)
    }
    return {
        "pairs": pairs,
        "total_pairs": aliases.total_pairs(),
        "domain_procs": sum(1 for mask in aliases.domain_mask if mask),
    }


# -- trailer-section codec (shared with core/persist.py) ---------------------


def refalias_tables_to_blob(partner: List[Dict[int, int]]) -> bytes:
    """Binary form of the partner tables: per procedure, a varint entry
    count and (uid varint, partner mask) strips in the signed-mask
    encoding.  Domain masks are derivable and not stored."""
    out = bytearray()
    write_varint(out, len(partner))
    for table in partner:
        write_varint(out, len(table))
        for uid in sorted(table):
            write_varint(out, uid)
            write_signed_mask(out, table[uid])
    return bytes(out)


def refalias_tables_from_blob(data: bytes) -> List[Dict[int, int]]:
    pos = 0
    num_procs, pos = read_varint(data, pos)
    partner: List[Dict[int, int]] = []
    for _ in range(num_procs):
        count, pos = read_varint(data, pos)
        table: Dict[int, int] = {}
        for _ in range(count):
            uid, pos = read_varint(data, pos)
            mask, pos = read_signed_mask(data, pos)
            table[uid] = mask
        partner.append(table)
    return partner
