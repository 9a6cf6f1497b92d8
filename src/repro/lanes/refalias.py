"""GPG-lite reference-parameter alias lane.

The lane publishes the Banning may-alias pairs for reference formals
as a **mask lane**: per-procedure partner tables (uid → mask of
may-alias partners over the variable universe) and their domain masks,
exactly the two structures the Section 5 factoring step consumes.

It is a *view*, not a solver.  Every analysis already runs the one
alias fixpoint, :func:`repro.core.aliases.compute_aliases`, before its
MOD/USE phases; the lane driver hands that result in through
:class:`~repro.lanes.driver.LaneContext` and the lane adopts its
tables by reference.  What the lane adds is the publication: a
``lanes`` payload block with per-procedure name pairs (derived from
the masks on demand) and a v4 container trailer section holding the
tables.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.aliases import AliasResult, named_pairs
from repro.core.binio import (
    read_signed_mask,
    read_varint,
    write_signed_mask,
    write_varint,
)
from repro.lanes.spec import LaneSpec, register_lane


class RefAliasLaneState:
    """The run's alias tables, published as a lane."""

    direction = "down"

    def __init__(self, arena):
        self.arena = arena
        self.aliases: AliasResult = None

    # -- driver hook ---------------------------------------------------------

    def solve_down(self, ctx) -> None:
        """Adopt the run's alias result; no fixpoint runs here."""
        self.aliases = ctx.aliases

    def finalize(self, ctx) -> None:
        pass

    # -- results -------------------------------------------------------------

    @property
    def partner(self) -> List[Dict[int, int]]:
        """Per pid: uid -> mask of may-alias partners on entry."""
        return self.aliases.partner_mask

    @property
    def domain(self) -> List[int]:
        """Per pid: key set of ``partner`` as a mask."""
        return self.aliases.domain_mask

    def to_alias_result(self) -> AliasResult:
        """The tables in the shape Section 5's factoring consumes."""
        return self.aliases

    def to_payload(self) -> Dict:
        """JSON-safe lane block: per-procedure sorted name pairs (the
        exact shape of the summary payload's ``aliases`` block) plus
        mask-level totals."""
        names = self.arena.universe.names
        pairs = {
            proc.qualified_name: named_pairs(table, names)
            for proc, table in zip(self.arena.resolved.procs, self.partner)
        }
        return {
            "pairs": pairs,
            "total_pairs": self.aliases.total_pairs(),
            "domain_procs": sum(1 for mask in self.domain if mask),
        }

    def to_blob(self) -> bytes:
        return refalias_tables_to_blob(self.partner)


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


REFALIAS_LANE = register_lane(
    LaneSpec(
        name="refalias",
        description="GPG-lite reference-parameter may-alias pairs as "
        "partner/domain masks (Banning rules 1-5)",
        direction="down",
        mask_width=lambda arena: arena.width,
        make_state=RefAliasLaneState,
        section_tag=4,  # == repro.core.persist.SECTION_LANE_REFALIAS
    )
)
