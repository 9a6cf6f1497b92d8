"""The ``sections`` and ``sections-use`` lane blocks and their blob codec.

A sections lane's result is a
:class:`~repro.sections.solver.SectionAnalysis`.  Its ``lanes`` payload
block carries the rendered per-site sections, in site order, and each
procedure's non-⊥ mask, in pid order; the container trailer carries the
same block in binary form (:mod:`repro.core.persist` decodes it).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.binio import (
    read_bytes,
    read_signed_mask,
    read_varint,
    write_bytes,
    write_signed_mask,
    write_varint,
)


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


# -- trailer-section codec (shared with core/persist.py) ---------------------


def sections_payload_to_blob(payload: Dict) -> bytes:
    """Binary form of the sections lane block: the non-⊥ masks ride
    signed-mask strips, the rendered site sections ride length-prefixed
    UTF-8."""
    out = bytearray()
    write_bytes(out, payload["lattice"].encode("utf-8"))
    write_bytes(out, payload["kind"].encode("utf-8"))
    write_varint(out, len(payload["nonbottom"]))
    for mask in payload["nonbottom"]:
        write_signed_mask(out, mask)
    write_varint(out, len(payload["sites"]))
    for rendered in payload["sites"]:
        write_varint(out, len(rendered))
        for text in rendered:
            write_bytes(out, text.encode("utf-8"))
    return bytes(out)


def sections_payload_from_blob(data: bytes) -> Dict:
    pos = 0
    lattice, pos = read_bytes(data, pos)
    kind, pos = read_bytes(data, pos)
    count, pos = read_varint(data, pos)
    nonbottom: List[int] = []
    for _ in range(count):
        mask, pos = read_signed_mask(data, pos)
        nonbottom.append(mask)
    count, pos = read_varint(data, pos)
    sites: List[List[str]] = []
    for _ in range(count):
        entries, pos = read_varint(data, pos)
        rendered: List[str] = []
        for _ in range(entries):
            blob, pos = read_bytes(data, pos)
            rendered.append(blob.decode("utf-8"))
        sites.append(rendered)
    return {
        "lattice": lattice.decode("utf-8"),
        "kind": kind.decode("utf-8"),
        "sites": sites,
        "nonbottom": nonbottom,
    }
