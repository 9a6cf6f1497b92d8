"""Summary serialization — separate-compilation support.

The paper's program of research (interprocedural analysis inside the
Rice programming environment) assumes summary information is *stored*
between compiler runs.  This module round-trips the per-procedure and
per-site sets through a plain-dict (JSON-safe) form keyed by qualified
names, so a summary written by one process can be loaded against a
freshly parsed copy of the same program — or diffed against the next
version's summary by the recompilation analysis.  The binary container
holds the same payload; :func:`summary_to_bytes` writes it straight
from the solution masks, as the paper decomposes them: each call
site's sets are stored as XOR deltas against its callee's GMOD
(equation (2)) and its own DMOD (the §5 alias step), never as name
lists.  It is the one binary writer: summary-cache records and the
analysis server's state files are containers it wrote, and
:func:`read_container_trailer` reads a container's trailer sections
without decoding its summary.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import warnings
import zlib
from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.aliases import iter_pairs, named_pairs
from repro.core.binio import (
    read_bytes,
    read_mask_adaptive,
    read_partner_rows,
    read_signed,
    read_varint,
    write_bytes,
    write_mask_adaptive,
    write_partners,
    write_varint,
)
from repro.core.bitvec import iter_bits, members, members_from
from repro.core.summary import SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.symbols import ProcSymbol, ResolvedProgram

#: On-disk schema version.  Bump whenever the payload shape changes so
#: consumers (the recompilation analysis, the batch summary cache) can
#: detect and discard stale entries instead of misreading them.
#:
#: History: 1 = procedures + call_sites; 2 = adds per-procedure alias
#: pairs and the optional per-site regular-section block.
FORMAT_VERSION = 2

#: Version of the binary *container*.  The container wraps the same
#: logical payload as the v2 JSON form — ``version`` inside the payload
#: stays :data:`FORMAT_VERSION` — but stores it as a struct-packed
#: header, an interned string table, a body and a trailer of tagged
#: sections.  Loaders sniff :data:`BINARY_MAGIC` and fall back to JSON,
#: so v2 files keep loading forever.
#:
#: History:
#:
#: * 3 = header + string table + tagged body, variable-set name lists
#:   compressed to index deltas or bit masks;
#: * 4 = appends a trailer of tagged sections after the body (the
#:   dependency index, :data:`SECTION_DEP_INDEX`, the analysis server's
#:   session metadata, :data:`SECTION_SESSION_META`, and, from earlier
#:   writers, one section per effect lane); written as v3 when there
#:   are no sections;
#: * 5 = the body of a live summary (:func:`summary_to_bytes`) is the
#:   paper's decomposition rather than its expansion: the string table
#:   opens with the variable table (the universe's names in uid order)
#:   and the body holds the GLOBAL mask, each procedure's G row as a
#:   mask (or its XOR with GLOBAL, whichever is smaller), and each call
#:   site's D set as an XOR delta against its callee's G row and its
#:   MOD/USE set as one against its D set (see :func:`_summary_body`).
#:   The trailer is always present, possibly empty.
#:
#: Only v5 is written; the reader takes all three, so v3/v4 files that
#: earlier builds wrote (summary-cache records, state files) still load.
BINARY_FORMAT_VERSION = 5

#: The container versions earlier builds wrote for a tagged-value
#: payload: without and with a section trailer.
_SECTIONLESS_BINARY_VERSION = 3
_TRAILER_BINARY_VERSION = 4

#: Section tag of a serialized :class:`repro.core.depindex.DependencyIndex`.
SECTION_DEP_INDEX = 1

#: Section tag of the analysis server's session metadata (a small JSON
#: blob: session name, cache key and effect-lane names).  Written by
#: ``ck-analyze serve --state-dir`` next to the index so a restarted
#: daemon can resume ``update`` verbs for sessions it has never seen in
#: memory.
SECTION_SESSION_META = 2

#: Reserved section tags of the ``sections``, ``refalias`` and
#: ``sections-use`` effect lanes' results, which earlier builds wrote
#: into state files.  Nothing writes or reads them now (a restarted
#: session re-solves its lanes from the names in its metadata); they
#: stay known so that such files load without a warning.
SECTION_LANE_SECTIONS = 3
SECTION_LANE_REFALIAS = 4
SECTION_LANE_SECTIONS_USE = 5

#: Section tag of a summary-cache record's result metadata (a small JSON
#: object: the analysis's timings, tallies, counts and lane blocks, the
#: record schema and a CRC of the container's string table and body —
#: see :mod:`repro.service.cache`).
SECTION_RESULT_META = 6

#: Every trailer tag this reader understands.  Anything else is a
#: *future* section: skipped loudly-but-safely (one warning, then the
#: loader degrades to re-deriving whatever the section carried) rather
#: than rejected — see :func:`split_unknown_sections`.
KNOWN_SECTION_TAGS = frozenset(
    {
        SECTION_DEP_INDEX,
        SECTION_SESSION_META,
        SECTION_LANE_SECTIONS,
        SECTION_LANE_REFALIAS,
        SECTION_LANE_SECTIONS_USE,
        SECTION_RESULT_META,
    }
)

#: First bytes of every binary summary file.
BINARY_MAGIC = b"CKSB"

#: struct layout following the magic: container version, string-table
#: byte length, body byte length.
_HEADER = struct.Struct("<HQQ")

# Value tags of the v3/v4 body encoding.  A v5 body writes its R lists
# with the string-list tags (see :func:`_write_names`).
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_LIST = 6
_T_DICT = 7
#: A list of interned strings whose table indices are strictly
#: ascending (the common shape: variable-name sets emitted in a stable
#: order) — stored as delta-encoded varints.
_T_STRLIST_DELTA = 8
#: Same, but dense: stored as a base index plus a bit mask over the
#: index range, one bit per table entry.
_T_STRLIST_MASK = 9

_FLOAT = struct.Struct("<d")

#: Deepest list/dict nesting the readers follow.  The payloads earlier
#: builds wrote nest fewer than ten levels deep (a cache record around a
#: laned summary); anything past the cap is corrupt, and ends in
#: :class:`ValueError` instead of exhausting the interpreter stack.
_MAX_DEPTH = 100


def summary_to_dict(summary: SideEffectSummary) -> Dict:
    """A JSON-safe dictionary of every externally meaningful set.

    The payload is **read-only**: entries with equal masks share one
    name list, and the payload is kept on the summary
    (``summary.payload``) and returned again by a later call, or by a
    successor whose container is this one's (see :func:`carry`).  Copy
    before editing.
    """
    if summary.payload is None:
        summary.payload = _render(summary)
    return summary.payload


def carry(old: SideEffectSummary, new: SideEffectSummary) -> bool:
    """Would :func:`summary_to_bytes` write ``new`` the very string
    table and body it writes ``old``?  If so, hand ``old``'s container
    head and payload, where it holds them, to ``new``, which then writes
    and renders neither.

    Decided by list equality over what :func:`_summary_body` stores, as
    masks and ids: the variable table and GLOBAL, the program name and
    kinds, the procedure names by pid, each payload procedure's level,
    G rows, R rows with its formals' order, and alias table, and each
    call site's id, caller and callee pids, line, D set and MOD set.
    Nothing is written or named.  A row the body does not store does not
    count: a procedure named after the program hides the main program's
    G rows (see :func:`procedure_entries`).
    """
    if _stored_rows(old) != _stored_rows(new):
        return False
    if new.head is None:
        new.head = old.head
    if new.payload is None:
        new.payload = old.payload
    return True


def _stored_rows(summary: SideEffectSummary) -> List:
    """What :func:`_summary_body` stores, as lists of plain values.

    Equal variable tables name each uid alike, and equal procedure names
    by pid name each pid alike, so an R list is its procedure's R row
    read in its formals' order, and a site's ends are its pids."""
    resolved = summary.resolved
    entries = procedure_entries(resolved)
    procs = list(entries.values())
    rows = [
        summary.universe.names,
        summary.universe.global_mask,
        resolved.program.name,
        list(summary.solutions),
        [proc.qualified_name for proc in resolved.procs],
        [proc.level for proc in procs],
        [[formal.uid for formal in proc.formals] for proc in procs],
        [summary.aliases.partner_mask[proc.pid] for proc in procs],
        [(site.site_id, site.caller.pid, site.callee.pid, site.line)
         for site in resolved.call_sites],
    ]
    for solution in summary.solutions.values():
        rows += [
            [solution.gmod[proc.pid] for proc in procs],
            [solution.rmod.proc_mask[proc.pid] for proc in procs],
            solution.dmod,
            solution.mod,
        ]
    return rows


def procedure_entries(resolved: ResolvedProgram) -> Dict[str, ProcSymbol]:
    """The payload's procedure entries, in its order: each qualified
    name and the procedure whose sets its entry shows.  A procedure
    sharing a qualified name with an earlier one (the main program and a
    procedure named after the program) keeps the earlier one's place and
    gives the entry."""
    entries: Dict[str, ProcSymbol] = {}
    for proc in resolved.procs:
        entries[proc.qualified_name] = proc
    return entries


def _render(summary: SideEffectSummary) -> Dict:
    """Build the plain payload, naming each distinct mask once."""
    resolved = summary.resolved
    universe = summary.universe
    names: Dict[int, List[str]] = {}

    def named(mask: int, base: int = 0) -> List[str]:
        """``mask``'s names, from those of ``base``."""
        found = names.get(mask)
        if found is None:
            found = names[mask] = (
                universe.to_names(mask, base, named(base)) if base
                else universe.to_names(mask))
        return found

    solutions = [(kind.value, solution) for kind, solution in summary.solutions.items()]
    partner_mask = summary.aliases.partner_mask
    # Each set is named from the base the container stores it against:
    # a G row from GLOBAL, a site's D set from its callee's G row
    # (equation (2)) and its MOD set from its D set (the §5 alias step).
    everything = universe.global_mask
    procedures: Dict = {}
    aliases: Dict = {}
    for name, proc in procedure_entries(resolved).items():
        entry: Dict = {"level": proc.level}
        for tag, solution in solutions:
            entry["g" + tag] = named(solution.gmod[proc.pid], everything)
            entry["r" + tag] = _rmod_names(solution, proc)
        procedures[name] = entry
        aliases[name] = named_pairs(iter_pairs(partner_mask[proc.pid]), universe.names)
    call_sites = []
    for site in resolved.call_sites:
        sid = site.site_id
        entry = {
            "site_id": sid,
            "caller": site.caller.qualified_name,
            "callee": site.callee.qualified_name,
            "line": site.line,
        }
        for tag, solution in solutions:
            dmod = solution.dmod[sid]
            entry["d" + tag] = named(dmod, solution.gmod[site.callee.pid])
            entry[tag] = named(solution.mod[sid], dmod)
        call_sites.append(entry)
    return {
        "version": FORMAT_VERSION,
        "program": resolved.program.name,
        "procedures": procedures,
        "call_sites": call_sites,
        "aliases": aliases,
    }


def _rmod_names(solution, proc) -> List[str]:
    """``RMOD(p)`` (or ``RUSE``) as formal names, position-ascending."""
    return [formal.name for formal in solution.rmod.formals_of(proc.pid)]


def summary_to_json(summary: SideEffectSummary, indent: Optional[int] = None) -> str:
    return json.dumps(summary_to_dict(summary), indent=indent, sort_keys=True)


def summary_to_bytes(
    summary: SideEffectSummary,
    sections: Optional[Dict[int, bytes]] = None,
) -> bytes:
    """Serialize a live summary to the binary container (v5).

    The container is written straight from the solution masks (see
    :func:`_summary_body`) without building :func:`summary_to_dict`'s
    payload; :func:`decode_summary_container` expands it back to exactly
    that payload, key order included.

    ``sections`` adds caller-owned trailer sections (tag → blob): the
    analysis server's :data:`SECTION_DEP_INDEX` and
    :data:`SECTION_SESSION_META`, or a cache record's
    :data:`SECTION_RESULT_META`.

    The string table and body are written once and kept on the summary
    (``summary.head``); a successor they were carried to (see
    :func:`carry`) reuses them by reference, and only the trailer is
    rebuilt.
    """
    return _container(*_head(summary), dict(sections or {}))


def summary_crc32(summary: SideEffectSummary) -> int:
    """``zlib.crc32`` of the string table and body that
    :func:`summary_to_bytes` writes for ``summary`` — what
    :func:`read_container_trailer` reports for that container.  A
    trailer section can carry it to vouch for the summary it rides
    with."""
    table, body = _head(summary)
    return zlib.crc32(body, zlib.crc32(table))


def _head(summary: SideEffectSummary) -> Tuple[bytes, bytes]:
    """The summary's v5 string table and body, written once and kept
    as ``summary.head``."""
    if summary.head is None:
        summary.head = _summary_head(summary)
    return summary.head


def _summary_head(summary: SideEffectSummary) -> Tuple[bytes, bytes]:
    """The v5 string table and body, written from the masks."""
    strings, intern = _string_table(summary.universe.names)
    body = _summary_body(summary, intern)
    return _table_bytes(strings), bytes(body)


def _summary_body(summary: SideEffectSummary, intern) -> bytearray:
    """The v5 body: :func:`summary_to_dict`'s payload as the paper
    decomposes it.  The string table behind ``intern`` opens with the
    variable table, so a variable's uid is its string index and every
    variable set is a mask over that table, written with
    :func:`~repro.core.binio.write_mask_adaptive`.

    In order (counts, ints and string indices are varints):

    * the number of variables, then the GLOBAL mask;
    * the payload version, the program name, the kind count and each
      kind's tag (``mod``, ``use``);
    * the procedure count, then per procedure its name and level, per
      kind its G row (:func:`_write_row`) and its R list
      (:func:`_write_names`), and then its alias pairs
      (:func:`~repro.core.binio.write_partners`);
    * the call-site count, then per site its id, caller, callee and
      line, and per kind its D set XOR its callee's G row (equation
      (2)'s base), then its MOD/USE set XOR its D set (the §5 alias
      step's).

    The procedures are the payload's entries (:func:`procedure_entries`),
    so a site's base is the G row the payload shows under its callee's
    name.
    """
    resolved = summary.resolved
    universe = summary.universe
    names = universe.names
    solutions = list(summary.solutions.values())
    procs_by_name = procedure_entries(resolved)
    # pid → the pid whose G rows the payload shows under its name.
    shown = [procs_by_name[proc.qualified_name].pid for proc in resolved.procs]
    everything = universe.global_mask
    partner_mask = summary.aliases.partner_mask
    body = bytearray()
    write_varint(body, len(names))
    write_mask_adaptive(body, everything)
    write_varint(body, FORMAT_VERSION)
    write_varint(body, intern(resolved.program.name))
    write_varint(body, len(solutions))
    for kind in summary.solutions:
        write_varint(body, intern(kind.value))

    write_varint(body, len(procs_by_name))
    for name, proc in procs_by_name.items():
        write_varint(body, intern(name))
        write_varint(body, proc.level)
        for solution in solutions:
            _write_row(body, solution.gmod[proc.pid], everything)
            _write_names(body, _rmod_names(solution, proc), intern)
        write_partners(body, partner_mask[proc.pid])

    write_varint(body, len(resolved.call_sites))
    for site in resolved.call_sites:
        sid = site.site_id
        write_varint(body, sid)
        write_varint(body, intern(site.caller.qualified_name))
        write_varint(body, intern(site.callee.qualified_name))
        write_varint(body, site.line)
        callee = shown[site.callee.pid]
        for solution in solutions:
            dmod = solution.dmod[sid]
            write_mask_adaptive(body, dmod ^ solution.gmod[callee])
            write_mask_adaptive(body, solution.mod[sid] ^ dmod)
    return body


def _write_row(body: bytearray, row: int, everything: int) -> None:
    """A G row as a flag byte and a mask: ``row`` itself (flag 0) or
    its XOR with GLOBAL (flag 1), whichever is smaller.  A generated
    procedure's GMOD holds most globals, so the XOR is the sparse one."""
    plain = bytearray((0,))
    write_mask_adaptive(plain, row)
    flipped = bytearray((1,))
    write_mask_adaptive(flipped, row ^ everything)
    body += flipped if len(flipped) < len(plain) else plain


# ---------------------------------------------------------------------------
# Binary container: framing, the R lists' string-list encoding, the reader
# ---------------------------------------------------------------------------


def _write_names(body: bytearray, names: List[str], intern) -> None:
    """A list of strings as the v3/v4 tagged encoding writes it: one of
    the two ascending layouts (:func:`_write_ascending`) when the names'
    table indices ascend, else a list of string values, which keeps
    their order exactly."""
    indices = [intern(name) for name in names]
    if indices and all(a < b for a, b in zip(indices, indices[1:])):
        _write_ascending(body, indices)
        return
    body.append(_T_LIST)
    write_varint(body, len(indices))
    for index in indices:
        body.append(_T_STR)
        write_varint(body, index)


def _write_ascending(body: bytearray, indices: List[int]) -> None:
    """Write strictly ascending string-table indices in the denser of
    two layouts: a bit mask over ``[first, last]`` while that costs at
    most one byte per member (delta varints cost at least one), else
    each index's distance from the one before, minus one."""
    first = indices[0]
    span = indices[-1] - first + 1
    if span <= 8 * len(indices):
        body.append(_T_STRLIST_MASK)
        write_varint(body, first)
        bits = bytearray((span + 7) >> 3)
        for index in indices:
            offset = index - first
            bits[offset >> 3] |= 1 << (offset & 7)
        write_bytes(body, bytes(bits))
    else:
        body.append(_T_STRLIST_DELTA)
        write_varint(body, len(indices))
        write_varint(body, first)
        previous = first
        for index in indices[1:]:
            write_varint(body, index - previous - 1)
            previous = index


def _string_table(initial: Sequence[str]):
    """A string table opening with ``initial``, verbatim: ``(strings,
    intern)``, where ``intern(text)`` returns an index holding ``text``,
    appending it on first sight."""
    strings: List[str] = list(initial)
    index_of: Dict[str, int] = dict(zip(strings, range(len(strings))))

    def intern(text: str) -> int:
        found = index_of.get(text)
        if found is None:
            found = len(strings)
            index_of[text] = found
            strings.append(text)
        return found

    return strings, intern


def _table_bytes(strings: List[str]) -> bytes:
    """The container's string table: a count, then each string."""
    table = bytearray()
    write_varint(table, len(strings))
    for text in strings:
        write_bytes(table, text.encode("utf-8"))
    return bytes(table)


def _container(table: bytes, body: bytes, sections: Dict[int, bytes]) -> bytes:
    """A v5 container: magic, header, string table, body and the trailer
    of ``sections`` (a count, then each tag and blob, tags ascending)."""
    trailer = bytearray()
    write_varint(trailer, len(sections))
    for tag in sorted(sections):
        write_varint(trailer, tag)
        write_bytes(trailer, sections[tag])
    return b"".join((
        BINARY_MAGIC,
        _HEADER.pack(BINARY_FORMAT_VERSION, len(table), len(body)),
        table,
        body,
        trailer,
    ))


def _decode_value(data, pos: int, strings: List[str], depth: int = 0):
    """One tagged value at ``pos``, ``depth`` lists or dicts deep."""
    tag = data[pos]
    pos += 1
    if tag == _T_STR:
        index, pos = read_varint(data, pos)
        return strings[index], pos
    if tag == _T_INT:
        return read_signed(data, pos)
    if tag == _T_DICT or tag == _T_LIST:
        if depth >= _MAX_DEPTH:
            raise ValueError(
                "corrupt binary summary: values nest deeper than %d levels"
                % _MAX_DEPTH
            )
        count, pos = read_varint(data, pos)
        if tag == _T_LIST:
            items = []
            for _ in range(count):
                value, pos = _decode_value(data, pos, strings, depth + 1)
                items.append(value)
            return items, pos
        result = {}
        for _ in range(count):
            key_index, pos = read_varint(data, pos)
            value, pos = _decode_value(data, pos, strings, depth + 1)
            result[strings[key_index]] = value
        return result, pos
    if tag == _T_STRLIST_DELTA:
        count, pos = read_varint(data, pos)
        index, pos = read_varint(data, pos)
        items = [strings[index]]
        for _ in range(count - 1):
            gap, pos = read_varint(data, pos)
            index += gap + 1
            items.append(strings[index])
        return items, pos
    if tag == _T_STRLIST_MASK:
        first, pos = read_varint(data, pos)
        blob, pos = read_bytes(data, pos)
        mask = int.from_bytes(blob, "little")
        if first + mask.bit_length() > len(strings):
            raise ValueError(
                "corrupt binary summary: a name set runs past the string table"
            )
        return members(mask, strings, first), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    raise ValueError("corrupt binary summary: unknown value tag %d" % tag)


#: A v5 body (:func:`_summary_body`) as stored: the variable table (the
#: first strings, by uid), the payload's version, program and kind tags,
#: one :data:`BodyProcedure` per payload name and one :data:`BodySite`
#: per call site.  Every set is a mask or, read for the payload, its names.
SummaryBody = namedtuple(
    "SummaryBody", "variables version program tags procedures sites")
#: A v5 body's procedure entry; per-kind lists in ``tags`` order.
#: ``r_lists`` holds each kind's formal names, ``None`` unless read for
#: the payload; ``partners`` is the symmetric alias table or, read for
#: the payload, its name pairs (:func:`~repro.core.aliases.named_pairs`).
BodyProcedure = namedtuple("BodyProcedure", "name level g_rows r_lists partners")
#: A v5 body's call-site entry; ``dmod`` and ``mod`` per kind.
BodySite = namedtuple("BodySite", "site_id caller callee line dmod mod")


def _read_summary_body(
    data, pos: int, strings: List[str], naming: bool = False
) -> Tuple[SummaryBody, int]:
    """The one reader of a v5 body.  Every set is read with the variable
    count as its width, so no bit lands past the variable table.  With
    ``naming`` (the payload decode), each set is kept as its name list,
    each distinct set named once, from the names of the base the body
    stores it against (:func:`~repro.core.bitvec.members_from`), and
    every entry a list of its own, and each alias table as its name
    pairs: no mask outlives its read.
    Without it, nothing is named: the R lists are stepped over
    (:func:`_skip_names`) and each alias table comes back symmetric."""
    width, pos = read_varint(data, pos)
    if width > len(strings):
        raise ValueError(
            "corrupt binary summary: %d variables, but the string table "
            "holds %d strings" % (width, len(strings))
        )
    everything, pos = read_mask_adaptive(data, pos, width)
    listed: Dict[int, List[str]] = {}

    def named(mask: int, base: int) -> List[str]:
        found = listed.get(mask)
        if found is None:
            found = listed[mask] = (
                members_from(mask, base, named(base, 0), strings) if base
                else members(mask, strings))
        return found

    def keep(mask: int, base: int = 0):
        """``mask``, or with ``naming`` a list of its names of its own,
        named from those of ``base``: the base the body stores it
        against."""
        return list(named(mask, base)) if naming else mask

    def string(pos: int) -> Tuple[str, int]:
        index, pos = read_varint(data, pos)
        return strings[index], pos

    version, pos = read_varint(data, pos)
    program, pos = string(pos)
    count, pos = read_varint(data, pos)
    tags = []
    for _ in range(count):
        tag, pos = string(pos)
        tags.append(tag)

    read_names = _decode_value if naming else _skip_names
    procedures = []
    rows_of: Dict[str, List[int]] = {}
    count, pos = read_varint(data, pos)
    for _ in range(count):
        name, pos = string(pos)
        level, pos = read_varint(data, pos)
        rows: List[int] = []
        g_rows = []
        r_lists = []
        for _tag in tags:
            flag = data[pos]
            if flag > 1:
                raise ValueError(
                    "corrupt binary summary: G row flag %d is neither 0 nor 1"
                    % flag
                )
            row, pos = read_mask_adaptive(data, pos + 1, width)
            if flag:
                row ^= everything
            rows.append(row)
            g_rows.append(keep(row, everything if flag else 0))
            names, pos = read_names(data, pos, strings, 3)
            r_lists.append(names)
        partner_rows, pos = read_partner_rows(data, pos, width)
        if naming:  # Each pair once, from its row: no symmetric table.
            partners = named_pairs(((low, uid) for uid, below in partner_rows
                                    for low in iter_bits(below)), strings)
        else:
            partners = _partner_table(partner_rows)
        procedures.append(BodyProcedure(name, level, g_rows, r_lists, partners))
        rows_of[name] = rows

    sites = []
    count, pos = read_varint(data, pos)
    for _ in range(count):
        site_id, pos = read_varint(data, pos)
        caller, pos = string(pos)
        callee, pos = string(pos)
        line, pos = read_varint(data, pos)
        bases = rows_of.get(callee)
        if bases is None:
            raise ValueError(
                "corrupt binary summary: call site %d names callee %r, "
                "which has no procedure entry" % (site_id, callee)
            )
        dmods: List[int] = []
        mods: List[int] = []
        for base in bases:
            delta, pos = read_mask_adaptive(data, pos, width)
            dmod = base ^ delta
            delta, pos = read_mask_adaptive(data, pos, width)
            dmods.append(keep(dmod, base))
            mods.append(keep(dmod ^ delta, dmod))
        sites.append(BodySite(site_id, caller, callee, line, dmods, mods))
    return SummaryBody(strings[:width], version, program, tags, procedures, sites), pos


def _skip_names(data, pos: int, _strings, _depth) -> Tuple[None, int]:
    """``(None, the position past a name list)`` in a layout
    :func:`_write_names` writes, read without naming it."""
    tag = data[pos]
    count, pos = read_varint(data, pos + 1)
    if tag == _T_STRLIST_MASK:  # the first index, then the bit mask
        return None, read_bytes(data, pos)[1]
    if tag != _T_STRLIST_DELTA and tag != _T_LIST:
        raise ValueError("corrupt binary summary: R list value tag %d" % tag)
    skip = 1 if tag == _T_LIST else 0  # each string value's tag
    for _ in range(count):  # the first index and the gaps, or the values
        _index, pos = read_varint(data, pos + skip)
    return None, pos


def _partner_table(rows: List[Tuple[int, int]]) -> Dict[int, int]:
    """The symmetric partner table :func:`~repro.core.binio.write_partners`
    wrote ``rows`` from: each pair, stored once under its higher uid,
    comes back in both rows."""
    table: Dict[int, int] = {}
    for uid, below in rows:
        table[uid] = table.get(uid, 0) | below
        bit = 1 << uid
        for partner in iter_bits(below):
            table[partner] = table.get(partner, 0) | bit
    return table


def _payload_of(body: SummaryBody) -> Dict:
    """A body read with ``naming`` as the :func:`summary_to_dict`
    payload, key order included."""
    procedures: Dict = {}
    aliases: Dict = {}
    for name, level, rows, r_lists, pairs in body.procedures:
        entry: Dict = {"level": level}
        for tag, row, r_list in zip(body.tags, rows, r_lists):
            entry["g" + tag] = row
            entry["r" + tag] = r_list
        procedures[name] = entry
        aliases[name] = pairs
    call_sites = []
    for site_id, caller, callee, line, dmods, mods in body.sites:
        entry = {"site_id": site_id, "caller": caller, "callee": callee,
                 "line": line}
        for tag, dmod, mod in zip(body.tags, dmods, mods):
            entry["d" + tag] = dmod
            entry[tag] = mod
        call_sites.append(entry)
    return {
        "version": body.version,
        "program": body.program,
        "procedures": procedures,
        "call_sites": call_sites,
        "aliases": aliases,
    }


def is_binary_summary(data: bytes) -> bool:
    """Do these bytes start with the binary container magic (any
    container version)?"""
    return data[: len(BINARY_MAGIC)] == BINARY_MAGIC


def _read_header(data) -> Tuple[int, int, int, int]:
    """``(version, table_start, body_start, body_end)`` of a binary
    container whose header checks out against the data's length."""
    magic = data[: len(BINARY_MAGIC)]
    if magic != BINARY_MAGIC:
        raise ValueError(
            "not a binary summary: expected magic %r, found %r"
            % (BINARY_MAGIC, bytes(magic))
        )
    table_start = len(BINARY_MAGIC) + _HEADER.size
    if len(data) < table_start:
        raise ValueError(
            "truncated binary summary: %d bytes, the header alone needs %d"
            % (len(data), table_start)
        )
    version, table_len, body_len = _HEADER.unpack_from(data, len(BINARY_MAGIC))
    if not _SECTIONLESS_BINARY_VERSION <= version <= BINARY_FORMAT_VERSION:
        raise ValueError(
            "unsupported binary summary container version %d (this reader "
            "supports versions %d to %d); re-export the summary or upgrade"
            % (version, _SECTIONLESS_BINARY_VERSION, BINARY_FORMAT_VERSION)
        )
    body_start = table_start + table_len
    body_end = body_start + body_len
    if len(data) < body_end:
        raise ValueError(
            "truncated binary summary: header promises %d bytes, found %d"
            % (body_end, len(data))
        )
    return version, table_start, body_start, body_end


def _read_sections(data, version: int, pos: int) -> Dict[int, bytes]:
    """The trailer starting at ``pos`` (none before v4)."""
    sections: Dict[int, bytes] = {}
    if version >= _TRAILER_BINARY_VERSION:
        try:
            count, pos = read_varint(data, pos)
            for _ in range(count):
                tag, pos = read_varint(data, pos)
                blob, pos = read_bytes(data, pos)
                sections[tag] = blob
        except IndexError as exc:
            # A varint running off the data.
            raise ValueError("corrupt binary summary: %s" % exc) from exc
    return sections


def decode_summary_container(data: bytes) -> "Tuple[Dict, Dict[int, bytes]]":
    """Decode a binary container (v3, v4 or v5) into its payload dict
    and trailer sections (``{tag: blob}``; empty for a v3 file).

    Raises :class:`ValueError` with an explicit message when the magic
    or the container version does not match — a future writer and this
    reader must fail loudly, never misread — and on every truncated or
    corrupt container, values nested past :data:`_MAX_DEPTH` included:
    no other exception class escapes.
    """
    version, body, body_end = _read_body(data, naming=True)
    if isinstance(body, SummaryBody):
        body = _payload_of(body)
    return body, _read_sections(data, version, body_end)


def read_summary_body(data) -> SummaryBody:
    """A v5 container's :class:`SummaryBody` with every set a mask and
    nothing named; its trailer is not read.  :class:`ValueError` on what
    :func:`decode_summary_container` rejects and on a v3/v4 container."""
    if _read_header(data)[0] != BINARY_FORMAT_VERSION:
        raise ValueError("a v3/v4 container body holds names, not masks")
    return _read_body(data, naming=False)[1]


def _read_body(data, naming: bool) -> "Tuple[int, object, int]":
    """A container's version, its body — a :class:`SummaryBody` for v5
    (see :func:`_read_summary_body` for ``naming``), the payload of
    tagged values for v3/v4 — and where the body ends."""
    version, table_start, body_start, body_end = _read_header(data)
    try:
        count, pos = read_varint(data, table_start)
        strings: List[str] = []
        for _ in range(count):
            blob, pos = read_bytes(data, pos)
            strings.append(blob.decode("utf-8"))
        if pos != body_start:
            raise ValueError(
                "corrupt binary summary: string table ends at byte %d, "
                "header says %d" % (pos, body_start)
            )
        if version == BINARY_FORMAT_VERSION:
            body, pos = _read_summary_body(data, body_start, strings, naming)
        else:
            body, pos = _decode_value(data, body_start, strings)
    except (IndexError, struct.error) as exc:
        # A varint, string index or float running off the data.
        raise ValueError("corrupt binary summary: %s" % exc) from exc
    if pos != body_end:
        raise ValueError(
            "corrupt binary summary: body ends at byte %d, header says %d"
            % (pos, body_end)
        )
    return version, body, body_end


def read_container_trailer(data) -> "Tuple[Dict[int, bytes], int]":
    """The trailer sections of a binary container (v3, v4 or v5; none
    for v3) and the ``zlib.crc32`` of its string table and body, without
    decoding either: the header's lengths locate the trailer.  This is
    the whole read of a summary-cache hit; the CRC lets a section vouch
    for the summary it rides with (see :func:`summary_crc32`).

    Raises :class:`ValueError` on the header faults
    :func:`decode_summary_container` reports and on a trailer cut short.
    """
    version, table_start, _body_start, body_end = _read_header(data)
    sections = _read_sections(data, version, body_end)
    with memoryview(data) as view:
        crc = zlib.crc32(view[table_start:body_end])
    return sections, crc


def split_unknown_sections(
    sections: Dict[int, bytes], context: str = "binary summary"
) -> "Tuple[Dict[int, bytes], Dict[int, bytes]]":
    """Partition trailer sections into ``(known, unknown)`` by
    :data:`KNOWN_SECTION_TAGS`.

    Unknown tags come from *future* writers (a lane this build does not
    ship, a new index flavour).  The forward-compat contract is
    loud-but-safe: one :class:`UnknownSectionWarning` naming the tags,
    then the caller proceeds with the known sections only and re-solves
    whatever the skipped data carried.  Never an exception — a newer
    build sharing a cache directory must not brick an older reader's
    cache.
    """
    known = {tag: blob for tag, blob in sections.items() if tag in KNOWN_SECTION_TAGS}
    unknown = {tag: blob for tag, blob in sections.items() if tag not in KNOWN_SECTION_TAGS}
    if unknown:
        warnings.warn(
            "%s carries unknown trailer section tag(s) %s (written by a "
            "newer toolchain?); skipping them and re-deriving on demand"
            % (context, sorted(unknown)),
            UnknownSectionWarning,
            stacklevel=2,
        )
    return known, unknown


class UnknownSectionWarning(UserWarning):
    """A v4 container carried a trailer section this reader does not
    understand; it was skipped and its content will be re-derived."""


def decode_summary_payload(data: bytes) -> Dict:
    """Decode a binary container back into the payload dict, ignoring
    any trailer sections (use :func:`decode_summary_container` to read
    those)."""
    payload, _ = decode_summary_container(data)
    return payload


def loads_summary_payload(data) -> Dict:
    """Decode a serialized summary payload from either format: the
    binary container (any version, sniffed by magic) or the legacy v2
    JSON text.  ``data`` may be any byte buffer — ``bytes``, a
    ``memoryview``, or a memory-mapped file (see
    :func:`load_summary_container_file`).  Malformed input of either
    form, nested too deeply included, ends in :class:`ValueError`."""
    return _loads_container(data)[0]


def _loads_container(data) -> "Tuple[Dict, Dict[int, bytes]]":
    """``(payload, sections)`` of a container or, with no sections, of
    legacy JSON text."""
    if is_binary_summary(data):
        return decode_summary_container(data)
    return _json_loads(bytes(data).decode("utf-8")), {}


def _json_loads(text: str):
    """``json.loads``, with nesting too deep for the parser reported as
    :class:`ValueError` like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("summary JSON nests too deeply to decode") from None


def load_summary_container_file(path: str) -> "Tuple[Dict, Dict[int, bytes]]":
    """Decode a container file through ``mmap``: the decoder walks the
    mapped pages in place, so only the bytes a section actually touches
    are read — a file whose trailer (a dependency index) dwarfs its body
    decodes without pulling the whole file through a read buffer first.
    Falls back to a plain read where mmap is unavailable (empty files,
    exotic filesystems).

    Returns ``(payload, sections)`` like :func:`decode_summary_container`,
    and understands the legacy JSON form (``(payload, {})``).
    """
    import mmap

    with open(path, "rb") as handle:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return _loads_container(handle.read())
        try:
            return _loads_container(buffer)
        finally:
            buffer.close()


def write_file_atomic(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` so readers see the old file or the new
    one, never a torn one.  The bytes go to a temp file unique to this
    call, in the same directory, and ``os.replace`` then moves it over
    ``path``: concurrent writers of one path never share a temp file.
    The temp file is removed if anything fails."""
    directory, name = os.path.split(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_summary_payload_file(path: str) -> Dict:
    """The payload dict of a container file, mmap-decoded (trailer
    sections skipped).  See :func:`load_summary_container_file`."""
    payload, _ = load_summary_container_file(path)
    return payload


class LoadedSummary:
    """A summary read back from its serialized form.

    Offers the same name-level queries as a live summary (``mod_names``,
    ``gmod_names``, …) without requiring re-analysis; mask-level APIs
    need the live object.
    """

    def __init__(self, payload: Dict):
        if not isinstance(payload, dict):
            raise ValueError(
                "a summary payload is a JSON object, not %s"
                % type(payload).__name__
            )
        found = payload.get("version")
        if found != FORMAT_VERSION:
            raise ValueError(
                "unsupported summary payload version %r (this reader supports "
                "version %d); re-export the summary with a matching toolchain"
                % (found, FORMAT_VERSION)
            )
        self.payload = payload

    @classmethod
    def from_json(cls, text: str) -> "LoadedSummary":
        return cls(_json_loads(text))

    @classmethod
    def from_bytes(cls, data: bytes) -> "LoadedSummary":
        """Load from either serialized form: the binary container (any
        version) or the legacy v2 JSON text (sniffed by magic)."""
        return cls(loads_summary_payload(data))

    @property
    def program_name(self) -> str:
        return self.payload["program"]

    def procedures(self) -> List[str]:
        return sorted(self.payload["procedures"])

    def gmod_names(self, qualified_name: str, kind: EffectKind = EffectKind.MOD) -> List[str]:
        return list(self.payload["procedures"][qualified_name]["g%s" % kind.value])

    def rmod_names(self, qualified_name: str, kind: EffectKind = EffectKind.MOD) -> List[str]:
        return list(self.payload["procedures"][qualified_name]["r%s" % kind.value])

    def site_entries(self) -> List[Dict]:
        return list(self.payload["call_sites"])

    def mod_names(self, site_id: int, kind: EffectKind = EffectKind.MOD) -> List[str]:
        return list(self.payload["call_sites"][site_id][kind.value])

    def dmod_names(self, site_id: int, kind: EffectKind = EffectKind.MOD) -> List[str]:
        return list(self.payload["call_sites"][site_id]["d%s" % kind.value])

    def alias_pairs(self, qualified_name: str) -> List[List[str]]:
        """Alias pairs of a procedure, as sorted name pairs."""
        return [list(pair) for pair in self.payload["aliases"][qualified_name]]

    @property
    def has_sections(self) -> bool:
        """Does the payload carry a ``sections`` block (rendered Figure 3
        sections per call site)?  :func:`summary_to_dict` writes none;
        payloads from earlier builds may carry one."""
        return "sections" in self.payload

    def site_section_names(self, site_id: int) -> List[str]:
        """Rendered regular sections of a call site (Figure 3 style)."""
        return list(self.payload["sections"]["sites"][site_id])


def verify_against(loaded: LoadedSummary, summary: SideEffectSummary) -> bool:
    """Does a loaded summary match a live analysis of (supposedly) the
    same program?  Used to validate stale summary files.  A ``sections``
    block (see :attr:`LoadedSummary.has_sections`) is not compared."""
    payload = {key: value for key, value in loaded.payload.items() if key != "sections"}
    return summary_to_dict(summary) == payload
