"""Summary serialization — separate-compilation support.

The paper's program of research (interprocedural analysis inside the
Rice programming environment) assumes summary information is *stored*
between compiler runs.  This module round-trips the per-procedure and
per-site sets through a plain-dict (JSON-safe) form keyed by qualified
names, so a summary written by one process can be loaded against a
freshly parsed copy of the same program — or diffed against the next
version's summary by the recompilation analysis.  The binary container
holds the same payload; :func:`summary_to_bytes` writes it straight
from the solution masks, never listing a set's names.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import warnings
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.aliases import named_pairs
from repro.core.binio import (
    read_bytes,
    read_signed,
    read_varint,
    write_bytes,
    write_signed,
    write_varint,
)
from repro.core.bitvec import iter_bits
from repro.core.summary import SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.symbols import ResolvedProgram

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
#: header, an interned string table, and tagged values with
#: variable-set name lists compressed to index deltas or bit masks.
#: Loaders sniff :data:`BINARY_MAGIC` and fall back to JSON, so v2
#: files keep loading forever.
#:
#: History: 3 = header + string table + tagged body; 4 = appends a
#: trailer of tagged sections after the body (the dependency index,
#: :data:`SECTION_DEP_INDEX`, the analysis server's session metadata,
#: :data:`SECTION_SESSION_META`, and one section per persisted effect
#: lane, :data:`SECTION_LANE_SECTIONS` /
#: :data:`SECTION_LANE_REFALIAS`).  The writer emits a
#: byte-identical v3 container whenever there are no sections, so v3
#: readers only ever reject files that genuinely carry data they cannot
#: represent.
BINARY_FORMAT_VERSION = 4

#: The newest container version carrying no section trailer.
_SECTIONLESS_BINARY_VERSION = 3

#: Section tag of a serialized :class:`repro.core.depindex.DependencyIndex`.
SECTION_DEP_INDEX = 1

#: Section tag of the analysis server's session metadata (a small JSON
#: blob: session name, requested gmod method).  Written by ``ck-analyze
#: serve --state-dir`` next to the index so a restarted daemon can
#: resume ``update`` verbs for sessions it has never seen in memory.
SECTION_SESSION_META = 2

#: Section tag of the regular-sections effect lane
#: (:mod:`repro.lanes.sections_lane` owns the blob codec).
SECTION_LANE_SECTIONS = 3

#: Section tag of the reference-parameter alias lane
#: (:mod:`repro.lanes.refalias` owns the blob codec).
SECTION_LANE_REFALIAS = 4

#: Section tag of the USE-kind regular-sections lane (same codec as
#: :data:`SECTION_LANE_SECTIONS`; the payload's ``kind`` field tells
#: the two apart).
SECTION_LANE_SECTIONS_USE = 5

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
    }
)

#: First bytes of every binary summary file.
BINARY_MAGIC = b"CKSB"

#: struct layout following the magic: container version, string-table
#: byte length, body byte length.
_HEADER = struct.Struct("<HQQ")

# Value tags of the binary body encoding.
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


def summary_to_dict(summary: SideEffectSummary) -> Dict:
    """A JSON-safe dictionary of every externally meaningful set.

    The payload is **read-only**: entries with equal masks share one
    name list, and the payload itself is kept on the summary (see
    :class:`_Render`) and may be returned again — by a later call, or
    for a successor summary whose sets all came out equal (see
    :func:`carry_render`).  Copy before editing.
    """
    render = _render(summary, summary.render)
    summary.render = render
    return render.payload


class _Render:
    """One plain :func:`summary_to_dict` render, kept on
    ``summary.render`` for the next one.

    ``names`` maps each distinct mask of the payload to its name list
    and ``aliases`` maps each non-empty partner table, by identity, to
    its name pairs.  Both are functions of the universe's names alone
    (partner tables are final once solved, and carried between
    summaries by reference, never written), so a summary naming its
    variables alike can look its sets up here instead of listing them.
    ``head`` is the container's string table and body, written from
    ``payload`` (a pure function of it) once :func:`summary_to_bytes`
    has run.

    A ``carried`` render is a predecessor's, seeded by
    :func:`carry_render`: its maps serve this summary's first render,
    but its payload and head are the predecessor's until that render
    finds the new payload equal.
    """

    __slots__ = ("kinds", "payload", "names", "aliases", "head", "carried")

    def __init__(self, kinds, payload, names, aliases, head=None, carried=False):
        self.kinds: Tuple[EffectKind, ...] = kinds
        self.payload: Dict = payload
        self.names: Dict[int, List[str]] = names
        self.aliases: Dict[int, Tuple[Dict[int, int], List[List[str]]]] = aliases
        self.head: Optional[Tuple[bytes, bytes]] = head
        self.carried: bool = carried


def carry_render(old: SideEffectSummary, new: SideEffectSummary) -> None:
    """Seed ``new``'s next render with ``old``'s, when both universes
    name their variables alike.  The seed shares ``old``'s maps, payload
    and head by reference and points at nothing else, so no chain of
    predecessors stays reachable; the first render drops it."""
    render = old.render
    if render is not None and old.universe.names == new.universe.names:
        new.render = _Render(
            render.kinds, render.payload, render.names, render.aliases,
            render.head, carried=True,
        )


def _render(summary: SideEffectSummary, previous: Optional[_Render]) -> _Render:
    """Build the plain payload, naming each distinct mask once — from
    ``previous``'s maps where they hold it — and return the predecessor's
    payload object (and head) instead when the two are equal, key order
    included."""
    resolved = summary.resolved
    universe = summary.universe
    known = previous.names if previous is not None else {}
    known_pairs = previous.aliases if previous is not None else {}
    names: Dict[int, List[str]] = {}
    pairs: Dict[int, Tuple[Dict[int, int], List[List[str]]]] = {}

    def named(mask: int) -> List[str]:
        found = names.get(mask)
        if found is None:
            found = known.get(mask)
            if found is None:
                found = universe.to_names(mask)
            names[mask] = found
        return found

    def alias_names(table: Dict[int, int]) -> List[List[str]]:
        if not table:
            return []
        key = id(table)
        found = known_pairs.get(key)
        if found is None or found[0] is not table:
            found = (table, named_pairs(table, universe.names))
        pairs[key] = found
        return found[1]

    solutions = [(kind.value, solution) for kind, solution in summary.solutions.items()]
    partner_mask = summary.aliases.partner_mask
    procedures: Dict = {}
    aliases: Dict = {}
    for proc in resolved.procs:
        entry: Dict = {"level": proc.level}
        for tag, solution in solutions:
            entry["g" + tag] = named(solution.gmod[proc.pid])
            entry["r" + tag] = _rmod_names(solution, proc)
        procedures[proc.qualified_name] = entry
        aliases[proc.qualified_name] = alias_names(partner_mask[proc.pid])
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
            entry["d" + tag] = named(solution.dmod[sid])
            entry[tag] = named(solution.mod[sid])
        call_sites.append(entry)
    payload: Dict = {
        "version": FORMAT_VERSION,
        "program": resolved.program.name,
        "procedures": procedures,
        "call_sites": call_sites,
        "aliases": aliases,
    }
    kinds = tuple(summary.solutions)
    head = None
    if (
        previous is not None
        and previous.kinds == kinds
        and payload == previous.payload
        and list(procedures) == list(previous.payload["procedures"])
    ):
        # Shared lists compare by identity, so the comparison walks the
        # entries only.  Dict equality ignores key order, which the
        # container keeps: hence the kinds and procedure-order checks.
        payload = previous.payload
        head = previous.head
    return _Render(kinds, payload, names, pairs, head)


def _rmod_names(solution, proc) -> List[str]:
    """``RMOD(p)`` (or ``RUSE``) as formal names, position-ascending."""
    return [formal.name for formal in solution.rmod.formals_of(proc.pid)]


def summary_to_json(summary: SideEffectSummary, indent: Optional[int] = None) -> str:
    return json.dumps(summary_to_dict(summary), indent=indent, sort_keys=True)


def summary_to_bytes(
    summary: SideEffectSummary,
    include_index: bool = False,
    include_lanes: bool = False,
    sections: Optional[Dict[int, bytes]] = None,
) -> bytes:
    """Serialize a live summary to the binary container.

    The container is written straight from the solution masks (see
    :class:`_MaskWriter`), byte-identical to
    ``encode_summary_payload(summary_to_dict(summary), sections)``
    without building that payload.

    ``include_index`` additionally embeds the fine-grained dependency
    index as a v4 trailer section (building and caching it on the
    summary if absent) so a later process can run demand-driven
    incremental updates without re-deriving it.  ``include_lanes``
    embeds one tagged trailer section per persistable lane the summary
    was solved with (``summary.lanes``); lanes the analysis never ran
    are simply absent — a loader re-solves on demand.  ``sections``
    adds caller-owned trailer sections (tag → blob), such as the
    analysis server's :data:`SECTION_SESSION_META`.  With none of the
    three the output is a plain v3 container, byte-identical to earlier
    writers.

    Once the summary has rendered its own payload (see
    :class:`_Render`), the string table and body are written once and
    kept with it; a successor whose render returned that same payload
    reuses them by reference, and only the trailer is rebuilt.
    """
    trailer: Dict[int, bytes] = dict(sections or {})
    if include_lanes and summary.lanes:
        from repro.lanes.driver import lane_blobs

        trailer.update(lane_blobs(summary.lanes))
    if include_index:
        from repro.core.arena import peek_arena
        from repro.core.depindex import build_dependency_index, index_to_bytes

        index = summary.dep_index
        if index is None:
            index = build_dependency_index(
                summary, arena=peek_arena(summary.resolved)
            )
            summary.dep_index = index
        trailer[SECTION_DEP_INDEX] = index_to_bytes(index)
    render = summary.render
    if render is None or render.carried:
        return _container(*_summary_head(summary), trailer)
    if render.head is None:
        render.head = _summary_head(summary)
    return _container(*render.head, trailer)


def _summary_head(summary: SideEffectSummary) -> Tuple[bytes, bytes]:
    """The container's string table and body, written from the masks."""
    strings, intern = _string_table()
    body = _summary_body(summary, intern)
    return _table_bytes(strings), bytes(body)


def _summary_body(summary: SideEffectSummary, intern) -> bytearray:
    """The tagged body of :func:`summary_to_dict`'s payload, written in
    the order :func:`_encode_value` would walk that payload, so every
    string is interned at the same table index."""
    resolved = summary.resolved
    solutions = list(summary.solutions.items())
    sets = _MaskWriter(summary.universe.names, intern)
    # Keyed like the payload's dicts: a procedure sharing a qualified
    # name with an earlier one (the main program and a procedure named
    # after the program) keeps the first one's slot and the last one's
    # entry.
    procs_by_name = {}
    for proc in resolved.procs:
        procs_by_name[proc.qualified_name] = proc
    body = bytearray()

    def key(text: str) -> None:
        write_varint(body, intern(text))

    def value(item) -> None:
        _encode_value(item, body, intern)

    body.append(_T_DICT)
    write_varint(body, 5)
    key("version")
    value(FORMAT_VERSION)
    key("program")
    value(resolved.program.name)

    key("procedures")
    body.append(_T_DICT)
    write_varint(body, len(procs_by_name))
    for name, proc in procs_by_name.items():
        key(name)
        body.append(_T_DICT)
        write_varint(body, 1 + 2 * len(solutions))
        key("level")
        value(proc.level)
        for kind, solution in solutions:
            key("g%s" % kind.value)
            body += sets.encode(solution.gmod[proc.pid])
            key("r%s" % kind.value)
            value(_rmod_names(solution, proc))

    key("call_sites")
    body.append(_T_LIST)
    write_varint(body, len(resolved.call_sites))
    for site in resolved.call_sites:
        body.append(_T_DICT)
        write_varint(body, 4 + 2 * len(solutions))
        key("site_id")
        value(site.site_id)
        key("caller")
        value(site.caller.qualified_name)
        key("callee")
        value(site.callee.qualified_name)
        key("line")
        value(site.line)
        for kind, solution in solutions:
            key("d%s" % kind.value)
            body += sets.encode(solution.dmod[site.site_id])
            key(kind.value)
            body += sets.encode(solution.mod[site.site_id])

    key("aliases")
    body.append(_T_DICT)
    write_varint(body, len(procs_by_name))
    partner_mask = summary.aliases.partner_mask
    for name, proc in procs_by_name.items():
        key(name)
        value(named_pairs(partner_mask[proc.pid], summary.universe.names))
    return body


#: Shortest uid run :class:`_MaskWriter` maps with one shift.
_MIN_RUN = 8

class _MaskWriter:
    """Writes variable masks as the container's name-list values without
    listing the names.

    The dict route turns a mask into its qualified names in uid order
    and interns each one.  This writer interns the same names in the
    same order — a mask's not-yet-seen uids, uid-ascending, by name
    through the shared ``intern``, so a variable named like a payload
    key or a procedure gets the index the dict route gives it — and
    then maps the mask's bits to table indices directly.  Every stretch
    of at least :data:`_MIN_RUN` consecutive uids interned to
    consecutive indices is kept as one run, whose bits move with one
    shift; only bits outside the runs are mapped one by one.  On the
    generated shapes the globals, interned together by the main
    program's GMOD, form one run.

    A mask's bytes are final once its uids are interned, so each
    distinct mask is encoded once.
    """

    def __init__(self, names: List[str], intern) -> None:
        self.names = names
        self.intern = intern
        #: uid → string-table index, -1 until first written.
        self.index = [-1] * len(names)
        self.seen = 0
        #: Runs as ``(uid_lo, width, index_lo)``, uid-ascending; a uid
        #: ``u`` in a run sits at index ``index_lo + u - uid_lo``.
        self.runs: List[Tuple[int, int, int]] = []
        self.run_starts: List[int] = []
        self.in_runs = 0
        self.encoded: Dict[int, bytes] = {}

    def encode(self, mask: int) -> bytes:
        blob = self.encoded.get(mask)
        if blob is None:
            fresh = mask & ~self.seen
            if fresh:
                self._intern(fresh)
            blob = self.encoded[mask] = self._write(mask)
        return blob

    def _intern(self, fresh: int) -> None:
        index, names, intern = self.index, self.names, self.intern
        lo = base = -1
        width = 0
        for uid in iter_bits(fresh):
            at = intern(names[uid])
            index[uid] = at
            if uid == lo + width and at == base + width:
                width += 1
            else:
                self._add_run(lo, width, base)
                lo, base, width = uid, at, 1
        self._add_run(lo, width, base)
        self.seen |= fresh

    def _add_run(self, lo: int, width: int, base: int) -> None:
        if width >= _MIN_RUN:
            at = bisect_right(self.run_starts, lo)
            self.run_starts.insert(at, lo)
            self.runs.insert(at, (lo, width, base))
            self.in_runs |= ((1 << width) - 1) << lo

    def _write(self, mask: int) -> bytes:
        if not mask:
            return bytes((_T_LIST, 0))  # The generic encoder's empty list.
        # Pieces of the mask in uid order: (first uid, first index, last
        # index, member offsets from the first index as a bit mask).
        pieces = []
        covered = mask & self.in_runs
        rest = covered
        while rest:
            uid = (rest & -rest).bit_length() - 1
            lo, width, base = self.runs[bisect_right(self.run_starts, uid) - 1]
            end = lo + width
            part = (rest >> uid) & ((1 << (end - uid)) - 1)
            first = base + uid - lo
            pieces.append((uid, first, first + part.bit_length() - 1, part))
            rest = rest >> end << end
        index = self.index
        for uid in iter_bits(mask ^ covered):
            at = index[uid]
            pieces.append((uid, at, at, 1))
        pieces.sort()
        count = mask.bit_count()
        out = bytearray()
        last = -1
        for _uid, first, top, _part in pieces:
            if first <= last:
                # Not table-ascending: the generic encoder's list form.
                names = [self.names[uid] for uid in iter_bits(mask)]
                _encode_value(names, out, self.intern)
                return bytes(out)
            last = top
        first = pieces[0][1]

        def offsets() -> int:
            bits = 0
            for _uid, at, _top, part in pieces:
                bits |= part << (at - first)
            return bits

        def gaps(out: bytearray) -> None:
            previous = first
            for _uid, at, top, part in pieces:
                if at != first:
                    write_varint(out, at - previous - 1)
                if part != 1:
                    out += _bit_gaps(part)
                previous = top

        _write_ascending(out, first, last, count, offsets, gaps)
        return bytes(out)


# ---------------------------------------------------------------------------
# Binary container (format v3)
# ---------------------------------------------------------------------------


def _write_ascending(
    body: bytearray,
    first: int,
    last: int,
    count: int,
    offsets: Callable[[], int],
    gaps: Callable[[bytearray], None],
) -> None:
    """Write ``count`` strictly ascending string-table indices from
    ``first`` to ``last`` in the denser of the two layouts — the one
    rule both the generic encoder and the mask writer follow.

    ``offsets()`` returns the indices as a bit mask whose bit 0 is
    ``first``; ``gaps(out)`` appends, as varints, each later index's
    distance from the one before, minus one.  Only the chosen layout's
    callback runs.
    """
    span = last - first + 1
    if span <= 8 * count:
        # Dense: a bit mask over [first, last] costs at most one byte
        # per member, while delta varints cost at least one.
        body.append(_T_STRLIST_MASK)
        write_varint(body, first)
        write_bytes(body, offsets().to_bytes((span + 7) >> 3, "little"))
    else:
        body.append(_T_STRLIST_DELTA)
        write_varint(body, count)
        write_varint(body, first)
        gaps(body)


def _bit_gaps(bits: int) -> bytes:
    """The delta varints between consecutive set bits of ``bits``
    (whose bit 0 is set), from the zero runs of its binary string."""
    gaps = list(map(len, bin(bits)[:1:-1].split("1")[1:-1]))
    if max(gaps, default=0) < 0x80:
        return bytes(gaps)  # One byte per varint.
    out = bytearray()
    for gap in gaps:
        write_varint(out, gap)
    return bytes(out)


def _index_offsets(indices: List[int], first: int) -> int:
    """Ascending table indices as a bit mask whose bit 0 is ``first``."""
    bits = bytearray(((indices[-1] - first) >> 3) + 1)
    for index in indices:
        offset = index - first
        bits[offset >> 3] |= 1 << (offset & 7)
    return int.from_bytes(bits, "little")


def _index_gaps(out: bytearray, indices: List[int]) -> None:
    """Append the delta varints of an ascending index list."""
    previous = indices[0]
    for index in indices[1:]:
        write_varint(out, index - previous - 1)
        previous = index


def _encode_value(value, body: bytearray, intern) -> None:
    if value is None:
        body.append(_T_NONE)
    elif value is True:
        body.append(_T_TRUE)
    elif value is False:
        body.append(_T_FALSE)
    elif type(value) is str:
        body.append(_T_STR)
        write_varint(body, intern(value))
    elif type(value) is int:
        body.append(_T_INT)
        write_signed(body, value)
    elif type(value) is float:
        body.append(_T_FLOAT)
        body += _FLOAT.pack(value)
    elif isinstance(value, (list, tuple)):
        if value and all(type(item) is str for item in value):
            indices = [intern(item) for item in value]
            ascending = True
            previous = -1
            for index in indices:
                if index <= previous:
                    ascending = False
                    break
                previous = index
            if ascending:
                first = indices[0]
                _write_ascending(
                    body, first, indices[-1], len(indices),
                    lambda: _index_offsets(indices, first),
                    lambda out: _index_gaps(out, indices),
                )
                return
            # Not table-ascending (e.g. alias name pairs): fall through
            # to the generic list form, which preserves order exactly.
        body.append(_T_LIST)
        write_varint(body, len(value))
        for item in value:
            _encode_value(item, body, intern)
    elif isinstance(value, dict):
        body.append(_T_DICT)
        write_varint(body, len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(
                    "binary summary payload keys must be str, got %r" % (key,)
                )
            write_varint(body, intern(key))
            _encode_value(item, body, intern)
    else:
        raise TypeError(
            "cannot encode %r in a binary summary payload" % type(value).__name__
        )


def _string_table():
    """An empty string table: ``(strings, intern)``, where
    ``intern(text)`` returns the index of ``text``, appending it on
    first sight."""
    strings: List[str] = []
    index_of: Dict[str, int] = {}

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


def _container(
    table: bytes, body: bytes, sections: Optional[Dict[int, bytes]]
) -> bytes:
    """Magic, header, string table, body and — when there are sections
    — the v4 trailer."""
    if not sections:
        version = _SECTIONLESS_BINARY_VERSION
        trailer = b""
    else:
        version = BINARY_FORMAT_VERSION
        trailer_buf = bytearray()
        write_varint(trailer_buf, len(sections))
        for tag in sorted(sections):
            write_varint(trailer_buf, tag)
            write_bytes(trailer_buf, sections[tag])
        trailer = bytes(trailer_buf)
    return b"".join((
        BINARY_MAGIC,
        _HEADER.pack(version, len(table), len(body)),
        table,
        body,
        trailer,
    ))


def encode_summary_payload(
    payload: Dict, sections: Optional[Dict[int, bytes]] = None
) -> bytes:
    """Encode a summary payload dict (the :func:`summary_to_dict` shape)
    into the binary container.

    Round-trips exactly: ``decode_summary_payload(encode_summary_payload(p))
    == p`` for any JSON-safe payload.  Strings are interned in a table
    written once; name-set lists collapse to delta varints or bit masks
    whenever their interned indices are ascending (which they are for
    every ``universe.to_names`` product, since those share one stable
    emission order).

    ``sections`` maps section tags (e.g. :data:`SECTION_DEP_INDEX`) to
    opaque blobs appended as a v4 trailer; when empty or None the output
    is a v3 container, byte-for-byte what pre-v4 writers produced.

    :func:`summary_to_bytes` writes the same bytes for a live summary
    without building the payload; this generic form serves cache
    records and is the writer's test oracle.
    """
    strings, intern = _string_table()
    body = bytearray()
    _encode_value(payload, body, intern)
    return _container(_table_bytes(strings), body, sections)


def _decode_value(data, pos: int, strings: List[str]):
    tag = data[pos]
    pos += 1
    if tag == _T_STR:
        index, pos = read_varint(data, pos)
        return strings[index], pos
    if tag == _T_INT:
        return read_signed(data, pos)
    if tag == _T_DICT:
        count, pos = read_varint(data, pos)
        result = {}
        for _ in range(count):
            key_index, pos = read_varint(data, pos)
            value, pos = _decode_value(data, pos, strings)
            result[strings[key_index]] = value
        return result, pos
    if tag == _T_LIST:
        count, pos = read_varint(data, pos)
        items = []
        for _ in range(count):
            value, pos = _decode_value(data, pos, strings)
            items.append(value)
        return items, pos
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
        items = []
        base = first
        while mask:
            low = mask & -mask
            items.append(strings[base + low.bit_length() - 1])
            mask ^= low
        return items, pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    raise ValueError("corrupt binary summary: unknown value tag %d" % tag)


def is_binary_summary(data: bytes) -> bool:
    """Do these bytes start with the v3 binary container magic?"""
    return data[: len(BINARY_MAGIC)] == BINARY_MAGIC


def decode_summary_container(data: bytes) -> "Tuple[Dict, Dict[int, bytes]]":
    """Decode a binary container into its payload dict and trailer
    sections (``{tag: blob}``; empty for a v3 file).

    Raises :class:`ValueError` with an explicit message when the magic
    or the container version does not match — a future writer and this
    reader must fail loudly, never misread — and on every truncated or
    corrupt container: no other exception class escapes.
    """
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
    if version not in (_SECTIONLESS_BINARY_VERSION, BINARY_FORMAT_VERSION):
        raise ValueError(
            "unsupported binary summary container version %d (this reader "
            "supports versions %d and %d); re-export the summary or upgrade"
            % (version, _SECTIONLESS_BINARY_VERSION, BINARY_FORMAT_VERSION)
        )
    body_start = table_start + table_len
    expected = body_start + body_len
    if len(data) < expected:
        raise ValueError(
            "truncated binary summary: header promises %d bytes, found %d"
            % (expected, len(data))
        )
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
        payload, pos = _decode_value(data, body_start, strings)
        if pos != expected:
            raise ValueError(
                "corrupt binary summary: body ends at byte %d, header says %d"
                % (pos, expected)
            )
        sections: Dict[int, bytes] = {}
        if version >= BINARY_FORMAT_VERSION:
            count, pos = read_varint(data, pos)
            for _ in range(count):
                tag, pos = read_varint(data, pos)
                blob, pos = read_bytes(data, pos)
                sections[tag] = blob
    except (IndexError, struct.error) as exc:
        # A varint, string index or float running off the data.
        raise ValueError("corrupt binary summary: %s" % exc) from exc
    return payload, sections


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


def decode_lane_sections(sections: Dict[int, bytes]) -> Dict[str, object]:
    """Decode every known *lane* trailer section, ignoring non-lane
    tags.  Value shapes are lane-specific (each lane module owns its
    codec): ``"sections"`` decodes to its payload dict, ``"refalias"``
    to its per-procedure partner tables.

    Call :func:`split_unknown_sections` first if the container may come
    from a newer writer.  A truncated or corrupt blob raises
    :class:`ValueError`.
    """
    try:
        return _decode_lane_sections(sections)
    except IndexError as exc:
        # A varint, mask or string table running off the blob.
        raise ValueError("corrupt lane section: %s" % exc) from exc


def _decode_lane_sections(sections: Dict[int, bytes]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    blob = sections.get(SECTION_LANE_SECTIONS)
    if blob is not None:
        from repro.lanes.sections_lane import sections_payload_from_blob

        out["sections"] = sections_payload_from_blob(blob)
    blob = sections.get(SECTION_LANE_REFALIAS)
    if blob is not None:
        from repro.lanes.refalias import refalias_tables_from_blob

        out["refalias"] = refalias_tables_from_blob(blob)
    blob = sections.get(SECTION_LANE_SECTIONS_USE)
    if blob is not None:
        from repro.lanes.sections_lane import sections_payload_from_blob

        out["sections-use"] = sections_payload_from_blob(blob)
    return out


def decode_summary_payload(data: bytes) -> Dict:
    """Decode a binary container back into the payload dict, ignoring
    any trailer sections (use :func:`decode_summary_container` to read
    those)."""
    payload, _ = decode_summary_container(data)
    return payload


def loads_summary_payload(data) -> Dict:
    """Decode a serialized summary payload from either format: the v3
    binary container (sniffed by magic) or the legacy v2 JSON text.
    ``data`` may be any byte buffer — ``bytes``, a ``memoryview``, or a
    memory-mapped file (see :func:`load_summary_container_file`)."""
    if is_binary_summary(data):
        return decode_summary_payload(data)
    return json.loads(bytes(data).decode("utf-8"))


def load_summary_container_file(path: str) -> "Tuple[Dict, Dict[int, bytes]]":
    """Decode a container file through ``mmap``: the decoder walks the
    mapped pages in place, so only the bytes a section actually touches
    are read — a v4 file whose trailer (dependency index, lane blobs)
    dwarfs its body decodes without pulling the whole file through a
    read buffer first.  Falls back to a plain read where mmap is
    unavailable (empty files, exotic filesystems).

    Returns ``(payload, sections)`` like :func:`decode_summary_container`,
    and understands the legacy JSON form (``(payload, {})``).
    """
    import mmap

    with open(path, "rb") as handle:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            data = handle.read()
            if is_binary_summary(data):
                return decode_summary_container(data)
            return json.loads(data.decode("utf-8")), {}
        try:
            if is_binary_summary(buffer):
                return decode_summary_container(buffer)
            return json.loads(bytes(buffer).decode("utf-8")), {}
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
        return cls(json.loads(text))

    @classmethod
    def from_bytes(cls, data: bytes) -> "LoadedSummary":
        """Load from either serialized form: the v3 binary container or
        the legacy v2 JSON text (sniffed by magic)."""
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
