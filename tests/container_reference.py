"""Reference writer of the v3/v4 summary container.

Earlier builds stored every payload — summary-cache records, the
analysis server's state files — as a tagged-value container: v3, or v4
when a trailer of sections follows the body.  The package writes only
v5 now (``repro.core.persist.summary_to_bytes``), but its reader still
takes v3 and v4, so files already on disk keep loading.  This module is
that earlier generic encoder, kept as a test fixture: the persistence
suites write v3/v4 containers with it to hold the reader to them (round
trips, pinned layouts, damaged containers), and
``tests/test_persist_roundtrip.py`` pins its output for one payload to
the SHA-256 of what an earlier build wrote.

Do not optimize or extend this module; its value is that it stays the
format as it was written.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.core.binio import write_bytes, write_signed, write_varint

MAGIC = b"CKSB"
HEADER = struct.Struct("<HQQ")  # Container version, table length, body length.
SECTIONLESS_VERSION = 3
TRAILER_VERSION = 4

T_NONE = 0
T_FALSE = 1
T_TRUE = 2
T_INT = 3
T_FLOAT = 4
T_STR = 5
T_LIST = 6
T_DICT = 7
#: A list of interned strings whose table indices strictly ascend,
#: stored as delta-encoded varints.
T_STRLIST_DELTA = 8
#: Same, but dense: a base index plus a bit mask over the index range.
T_STRLIST_MASK = 9

_FLOAT = struct.Struct("<d")


def encode_summary_payload(
    payload: Dict, sections: Optional[Dict[int, bytes]] = None
) -> bytes:
    """Encode a JSON-safe payload dict as a v3 container, or v4 when
    there are ``sections`` (tag → blob, written as the trailer in tag
    order).  Strings are interned in a table written once; a list of
    strings whose interned indices ascend collapses to delta varints or
    a bit mask."""
    strings: List[str] = []
    index_of: Dict[str, int] = {}

    def intern(text: str) -> int:
        found = index_of.get(text)
        if found is None:
            found = index_of[text] = len(strings)
            strings.append(text)
        return found

    body = bytearray()
    _encode_value(payload, body, intern)
    table = bytearray()
    write_varint(table, len(strings))
    for text in strings:
        write_bytes(table, text.encode("utf-8"))
    trailer = bytearray()
    version = SECTIONLESS_VERSION
    if sections:
        version = TRAILER_VERSION
        write_varint(trailer, len(sections))
        for tag in sorted(sections):
            write_varint(trailer, tag)
            write_bytes(trailer, sections[tag])
    return b"".join(
        (MAGIC, HEADER.pack(version, len(table), len(body)), table, body, trailer)
    )


def _write_ascending(body: bytearray, indices: List[int]) -> None:
    """Strictly ascending table indices: a bit mask over ``[first,
    last]`` while that costs at most one byte per member, else each
    index's distance from the one before, minus one."""
    first = indices[0]
    span = indices[-1] - first + 1
    if span <= 8 * len(indices):
        body.append(T_STRLIST_MASK)
        write_varint(body, first)
        bits = bytearray((span + 7) >> 3)
        for index in indices:
            offset = index - first
            bits[offset >> 3] |= 1 << (offset & 7)
        write_bytes(body, bytes(bits))
    else:
        body.append(T_STRLIST_DELTA)
        write_varint(body, len(indices))
        write_varint(body, first)
        previous = first
        for index in indices[1:]:
            write_varint(body, index - previous - 1)
            previous = index


def _encode_value(value, body: bytearray, intern) -> None:
    if value is None:
        body.append(T_NONE)
    elif value is True:
        body.append(T_TRUE)
    elif value is False:
        body.append(T_FALSE)
    elif type(value) is str:
        body.append(T_STR)
        write_varint(body, intern(value))
    elif type(value) is int:
        body.append(T_INT)
        write_signed(body, value)
    elif type(value) is float:
        body.append(T_FLOAT)
        body += _FLOAT.pack(value)
    elif isinstance(value, (list, tuple)):
        if value and all(type(item) is str for item in value):
            indices = [intern(item) for item in value]
            if all(a < b for a, b in zip(indices, indices[1:])):
                _write_ascending(body, indices)
                return
            # Not table-ascending (e.g. alias name pairs): the generic
            # list form keeps the order exactly.
        body.append(T_LIST)
        write_varint(body, len(value))
        for item in value:
            _encode_value(item, body, intern)
    elif isinstance(value, dict):
        body.append(T_DICT)
        write_varint(body, len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError("payload keys must be str, got %r" % (key,))
            write_varint(body, intern(key))
            _encode_value(item, body, intern)
    else:
        raise TypeError("cannot encode %r in a payload" % type(value).__name__)
