"""Low-level binary encoding primitives shared by the serialization
fast paths.

Two consumers: the versioned binary summary container
(:mod:`repro.core.persist`; its v5 body writes every variable set with
the adaptive mask codec, and its reader takes the zigzag ints of
earlier builds' v3/v4 bodies) and the dependency index
(:mod:`repro.core.depindex`).  The container's body holds the alias
partner tables (:func:`write_partners`, :func:`read_partner_rows`).  All
speak the same dialect — unsigned LEB128 varints, zigzag-mapped signed
ints, and big-int bit masks as little-endian minimal-length byte
strings — so a byte layout debugged once works everywhere.

Bit masks are the workhorse: the analysis represents variable sets as
arbitrary-precision ints, and ``int.to_bytes``/``int.from_bytes`` move
those to and from the wire entirely inside CPython's C layer.  A
2000-variable dense mask is a 250-byte blob, not a 20 kB JSON name
list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varint value must be non-negative, got %d" % value)
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data, pos: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint at ``pos``; returns ``(value,
    next position)``."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def read_signed(data, pos: int) -> Tuple[int, int]:
    """Read a zigzag varint; returns ``(signed value, next position)``."""
    raw, pos = read_varint(data, pos)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


def _checked_end(data, pos: int, length: int) -> int:
    """``pos + length``, provided ``data`` holds that many bytes: a
    slice past the end would silently come back short."""
    end = pos + length
    if end > len(data):
        raise ValueError(
            "truncated data: a %d-byte field at offset %d runs past the "
            "end (%d bytes)" % (length, pos, len(data))
        )
    return end


#: Most set bits :func:`write_mask_adaptive` peels off one at a time;
#: past this, reading the binary string once is cheaper.
_PEEL_BITS = 8


def write_mask_adaptive(out: bytearray, mask: int) -> None:
    """Append a mask in whichever of two encodings is smaller.

    A mask's raw byte length is set by its *highest* bit, not its
    population: two formal-translation bits at uid ~9000 cost 1.1 kB
    raw.  The sparse form stores gap-encoded bit positions instead, so
    cost follows popcount.  Leading tag varint: ``0`` = raw
    (length-prefixed little-endian bytes follow), ``n>0`` = sparse with
    ``n`` set bits (first position, then successive gaps − 1).
    """
    if mask < 0:
        raise ValueError("mask must be non-negative, got %d" % mask)
    raw_len = (mask.bit_length() + 7) >> 3
    popcount = mask.bit_count()
    # A sparse entry is a varint per set bit (usually 1–2 bytes for
    # gap-encoded positions); only bother when clearly smaller.  The
    # empty mask goes raw: tag 0, length 0 — two bytes.
    if popcount and popcount * 2 < raw_len:
        write_varint(out, popcount)
        if popcount <= _PEEL_BITS:
            # A few bits: peel each off the int (one copy per bit).
            previous = -1
            while mask:
                low = mask & -mask
                position = low.bit_length() - 1
                write_varint(out, position - previous - 1)
                previous = position
                mask ^= low
            return
        # Each gap is a zero run of the binary string read from bit 0
        # up: one pass over the string, where peeling every bit off the
        # int would copy it once per bit.
        gaps = list(map(len, bin(mask)[:1:-1].split("1")[:-1]))
        if max(gaps) < 0x80:
            out += bytes(gaps)  # One byte per varint.
        else:
            for gap in gaps:
                write_varint(out, gap)
    else:
        out.append(0)
        write_varint(out, raw_len)
        out += mask.to_bytes(raw_len, "little")


def read_mask_adaptive(
    data, pos: int, width: Optional[int] = None
) -> Tuple[int, int]:
    """Inverse of :func:`write_mask_adaptive`.

    With ``width``, a set bit at or past it raises :class:`ValueError`:
    one flipped bit in a sparse gap varint would otherwise become a
    mask of billions of bits.
    """
    popcount, pos = read_varint(data, pos)
    if popcount == 0:
        length, pos = read_varint(data, pos)
        end = _checked_end(data, pos, length)
        mask = int.from_bytes(data[pos:end], "little")
        if width is not None and mask.bit_length() > width:
            raise ValueError("mask bit past the width %d" % width)
        return mask, end
    if width is not None and popcount > width:
        raise ValueError("%d mask bits exceed the width %d" % (popcount, width))
    mask = 0
    position = -1
    for _ in range(popcount):
        gap, pos = read_varint(data, pos)
        position += gap + 1
        if width is not None and position >= width:
            raise ValueError(
                "mask bit %d past the width %d" % (position, width)
            )
        mask |= 1 << position
    return mask, pos


def write_bytes(out: bytearray, blob: bytes) -> None:
    """Append a length-prefixed byte string."""
    write_varint(out, len(blob))
    out += blob


def read_bytes(data, pos: int) -> Tuple[bytes, int]:
    """Read a length-prefixed byte string; returns ``(bytes, next
    position)``.  Raises :class:`ValueError` if the string runs past the
    end of ``data``."""
    length, pos = read_varint(data, pos)
    end = _checked_end(data, pos, length)
    return bytes(data[pos:end]), end


def write_partners(out: bytearray, table: Dict[int, int]) -> None:
    """An alias partner table (uid → mask of its partners, symmetric)
    as its lower triangle: the number of uids with a partner below
    them, then per such uid, ascending, its distance from the one
    before minus one and the adaptive mask of those partners.  A
    formal's row holds the globals it may alias, so there are few rows
    and each is small."""
    rows = []
    for uid in sorted(table):
        below = table[uid] & ((1 << uid) - 1)
        if below:
            rows.append((uid, below))
    write_varint(out, len(rows))
    previous = -1
    for uid, below in rows:
        write_varint(out, uid - previous - 1)
        write_mask_adaptive(out, below)
        previous = uid


def read_partner_rows(
    data, pos: int, width: int
) -> Tuple[List[Tuple[int, int]], int]:
    """Inverse of :func:`write_partners`, mask by mask: the rows
    ``(uid, mask of its partners below uid)``, ascending, and the next
    position.  A row at or past ``width``, or a partner at or past its
    own row, raises :class:`ValueError`."""
    count, pos = read_varint(data, pos)
    rows: List[Tuple[int, int]] = []
    uid = -1
    for _ in range(count):
        gap, pos = read_varint(data, pos)
        uid += gap + 1
        if uid >= width:
            raise ValueError(
                "alias row %d past the %d variables" % (uid, width)
            )
        below, pos = read_mask_adaptive(data, pos, uid)
        rows.append((uid, below))
    return rows, pos
