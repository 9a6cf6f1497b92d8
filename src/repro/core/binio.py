"""Low-level binary encoding primitives shared by the serialization
fast paths.

Three consumers: the versioned binary summary container
(:mod:`repro.core.persist`, format v3), the shard boundary-summary
wire format (:mod:`repro.shard.wire`), and the ``.cka`` arena image
(:mod:`repro.core.arena`).  All speak the same dialect — unsigned
LEB128 varints, zigzag-mapped signed ints, and big-int bit masks as
little-endian minimal-length byte strings — so a byte layout debugged
once works everywhere.

Bit masks are the workhorse: the analysis represents variable sets as
arbitrary-precision ints, and ``int.to_bytes``/``int.from_bytes`` move
those to and from the wire entirely inside CPython's C layer.  A
2000-variable dense mask is a 250-byte blob, not a 20 kB JSON name
list.

The *aligned raw section* helpers at the bottom serve the arena image:
fixed-width little-endian rows (``int32`` index tables, 64-bit-limb
mask rows) starting on an 8-byte boundary, so a reader may interpret a
memory-mapped section in place: an int table is one
``array.frombytes``, and a mask row is one ``int.from_bytes`` over a
memoryview slice.
"""

from __future__ import annotations

import sys
from array import array
from typing import List, Sequence, Tuple


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


def zigzag(value: int) -> int:
    """Map a signed int to an unsigned one (0, -1, 1, -2 → 0, 1, 2, 3)
    so small negatives stay small on the wire."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def write_signed(out: bytearray, value: int) -> None:
    """Append a signed int as a zigzag varint."""
    write_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def read_signed(data, pos: int) -> Tuple[int, int]:
    """Read a zigzag varint; returns ``(signed value, next position)``."""
    raw, pos = read_varint(data, pos)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


def mask_to_bytes(mask: int) -> bytes:
    """A non-negative big-int mask as little-endian minimal bytes
    (``b""`` for the empty mask)."""
    if mask < 0:
        raise ValueError("mask must be non-negative, got %d" % mask)
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little")


def mask_from_bytes(blob: bytes) -> int:
    """Inverse of :func:`mask_to_bytes`."""
    return int.from_bytes(blob, "little")


def write_mask(out: bytearray, mask: int) -> None:
    """Append a length-prefixed mask blob."""
    blob = mask_to_bytes(mask)
    write_varint(out, len(blob))
    out += blob


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


def read_mask(data, pos: int) -> Tuple[int, int]:
    """Read a length-prefixed mask blob; returns ``(mask, next
    position)``.  Raises :class:`ValueError` if the blob runs past the
    end of ``data``."""
    length, pos = read_varint(data, pos)
    end = _checked_end(data, pos, length)
    return int.from_bytes(data[pos:end], "little"), end


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
        previous = -1
        remaining = mask
        while remaining:
            low = remaining & -remaining
            position = low.bit_length() - 1
            write_varint(out, position - previous - 1)
            previous = position
            remaining ^= low
    else:
        out.append(0)
        write_mask(out, mask)


def read_mask_adaptive(data, pos: int) -> Tuple[int, int]:
    """Inverse of :func:`write_mask_adaptive`."""
    popcount, pos = read_varint(data, pos)
    if popcount == 0:
        return read_mask(data, pos)
    mask = 0
    position = -1
    for _ in range(popcount):
        gap, pos = read_varint(data, pos)
        position += gap + 1
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


# ---------------------------------------------------------------------------
# Aligned raw sections (the ``.cka`` arena image's building blocks).
# ---------------------------------------------------------------------------

#: Every raw section starts on this boundary so 64-bit views over a
#: memory-mapped file are aligned loads.
SECTION_ALIGN = 8


def pad_to_alignment(out: bytearray, align: int = SECTION_ALIGN) -> None:
    """Zero-pad ``out`` so the next byte lands on an ``align`` boundary."""
    remainder = len(out) % align
    if remainder:
        out += b"\0" * (align - remainder)


def aligned(pos: int, align: int = SECTION_ALIGN) -> int:
    """``pos`` rounded up to the next ``align`` boundary."""
    remainder = pos % align
    return pos + (align - remainder) if remainder else pos


def write_i32_section(out: bytearray, values: Sequence[int]) -> None:
    """Append an aligned raw section of little-endian ``int32`` values."""
    pad_to_alignment(out)
    packed = array("i", values)
    if packed.itemsize != 4:  # pragma: no cover - no 4-byte int C type
        raise OverflowError("platform lacks a 4-byte array int type")
    if sys.byteorder != "little":  # pragma: no cover - big-endian host
        packed.byteswap()
    out += packed.tobytes()


def read_i32_section(buffer, offset: int, count: int) -> List[int]:
    """Materialize an ``int32`` raw section as a plain int list (one
    C-level bulk conversion, no per-element Python arithmetic)."""
    packed = array("i")
    packed.frombytes(bytes(buffer[offset : offset + count * 4]))
    if sys.byteorder != "little":  # pragma: no cover - big-endian host
        packed.byteswap()
    return packed.tolist()


def write_mask_section(
    out: bytearray, masks: Sequence[int], words: int
) -> None:
    """Append an aligned raw section of fixed-width mask rows: each
    row is ``words`` little-endian 64-bit limbs, the limb layout of
    ``int.to_bytes(..., "little")``, so rows read back without
    rewriting."""
    pad_to_alignment(out)
    nbytes = words * 8
    out += b"".join(mask.to_bytes(nbytes, "little") for mask in masks)


def read_mask_section(
    buffer, offset: int, rows: int, words: int
) -> List[int]:
    """Materialize a mask-row section as big-ints — one
    ``int.from_bytes`` per row over a shared memoryview."""
    nbytes = words * 8
    view = memoryview(buffer)[offset : offset + rows * nbytes]
    return [
        int.from_bytes(view[row * nbytes : (row + 1) * nbytes], "little")
        for row in range(rows)
    ]
