"""The adaptive mask codec of :mod:`repro.core.binio`.

The codec, raw bytes or gap-encoded bit positions, carries the
dependency index's masks and every variable set of a v5 summary
container; its writer is pinned, byte for byte, to the bit-by-bit loop
it replaced.

The codec began as the shard wire format's mask codec, which is where
this module's name comes from; the sharded solver is gone and the
codec stayed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.binio import (
    read_mask_adaptive,
    write_mask_adaptive,
    write_varint,
)


def _adaptive_by_bits(out: bytearray, mask: int) -> None:
    """The adaptive writer as it was: every set bit peeled off the int
    in turn, each step copying it — kept as the oracle."""
    raw_len = (mask.bit_length() + 7) >> 3
    popcount = mask.bit_count()
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
        blob = mask.to_bytes(raw_len, "little")
        write_varint(out, len(blob))
        out += blob


class TestAdaptiveMask:
    def test_writer_matches_the_bitwise_loop(self):
        """Random masks across both encodings and every sparse shape:
        one bit or hundreds, gaps under and over one varint byte, up to
        20,000 bits wide."""
        rng = random.Random(0xADA9)
        masks = [0, 1, 1 << 127, 1 << 128, (1 << 300) | 1]
        for _ in range(600):
            width = rng.choice((8, 64, 200, 1000, 4000, 20_000))
            bits = rng.choice((1, 2, 5, 8, 9, 20, 100, 400))
            mask = 0
            for _bit in range(bits):
                mask |= 1 << rng.randrange(width)
            masks.append(mask)
        sparse = 0
        for mask in masks:
            want = bytearray()
            _adaptive_by_bits(want, mask)
            got = bytearray()
            write_mask_adaptive(got, mask)
            assert got == want, mask
            assert read_mask_adaptive(bytes(got), 0) == (mask, len(got))
            sparse += want[0] != 0
        assert 100 < sparse < len(masks)

    def test_a_sparse_bit_past_the_width_is_rejected(self):
        out = bytearray()
        write_mask_adaptive(out, (1 << 900) | (1 << 5))
        assert read_mask_adaptive(bytes(out), 0, width=901)[0] == (1 << 900) | (1 << 5)
        with pytest.raises(ValueError, match="past the width"):
            read_mask_adaptive(bytes(out), 0, width=900)
