"""The mask codecs of :mod:`repro.core.binio`.

Two encodings of bit masks live there.  *Signed-mask strips* carry the
v4 container's effect-lane trailer sections (:mod:`repro.lanes`): a
flag byte, then the length-prefixed magnitude of ``m`` or ``~m``.
*Mask sections* carry the ``.cka`` arena image's mask tables: a list
of masks as fixed-width rows of 64-bit little-endian limbs, starting
on an 8-byte boundary.

Both began as the shard wire format's mask codecs, which is where this
module's name comes from; the sharded solver is gone and the codecs
stayed.  Lane partner and section masks are non-negative today, but
the strip codec is defined over every int, so negative masks of
arbitrary width are first-class here, along with the degenerate shapes
(zero, ``~0``, empty lists, all-zero lists) a structured corpus rarely
produces.  A strip cut short must raise, and through the lane decoder
it must raise :class:`ValueError`.
"""

from __future__ import annotations

import random

import pytest

from repro.core.binio import (
    aligned,
    read_mask_section,
    read_signed_mask,
    write_mask_section,
    write_signed_mask,
)


def _round_trip(mask: int) -> None:
    out = bytearray()
    write_signed_mask(out, mask)
    decoded, pos = read_signed_mask(bytes(out), 0)
    assert decoded == mask
    assert pos == len(out)


def _section_round_trip(masks, prefix: bytes = b"") -> None:
    """``masks`` written as one mask section behind ``prefix`` read
    back from the next aligned offset."""
    words = max([1] + [-(-mask.bit_length() // 64) for mask in masks])
    out = bytearray(prefix)
    write_mask_section(out, masks, words)
    offset = aligned(len(prefix))
    assert len(out) == offset + len(masks) * words * 8
    assert read_mask_section(bytes(out), offset, len(masks), words) == masks


class TestMaskPrimitives:
    def test_mask_list_round_trip(self):
        masks = [0, 1, (1 << 300) | 5, 0xFFFF, 1 << 9999]
        _section_round_trip(masks)
        _section_round_trip(masks, prefix=b"\x01\x02\x03")

    def test_empty_mask_list(self):
        _section_round_trip([])

    @pytest.mark.parametrize(
        "mask", [0, 1, -1, -2, 0b1010, ~0b1010, 1 << 200, ~(1 << 200)]
    )
    def test_signed_mask_round_trip(self, mask):
        _round_trip(mask)

    @pytest.mark.parametrize("mask", [0, 1, -1, 0b1010, ~(1 << 200)])
    def test_every_cut_raises(self, mask):
        out = bytearray()
        write_signed_mask(out, mask)
        for cut in range(len(out)):
            with pytest.raises((IndexError, ValueError)):
                read_signed_mask(bytes(out[:cut]), 0)


class TestMaskFuzz:
    """Deterministic fuzz of both mask codecs, independent of the
    pipeline."""

    def test_signed_mask_fuzz_round_trip(self):
        rng = random.Random(0xC001)
        masks = [0, -1, 1, -2]  # Always include the degenerate corner.
        for _ in range(500):
            magnitude = rng.getrandbits(rng.randrange(1, 400))
            masks.append(magnitude if rng.random() < 0.5 else ~magnitude)
        for mask in masks:
            _round_trip(mask)

    def test_signed_mask_fuzz_concatenated_stream(self):
        """Masks written back-to-back must read back in sequence —
        pins that every encoder consumes exactly what it wrote."""
        rng = random.Random(0xC002)
        masks = []
        out = bytearray()
        for _ in range(200):
            magnitude = rng.getrandbits(rng.randrange(0, 260))
            mask = magnitude if rng.random() < 0.5 else ~magnitude
            masks.append(mask)
            write_signed_mask(out, mask)
        blob = bytes(out)
        pos = 0
        for expected in masks:
            decoded, pos = read_signed_mask(blob, pos)
            assert decoded == expected
        assert pos == len(blob)

    def test_mask_list_fuzz_round_trip(self):
        rng = random.Random(0xC003)
        for _ in range(50):
            masks = [
                rng.getrandbits(rng.randrange(0, 300))
                for _ in range(rng.randrange(0, 20))
            ]
            _section_round_trip(masks, prefix=bytes(rng.randrange(0, 8)))

    def test_all_zero_mask_list(self):
        _section_round_trip([0] * 17)


class TestLaneSectionTruncation:
    """Every cut of a lane trailer section is a :class:`ValueError`
    from :func:`repro.core.persist.decode_lane_sections`."""

    @pytest.fixture(scope="class")
    def sections(self):
        from repro.core.persist import decode_summary_container, summary_to_bytes
        from repro.core.pipeline import analyze_side_effects
        from repro.lang.pretty import pretty
        from repro.workloads.generator import GeneratorConfig, generate_program

        source = pretty(generate_program(GeneratorConfig(
            seed=11, num_procs=8, num_globals=4, max_depth=2,
            nesting_prob=0.4, prob_arg_global=0.4)))
        summary = analyze_side_effects(
            source, lanes=["sections", "refalias", "sections-use"])
        _payload, sections = decode_summary_container(
            summary_to_bytes(summary, include_lanes=True))
        assert len(sections) == 3
        return sections

    def test_every_cut_is_a_value_error(self, sections):
        from repro.core.persist import decode_lane_sections

        for tag, blob in sections.items():
            for cut in range(len(blob)):
                with pytest.raises(ValueError):
                    decode_lane_sections({tag: blob[:cut]})
