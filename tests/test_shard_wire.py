"""The signed-mask strip codec of :mod:`repro.core.binio`.

*Signed-mask strips* carry the v4 container's effect-lane trailer
sections (:mod:`repro.lanes`): a flag byte, then the length-prefixed
magnitude of ``m`` or ``~m``.

The codec began as the shard wire format's mask codec, which is where
this module's name comes from; the sharded solver is gone and the
codec stayed.  Lane partner and section masks are non-negative today,
but the strip codec is defined over every int, so negative masks of
arbitrary width are first-class here, along with the degenerate shapes
(zero, ``~0``) a structured corpus rarely produces.  A strip cut short
must raise, and through the lane decoder it must raise
:class:`ValueError`.
"""

from __future__ import annotations

import random

import pytest

from repro.core.binio import read_signed_mask, write_signed_mask


def _round_trip(mask: int) -> None:
    out = bytearray()
    write_signed_mask(out, mask)
    decoded, pos = read_signed_mask(bytes(out), 0)
    assert decoded == mask
    assert pos == len(out)


class TestMaskPrimitives:
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
    """Deterministic fuzz of the strip codec, independent of the
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
