"""Bit-vector helpers and variable-universe mask tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitvec import (
    OpCounter,
    contains,
    iter_bits,
    mask_of,
    members,
    members_from,
    popcount,
)
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.semantic import compile_source


class TestBitHelpers:
    def test_mask_of_empty(self):
        assert mask_of([]) == 0

    def test_mask_of_positions(self):
        assert mask_of([0, 3]) == 0b1001

    def test_mask_of_duplicates(self):
        assert mask_of([2, 2, 2]) == 0b100

    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    def test_iter_bits_empty(self):
        assert list(iter_bits(0)) == []

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_contains(self):
        assert contains(0b100, 2)
        assert not contains(0b100, 1)

    @given(st.sets(st.integers(min_value=0, max_value=300)))
    def test_roundtrip_property(self, positions):
        mask = mask_of(positions)
        assert set(iter_bits(mask)) == positions
        assert popcount(mask) == len(positions)
        for position in positions:
            assert contains(mask, position)

    @given(st.data())
    def test_members_from_equals_members(self, data):
        """The kernel names any mask from any base exactly as
        :func:`members` does: masks dense and sparse, bits past the
        items, empty sets, a base equal to the mask or a few bits off."""
        width = data.draw(st.integers(min_value=0, max_value=200), label="width")
        items = ["v%d" % uid for uid in range(width)]
        bits = st.integers(min_value=0, max_value=width + 70)
        mask = mask_of(data.draw(st.sets(bits), label="mask"))
        base = data.draw(st.one_of(
            st.just(mask),
            st.builds(lambda flips: mask ^ mask_of(flips), st.sets(bits, max_size=6)),
            st.builds(mask_of, st.sets(bits)),
        ), label="base")
        named = members(base, items)
        assert members_from(mask, base, named, items) == members(mask, items)

    def test_members_from_edits_the_base(self, monkeypatch):
        """Where few bits flip, the names come from the base: the mask
        is never read in full.  Bits at and past the end of the items
        select nothing."""
        import repro.core.bitvec as bitvec

        items = ["v%d" % uid for uid in range(300)]
        base = mask_of(range(0, 300, 3)) | 1 << 301
        named = members(base, items)
        mask = base ^ mask_of([0, 4, 299, 150, 300, 301, 305])
        expected = members(mask, items)

        def refuse(*_args):
            raise AssertionError("named the mask in full")

        monkeypatch.setattr(bitvec, "members", refuse)
        assert members_from(mask, base, named, items) == expected

    def test_counter_reset(self):
        counter = OpCounter(bit_vector_steps=3, single_bit_steps=5, meet_operations=7)
        counter.reset()
        assert counter.bit_vector_steps == 0
        assert counter.single_bit_steps == 0
        assert counter.meet_operations == 0


SOURCE = """
program t
  global g
  global array m[2]
  proc outer(a)
    local u
    proc inner(b)
      local w
    begin
      w := b
    end
  begin
    call inner(a)
  end
begin
  call outer(g)
end
"""


class TestUniverse:
    def setup_method(self):
        self.resolved = compile_source(SOURCE)
        self.universe = VariableUniverse(self.resolved)

    def test_size(self):
        assert self.universe.size == len(self.resolved.variables)

    def test_global_mask(self):
        assert set(self.universe.to_names(self.universe.global_mask)) == {"g", "m"}

    def test_local_mask_includes_formals(self):
        outer = self.resolved.proc_named("outer")
        assert set(self.universe.to_names(self.universe.local_mask[outer.pid])) == {
            "outer::a",
            "outer::u",
        }

    def test_main_local_mask_is_globals(self):
        assert (
            self.universe.local_mask[self.resolved.main.pid]
            == self.universe.global_mask
        )

    def test_formal_mask(self):
        inner = self.resolved.proc_named("outer.inner")
        assert set(self.universe.to_names(self.universe.formal_mask[inner.pid])) == {
            "outer.inner::b"
        }

    def test_level_masks_partition_universe(self):
        union = 0
        for mask in self.universe.level_mask:
            assert union & mask == 0  # Disjoint.
            union |= mask
        assert union == mask_of(range(self.universe.size))

    def test_level_mask_contents(self):
        assert set(self.universe.to_names(self.universe.level_mask[0])) == {"g", "m"}
        assert set(self.universe.to_names(self.universe.level_mask[2])) == {
            "outer.inner::b",
            "outer.inner::w",
        }

    def test_visible_mask_for_nested(self):
        inner = self.resolved.proc_named("outer.inner")
        visible = set(self.universe.to_names(self.universe.visible_mask(inner)))
        assert visible == {"g", "m", "outer::a", "outer::u", "outer.inner::b",
                           "outer.inner::w"}

    def test_mask_of_names(self):
        mask = self.universe.mask_of_names(["g", "outer::u"])
        assert set(self.universe.to_names(mask)) == {"g", "outer::u"}

    def test_format(self):
        mask = self.universe.mask_of_names(["g"])
        assert self.universe.format(mask) == "{g}"

    def test_to_symbols_ascending(self):
        mask = mask_of(range(self.universe.size))
        symbols = self.universe.to_symbols(mask)
        assert [s.uid for s in symbols] == sorted(s.uid for s in symbols)
