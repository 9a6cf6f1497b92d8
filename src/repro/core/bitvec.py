"""Bit-vector set helpers and operation accounting.

Variable sets are represented as Python integers used as bit vectors
(bit ``i`` set ⟺ the variable with ``uid == i`` is in the set).  This
is both the fastest set representation available in pure Python and a
faithful model of the paper's cost accounting, which is stated in
*bit-vector steps* (one logical operation over a whole vector) and, for
the binding multi-graph method, *single-bit steps*.

:class:`OpCounter` tallies those steps.  The algorithms increment it at
exactly the points the paper counts — e.g. each execution of
``findgmod``'s line 17 or line 22 is one bit-vector step — so the
benchmark suite can verify Theorem 2 style bounds exactly, not just by
wall-clock proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Iterable, Iterator, List, Sequence

#: Turns the digits of ``bin()`` into the selector bytes 0 and 1.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def mask_of(uids: Iterable[int]) -> int:
    """Build a bit mask from an iterable of bit positions."""
    mask = 0
    for uid in uids:
        mask |= 1 << uid
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: int, items: Sequence, first: int = 0) -> list:
    """The items at ``first`` plus each set bit of ``mask``, ascending:
    the binary string, read from bit 0 up, selects them in one C-level
    pass, where :func:`iter_bits` copies the int once per member.  Bits
    past the end of ``items`` select nothing."""
    selectors = bin(mask)[:1:-1].encode("ascii").translate(_BIT_SELECTORS)
    return list(compress(islice(items, first, None), selectors))


def members_from(mask: int, base: int, named: Sequence, items: Sequence) -> list:
    """``members(mask, items)``, built from ``named``, which must equal
    ``members(base, items)``: the runs of ``named`` between the bits in
    which ``mask`` and ``base`` differ are copied as slices, and each such
    bit adds its item or drops it.  A flipped bit costs one rank, the
    count of ``base``'s bits below it, so ``k`` flipped bits over a
    ``W``-bit universe cost O(|output| + k·W/64) word operations, where
    :func:`members` reads all ``W`` bits.  When at least as many bits
    flip as ``base`` or ``mask`` holds, the base saves nothing, and the
    mask is named by :func:`members`."""
    flips = mask ^ base
    count = flips.bit_count()
    if count >= base.bit_count() or count >= mask.bit_count():
        return members(mask, items)
    limit = len(items)
    out: list = []
    copied = 0  # Items of ``named`` before this one are placed.
    while flips:
        low = flips & -flips
        uid = low.bit_length() - 1
        if uid >= limit:  # This bit and every later one select nothing.
            break
        flips ^= low
        rank = (base & (low - 1)).bit_count()
        out += named[copied:rank]
        if mask & low:
            out.append(items[uid])
            copied = rank
        else:
            copied = rank + 1
    out += named[copied:]
    return out


def popcount(mask: int) -> int:
    """Number of set bits.

    ``int.bit_count`` (Python 3.10+) counts bits directly on the
    underlying limbs — unlike the old ``bin(mask).count("1")`` it never
    materializes a binary string, which matters on dense 10k-variable
    masks (see the popcount micro-benchmark in
    ``benchmarks/test_bench_frontend.py``).
    """
    return mask.bit_count()


def contains(mask: int, uid: int) -> bool:
    return (mask >> uid) & 1 == 1


@dataclass
class OpCounter:
    """Operation tallies in the paper's cost model.

    ``bit_vector_steps``
        Whole-vector logical operations (union / intersection /
        difference of variable sets) — the unit of Theorems 2's bound
        and of the swift algorithm's ``O(E·α)`` bound.
    ``single_bit_steps``
        Constant-size boolean operations — the unit of the binding
        multi-graph method's ``O(Eβ)`` bound (Section 3.2).
    ``meet_operations``
        Lattice meets, the unit the regular-section analysis of
        Section 6 is measured in.
    """

    bit_vector_steps: int = 0
    single_bit_steps: int = 0
    meet_operations: int = 0

    def reset(self) -> None:
        self.bit_vector_steps = 0
        self.single_bit_steps = 0
        self.meet_operations = 0

    def merge(self, other: "OpCounter") -> None:
        """Add another counter's tallies into this one (the pipeline
        accumulates per-kind counters, then folds them into the
        program total — addition commutes, so the fold order never
        changes the totals)."""
        self.bit_vector_steps += other.bit_vector_steps
        self.single_bit_steps += other.single_bit_steps
        self.meet_operations += other.meet_operations
