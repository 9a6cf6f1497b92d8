"""``DMOD``/``DUSE`` — equation (2): per-call-site direct side effects.

For a call statement ``s`` at site ``e = (p, q)``::

    DMOD(s) = LMOD(s) ∪ b_e(GMOD(q))

where the projection ``b_e``:

* passes through every member of ``GMOD(q)`` that survives ``q``'s
  return (``GMOD(q) − LOCAL(q)``: globals and variables of ``q``'s
  lexical ancestors), and
* maps each formal of ``q`` in ``GMOD(q)`` to the base variable of the
  by-reference actual bound to it at this site (a by-value actual
  contributes nothing — there is no channel back).

Step (1) of Section 5; ``O(1)`` bit-vector steps plus ``O(µ_a)``
single-bit formal tests per call site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.bitvec import OpCounter
from repro.core.local import local_effect_of
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.symbols import CallSite, ResolvedProgram


def dmod_of_site(
    site: CallSite,
    gmod: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
) -> int:
    """``DMOD(s)`` (or ``DUSE(s)``) for one call site, as a uid mask."""
    if counter is None:
        counter = OpCounter()
    callee = site.callee
    callee_gmod = gmod[callee.pid]
    mask = local_effect_of(site.stmt, kind)
    # Variables extant after the callee returns pass straight through.
    mask |= callee_gmod & ~universe.local_mask[callee.pid]
    counter.bit_vector_steps += 1
    # Formals map back to the actuals bound to them here.
    for binding in site.bindings:
        if not binding.by_reference:
            continue
        formal = callee.formals[binding.position]
        counter.single_bit_steps += 1
        if (callee_gmod >> formal.uid) & 1:
            mask |= 1 << binding.base.uid
    return mask


def compute_dmod(
    resolved: ResolvedProgram,
    gmod: Sequence[int],
    universe: VariableUniverse,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
) -> List[int]:
    """``DMOD`` for every call site, indexed by ``site_id``."""
    if counter is None:
        counter = OpCounter()
    return [
        dmod_of_site(site, gmod, universe, kind, counter)
        for site in resolved.call_sites
    ]


def compute_dmod_fused(
    arena,
    gmod_rows: Sequence[Sequence[int]],
    kinds: Sequence[EffectKind],
    counters: Sequence[OpCounter],
) -> List[List[int]]:
    """Equation (2) for every site and kind in one sweep over the
    arena's flat site tables; returns one per-site mask row per kind.

    The pass-through term ``GMOD(q) − LOCAL(q)`` depends only on the
    callee, not the site, so it is computed once per procedure and
    looked up per site — call sites outnumber procedures severalfold
    in real programs, and this is the dominant cost of the legacy
    sweep.

    Counter identity: the per-kind solver charges one bit-vector step per
    site (the pass-through union) and one single-bit step per
    by-reference binding, per kind — both structural, so each counter
    receives ``num_sites`` and ``total_refs`` in one add each.
    """
    num_kinds = len(kinds)
    strip = arena.strip_masks()
    site_local = [arena.site_local(kind) for kind in kinds]
    site_callee = arena.site_callee
    ref_heads = arena.site_ref_heads
    ref_formal_uid = arena.ref_formal_uid
    ref_base_uid = arena.ref_base_uid
    num_sites = len(site_callee)

    # Per-callee pass-through cache: GMOD(q) & strip(q) per pid.
    pass_rows = [
        [g & s for g, s in zip(row, strip)] for row in gmod_rows
    ]

    result: List[List[int]] = [[0] * num_sites for _ in range(num_kinds)]
    for sid in range(num_sites):
        callee_pid = site_callee[sid]
        lo = ref_heads[sid]
        hi = ref_heads[sid + 1]
        for k in range(num_kinds):
            mask = site_local[k][sid] | pass_rows[k][callee_pid]
            callee_gmod = gmod_rows[k][callee_pid]
            if callee_gmod:
                for r in range(lo, hi):
                    if (callee_gmod >> ref_formal_uid[r]) & 1:
                        mask |= 1 << ref_base_uid[r]
            result[k][sid] = mask

    total_refs = len(ref_base_uid)
    for counter in counters:
        counter.bit_vector_steps += num_sites
        counter.single_bit_steps += total_refs
    return result
