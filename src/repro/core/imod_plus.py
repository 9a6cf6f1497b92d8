"""``IMOD+`` — equation (5) of the paper.

``IMOD+(p)`` extends ``IMOD(p)`` with every variable that ``p`` passes
by reference (from any call site in ``p``) to a formal parameter the
``RMOD`` solution marks as modified::

    IMOD+(p) = IMOD(p)  ∪  ∪_{e=(p,q)} b_e(RMOD(q))

where ``b_e`` is restricted to actual-to-formal reference bindings.
After this step the global-variable phase (``findgmod``) never needs to
reason about parameter passing again — that is the decomposition at the
heart of the paper.

A subscripted actual (``a[i]`` bound to a modified formal) contributes
its base array ``a``: the formal is a unitary object, so modifying it
modifies (part of) ``a``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.bitvec import OpCounter
from repro.core.local import LocalAnalysis
from repro.core.rmod import RmodResult
from repro.core.varsets import EffectKind
from repro.lang.symbols import ResolvedProgram


def compute_imod_plus(
    resolved: ResolvedProgram,
    local: LocalAnalysis,
    rmod: RmodResult,
    kind: EffectKind = EffectKind.MOD,
    counter: Optional[OpCounter] = None,
) -> List[int]:
    """Per-pid ``IMOD+`` bit masks (equation (5)).

    Cost: one single-bit ``RMOD`` test per reference binding — linear
    in the total argument count, i.e. ``O(µ_a · E_C)``.
    """
    if counter is None:
        counter = OpCounter()
    result = list(local.initial(kind))
    for site in resolved.call_sites:
        caller_pid = site.caller.pid
        callee = site.callee
        for binding in site.bindings:
            if not binding.by_reference:
                continue
            formal = callee.formals[binding.position]
            counter.single_bit_steps += 1
            if rmod.formal_value(formal):
                result[caller_pid] |= 1 << binding.base.uid
    return result


def compute_imod_plus_fused(
    arena,
    rmod_node_bits: Sequence[int],
    kinds: Sequence[EffectKind],
    counters: Sequence[OpCounter],
    sites: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Equation (5) for every kind at once, over the arena's flat
    binding tables.

    ``rmod_node_bits`` is the packed K-bit β-node vector from
    :func:`repro.core.rmod.solve_rmod_fused` (bit ``k`` = kind ``k``'s
    RMOD verdict).  The result is one per-pid ``IMOD+`` mask row per
    kind — the site/binding decode runs once and feeds every lane.

    ``sites`` restricts the union to those call sites, so a procedure's
    row is final only when all of its sites are listed: an incremental
    update lists every site of the procedures it re-derives and
    overlays the other rows with the ones it carries.  ``None`` solves
    every site.

    Counter identity: the per-kind solver charges one single-bit RMOD test
    per by-reference binding per kind, so each counter receives exactly
    the reference-binding count of the solved sites — the program's
    total on a full solve.
    """
    num_kinds = len(kinds)
    rows = [list(arena.local.initial(kind)) for kind in kinds]

    site_caller = arena.site_caller
    ref_heads = arena.site_ref_heads
    ref_base_uid = arena.ref_base_uid
    ref_formal_node = arena.ref_formal_node
    if sites is None:
        sites = range(len(site_caller))
    total_refs = 0
    for sid in sites:
        caller_pid = site_caller[sid]
        lo, hi = ref_heads[sid], ref_heads[sid + 1]
        total_refs += hi - lo
        for r in range(lo, hi):
            bits = rmod_node_bits[ref_formal_node[r]]
            if not bits:
                continue
            base_bit = 1 << ref_base_uid[r]
            for k in range(num_kinds):
                if (bits >> k) & 1:
                    rows[k][caller_pid] |= base_bit

    for counter in counters:
        counter.single_bit_steps += total_refs
    return rows
