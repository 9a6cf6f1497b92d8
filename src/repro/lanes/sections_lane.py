"""The Section 6 regular-sections solver re-hosted as a fused lane.

The standalone solver (:mod:`repro.sections.solver`) sweeps every call
site of a component and re-projects the callee's **entire** ``GRS`` map
each time — at 10k-procedure scale that re-translation dominates the
solve (millions of ``g_e`` applications whose inputs did not change
since the previous sweep).  The lane advances the same system
*delta-driven*: every procedure keeps an append-only changelog of the
uids whose section changed, and every call site keeps a cursor into its
callee's changelog, so a sweep translates exactly the facts that are
new since the site was last visited.  Each translated fact is merged
into the per-site section table as it flows past, so the standalone
solver's final whole-map projection pass disappears too: by quiescence
every cursor sits at the end of its callee's log, and the meet of a
fact's descending value chain equals its final value.

The fixpoint is unchanged: sections move monotonically down a
finite-height lattice and the meet is associative, commutative and
idempotent, so chaotic iteration converges to the same least fixpoint
whichever schedule feeds it (the 30-program differential sweep and the
fuzz corpora pin the lane against the standalone reference).  Only the
*schedule* differs — and with it the operation count, which is the
point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.binio import (
    read_bytes,
    read_signed_mask,
    read_varint,
    write_bytes,
    write_signed_mask,
    write_varint,
)
from repro.core.bitvec import OpCounter
from repro.core.varsets import EffectKind
from repro.lanes.spec import LaneSpec, register_lane
from repro.sections.descriptors import SectionMap, extended_local_sections
from repro.sections.solver import SectionAnalysis, _merge_into


def _lattice():
    from repro.sections.framework import FIGURE3

    return FIGURE3


class SectionsLaneState:
    """Delta-driven ``GRS`` fixpoint over the shared condensation."""

    direction = "up"

    def __init__(self, arena, kind: EffectKind = EffectKind.MOD):
        self.arena = arena
        self.kind = kind
        self.lattice = _lattice()
        self.counter = OpCounter()
        resolved = arena.resolved
        self.resolved = resolved
        self.universe = arena.universe

        # The FIGURE3 strategy functions are thin wrappers that import
        # their target on every call; binding the targets directly
        # keeps the per-fact transfer as cheap as the fact itself.
        if self.lattice.name == "figure3":
            from repro.sections.binding_fn import (
                translate_subscripts,
                translate_through_binding,
            )

            self._translate = translate_subscripts
            self._through_binding = translate_through_binding
        else:
            lattice = self.lattice
            self._translate = lattice.translate_subscripts

            def _through(section, site, binding, _lattice=lattice):
                from repro.sections.framework import (
                    translate_through_binding_generic,
                )

                return translate_through_binding_generic(
                    _lattice, section, site, binding
                )

            self._through_binding = _through

        self.grs: List[SectionMap] = [
            dict(table)
            for table in extended_local_sections(
                resolved, self.universe, kind, self.lattice
            )
        ]
        #: Per pid: uids whose section changed, in change order (the
        #: seeds count as the first changes).  Append-only.
        self.changelog: List[List[int]] = [
            list(table.keys()) for table in self.grs
        ]
        #: Per site id: how much of the callee's changelog this site
        #: has already translated.
        self.cursor: List[int] = [0] * resolved.num_call_sites
        #: Per site id: the sectioned DMOD, accumulated as facts flow
        #: past (see the module docstring).
        self.site_sections: List[SectionMap] = [
            {} for _ in range(resolved.num_call_sites)
        ]

        # Per-site binding decode, built once (the standalone solver
        # rebuilds the formal→binding map on every projection).
        self._formal_binding: List[Dict[int, object]] = []
        for site in resolved.call_sites:
            table: Dict[int, object] = {}
            formals = site.callee.formals
            for binding in site.bindings:
                if binding.by_reference:
                    table[formals[binding.position].uid] = binding
            self._formal_binding.append(table)

        self.component_iterations: List[int] = []

    # -- driver hooks --------------------------------------------------------

    def sweep_component(self, comp_index: int, members, ctx) -> bool:
        """Translate every fact that is new since each site's last
        visit; True if any caller section changed."""
        changed = False
        grs = self.grs
        changelog = self.changelog
        cursor = self.cursor
        call_sites = self.resolved.call_sites
        site_callee = self.arena.site_callee
        local_mask = self.universe.local_mask
        formal_mask = self.universe.formal_mask
        counter = self.counter
        translate = self._translate
        through_binding = self._through_binding
        for pid in members:
            target = grs[pid]
            log_out = changelog[pid]
            for sid in ctx.sites_by_caller[pid]:
                callee_pid = site_callee[sid]
                log = changelog[callee_pid]
                pos = cursor[sid]
                if pos >= len(log):
                    continue
                site = call_sites[sid]
                source = grs[callee_pid]
                site_table = self.site_sections[sid]
                formal_binding = self._formal_binding[sid]
                formals = formal_mask[callee_pid]
                locals_ = local_mask[callee_pid]
                seen = set()
                # ``log`` may grow while we drain it (self-recursive
                # sites append to their own callee's log); the loop
                # terminates because the lattice has finite height.
                while pos < len(log):
                    uid = log[pos]
                    pos += 1
                    if uid in seen:
                        continue  # Same fact, same current value.
                    seen.add(uid)
                    section = source[uid]
                    if (formals >> uid) & 1:
                        binding = formal_binding.get(uid)
                        if binding is None:
                            continue  # By-value actual: no channel back.
                        out_uid = binding.base.uid
                        translated = through_binding(section, site, binding)
                    elif (locals_ >> uid) & 1:
                        continue  # Deallocated on return.
                    else:
                        out_uid = uid
                        translated = translate(section, site)
                    if _merge_into(target, out_uid, translated, counter):
                        log_out.append(out_uid)
                        seen.discard(out_uid)
                        changed = True
                    _merge_into(site_table, out_uid, translated, counter)
                cursor[sid] = pos
        return changed

    def note_component(self, sweeps: int) -> None:
        self.component_iterations.append(sweeps)

    def finalize(self, ctx) -> None:
        # Nothing left to do: the per-site tables accumulated during
        # the sweeps (every cursor is at the end of its callee's final
        # changelog once the walk completes).
        pass

    # -- results -------------------------------------------------------------

    def to_analysis(self) -> SectionAnalysis:
        """The lane's result in the standalone solver's result type."""
        return SectionAnalysis(
            resolved=self.resolved,
            universe=self.universe,
            kind=self.kind,
            lattice_name=self.lattice.name,
            grs=self.grs,
            site_sections=self.site_sections,
            counter=self.counter,
            component_iterations=self.component_iterations,
        )

    def nonbottom_masks(self) -> List[int]:
        out = []
        for table in self.grs:
            mask = 0
            for uid, section in table.items():
                if not section.is_bottom:
                    mask |= 1 << uid
            out.append(mask)
        return out

    def to_payload(self) -> Dict:
        """JSON-safe lane block (deterministic: rendered per-site
        sections in site order, per-procedure non-⊥ masks in pid
        order)."""
        analysis = self.to_analysis()
        return {
            "lattice": self.lattice.name,
            "kind": self.kind.value,
            "sites": [
                analysis.describe_site(site)
                for site in self.resolved.call_sites
            ],
            "nonbottom": self.nonbottom_masks(),
        }

    def to_blob(self) -> bytes:
        return sections_payload_to_blob(self.to_payload())


# -- trailer-section codec (shared with core/persist.py) ---------------------


def sections_payload_to_blob(payload: Dict) -> bytes:
    """Binary form of the sections lane block: the non-⊥ masks ride
    signed-mask strips, the rendered site sections ride length-prefixed
    UTF-8."""
    out = bytearray()
    write_bytes(out, payload["lattice"].encode("utf-8"))
    write_bytes(out, payload["kind"].encode("utf-8"))
    write_varint(out, len(payload["nonbottom"]))
    for mask in payload["nonbottom"]:
        write_signed_mask(out, mask)
    write_varint(out, len(payload["sites"]))
    for rendered in payload["sites"]:
        write_varint(out, len(rendered))
        for text in rendered:
            write_bytes(out, text.encode("utf-8"))
    return bytes(out)


def sections_payload_from_blob(data: bytes) -> Dict:
    pos = 0
    lattice, pos = read_bytes(data, pos)
    kind, pos = read_bytes(data, pos)
    count, pos = read_varint(data, pos)
    nonbottom: List[int] = []
    for _ in range(count):
        mask, pos = read_signed_mask(data, pos)
        nonbottom.append(mask)
    count, pos = read_varint(data, pos)
    sites: List[List[str]] = []
    for _ in range(count):
        entries, pos = read_varint(data, pos)
        rendered: List[str] = []
        for _ in range(entries):
            blob, pos = read_bytes(data, pos)
            rendered.append(blob.decode("utf-8"))
        sites.append(rendered)
    return {
        "lattice": lattice.decode("utf-8"),
        "kind": kind.decode("utf-8"),
        "sites": sites,
        "nonbottom": nonbottom,
    }


SECTIONS_LANE = register_lane(
    LaneSpec(
        name="sections",
        description="Section 6 regular sections (Figure 3 lattice, MOD), "
        "delta-driven on the shared condensation",
        direction="up",
        mask_width=lambda arena: arena.width,
        make_state=SectionsLaneState,
        section_tag=3,  # == repro.core.persist.SECTION_LANE_SECTIONS
    )
)

#: The same delta-driven solver over the USE seeds: which array regions
#: a call may *read*.  :class:`SectionsLaneState` is kind-parametric —
#: only the local extraction differs — so the USE lane is a second
#: registration, not a second solver.
SECTIONS_USE_LANE = register_lane(
    LaneSpec(
        name="sections-use",
        description="Section 6 regular sections (Figure 3 lattice, USE), "
        "delta-driven on the shared condensation",
        direction="up",
        mask_width=lambda arena: arena.width,
        make_state=lambda arena: SectionsLaneState(arena, EffectKind.USE),
        section_tag=5,  # == repro.core.persist.SECTION_LANE_SECTIONS_USE
    )
)
