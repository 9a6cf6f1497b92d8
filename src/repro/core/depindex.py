"""The fine-grained dependency index behind demand-driven re-analysis.

Cooper–Kennedy summaries decompose over two SCC condensations: ``GMOD``
over the call multi-graph and ``RMOD`` over the binding graph β.  Both
solvers consume a strongly connected region's inputs only through its
frontier — a component's least fixpoint is a function of its members'
``IMOD+`` (resp. ``IMOD`` bits) and its successor components' exported
values (equation (4)'s ``GMOD(q) − LOCAL(q)``).  That makes a solved
summary *re-solvable region by region*: an edit invalidates the
components it touches, and propagation stops at the first component
whose exported facts come out unchanged.

:class:`DependencyIndex` is the persistent record of those inputs, the
rows :func:`repro.core.incremental.incremental_update_from_index`
reads, across edits **and across processes**.  It snapshots, in the old
program's pid/uid/site-id spaces:

* per-procedure structural fingerprints (for dirty detection without
  the old AST),
* the variable universe's structural masks and the solved
  ``GMOD``/``IMOD+`` rows — a procedure's exports are its ``GMOD`` row
  minus its ``LOCAL`` mask, derived, never stored,
* the packed per-β-node ``RMOD`` verdicts and β's component count (all
  the update needs of β when no β input moved),
* the alias partner tables (warm-start capital for the alias fixpoint;
  a table's domain is its key set, derived),
* the per-site local-effect and binding tables plus the final
  ``DMOD``/``MOD`` masks (so untouched call sites are copied, not
  recomputed).

The condensations themselves are not stored: an update condenses the
edited program's graphs on its own arena.

Everything is keyed by qualified names or plain ints, never by live
symbol objects, so an index deserialized in a fresh process can drive
the update directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.arena import ProgramArena, peek_arena
from repro.core.binio import (
    read_bytes,
    read_mask_adaptive,
    read_partner_rows,
    read_varint,
    write_bytes,
    write_mask_adaptive,
    write_partners,
    write_varint,
)
from repro.lang.symbols import ProcSymbol

#: First bytes of a serialized dependency index section.
INDEX_MAGIC = b"CKDI"

#: Schema version of the serialized index.  Bumped independently of the
#: summary container version; any other version raises, never
#: misreads.  Versions 1 and 2 also stored the condensations' component
#: maps and edge lists, the export rows and the alias pairs as pair
#: lists; a daemon that finds one re-solves in full instead.
INDEX_FORMAT_VERSION = 3


def fingerprint_text(proc: ProcSymbol) -> str:
    """A structural fingerprint of one procedure: signature, locals,
    the *names* of directly nested procedures, and its own body — but
    not the nested bodies, so an inner edit dirties only the inner
    procedure (the invalidation seeds add the lexical ancestors whose
    extended ``IMOD`` depends on it separately)."""
    from repro.lang.pretty import _emit_statements, _format_var_decl

    lines: List[str] = []
    if proc.decl is not None:
        lines.append("proc %s(%s)" % (proc.name, ", ".join(proc.decl.params)))
        for var_decl in proc.decl.locals:
            lines.append("local %s" % _format_var_decl(var_decl))
        for nested in proc.decl.nested:
            lines.append("nested %s/%d" % (nested.name, len(nested.params)))
    else:
        lines.append("main %s" % proc.name)
    _emit_statements(proc.body, lines, 1)
    return "\n".join(lines)


def fingerprint_digest(proc: ProcSymbol) -> bytes:
    """The fingerprint as a fixed-width digest (what the index stores).

    Parsed procedures carry a token-span hash computed during the
    parse, so the common case costs a field read instead of a full
    pretty-print; ASTs built programmatically (no token stream) fall
    back to hashing :func:`fingerprint_text`.  The two hash domains
    are disjoint, so an index built from one provenance compared
    against the other conservatively reports "changed" — a spurious
    re-solve, never an unsound reuse.
    """
    if proc.token_hash:
        return proc.token_hash
    return hashlib.sha256(fingerprint_text(proc).encode("utf-8")).digest()


@dataclass
class DependencyIndex:
    """Self-contained re-solve state for one analyzed program version.

    All pid/uid/site-id fields refer to the *indexed* (old) program;
    the incremental engine bridges to the edited program by qualified
    name and, for the common body-edit case where both spaces are
    identical, by direct position.
    """

    #: ``EffectKind.value`` strings, in the summary's solution order.
    kinds: List[str]

    # -- procedures -----------------------------------------------------------
    proc_names: List[str]
    proc_parent: List[int]  # parent pid, -1 at the outermost level
    fingerprints: List[bytes]  # sha256 digests, aligned with proc_names

    # -- variables ------------------------------------------------------------
    var_names: List[str]  # qualified names by uid
    #: The universe's structural masks, snapshotted so a patched arena
    #: can splice them instead of re-walking every declaration (valid
    #: whenever the uid/pid spaces are pinned — see
    #: :meth:`repro.core.varsets.VariableUniverse.spliced`).
    #: ``gmod[k][pid] & ~universe_local[pid]`` is what callers read of
    #: ``pid`` (:func:`_export_rows`).
    universe_global: int
    universe_local: List[int]  # per pid
    universe_formal: List[int]  # per pid
    universe_level: List[int]  # per nesting level

    # -- solved per-procedure rows (one list per kind) ------------------------
    gmod: List[List[int]]
    imod_plus: List[List[int]]
    #: §3.3 *extended* IMOD/IUSE per kind — both an input snapshot and
    #: the serialization base: ``imod_plus`` is stored as an XOR delta
    #: against it, ``gmod`` against ``imod_plus``, and so on down the
    #: derivation chain, which keeps each stored mask nearly empty.
    imod_ext: List[List[int]]
    imod_plain: List[int]  # unextended IMOD (arena patch donor)
    iuse_plain: List[int]

    # -- β / RMOD -------------------------------------------------------------
    beta_node_uid: List[int]  # formal uid per β node
    rmod_node_bits: List[int]  # packed K-bit verdicts per β node
    beta_sccs: int  # β's component count, reported when β is carried

    # -- aliases --------------------------------------------------------------
    #: Per pid: :attr:`repro.core.aliases.AliasResult.partner_mask`.
    partner_mask: List[Dict[int, int]]

    # -- call sites -----------------------------------------------------------
    site_caller: List[int]
    site_callee: List[int]
    site_lmod: List[int]
    site_luse: List[int]
    site_ref_heads: List[int]
    ref_formal_uid: List[int]
    ref_base_uid: List[int]
    dmod: List[List[int]]  # per kind, per site
    mod: List[List[int]]  # per kind, per site (alias-expanded)

    @property
    def num_procs(self) -> int:
        return len(self.proc_names)

    @property
    def num_sites(self) -> int:
        return len(self.site_caller)

    def sites_by_caller(self) -> List[List[int]]:
        """Old site ids grouped by caller pid, in site-id order."""
        grouped: List[List[int]] = [[] for _ in range(self.num_procs)]
        for sid, pid in enumerate(self.site_caller):
            grouped[pid].append(sid)
        return grouped


def _export_rows(gmod: List[int], local: List[int]) -> List[int]:
    """Per procedure, equation (4)'s ``GMOD(q) − LOCAL(q)``: the part
    of its ``GMOD`` row its callers read."""
    return [row & ~mask for row, mask in zip(gmod, local)]


def build_dependency_index(summary) -> "DependencyIndex":
    """Snapshot a live :class:`SideEffectSummary` into an index.

    The site and binding tables come from the program's arena: the
    cached one, or a fresh uncached :class:`ProgramArena` when the cache
    has dropped it.  β's component count reuses the arena's condensation
    when one is cached (a full analysis, or an update that re-solved
    RMOD); otherwise counting it is the one Tarjan pass over β.
    """
    resolved = summary.resolved
    arena = peek_arena(resolved) or ProgramArena(resolved)
    local = summary.local
    kind_list = list(summary.solutions)
    solutions = [summary.solutions[kind] for kind in kind_list]

    # Packed K-bit RMOD verdicts per β node.
    binding_graph = summary.binding_graph
    rmod_node_bits = [0] * binding_graph.num_formals
    for k, solution in enumerate(solutions):
        for node, value in enumerate(solution.rmod.node_value):
            if value:
                rmod_node_bits[node] |= 1 << k

    universe = summary.universe
    return DependencyIndex(
        kinds=[kind.value for kind in kind_list],
        proc_names=[proc.qualified_name for proc in resolved.procs],
        proc_parent=[
            proc.parent.pid if proc.parent is not None else -1
            for proc in resolved.procs
        ],
        fingerprints=[fingerprint_digest(proc) for proc in resolved.procs],
        var_names=[var.qualified_name for var in resolved.variables],
        universe_global=universe.global_mask,
        universe_local=list(universe.local_mask),
        universe_formal=list(universe.formal_mask),
        universe_level=list(universe.level_mask),
        gmod=[list(solution.gmod) for solution in solutions],
        imod_plus=[list(solution.imod_plus) for solution in solutions],
        imod_ext=[list(local.initial(kind)) for kind in kind_list],
        imod_plain=list(local.imod_plain),
        iuse_plain=list(local.iuse_plain),
        beta_node_uid=[formal.uid for formal in binding_graph.formals],
        rmod_node_bits=rmod_node_bits,
        beta_sccs=len(arena.beta_condensation()[1]),
        partner_mask=list(summary.aliases.partner_mask),
        site_caller=list(arena.site_caller),
        site_callee=list(arena.site_callee),
        site_lmod=list(arena.site_lmod),
        site_luse=list(arena.site_luse),
        site_ref_heads=list(arena.site_ref_heads),
        ref_formal_uid=list(arena.ref_formal_uid),
        ref_base_uid=list(arena.ref_base_uid),
        dmod=[list(solution.dmod) for solution in solutions],
        mod=[list(solution.mod) for solution in solutions],
    )


# ---------------------------------------------------------------------------
# Serialization (one tagged blob, embedded in the summary container)
# ---------------------------------------------------------------------------


def _write_str_list(out: bytearray, items: List[str]) -> None:
    write_varint(out, len(items))
    for item in items:
        write_bytes(out, item.encode("utf-8"))


def _read_str_list(data, pos: int) -> Tuple[List[str], int]:
    count, pos = read_varint(data, pos)
    items: List[str] = []
    for _ in range(count):
        blob, pos = read_bytes(data, pos)
        items.append(blob.decode("utf-8"))
    return items, pos


def _write_int_list(out: bytearray, items: List[int]) -> None:
    write_varint(out, len(items))
    for item in items:
        write_varint(out, item + 1)  # shift so -1 (no parent) stays valid


def _read_int_list(data, pos: int) -> Tuple[List[int], int]:
    count, pos = read_varint(data, pos)
    items: List[int] = []
    for _ in range(count):
        value, pos = read_varint(data, pos)
        items.append(value - 1)
    return items, pos


def _write_mask_list(out: bytearray, masks: List[int]) -> None:
    write_varint(out, len(masks))
    for mask in masks:
        write_mask_adaptive(out, mask)


def _read_mask_list(data, pos: int, width: int) -> Tuple[List[int], int]:
    count, pos = read_varint(data, pos)
    masks: List[int] = []
    for _ in range(count):
        mask, pos = read_mask_adaptive(data, pos, width)
        masks.append(mask)
    return masks, pos


def _write_mask_delta(out: bytearray, masks: List[int],
                      bases: List[int]) -> None:
    """Write masks XORed against aligned base masks.

    The solved sets are supersets of what they were derived from
    (``GMOD ⊇ IMOD+``, ``MOD ⊇ DMOD``, …), so the delta holds only the
    increment — usually a handful of bits the adaptive sparse form
    stores in a few bytes, where the full mask costs a byte per eight
    universe slots.  XOR makes reconstruction exact either way.
    """
    write_varint(out, len(masks))
    for mask, base in zip(masks, bases):
        write_mask_adaptive(out, mask ^ base)


def _read_mask_delta(
    data, pos: int, bases: List[int], width: int
) -> Tuple[List[int], int]:
    count, pos = read_varint(data, pos)
    masks: List[int] = []
    for index in range(count):
        delta, pos = read_mask_adaptive(data, pos, width)
        masks.append(delta ^ bases[index])
    return masks, pos


def _site_bases(kinds, site_lmod, site_luse, site_callee, gmod, local):
    """Per kind, each site's ``DMOD`` base: equation (2) without the
    formal translation, ``LMOD(s) ∪ (GMOD(q) − LOCAL(q))``."""
    bases = []
    for k, kind in enumerate(kinds):
        site_local = site_lmod if kind == "mod" else site_luse
        exports = _export_rows(gmod[k], local)
        bases.append([
            mask | exports[callee]
            for mask, callee in zip(site_local, site_callee)
        ])
    return bases


def _read_partner_table(data, pos: int, width: int) -> Tuple[Dict[int, int], int]:
    """A :func:`~repro.core.binio.write_partners` table back as the
    symmetric partner table it was written from."""
    rows, pos = read_partner_rows(data, pos, width)
    table: Dict[int, int] = {}
    for uid, below in rows:
        table[uid] = table.get(uid, 0) | below
        bit = 1 << uid
        while below:
            low = below & -below
            partner = low.bit_length() - 1
            table[partner] = table.get(partner, 0) | bit
            below ^= low
    return table, pos


def index_to_bytes(index: DependencyIndex) -> bytes:
    """Serialize an index to its tagged-section blob."""
    out = bytearray()
    out += INDEX_MAGIC
    write_varint(out, INDEX_FORMAT_VERSION)
    _write_str_list(out, index.kinds)

    _write_str_list(out, index.proc_names)
    _write_int_list(out, index.proc_parent)
    write_varint(out, len(index.fingerprints))
    for digest in index.fingerprints:
        write_bytes(out, digest)
    _write_str_list(out, index.var_names)
    write_mask_adaptive(out, index.universe_global)
    _write_mask_list(out, index.universe_local)
    _write_mask_list(out, index.universe_formal)
    _write_mask_list(out, index.universe_level)

    num_kinds = len(index.kinds)
    _write_mask_list(out, index.imod_plain)
    _write_mask_list(out, index.iuse_plain)
    for k in range(num_kinds):
        _write_mask_list(out, index.imod_ext[k])
    # The derivation chain, each level a sparse XOR delta on the last.
    for k in range(num_kinds):
        _write_mask_delta(out, index.imod_plus[k], index.imod_ext[k])
    for k in range(num_kinds):
        _write_mask_delta(out, index.gmod[k], index.imod_plus[k])

    _write_int_list(out, index.beta_node_uid)
    _write_int_list(out, index.rmod_node_bits)
    write_varint(out, index.beta_sccs)

    write_varint(out, len(index.partner_mask))
    for table in index.partner_mask:
        write_partners(out, table)

    _write_int_list(out, index.site_caller)
    _write_int_list(out, index.site_callee)
    _write_mask_list(out, index.site_lmod)
    _write_mask_list(out, index.site_luse)
    _write_int_list(out, index.site_ref_heads)
    _write_int_list(out, index.ref_formal_uid)
    _write_int_list(out, index.ref_base_uid)
    bases = _site_bases(index.kinds, index.site_lmod, index.site_luse,
                        index.site_callee, index.gmod, index.universe_local)
    for k in range(num_kinds):
        _write_mask_delta(out, index.dmod[k], bases[k])
    for k in range(num_kinds):
        _write_mask_delta(out, index.mod[k], index.dmod[k])
    return bytes(out)


def index_from_bytes(data: bytes) -> DependencyIndex:
    """Deserialize an index blob; raises :class:`ValueError` with an
    explicit message on a magic or version mismatch, and on a truncated
    or corrupt blob."""
    try:
        return _index_from_bytes(data)
    except IndexError as exc:
        # A varint, list or mask table running off the blob.
        raise ValueError("corrupt dependency index: %s" % exc) from exc


def _index_from_bytes(data: bytes) -> DependencyIndex:
    magic = bytes(data[: len(INDEX_MAGIC)])
    if magic != INDEX_MAGIC:
        raise ValueError(
            "not a dependency index: expected magic %r, found %r"
            % (INDEX_MAGIC, magic)
        )
    pos = len(INDEX_MAGIC)
    version, pos = read_varint(data, pos)
    if version != INDEX_FORMAT_VERSION:
        raise ValueError(
            "unsupported dependency index version %d (this reader supports "
            "version %d only); re-analyze to rebuild the index"
            % (version, INDEX_FORMAT_VERSION)
        )
    kinds, pos = _read_str_list(data, pos)

    proc_names, pos = _read_str_list(data, pos)
    proc_parent, pos = _read_int_list(data, pos)
    count, pos = read_varint(data, pos)
    fingerprints: List[bytes] = []
    for _ in range(count):
        digest, pos = read_bytes(data, pos)
        fingerprints.append(digest)
    var_names, pos = _read_str_list(data, pos)
    # Every mask is over the variable uids: a bit at or past the
    # width is corruption, and decoding it would allocate that many.
    width = len(var_names)
    universe_global, pos = read_mask_adaptive(data, pos, width)
    universe_local, pos = _read_mask_list(data, pos, width)
    universe_formal, pos = _read_mask_list(data, pos, width)
    universe_level, pos = _read_mask_list(data, pos, width)

    num_kinds = len(kinds)
    imod_plain, pos = _read_mask_list(data, pos, width)
    iuse_plain, pos = _read_mask_list(data, pos, width)
    imod_ext: List[List[int]] = []
    for _ in range(num_kinds):
        row, pos = _read_mask_list(data, pos, width)
        imod_ext.append(row)
    imod_plus: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, imod_ext[k], width)
        imod_plus.append(row)
    gmod: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, imod_plus[k], width)
        gmod.append(row)

    beta_node_uid, pos = _read_int_list(data, pos)
    rmod_node_bits, pos = _read_int_list(data, pos)
    beta_sccs, pos = read_varint(data, pos)

    count, pos = read_varint(data, pos)
    if count != len(proc_names):
        raise ValueError(
            "corrupt dependency index: %d alias tables for %d procedures"
            % (count, len(proc_names))
        )
    partner_mask: List[Dict[int, int]] = []
    for _ in range(count):
        table, pos = _read_partner_table(data, pos, width)
        partner_mask.append(table)

    site_caller, pos = _read_int_list(data, pos)
    site_callee, pos = _read_int_list(data, pos)
    site_lmod, pos = _read_mask_list(data, pos, width)
    site_luse, pos = _read_mask_list(data, pos, width)
    site_ref_heads, pos = _read_int_list(data, pos)
    ref_formal_uid, pos = _read_int_list(data, pos)
    ref_base_uid, pos = _read_int_list(data, pos)
    bases = _site_bases(kinds, site_lmod, site_luse, site_callee, gmod,
                        universe_local)
    dmod: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, bases[k], width)
        dmod.append(row)
    mod: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, dmod[k], width)
        mod.append(row)
    if pos != len(data):
        raise ValueError(
            "corrupt dependency index: %d bytes past its last field"
            % (len(data) - pos)
        )

    return DependencyIndex(
        kinds=kinds,
        proc_names=proc_names,
        proc_parent=proc_parent,
        fingerprints=fingerprints,
        var_names=var_names,
        universe_global=universe_global,
        universe_local=universe_local,
        universe_formal=universe_formal,
        universe_level=universe_level,
        gmod=gmod,
        imod_plus=imod_plus,
        imod_ext=imod_ext,
        imod_plain=imod_plain,
        iuse_plain=iuse_plain,
        beta_node_uid=beta_node_uid,
        rmod_node_bits=rmod_node_bits,
        beta_sccs=beta_sccs,
        partner_mask=partner_mask,
        site_caller=site_caller,
        site_callee=site_callee,
        site_lmod=site_lmod,
        site_luse=site_luse,
        site_ref_heads=site_ref_heads,
        ref_formal_uid=ref_formal_uid,
        ref_base_uid=ref_base_uid,
        dmod=dmod,
        mod=mod,
    )
