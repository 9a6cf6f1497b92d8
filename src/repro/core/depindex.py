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

On disk the index rides in the trailer of the summary's v5 container
(:func:`index_section`), whose body holds the variable table, the
``GMOD`` rows, every site's ``DMOD``/``MOD`` and the alias tables: the
blob stores the rest, and :func:`index_from_container` reads those
back from the body, so each solved set is stored once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from repro.core.arena import ProgramArena, peek_arena
from repro.core.binio import (
    read_bytes,
    read_mask_adaptive,
    read_varint,
    write_bytes,
    write_mask_adaptive,
    write_varint,
)
from repro.core.persist import (
    SECTION_DEP_INDEX,
    read_container_trailer,
    read_summary_body,
    summary_crc32,
)
from repro.lang.symbols import ProcSymbol, ResolvedProgram

#: First bytes of a serialized dependency index section.
INDEX_MAGIC = b"CKDI"

#: Schema version of the serialized index.  Bumped independently of the
#: summary container version; any other version raises, never
#: misreads.  Versions 1 and 2 also stored the condensations' component
#: maps and edge lists, the export rows and the alias pairs as pair
#: lists; version 3 also stored the variable names, every ``GMOD``
#: row, the alias partner tables and every site's ``DMOD``/``MOD``,
#: which the container's body holds.  A daemon that finds one of them
#: re-solves in full instead.
INDEX_FORMAT_VERSION = 4


def fingerprint_text(resolved: ResolvedProgram, proc: ProcSymbol) -> str:
    """A structural fingerprint of one procedure of ``resolved``:
    signature, locals, the *names* of directly nested procedures, and
    its own body — but not the nested bodies, so an inner edit dirties
    only the inner procedure (the invalidation seeds add the lexical
    ancestors whose extended ``IMOD`` depends on it separately)."""
    from repro.lang.pretty import _emit_statements, _format_var_decl

    lines: List[str] = []
    decl = resolved.decls[proc.pid]
    if decl is not None:
        lines.append("proc %s(%s)" % (proc.name, ", ".join(decl.params)))
        for var_decl in decl.locals:
            lines.append("local %s" % _format_var_decl(var_decl))
        for nested in decl.nested:
            lines.append("nested %s/%d" % (nested.name, len(nested.params)))
    else:
        lines.append("main %s" % proc.name)
    _emit_statements(resolved.body_of(proc), lines, 1)
    return "\n".join(lines)


def fingerprint_digest(resolved: ResolvedProgram, proc: ProcSymbol) -> bytes:
    """The fingerprint as a fixed-width digest (what the index stores).

    Parsed procedures carry a token-span hash computed during the
    parse, so the common case costs a field read instead of a full
    pretty-print; ASTs built programmatically (no token stream) fall
    back to hashing :func:`fingerprint_text`.  The two hash domains
    are disjoint, so an index built from one provenance compared
    against the other conservatively reports "changed" — a spurious
    re-solve, never an unsound reuse.
    """
    token_hash = resolved.token_hash_of(proc)
    if token_hash:
        return token_hash
    return hashlib.sha256(fingerprint_text(resolved, proc).encode("utf-8")).digest()


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
    #: ``pid`` (equation (4)'s ``GMOD(q) − LOCAL(q)``).
    universe_global: int
    universe_local: List[int]  # per pid
    universe_formal: List[int]  # per pid
    universe_level: List[int]  # per nesting level

    # -- solved per-procedure rows (one list per kind) ------------------------
    gmod: List[List[int]]
    imod_plus: List[List[int]]
    #: §3.3 *extended* IMOD/IUSE per kind — an input snapshot, and the
    #: base ``imod_plus`` is stored against as an XOR delta.
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

    def sites_by_caller(self) -> List[List[int]]:
        """Old site ids grouped by caller pid, in site-id order."""
        grouped: List[List[int]] = [[] for _ in range(self.num_procs)]
        for sid, pid in enumerate(self.site_caller):
            grouped[pid].append(sid)
        return grouped


def build_dependency_index(summary) -> "DependencyIndex":
    """Snapshot a live :class:`SideEffectSummary` into an index.

    The site and binding tables come from the program's arena: the
    cached one, or a fresh uncached :class:`ProgramArena` when the cache
    has dropped it.  β's component count is the one an update carried
    without condensing β (``arena.carried_beta_sccs``), else the
    condensation's.  Every list is the summary's or the arena's own,
    shared, not copied: none is written after its solve.
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
    beta_sccs = arena.carried_beta_sccs
    if beta_sccs is None:
        beta_sccs = len(arena.beta_condensation()[1])
    return DependencyIndex(
        kinds=[kind.value for kind in kind_list],
        proc_names=[proc.qualified_name for proc in resolved.procs],
        proc_parent=[
            proc.parent.pid if proc.parent is not None else -1
            for proc in resolved.procs
        ],
        fingerprints=[fingerprint_digest(resolved, proc) for proc in resolved.procs],
        var_names=universe.names,
        universe_global=universe.global_mask,
        universe_local=universe.local_mask,
        universe_formal=universe.formal_mask,
        universe_level=universe.level_mask,
        gmod=[solution.gmod for solution in solutions],
        imod_plus=[solution.imod_plus for solution in solutions],
        imod_ext=[local.initial(kind) for kind in kind_list],
        imod_plain=local.imod_plain,
        iuse_plain=local.iuse_plain,
        beta_node_uid=[formal.uid for formal in binding_graph.formals],
        rmod_node_bits=rmod_node_bits,
        beta_sccs=beta_sccs,
        partner_mask=summary.aliases.partner_mask,
        site_caller=arena.site_caller,
        site_callee=arena.site_callee,
        site_lmod=arena.site_lmod,
        site_luse=arena.site_luse,
        site_ref_heads=arena.site_ref_heads,
        ref_formal_uid=arena.ref_formal_uid,
        ref_base_uid=arena.ref_base_uid,
        dmod=[solution.dmod for solution in solutions],
        mod=[solution.mod for solution in solutions],
    )


# ---------------------------------------------------------------------------
# Serialization (one tagged blob in the trailer of the summary's container)
# ---------------------------------------------------------------------------


def index_section(summary) -> bytes:
    """The dependency index section of ``summary``'s container: its
    index (built and cached on the summary if absent) written against
    the string table and body :func:`~repro.core.persist.summary_to_bytes`
    writes for it.  Pass it as ``sections={SECTION_DEP_INDEX: ...}``."""
    index = summary.dep_index
    if index is None:
        index = summary.dep_index = build_dependency_index(summary)
    return index_to_bytes(index, summary_crc32(summary))


def _hidden_pids(proc_names: List[str]) -> List[int]:
    """The pids whose rows the body, keyed by name, does not show: the
    main program when a level-1 procedure is named after it.  Main has
    no formals and is never called, so only its ``GMOD`` rows are
    missing (its alias table is empty)."""
    last = {name: pid for pid, name in enumerate(proc_names)}
    return [pid for pid, name in enumerate(proc_names) if last[name] != pid]


def _write_list(out: bytearray, items: list, write_item) -> None:
    """A count, then each item as ``write_item(out, item)`` appends it."""
    write_varint(out, len(items))
    for item in items:
        write_item(out, item)


def _read_list(data, pos: int, read_item) -> Tuple[list, int]:
    """Inverse of :func:`_write_list`, given ``read_item(data, pos) ->
    (item, next position)``."""
    count, pos = read_varint(data, pos)
    items = []
    for _ in range(count):
        item, pos = read_item(data, pos)
        items.append(item)
    return items, pos


#: The blob's list fields, in order: int lists, then masks over the
#: variable uids.
_INT_FIELDS = ("proc_parent", "beta_node_uid", "rmod_node_bits", "site_caller",
               "site_callee", "site_ref_heads", "ref_formal_uid", "ref_base_uid")
_MASK_FIELDS = ("universe_local", "universe_formal", "universe_level",
                "imod_plain", "iuse_plain", "site_lmod", "site_luse")


def index_to_bytes(index: DependencyIndex, crc: int) -> bytes:
    """Serialize an index to its tagged-section blob (format 4), written
    against the container head whose ``zlib.crc32`` is ``crc``
    (:func:`~repro.core.persist.summary_crc32`): what that body lacks,
    and no variable name, alias table or site ``DMOD``/``MOD``."""
    out = bytearray(INDEX_MAGIC)
    write_varint(out, INDEX_FORMAT_VERSION)
    out += crc.to_bytes(4, "little")
    _write_list(out, [name.encode("utf-8") for name in index.proc_names], write_bytes)
    _write_list(out, index.fingerprints, write_bytes)
    for name in _INT_FIELDS:
        # Shifted by one, so -1 (no parent) stays valid.
        _write_list(out, [item + 1 for item in getattr(index, name)], write_varint)
    write_mask_adaptive(out, index.universe_global)
    for name in _MASK_FIELDS:
        _write_list(out, getattr(index, name), write_mask_adaptive)
    hidden = _hidden_pids(index.proc_names)
    for ext, plus, gmod in zip(index.imod_ext, index.imod_plus, index.gmod):
        _write_list(out, ext, write_mask_adaptive)
        # IMOD+ ⊇ the extended IMOD it grew from: the XOR is only the
        # increment, a few bits the sparse form stores in a byte or two.
        deltas = [row ^ base for row, base in zip(plus, ext)]
        _write_list(out, deltas, write_mask_adaptive)
        for pid in hidden:
            write_mask_adaptive(out, gmod[pid] ^ plus[pid])
    write_varint(out, index.beta_sccs)
    return bytes(out)


def index_from_container(data, trailer=None) -> DependencyIndex:
    """The dependency index of a container written with
    :func:`index_section`: its trailer's blob, with the variable names,
    the ``GMOD`` rows, the alias tables and every site's ``DMOD``/``MOD``
    read from the body as masks, nothing named.  ``trailer`` is
    :func:`~repro.core.persist.read_container_trailer`'s result for
    ``data`` when the caller has read it already.  The blob's format and
    CRC are checked before the body is read.  Raises :class:`ValueError`
    when there is no index section, on another format, on an index
    written against another body (its CRC) and on a corrupt container or
    blob."""
    sections, crc = trailer if trailer is not None else read_container_trailer(data)
    blob = sections.get(SECTION_DEP_INDEX)
    if blob is None:
        raise ValueError("the container holds no dependency index")
    try:
        return _index_from_bytes(blob, crc, data)
    except IndexError as exc:
        # A varint, list or mask table running off the blob.
        raise ValueError("corrupt dependency index: %s" % exc) from exc


def _index_from_bytes(data: bytes, crc: int, container) -> DependencyIndex:
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
    written = int.from_bytes(data[pos:pos + 4], "little")
    pos += 4
    if written != crc:
        raise ValueError(
            "dependency index written against another summary body "
            "(CRC %08x, the container's is %08x)" % (written, crc)
        )
    body = read_summary_body(container)  # Only once the blob vouches for it.
    names, pos = _read_list(data, pos, read_bytes)
    proc_names = [name.decode("utf-8") for name in names]
    fingerprints, pos = _read_list(data, pos, read_bytes)
    fields: Dict[str, List[int]] = {}
    for name in _INT_FIELDS:
        items, pos = _read_list(data, pos, read_varint)
        fields[name] = [item - 1 for item in items]
    # Every mask is over the variable uids: a bit at or past the
    # width is corruption, and decoding it would allocate that many.
    read_mask = partial(read_mask_adaptive, width=len(body.variables))
    universe_global, pos = read_mask(data, pos)
    for name in _MASK_FIELDS:
        fields[name], pos = _read_list(data, pos, read_mask)

    # G rows and alias tables are the body's, by name, except for the
    # pids it does not show.
    shown = {entry.name: entry for entry in body.procedures}
    if set(shown) != set(proc_names):
        raise ValueError(
            "corrupt dependency index: its procedures are not the body's"
        )
    entries = [shown[name] for name in proc_names]
    hidden = _hidden_pids(proc_names)
    kinds = range(len(body.tags))
    imod_ext: List[List[int]] = []
    imod_plus: List[List[int]] = []
    gmod: List[List[int]] = []
    for k in kinds:
        ext, pos = _read_list(data, pos, read_mask)
        deltas, pos = _read_list(data, pos, read_mask)
        plus = [delta ^ base for delta, base in zip(deltas, ext)]
        rows = [entry.g_rows[k] for entry in entries]
        for pid in hidden:
            delta, pos = read_mask(data, pos)
            rows[pid] = delta ^ plus[pid]
        imod_ext.append(ext)
        imod_plus.append(plus)
        gmod.append(rows)
    beta_sccs, pos = read_varint(data, pos)
    if pos != len(data):
        raise ValueError(
            "corrupt dependency index: %d bytes past its last field"
            % (len(data) - pos)
        )
    sites = body.sites
    if len(fields["site_caller"]) != len(sites):
        raise ValueError(
            "corrupt dependency index: %d call sites, the body holds %d"
            % (len(fields["site_caller"]), len(sites))
        )
    partner_mask = [entry.partners for entry in entries]
    for pid in hidden:
        partner_mask[pid] = {}
    return DependencyIndex(
        kinds=body.tags,
        proc_names=proc_names,
        fingerprints=fingerprints,
        var_names=body.variables,
        universe_global=universe_global,
        gmod=gmod,
        imod_plus=imod_plus,
        imod_ext=imod_ext,
        beta_sccs=beta_sccs,
        partner_mask=partner_mask,
        dmod=[[site.dmod[k] for site in sites] for k in kinds],
        mod=[[site.mod[k] for site in sites] for k in kinds],
        **fields,
    )
