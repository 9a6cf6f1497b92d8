"""The fine-grained dependency index behind demand-driven re-analysis.

Cooper–Kennedy summaries decompose over two SCC condensations: ``GMOD``
over the call multi-graph and ``RMOD`` over the binding graph β.  Both
solvers consume a strongly connected region's inputs only through its
frontier — a component's least fixpoint is a function of its members'
``IMOD+`` (resp. ``IMOD`` bits) and its successor components' exported
values.  That makes a solved summary *re-solvable region by region*: an
edit invalidates the components it touches, and propagation stops at
the first component whose exported facts come out unchanged.

:class:`DependencyIndex` is the persistent record that makes this
possible across edits **and across processes**.  It snapshots, in the
old program's pid/uid/site-id spaces:

* per-procedure structural fingerprints (for dirty detection without
  the old AST),
* the solved ``GMOD``/``IMOD+`` rows and the *exports* ``GMOD − LOCAL``
  each component shows its callers (the cutoff comparand),
* the packed per-β-node ``RMOD`` verdicts,
* the alias pair sets and their domain masks (warm-start capital for
  the alias fixpoint),
* the per-site local-effect and binding tables plus the final
  ``DMOD``/``MOD`` masks (so untouched call sites are copied, not
  recomputed),
* and the SCC-level structure of both graphs — component membership
  plus the deduplicated component edge lists — built with the same
  :func:`repro.graphs.scc.condense` machinery the shard partitioner
  uses for its region boundaries.

Everything is keyed by qualified names or plain ints, never by live
symbol objects, so an index deserialized in a fresh process can drive
:func:`repro.core.incremental.incremental_update_from_index` directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.binio import (
    read_bytes,
    read_mask_adaptive,
    read_varint,
    write_bytes,
    write_mask_adaptive,
    write_varint,
)
from repro.graphs.scc import Condensation, condense
from repro.lang.symbols import ProcSymbol

#: First bytes of a serialized dependency index section.
INDEX_MAGIC = b"CKDI"

#: Schema version of the serialized index.  Bumped independently of the
#: summary container version; an unknown version raises, never
#: misreads.  Version 2 appends the call-graph separator-tree trailer;
#: version-1 blobs still read (their tree fields come back ``None``).
INDEX_FORMAT_VERSION = 2

#: Shard budget for the persisted call-graph separator tree.  Small on
#: purpose: the tree exists to bound incremental region scans and to
#: seed warm shard plans, not to saturate a worker pool.
TREE_SHARDS = 8


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


def fingerprints_equal(old_proc: ProcSymbol, new_proc: ProcSymbol) -> bool:
    """Structural equality of two procedure versions.

    Token hashes are compared only when *both* sides have them; a
    mixed pair (one parsed, one AST-built) falls back to the exact
    text fingerprint so programmatic edits still diff precisely.
    """
    if old_proc.token_hash and new_proc.token_hash:
        return old_proc.token_hash == new_proc.token_hash
    return fingerprint_text(old_proc) == fingerprint_text(new_proc)


@dataclass
class DependencyIndex:
    """Self-contained re-solve state for one analyzed program version.

    All pid/uid/site-id fields refer to the *indexed* (old) program;
    the incremental engine bridges to the edited program by qualified
    name and, for the common body-edit case where both spaces are
    identical, by direct position.
    """

    program: str
    gmod_method: str
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
    universe_global: int
    universe_local: List[int]  # per pid
    universe_formal: List[int]  # per pid
    universe_level: List[int]  # per nesting level

    # -- solved per-procedure rows (one list per kind) ------------------------
    gmod: List[List[int]]
    exports: List[List[int]]  # GMOD & strip — what callers actually read
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

    # -- aliases --------------------------------------------------------------
    alias_pairs: List[List[Tuple[int, int]]]  # per pid, sorted (a<b) pairs
    alias_domains: List[int]  # per pid domain mask

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

    # -- SCC-level structure (the compact component edge lists) ---------------
    call_comp_of: List[int]
    call_comp_edges: List[Tuple[int, int]]
    beta_comp_of: List[int]
    beta_comp_edges: List[Tuple[int, int]]

    # -- call-graph separator tree (version-2 trailer) ------------------------
    #: Snapshot of the call graph's
    #: :class:`~repro.shard.separator.PartitionHierarchy`, in the old
    #: pid space.  All five fields are ``None`` on an index read from a
    #: version-1 blob (or built for an empty program); consumers must
    #: treat that as "no tree" and fall back to whole-graph scans.
    tree_parent: Optional[List[int]] = None  # tree node → parent (-1 root)
    tree_kind: Optional[List[int]] = None  # tree node → KIND_* small int
    tree_node_of_shard: Optional[List[int]] = None  # shard → owning leaf
    tree_shard_of_pid: Optional[List[int]] = None  # pid → call-graph shard
    #: shard → sorted shards whose members may call into it (direct
    #: quotient predecessors + itself); the incremental engine closes
    #: these transitively to bound its caller scans.
    tree_scopes: Optional[List[List[int]]] = None

    @property
    def num_procs(self) -> int:
        return len(self.proc_names)

    @property
    def num_sites(self) -> int:
        return len(self.site_caller)

    @property
    def num_call_components(self) -> int:
        return (max(self.call_comp_of) + 1) if self.call_comp_of else 0

    @property
    def num_beta_components(self) -> int:
        return (max(self.beta_comp_of) + 1) if self.beta_comp_of else 0

    def sites_by_caller(self) -> List[List[int]]:
        """Old site ids grouped by caller pid, in site-id order."""
        grouped: List[List[int]] = [[] for _ in range(self.num_procs)]
        for sid, pid in enumerate(self.site_caller):
            grouped[pid].append(sid)
        return grouped


def _comp_edges(cond: Condensation) -> List[Tuple[int, int]]:
    return [
        (comp, succ)
        for comp, successors in enumerate(cond.successors)
        for succ in successors
    ]


def build_dependency_index(summary, arena=None) -> "DependencyIndex":
    """Snapshot a live :class:`SideEffectSummary` into an index.

    ``arena`` (the program's :class:`~repro.core.arena.ProgramArena`)
    is optional: when available its cached condensations and flat site
    tables are reused; otherwise everything is derived from the summary
    itself, using the same :func:`~repro.graphs.scc.condense` pass the
    shard partitioner runs for its region boundaries.
    """
    resolved = summary.resolved
    universe = summary.universe
    local = summary.local
    num_procs = resolved.num_procs
    kind_list = list(summary.solutions.keys())

    width = max(1, universe.size)
    limit = (1 << width) - 1
    strip = [limit & ~mask for mask in universe.local_mask]

    gmod_rows: List[List[int]] = []
    export_rows: List[List[int]] = []
    imod_plus_rows: List[List[int]] = []
    dmod_rows: List[List[int]] = []
    mod_rows: List[List[int]] = []
    for kind in kind_list:
        solution = summary.solutions[kind]
        gmod_rows.append(list(solution.gmod))
        export_rows.append([g & s for g, s in zip(solution.gmod, strip)])
        imod_plus_rows.append(list(solution.imod_plus))
        dmod_rows.append(list(solution.dmod))
        mod_rows.append(list(solution.mod))

    # Packed K-bit RMOD verdicts per β node.
    binding_graph = summary.binding_graph
    num_beta_nodes = binding_graph.num_formals
    rmod_node_bits = [0] * num_beta_nodes
    for k, kind in enumerate(kind_list):
        node_value = summary.solutions[kind].rmod.node_value
        for node in range(num_beta_nodes):
            if node_value[node]:
                rmod_node_bits[node] |= 1 << k

    if arena is not None and arena.resolved is resolved:
        call_cond = arena.call_condense_full()
        beta_cond = arena.beta_condense_full()
        site_lmod = list(arena.site_lmod)
        site_luse = list(arena.site_luse)
        site_ref_heads = list(arena.site_ref_heads)
        ref_formal_uid = list(arena.ref_formal_uid)
        ref_base_uid = list(arena.ref_base_uid)
    else:
        call_cond = condense(
            summary.call_graph.num_nodes, summary.call_graph.successors
        )
        beta_cond = condense(num_beta_nodes, binding_graph.successors)
        from repro.core.local import lmod_of, luse_of

        num_sites = resolved.num_call_sites
        site_lmod = [0] * num_sites
        site_luse = [0] * num_sites
        site_ref_heads = [0] * (num_sites + 1)
        ref_formal_uid = []
        ref_base_uid = []
        for site in resolved.call_sites:
            site_lmod[site.site_id] = lmod_of(site.stmt)
            site_luse[site.site_id] = luse_of(site.stmt)
        for site in resolved.call_sites:
            formals = site.callee.formals
            for binding in site.bindings:
                if not binding.by_reference:
                    continue
                ref_formal_uid.append(formals[binding.position].uid)
                ref_base_uid.append(binding.base.uid)
            site_ref_heads[site.site_id + 1] = len(ref_formal_uid)

    alias_pairs: List[List[Tuple[int, int]]] = []
    alias_domains: List[int] = []
    domains = summary.aliases.domains()
    for pid in range(num_procs):
        alias_pairs.append(
            sorted(tuple(sorted(pair)) for pair in summary.aliases.pairs[pid])
        )
        alias_domains.append(domains[pid] if pid < len(domains) else 0)

    gmod_method = ""
    if kind_list:
        gmod_method = summary.solutions[kind_list[0]].gmod_method

    # The call graph's separator tree, the same structure the shard
    # solver schedules by.  Persisting it lets the incremental engine
    # bound its caller scans by tree scopes instead of walking the
    # whole graph, without repartitioning at edit time.
    from repro.shard.partition import partition_graph

    tree_parent = tree_kind = tree_node_of_shard = None
    tree_shard_of_pid = tree_scopes = None
    if num_procs:
        tree_plan = partition_graph(
            num_procs,
            summary.call_graph.successors,
            TREE_SHARDS,
            strategy="separator",
            condensation=call_cond,
        )
        hierarchy = tree_plan.hierarchy
        if hierarchy is not None:
            tree_parent = [node.parent for node in hierarchy.nodes]
            tree_kind = [node.kind for node in hierarchy.nodes]
            tree_node_of_shard = list(hierarchy.node_of_shard)
            tree_shard_of_pid = list(tree_plan.shard_of)
            tree_scopes = [list(scope) for scope in hierarchy.scopes]

    return DependencyIndex(
        program=resolved.program.name,
        gmod_method=gmod_method,
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
        gmod=gmod_rows,
        exports=export_rows,
        imod_plus=imod_plus_rows,
        imod_ext=[list(local.initial(kind)) for kind in kind_list],
        imod_plain=list(local.imod_plain),
        iuse_plain=list(local.iuse_plain),
        beta_node_uid=[formal.uid for formal in binding_graph.formals],
        rmod_node_bits=rmod_node_bits,
        alias_pairs=alias_pairs,
        alias_domains=alias_domains,
        site_caller=[site.caller.pid for site in resolved.call_sites],
        site_callee=[site.callee.pid for site in resolved.call_sites],
        site_lmod=site_lmod,
        site_luse=site_luse,
        site_ref_heads=site_ref_heads,
        ref_formal_uid=ref_formal_uid,
        ref_base_uid=ref_base_uid,
        dmod=dmod_rows,
        mod=mod_rows,
        call_comp_of=list(call_cond.component_of),
        call_comp_edges=_comp_edges(call_cond),
        beta_comp_of=list(beta_cond.component_of),
        beta_comp_edges=_comp_edges(beta_cond),
        tree_parent=tree_parent,
        tree_kind=tree_kind,
        tree_node_of_shard=tree_node_of_shard,
        tree_shard_of_pid=tree_shard_of_pid,
        tree_scopes=tree_scopes,
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


def _read_mask_list(data, pos: int) -> Tuple[List[int], int]:
    count, pos = read_varint(data, pos)
    masks: List[int] = []
    for _ in range(count):
        mask, pos = read_mask_adaptive(data, pos)
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


def _read_mask_delta(data, pos: int, bases: List[int]) -> Tuple[List[int], int]:
    count, pos = read_varint(data, pos)
    masks: List[int] = []
    for index in range(count):
        delta, pos = read_mask_adaptive(data, pos)
        masks.append(delta ^ bases[index])
    return masks, pos


def _write_pair_list(out: bytearray, pairs: List[Tuple[int, int]]) -> None:
    write_varint(out, len(pairs))
    for a, b in pairs:
        write_varint(out, a)
        write_varint(out, b)


def _read_pair_list(data, pos: int) -> Tuple[List[Tuple[int, int]], int]:
    count, pos = read_varint(data, pos)
    pairs: List[Tuple[int, int]] = []
    for _ in range(count):
        a, pos = read_varint(data, pos)
        b, pos = read_varint(data, pos)
        pairs.append((a, b))
    return pairs, pos


def index_to_bytes(index: DependencyIndex) -> bytes:
    """Serialize an index to its tagged-section blob."""
    out = bytearray()
    out += INDEX_MAGIC
    write_varint(out, INDEX_FORMAT_VERSION)
    write_bytes(out, index.program.encode("utf-8"))
    write_bytes(out, index.gmod_method.encode("utf-8"))
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
    for k in range(num_kinds):
        _write_mask_delta(out, index.exports[k], index.gmod[k])

    _write_int_list(out, index.beta_node_uid)
    _write_int_list(out, index.rmod_node_bits)

    write_varint(out, len(index.alias_pairs))
    for pairs in index.alias_pairs:
        _write_pair_list(out, pairs)
    _write_mask_list(out, index.alias_domains)

    _write_int_list(out, index.site_caller)
    _write_int_list(out, index.site_callee)
    _write_mask_list(out, index.site_lmod)
    _write_mask_list(out, index.site_luse)
    _write_int_list(out, index.site_ref_heads)
    _write_int_list(out, index.ref_formal_uid)
    _write_int_list(out, index.ref_base_uid)
    for k, kind in enumerate(index.kinds):
        site_local = index.site_lmod if kind == "mod" else index.site_luse
        exports = index.exports[k]
        bases = [
            site_local[sid] | exports[index.site_callee[sid]]
            for sid in range(len(site_local))
        ]
        _write_mask_delta(out, index.dmod[k], bases)
    for k in range(num_kinds):
        _write_mask_delta(out, index.mod[k], index.dmod[k])

    _write_int_list(out, index.call_comp_of)
    _write_pair_list(out, index.call_comp_edges)
    _write_int_list(out, index.beta_comp_of)
    _write_pair_list(out, index.beta_comp_edges)

    # Version-2 trailer: the call-graph separator tree, behind a
    # presence byte (empty programs carry no tree).
    if index.tree_shard_of_pid is None:
        out.append(0)
    else:
        out.append(1)
        _write_int_list(out, index.tree_parent)
        _write_int_list(out, index.tree_kind)
        _write_int_list(out, index.tree_node_of_shard)
        _write_int_list(out, index.tree_shard_of_pid)
        write_varint(out, len(index.tree_scopes))
        for scope in index.tree_scopes:
            _write_int_list(out, scope)
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
    if version not in (1, INDEX_FORMAT_VERSION):
        raise ValueError(
            "unsupported dependency index version %d (this reader supports "
            "versions 1..%d); re-analyze to rebuild the index"
            % (version, INDEX_FORMAT_VERSION)
        )
    blob, pos = read_bytes(data, pos)
    program = blob.decode("utf-8")
    blob, pos = read_bytes(data, pos)
    gmod_method = blob.decode("utf-8")
    kinds, pos = _read_str_list(data, pos)

    proc_names, pos = _read_str_list(data, pos)
    proc_parent, pos = _read_int_list(data, pos)
    count, pos = read_varint(data, pos)
    fingerprints: List[bytes] = []
    for _ in range(count):
        digest, pos = read_bytes(data, pos)
        fingerprints.append(digest)
    var_names, pos = _read_str_list(data, pos)
    universe_global, pos = read_mask_adaptive(data, pos)
    universe_local, pos = _read_mask_list(data, pos)
    universe_formal, pos = _read_mask_list(data, pos)
    universe_level, pos = _read_mask_list(data, pos)

    num_kinds = len(kinds)
    imod_plain, pos = _read_mask_list(data, pos)
    iuse_plain, pos = _read_mask_list(data, pos)
    imod_ext: List[List[int]] = []
    for _ in range(num_kinds):
        row, pos = _read_mask_list(data, pos)
        imod_ext.append(row)
    imod_plus: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, imod_ext[k])
        imod_plus.append(row)
    gmod: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, imod_plus[k])
        gmod.append(row)
    exports: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, gmod[k])
        exports.append(row)

    beta_node_uid, pos = _read_int_list(data, pos)
    rmod_node_bits, pos = _read_int_list(data, pos)

    count, pos = read_varint(data, pos)
    alias_pairs: List[List[Tuple[int, int]]] = []
    for _ in range(count):
        pairs, pos = _read_pair_list(data, pos)
        alias_pairs.append(pairs)
    alias_domains, pos = _read_mask_list(data, pos)

    site_caller, pos = _read_int_list(data, pos)
    site_callee, pos = _read_int_list(data, pos)
    site_lmod, pos = _read_mask_list(data, pos)
    site_luse, pos = _read_mask_list(data, pos)
    site_ref_heads, pos = _read_int_list(data, pos)
    ref_formal_uid, pos = _read_int_list(data, pos)
    ref_base_uid, pos = _read_int_list(data, pos)
    dmod: List[List[int]] = []
    for k, kind in enumerate(kinds):
        site_local = site_lmod if kind == "mod" else site_luse
        bases = [
            site_local[sid] | exports[k][site_callee[sid]]
            for sid in range(len(site_local))
        ]
        row, pos = _read_mask_delta(data, pos, bases)
        dmod.append(row)
    mod: List[List[int]] = []
    for k in range(num_kinds):
        row, pos = _read_mask_delta(data, pos, dmod[k])
        mod.append(row)

    call_comp_of, pos = _read_int_list(data, pos)
    call_comp_edges, pos = _read_pair_list(data, pos)
    beta_comp_of, pos = _read_int_list(data, pos)
    beta_comp_edges, pos = _read_pair_list(data, pos)

    tree_parent = tree_kind = tree_node_of_shard = None
    tree_shard_of_pid = tree_scopes = None
    if version >= 2:
        has_tree = data[pos]
        pos += 1
        if has_tree:
            tree_parent, pos = _read_int_list(data, pos)
            tree_kind, pos = _read_int_list(data, pos)
            tree_node_of_shard, pos = _read_int_list(data, pos)
            tree_shard_of_pid, pos = _read_int_list(data, pos)
            count, pos = read_varint(data, pos)
            tree_scopes = []
            for _ in range(count):
                scope, pos = _read_int_list(data, pos)
                tree_scopes.append(scope)

    return DependencyIndex(
        program=program,
        gmod_method=gmod_method,
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
        exports=exports,
        imod_plus=imod_plus,
        imod_ext=imod_ext,
        imod_plain=imod_plain,
        iuse_plain=iuse_plain,
        beta_node_uid=beta_node_uid,
        rmod_node_bits=rmod_node_bits,
        alias_pairs=alias_pairs,
        alias_domains=alias_domains,
        site_caller=site_caller,
        site_callee=site_callee,
        site_lmod=site_lmod,
        site_luse=site_luse,
        site_ref_heads=site_ref_heads,
        ref_formal_uid=ref_formal_uid,
        ref_base_uid=ref_base_uid,
        dmod=dmod,
        mod=mod,
        call_comp_of=call_comp_of,
        call_comp_edges=call_comp_edges,
        beta_comp_of=beta_comp_of,
        beta_comp_edges=beta_comp_edges,
        tree_parent=tree_parent,
        tree_kind=tree_kind,
        tree_node_of_shard=tree_node_of_shard,
        tree_shard_of_pid=tree_shard_of_pid,
        tree_scopes=tree_scopes,
    )
