"""Output checks, run outside every timed region.

* :func:`canonical_view` reads a decoded payload through the public
  loader (:class:`repro.core.persist.LoadedSummary`) with every name set
  sorted, and :func:`digest_of_view` hashes it, so a byte-format change
  that keeps the content keeps the digest.
* :func:`independent_gmod` solves GMOD for MOD and USE with the
  undecomposed equation (1) (``baselines.iterative``) on a separately
  compiled copy of the source; it shares no solver with the pipeline.
* :func:`deep_nest_gmod` is the closed form documented on
  ``workloads.patterns.deep_nest``, for the MOD sets of the tower.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

KINDS = ("mod", "use")


def canonical_view(payload: Dict) -> Dict:
    """Every externally meaningful set of a payload, names sorted."""
    from repro.core.persist import LoadedSummary
    from repro.core.varsets import EffectKind

    loaded = LoadedSummary(payload)
    kinds = [EffectKind(value) for value in KINDS]
    procs = {}
    for name in loaded.procedures():
        entry = {"aliases": sorted(loaded.alias_pairs(name))}
        for kind in kinds:
            entry["g" + kind.value] = sorted(loaded.gmod_names(name, kind))
            entry["r" + kind.value] = sorted(loaded.rmod_names(name, kind))
        procs[name] = entry
    sites = []
    for site_id, site in enumerate(loaded.site_entries()):
        entry = {key: site[key] for key in ("site_id", "caller", "callee", "line")}
        for kind in kinds:
            entry["d" + kind.value] = sorted(loaded.dmod_names(site_id, kind))
            entry[kind.value] = sorted(loaded.mod_names(site_id, kind))
        sites.append(entry)
    return {"program": loaded.program_name, "procedures": procs, "call_sites": sites}


def digest_of_view(view: Dict) -> str:
    text = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def independent_gmod(source: str) -> Dict[str, Dict[str, List[str]]]:
    """``{kind: {procedure: sorted GMOD names}}`` from equation (1)."""
    from repro.baselines.iterative import solve_direct_equation1
    from repro.core.local import LocalAnalysis
    from repro.core.varsets import EffectKind, VariableUniverse
    from repro.lang.semantic import compile_source

    resolved = compile_source(source)
    universe = VariableUniverse(resolved)
    local = LocalAnalysis(resolved, universe)
    result = {}
    for value in KINDS:
        gmod = solve_direct_equation1(resolved, local, universe, EffectKind(value))
        result[value] = {
            proc.qualified_name: sorted(universe.to_names(gmod[proc.pid]))
            for proc in resolved.procs
        }
    return result


def deep_nest_gmod(depth: int) -> Dict[str, List[str]]:
    """Closed-form MOD GMOD of ``deep_nest(depth)``: the level-λ local
    is in GMOD of its owner and every deeper procedure, the global ``g``
    in GMOD of every procedure, nothing else anywhere."""
    expected = {}
    name = ""
    owned: List[str] = []
    for level in range(1, depth + 1):
        name = "n%d" % level if level == 1 else "%s.n%d" % (name, level)
        owned.append("%s::v%d" % (name, level))
        expected[name] = sorted(owned + ["g"])
    return expected


def check_gmod(view: Dict, expected: Dict[str, Dict[str, List[str]]]) -> Optional[str]:
    """None when every expected GMOD set matches the view, else a reason."""
    procs = view["procedures"]
    for kind, per_proc in expected.items():
        for name, names in per_proc.items():
            entry = procs.get(name)
            if entry is None:
                return "procedure %s missing from the output" % name
            if entry["g" + kind] != names:
                return "GMOD %s of %s differs from the oracle" % (kind, name)
    return None


def expected_gmod(spec: Dict, source: str) -> Dict[str, Dict[str, List[str]]]:
    """The independent oracle of a workload's program."""
    if spec["input"]["generator"] == "deep_nest":
        expected = independent_gmod(source)
        expected["mod"] = deep_nest_gmod(spec["input"]["depth"])
        return expected
    return independent_gmod(source)


def who_modifies(view: Dict, variable: str) -> Dict:
    """The answer a ``who_modifies`` query must give on this content."""
    procs = sorted(
        name for name, entry in view["procedures"].items()
        if variable in entry["gmod"]
    )
    sites = [site["site_id"] for site in view["call_sites"] if variable in site["mod"]]
    return {"variable": variable, "kind": "mod", "procedures": procs, "sites": sites}
