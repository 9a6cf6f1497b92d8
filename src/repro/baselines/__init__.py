"""Baseline solvers the paper measures itself against.

* :mod:`repro.baselines.iterative` — Kam–Ullman style worklist
  iteration, both on the *undecomposed* equation (1) (the classical
  formulation whose direct solution "will not achieve the fast time
  bounds") and on the decomposed equations (4) and (6);
* :mod:`repro.baselines.swift` — a stand-in for the authors' earlier
  *swift* algorithm: binding-summary propagation whose unit of work is
  a length-``Nβ`` bit vector, reproducing the ``O(Nβ·E_C)``-flavoured
  cost the paper's Section 3.2 comparison is about;
* :mod:`repro.baselines.naive` — per-procedure reachability closure,
  ``O(N·(N+E))``, an independent oracle for two-level programs;
* :mod:`repro.baselines.dyck` — Dyck-reachability alias baseline, a
  coarser origin-set closure used only as a differential precision
  oracle against pair propagation (``ALIAS(q) ⊆ DYCK(q)``);
* :mod:`repro.baselines.per_kind` — the paper's per-kind solvers run
  one effect kind at a time, the set-and-tally oracle the fused
  production driver is held to;
* :mod:`repro.baselines.gmod_oracles` — the Section 4 GMOD solvers
  production does not run: the condensation-plus-fixpoint reference
  and the per-level repetition;
* :mod:`repro.baselines.alias_pairs` — the pair-set alias worklist,
  the table-for-table oracle of the production mask drain;
* :mod:`repro.baselines.sections_sweep` — the Section 6 whole-map
  sweep, the map-for-map oracle of the delta-driven sections solver.
"""

from repro.baselines.alias_pairs import compute_alias_pairs
from repro.baselines.dyck import (
    compare_precision,
    compute_dyck_aliases,
    dyck_origins,
)
from repro.baselines.gmod_oracles import (
    findgmod_per_level,
    solve_equation4_reference,
)
from repro.baselines.iterative import (
    solve_direct_equation1,
    solve_gmod_iterative,
    solve_gmod_roundrobin,
    solve_rmod_iterative,
)
from repro.baselines.swift import solve_rmod_swift
from repro.baselines.naive import solve_gmod_naive
from repro.baselines.per_kind import analyze_per_kind
from repro.baselines.sections_sweep import analyze_sections_sweep

__all__ = [
    "solve_direct_equation1",
    "solve_gmod_iterative",
    "solve_gmod_roundrobin",
    "solve_rmod_iterative",
    "solve_rmod_swift",
    "solve_gmod_naive",
    "analyze_per_kind",
    "findgmod_per_level",
    "solve_equation4_reference",
    "compute_alias_pairs",
    "analyze_sections_sweep",
    "compare_precision",
    "compute_dyck_aliases",
    "dyck_origins",
]
