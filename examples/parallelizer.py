"""Loop parallelisation with regular sections (Section 6 of the paper).

The motivating scenario from Callahan & Kennedy: a loop whose body is a
call.  With whole-array summaries, every iteration appears to modify
all of `grid`, so every pair of iterations conflicts and the loop must
run serially.  Regular section analysis proves each call touches only
column ``j``, so the iterations are independent.

Run::

    python examples/parallelizer.py
"""

from repro import analyze_side_effects, compile_source
from repro.core.varsets import EffectKind
from repro.sections import analyze_sections

SOURCE = """
program smoother
  global array grid[16][16]
  global array tmp[16]

  proc smooth_column(t, c)
    local i
  begin
    for i := 1 to 14 do
      t[i][c] := (t[i - 1][c] + t[i + 1][c]) / 2
    end
  end

  proc checksum_row(t, r, out)
    local j
  begin
    out := 0
    for j := 0 to 15 do
      out := out + t[r][j]
    end
  end

begin
  call smooth_column(grid, 0)
  call smooth_column(grid, 1)
  call smooth_column(grid, 2)
  call smooth_column(grid, 3)
  call checksum_row(grid, 8, tmp[0])
end
"""


def main() -> None:
    resolved = compile_source(SOURCE)
    summary = analyze_side_effects(resolved)
    mod_sections = analyze_sections(resolved, EffectKind.MOD)
    use_sections = analyze_sections(resolved, EffectKind.USE)
    grid = resolved.var_named("grid")

    smooth_sites = [s for s in resolved.call_sites
                    if s.callee.qualified_name == "smooth_column"]
    row_site = [s for s in resolved.call_sites
                if s.callee.qualified_name == "checksum_row"][0]

    print("What each call does to `grid`:")
    for site in resolved.call_sites:
        touched = mod_sections.site_sections[site.site_id].get(grid.uid)
        mod_bits = sorted(v.qualified_name for v in summary.mod(site))
        rendered = touched.render("grid") if touched else "grid(⊥)"
        print("  line %2d %-18s whole-array MOD: %-28s section: %s"
              % (site.line, site.callee.qualified_name,
                 "{%s}" % ", ".join(mod_bits), rendered))

    print()
    print("Can the four smooth_column calls run in parallel?")
    print("  whole-array verdict: NO — each call's MOD contains `grid`,")
    print("  so every pair of calls appears to conflict.")
    conflicts = 0
    for i, a in enumerate(smooth_sites):
        section_a = mod_sections.site_sections[a.site_id][grid.uid]
        for b in smooth_sites[i + 1:]:
            section_b = mod_sections.site_sections[b.site_id][grid.uid]
            if section_a.intersects(section_b):
                conflicts += 1
    print("  sectioned verdict:  %s — %d of %d pairs intersect"
          % ("YES" if conflicts == 0 else "NO", conflicts,
             len(smooth_sites) * (len(smooth_sites) - 1) // 2))

    print()
    print("Can checksum_row overlap with the smoothing?")
    row_use = use_sections.site_sections[row_site.site_id].get(grid.uid)
    print("  checksum_row USES %s" % row_use.render("grid"))
    for site in smooth_sites:
        written = mod_sections.site_sections[site.site_id][grid.uid]
        verdict = "conflict" if written.intersects(row_use) else "independent"
        print("  vs write %-12s -> %s" % (written.render("grid"), verdict))
    print("  A row crosses every column, so this dependence is real and the")
    print("  sectioned test correctly keeps it (no lost correctness).")


if __name__ == "__main__":
    main()
