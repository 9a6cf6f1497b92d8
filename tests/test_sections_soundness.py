"""Dynamic soundness of regular sections (§6): every array element the
interpreter observes a call touching must lie inside the concretised
section the analysis computed for that call site."""

import pytest

from repro.core.varsets import EffectKind
from repro.lang.interp import Interpreter
from repro.lang.semantic import compile_source
from repro.sections import analyze_sections
from repro.sections.lattice import Section, SubKind
from repro.workloads import corpus
from repro.workloads.generator import GeneratorConfig, generate_resolved


def _sub_covers(sub, index, entry_values) -> bool:
    if sub.kind is SubKind.UNKNOWN:
        return True
    if sub.kind is SubKind.CONST:
        return sub.value == index
    if sub.value >= len(entry_values):
        return False
    value = entry_values[sub.value]
    return value is not None and value == index


def element_covered(section, indices, entry_values) -> bool:
    """Does the concretisation of a section — with FORMAL subscripts
    bound to this occurrence's entry values — cover the element?
    Handles both the Figure 3 and the range lattice."""
    from repro.sections.ranges import DimKind, RangeSection

    if section.is_bottom:
        return False
    if isinstance(section, RangeSection):
        if section.dims is None:
            return True
        if len(section.dims) != len(indices):
            return False
        for dim, index in zip(section.dims, indices):
            if dim.kind is DimKind.FULL:
                continue
            if dim.kind is DimKind.RANGE:
                if not dim.lo <= index <= dim.hi:
                    return False
            elif not _sub_covers(dim.sub, index, entry_values):
                return False
        return True
    if section.subs is None:
        return True  # WHOLE.
    if len(section.subs) != len(indices):
        return False
    return all(
        _sub_covers(sub, index, entry_values)
        for sub, index in zip(section.subs, indices)
    )


def assert_sections_sound(resolved, trace, lattice="figure3"):
    """Every observed element access must be covered by the sectioned
    summary of its variable — or, like the paper's Section 5 MOD step,
    by the section of one of its alias partners in the caller (the
    sectioned site tables are alias-free, exactly as DMOD is)."""
    from repro.core.aliases import compute_aliases
    from repro.core.arena import get_arena

    analyses = {
        "mod": analyze_sections(resolved, EffectKind.MOD, lattice=lattice),
        "use": analyze_sections(resolved, EffectKind.USE, lattice=lattice),
    }
    aliases = compute_aliases(get_arena(resolved))
    checked = 0
    for obs in trace.element_observations:
        table = analyses[obs.kind].site_sections[obs.site_id]
        caller = resolved.call_sites[obs.site_id].caller
        candidates = [obs.symbol.uid]
        partner_mask = aliases.partner_mask[caller.pid].get(obs.symbol.uid, 0)
        from repro.core.bitvec import iter_bits

        candidates.extend(iter_bits(partner_mask))
        covered = False
        for uid in candidates:
            section = table.get(uid)
            if section is not None and element_covered(
                section, obs.indices, obs.entry_values
            ):
                covered = True
                break
        assert covered, (
            "site %d: observed %s %s[%s] outside every candidate section "
            "(entry values %s; table %s)"
            % (obs.site_id, obs.kind, obs.symbol.qualified_name,
               obs.indices, obs.entry_values,
               {resolved.variables[uid].qualified_name: s.render("x")
                for uid, s in table.items()})
        )
        checked += 1
    return checked


class TestElementCoverage:
    def test_covered_helper(self):
        from repro.sections.lattice import Subscript

        column = Section.element(Subscript.unknown(), Subscript.const(3))
        assert element_covered(column, (7, 3), ())
        assert not element_covered(column, (7, 4), ())
        symbolic = Section.element(Subscript.formal(1), Subscript.unknown())
        assert element_covered(symbolic, (5, 0), (None, 5))
        assert not element_covered(symbolic, (4, 0), (None, 5))
        assert element_covered(Section.whole(), (1, 2, 3), ())
        assert not element_covered(Section.make_bottom(), (0,), ())


class TestCorpusSectionSoundness:
    @pytest.mark.parametrize("name", ["matrix", "formatter", "stats",
                                      "evaluator", "scheduler"])
    def test_corpus_program(self, name, corpus_programs):
        resolved = corpus_programs[name]
        trace = Interpreter(resolved, inputs=[3, 1, 4, 1, 5]).run()
        checked = assert_sections_sound(resolved, trace)
        if name in ("matrix", "formatter"):
            assert checked > 0  # Arrays genuinely exercised.

    def test_row_column_program(self):
        resolved = compile_source(
            """
            program t
              global array m[6][6]
              proc col(t, c)
                local i
              begin
                for i := 0 to 5 do
                  t[i][c] := 1
                end
              end
              proc elem(t, r, c) begin t[r][c] := 2 end
            begin
              call col(m, 2)
              call elem(m, 4, 4)
            end
            """
        )
        trace = Interpreter(resolved).run()
        assert trace.completed
        checked = assert_sections_sound(resolved, trace)
        assert checked >= 7  # 6 column writes + 1 element write.

    def test_recursive_walker(self):
        resolved = compile_source(
            """
            program t
              global array m[6][6]
              proc walk(t, c, n)
                local i
              begin
                for i := 0 to 5 do
                  t[i][c] := n
                end
                if n > 0 then
                  call walk(t, c, n - 1)
                end
              end
            begin call walk(m, 3, 2) end
            """
        )
        trace = Interpreter(resolved).run()
        assert assert_sections_sound(resolved, trace) > 0


class TestGeneratedSectionSoundness:
    @pytest.mark.parametrize("lattice", ["figure3", "ranges"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_array_programs(self, seed, lattice):
        resolved = generate_resolved(
            GeneratorConfig(
                seed=seed + 12_000,
                num_procs=15,
                num_globals=6,
                max_depth=2,
                nesting_prob=0.3,
                array_global_fraction=0.5,
                recursion_prob=0.3,
            )
        )
        trace = Interpreter(resolved, max_steps=20_000, max_depth=40).run()
        assert_sections_sound(resolved, trace, lattice=lattice)


class TestArrayPipelineSoundness:
    """The randomised array-processing pipeline: whole-array reference
    chains, symbolic index forwarding, every Figure 3 shape — checked
    element by element under both lattice instances."""

    @pytest.mark.parametrize("lattice", ["figure3", "ranges"])
    @pytest.mark.parametrize("seed", range(8))
    def test_pipeline(self, seed, lattice):
        from repro.workloads.patterns import array_pipeline

        resolved = compile_source(array_pipeline(8, seed))
        trace = Interpreter(resolved, max_steps=60_000).run()
        assert trace.completed, trace.reason
        checked = assert_sections_sound(resolved, trace, lattice=lattice)
        assert checked > 0
