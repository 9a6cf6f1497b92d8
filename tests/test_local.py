"""LMOD/LUSE and IMOD/IUSE tests, including the §3.3 nesting extension."""

import pytest

from repro.core.local import LocalAnalysis, lmod_of, luse_of
from repro.core.varsets import EffectKind, VariableUniverse
from repro.lang.semantic import compile_source


def analyze(source):
    resolved = compile_source(source)
    universe = VariableUniverse(resolved)
    return resolved, universe, LocalAnalysis(resolved, universe)


def stmt_of(resolved, proc_name, index=0):
    return resolved.body_of(resolved.proc_named(proc_name))[index]


def names(universe, mask):
    return set(universe.to_names(mask))


class TestStatementSets:
    def setup_method(self):
        self.resolved, self.universe, self.local = analyze(
            """
            program t
              global g, h
              global array m[4][4]
              proc f(a, b)
                local x, i
              begin
                a := g + x
                m[g][h] := b
                read x
                for i := 1 to b do
                  h := h + i
                end
                call f(a, b + h)
                if a < b then
                  return
                end
                while x > 0 do
                  x := x - 1
                end
                print a + b
              end
            begin call f(g, h) end
            """
        )
        self.body = self.resolved.body_of(self.resolved.proc_named("f"))

    def lmod_names(self, index):
        return names(self.universe, lmod_of(self.body[index]))

    def luse_names(self, index):
        return names(self.universe, luse_of(self.body[index]))

    def test_assign_mod_target(self):
        assert self.lmod_names(0) == {"f::a"}

    def test_assign_use_rhs(self):
        assert self.luse_names(0) == {"g", "f::x"}

    def test_array_assign_mods_whole_array(self):
        assert self.lmod_names(1) == {"m"}

    def test_array_assign_uses_subscripts_and_rhs(self):
        assert self.luse_names(1) == {"g", "h", "f::b"}

    def test_read_mods_target(self):
        assert self.lmod_names(2) == {"f::x"}

    def test_for_mods_and_uses_loop_var(self):
        assert self.lmod_names(3) == {"f::i"}
        assert "f::i" in self.luse_names(3)
        assert "f::b" in self.luse_names(3)

    def test_for_body_not_included_in_header_sets(self):
        # h := h + i is a separate statement; the For node's own LMOD
        # is only the loop variable.
        assert "h" not in self.lmod_names(3)

    def test_call_has_empty_lmod(self):
        assert self.lmod_names(4) == set()

    def test_call_uses_by_value_argument_vars(self):
        # call f(a, b + h): 'a' is by reference (no use), b + h is
        # evaluated in the caller.
        assert self.luse_names(4) == {"f::b", "h"}

    def test_if_uses_condition(self):
        assert self.luse_names(5) == {"f::a", "f::b"}

    def test_while_uses_condition_only(self):
        assert self.luse_names(6) == {"f::x"}

    def test_print_uses_values(self):
        assert self.luse_names(7) == {"f::a", "f::b"}


class TestImod:
    def test_imod_unions_all_statements(self):
        resolved, universe, local = analyze(
            """
            program t
              global g
              proc f(a)
                local x
              begin
                a := 1
                if g > 0 then
                  x := 2
                else
                  g := 3
                end
              end
            begin call f(g) end
            """
        )
        f = resolved.proc_named("f")
        assert names(universe, local.imod[f.pid]) == {"f::a", "f::x", "g"}

    def test_call_arguments_do_not_enter_imod(self):
        resolved, universe, local = analyze(
            """
            program t
              global g
              proc f() begin call q(g) end
              proc q(y) begin y := 1 end
            begin call f() end
            """
        )
        f = resolved.proc_named("f")
        assert names(universe, local.imod[f.pid]) == set()

    def test_subscripted_call_argument_indices_are_uses(self):
        resolved, universe, local = analyze(
            """
            program t
              global g
              global array m[4]
              proc f() begin call q(m[g]) end
              proc q(y) begin y := 1 end
            begin call f() end
            """
        )
        f = resolved.proc_named("f")
        assert names(universe, local.iuse[f.pid]) == {"g"}


class TestNestingExtension:
    SOURCE = """
        program t
          global g
          proc outer(p)
            local u
            proc inner(q)
              local w
            begin
              w := 1
              u := 2
              p := 3
              g := 4
              q := 5
            end
          begin
            call inner(p)
          end
        begin call outer(g) end
        """

    def test_plain_imod_excludes_nested_effects(self):
        resolved, universe, local = analyze(self.SOURCE)
        outer = resolved.proc_named("outer")
        assert names(universe, local.imod_plain[outer.pid]) == set()

    def test_extended_imod_pulls_up_visible_modifications(self):
        resolved, universe, local = analyze(self.SOURCE)
        outer = resolved.proc_named("outer")
        # inner's own w and q are filtered; u, p, g are visible in outer.
        assert names(universe, local.imod[outer.pid]) == {"outer::u", "outer::p", "g"}

    def test_extension_reaches_main(self):
        resolved, universe, local = analyze(self.SOURCE)
        assert "g" in names(universe, local.imod[resolved.main.pid])

    def test_extension_is_transitive_through_levels(self):
        resolved, universe, local = analyze(
            """
            program t
              global g
              proc a()
                local va
                proc b()
                  local vb
                  proc c()
                  begin
                    va := 1
                    vb := 2
                    g := 3
                  end
                begin call c() end
              begin call b() end
            begin call a() end
            """
        )
        a = resolved.proc_named("a")
        b = resolved.proc_named("a.b")
        assert names(universe, local.imod[b.pid]) == {"a::va", "a.b::vb", "g"}
        assert names(universe, local.imod[a.pid]) == {"a::va", "g"}

    def test_initial_selector(self):
        resolved, universe, local = analyze(self.SOURCE)
        assert local.initial(EffectKind.MOD) is local.imod
        assert local.initial(EffectKind.USE) is local.iuse
        assert local.initial_plain(EffectKind.MOD) is local.imod_plain
