"""Semantic analysis tests: scopes, resolution, call sites, errors."""

import pytest

from repro.lang.errors import SemanticError
from repro.lang.semantic import compile_source
from repro.lang.symbols import VarKind


class TestSymbolConstruction:
    def test_main_is_pid_zero_level_zero(self):
        resolved = compile_source("program t begin end")
        assert resolved.main.pid == 0
        assert resolved.main.level == 0
        assert resolved.main.is_main

    def test_nesting_levels(self):
        resolved = compile_source(
            """
            program t
              proc a()
                proc b()
                  proc c() begin end
                begin call c() end
              begin call b() end
            begin call a() end
            """
        )
        assert resolved.proc_named("a").level == 1
        assert resolved.proc_named("a.b").level == 2
        assert resolved.proc_named("a.b.c").level == 3
        assert resolved.max_nesting_level == 3

    def test_variable_uids_dense(self):
        resolved = compile_source(
            "program t global g proc f(a) local x begin end begin call f(g) end"
        )
        assert [v.uid for v in resolved.variables] == list(range(len(resolved.variables)))

    def test_var_kinds(self):
        resolved = compile_source(
            "program t global g proc f(a) local x begin end begin call f(g) end"
        )
        assert resolved.var_named("g").kind is VarKind.GLOBAL
        assert resolved.var_named("f::a").kind is VarKind.FORMAL
        assert resolved.var_named("f::x").kind is VarKind.LOCAL

    def test_formal_positions(self):
        resolved = compile_source(
            "program t proc f(a, b, c) begin end begin call f(1, 2, 3) end"
        )
        proc = resolved.proc_named("f")
        assert [f.position for f in proc.formals] == [0, 1, 2]

    def test_variable_levels(self):
        resolved = compile_source(
            """
            program t
              global g
              proc a(x)
                local u
                proc b(y)
                  local v
                begin v := y end
              begin call b(x) end
            begin call a(g) end
            """
        )
        assert resolved.var_named("g").level == 0
        assert resolved.var_named("a::x").level == 1
        assert resolved.var_named("a::u").level == 1
        assert resolved.var_named("a.b::v").level == 2

    def test_local_set_includes_formals(self):
        resolved = compile_source(
            "program t proc f(a) local x begin end begin call f(1) end"
        )
        proc = resolved.proc_named("f")
        assert {v.name for v in proc.local_set()} == {"a", "x"}

    def test_main_scope_holds_globals(self):
        resolved = compile_source("program t global g, h begin end")
        assert set(resolved.main.scope) == {"g", "h"}


class TestNameResolution:
    def test_local_shadows_global(self):
        resolved = compile_source(
            """
            program t
              global v
              proc f()
                local v
              begin
                v := 1
              end
            begin call f() end
            """
        )
        target = resolved.body_of(resolved.proc_named("f"))[0].target
        assert target.symbol.qualified_name == "f::v"

    def test_nested_sees_enclosing_local(self):
        resolved = compile_source(
            """
            program t
              proc outer()
                local w
                proc inner()
                begin
                  w := 1
                end
              begin call inner() end
            begin call outer() end
            """
        )
        inner = resolved.proc_named("outer.inner")
        assert resolved.body_of(inner)[0].target.symbol.qualified_name == "outer::w"

    def test_formal_of_enclosing_visible_in_nested(self):
        resolved = compile_source(
            """
            program t
              proc outer(p)
                proc inner()
                begin
                  p := 2
                end
              begin call inner() end
            begin call outer(1) end
            """
        )
        inner = resolved.proc_named("outer.inner")
        assert resolved.body_of(inner)[0].target.symbol.qualified_name == "outer::p"

    def test_undeclared_variable_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t begin mystery := 1 end")

    def test_duplicate_global_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t global g global g begin end")

    def test_duplicate_local_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t proc f() local x, x begin end begin end")

    def test_formal_local_collision_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t proc f(x) local x begin end begin end")

    def test_duplicate_proc_in_scope_rejected(self):
        with pytest.raises(SemanticError):
            compile_source(
                "program t proc f() begin end proc f() begin end begin end"
            )

    def test_same_proc_name_in_different_scopes_ok(self):
        resolved = compile_source(
            """
            program t
              proc a()
                proc helper() begin end
              begin call helper() end
              proc b()
                proc helper() begin end
              begin call helper() end
            begin
              call a()
              call b()
            end
            """
        )
        assert resolved.proc_named("a.helper") is not resolved.proc_named("b.helper")

    def test_visible_variables_shadowing(self):
        resolved = compile_source(
            """
            program t
              global v
              proc f()
                local v
              begin v := 1 end
            begin call f() end
            """
        )
        visible = resolved.visible_variables(resolved.proc_named("f"))
        assert visible["v"].qualified_name == "f::v"


class TestArrayChecks:
    def test_scalar_subscript_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t global g begin g[1] := 0 end")

    def test_array_rank_mismatch_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t global array m[2][2] begin m[1] := 0 end")

    def test_array_needs_subscripts_in_expression(self):
        with pytest.raises(SemanticError):
            compile_source("program t global array m[2], x begin x := m end")

    def test_whole_array_allowed_as_call_argument(self):
        resolved = compile_source(
            """
            program t
              global array m[2]
              proc f(a) begin a[0] := 1 end
            begin call f(m) end
            """
        )
        binding = resolved.call_sites[0].bindings[0]
        assert binding.by_reference
        assert binding.base.qualified_name == "m"
        assert not binding.subscripted

    def test_formal_may_be_subscripted(self):
        # Formals are Fortran-style untyped.
        compile_source(
            "program t proc f(a) begin a[1] := 0 end begin call f(1) end"
        )

    def test_for_variable_must_be_scalar(self):
        with pytest.raises(SemanticError):
            compile_source(
                "program t global array m[2] begin for m := 1 to 2 do end end"
            )


class TestCallResolution:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(SemanticError):
            compile_source(
                "program t proc f(a, b) begin end begin call f(1) end"
            )

    def test_unknown_procedure_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("program t begin call ghost() end")

    def test_nested_proc_not_visible_outside(self):
        with pytest.raises(SemanticError):
            compile_source(
                """
                program t
                  proc a()
                    proc hidden() begin end
                  begin call hidden() end
                  proc b() begin call hidden() end
                begin call a() call b() end
                """
            )

    def test_sibling_mutual_recursion_allowed(self):
        resolved = compile_source(
            """
            program t
              proc even(n) begin if n > 0 then call odd(n - 1) end end
              proc odd(n) begin if n > 0 then call even(n - 1) end end
            begin call even(4) end
            """
        )
        sites = resolved.call_sites
        callees = {s.callee.qualified_name for s in sites}
        assert callees == {"even", "odd"}

    def test_self_recursion_allowed(self):
        resolved = compile_source(
            "program t proc f(n) begin if n > 0 then call f(n - 1) end end "
            "begin call f(3) end"
        )
        recursive = [s for s in resolved.call_sites if s.caller is s.callee]
        assert len(recursive) == 1

    def test_nested_can_call_uncle(self):
        resolved = compile_source(
            """
            program t
              proc helper() begin end
              proc outer()
                proc inner() begin call helper() end
              begin call inner() end
            begin call outer() end
            """
        )
        site = [s for s in resolved.call_sites if s.callee.qualified_name == "helper"][0]
        assert site.caller.qualified_name == "outer.inner"

    def test_site_ids_dense_and_ordered(self):
        resolved = compile_source(
            """
            program t
              proc a() begin call b() call b() end
              proc b() begin end
            begin call a() end
            """
        )
        assert [s.site_id for s in resolved.call_sites] == [0, 1, 2]

    def test_binding_modes(self):
        resolved = compile_source(
            """
            program t
              global g
              global array m[2]
              proc f(a, b, c, d) begin end
            begin call f(g, m[1], g + 1, 7) end
            """
        )
        bindings = resolved.call_sites[0].bindings
        assert [b.by_reference for b in bindings] == [True, True, False, False]
        assert bindings[1].subscripted
        assert bindings[0].base.qualified_name == "g"
        assert bindings[1].base.qualified_name == "m"
        assert bindings[2].base is None

    def test_reference_pairs(self):
        resolved = compile_source(
            "program t global g proc f(a, b) begin end begin call f(g, 3) end"
        )
        pairs = resolved.call_sites[0].reference_pairs()
        assert len(pairs) == 1
        actual, formal = pairs[0]
        assert actual.qualified_name == "g"
        assert formal.qualified_name == "f::a"

    def test_sites_in_and_calling(self):
        resolved = compile_source(
            """
            program t
              proc a() begin call b() end
              proc b() begin end
            begin call a() call b() end
            """
        )
        a = resolved.proc_named("a")
        b = resolved.proc_named("b")
        assert len(resolved.sites_in(a)) == 1
        assert len(resolved.sites_calling(b)) == 2
