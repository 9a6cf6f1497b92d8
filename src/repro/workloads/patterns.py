"""Structured program families with known analysis answers.

Each function returns CK **source text** (so tests exercise the whole
front end) for a family parameterised by size.  The expected analysis
results are simple closed forms, which the test suite asserts.
"""

from __future__ import annotations

from typing import List


def chain(length: int) -> str:
    """``main → c1 → c2 → … → cn``; each link passes its formal down
    and only the last procedure assigns it.

    Expected: ``RMOD(ci) = {x}`` for every i (the β chain carries the
    modification all the way up), and ``MOD(main's call) = {g}``.
    """
    lines = ["program chain", "  global g", ""]
    for index in range(1, length + 1):
        lines.append("  proc c%d(x)" % index)
        lines.append("  begin")
        if index < length:
            lines.append("    call c%d(x)" % (index + 1))
        else:
            lines.append("    x := 1")
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  call c1(g)", "end"]
    return "\n".join(lines) + "\n"


def unmodified_chain(length: int) -> str:
    """Like :func:`chain` but nobody assigns the formal.

    Expected: every ``RMOD`` is empty and ``MOD(main's call) = {}`` —
    the precision case that separates the analysis from the
    "assume everything is modified" default.
    """
    lines = ["program chain0", "  global g", ""]
    for index in range(1, length + 1):
        lines.append("  proc c%d(x)" % index)
        lines.append("  begin")
        if index < length:
            lines.append("    call c%d(x)" % (index + 1))
        else:
            lines.append("    g := x")
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  call c1(g)", "end"]
    return "\n".join(lines) + "\n"


def ring(length: int) -> str:
    """``r1 → r2 → … → rn → r1`` mutual recursion, formal passed around
    the cycle, modified only in ``r1``.

    Expected: the whole ring is one SCC of both the call graph and β;
    ``RMOD(ri) = {x}`` for every i (Figure 1's identical-within-SCC
    property), and every ``GMOD`` contains the global ``h`` assigned in
    ``r2`` (if present).
    """
    lines = ["program ring", "  global g, h", ""]
    for index in range(1, length + 1):
        succ = index % length + 1
        lines.append("  proc r%d(x)" % index)
        lines.append("  begin")
        if index == 1:
            lines.append("    x := x + 1")
        if index == 2 or length == 1:
            lines.append("    h := 1")
        lines.append("    if g > 0 then")
        lines.append("      g := g - 1")
        lines.append("      call r%d(x)" % succ)
        lines.append("    end")
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  g := 3", "  call r1(g)", "end"]
    return "\n".join(lines) + "\n"


def call_tree(depth: int, fanout: int = 2) -> str:
    """A complete call tree: node ``t_k`` calls its ``fanout`` children;
    each leaf modifies a distinct global.

    Expected: ``GMOD`` of an inner node is the union of the globals of
    the leaves below it — exercises tree/cross-edge handling in
    ``findgmod`` without any cycles.
    """
    total = (fanout ** depth - 1) // (fanout - 1) if fanout > 1 else depth
    num_leaves = fanout ** (depth - 1) if depth >= 1 else 0
    lines = ["program tree"]
    lines.append("  global %s" % ", ".join("lg%d" % i for i in range(max(num_leaves, 1))))
    lines.append("")
    leaf_counter = [0]
    first_leaf = total - num_leaves

    for node in range(total):
        lines.append("  proc t%d(x)" % node)
        lines.append("  begin")
        if node < first_leaf:
            for child in range(fanout):
                lines.append("    call t%d(x)" % (node * fanout + 1 + child))
        else:
            lines.append("    lg%d := x" % leaf_counter[0])
            leaf_counter[0] += 1
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  call t0(1)", "end"]
    return "\n".join(lines) + "\n"


def deep_nest(depth: int) -> str:
    """A tower of nested procedures: each level declares a local and a
    child; the innermost assigns **every** enclosing level's local.

    Expected: the level-λ local appears in ``GMOD`` of the procedures
    at levels > λ (and of the level-λ owner itself) but in no
    ``GMOD`` outside the tower — exercises the multi-level algorithm's
    per-level filtering.
    """
    lines = ["program nest", "  global g", ""]
    levels = range(1, max(depth, 1) + 1)
    # Each level's heading and local, outermost first; its child's
    # declaration follows them, so the bodies come innermost first.
    for level in levels:
        space = "  " * level
        lines.append("%sproc n%d(x)" % (space, level))
        lines.append("%s  local v%d" % (space, level))
    for level in reversed(levels):
        space = "  " * level
        lines.append("%sbegin" % space)
        lines.append("%s  v%d := x" % (space, level))
        if level < depth:
            lines.append("%s  call n%d(x)" % (space, level + 1))
        else:
            for target in range(1, depth + 1):
                lines.append("%s  v%d := %d" % (space, target, target))
            lines.append("%s  g := x" % space)
        lines.append("%send" % space)
    lines.append("")
    lines += ["begin", "  call n1(g)", "end"]
    return "\n".join(lines) + "\n"


def two_sccs_bridged(size: int) -> str:
    """Two recursion rings joined by a one-way bridge edge.

    Expected: the downstream ring's global effects appear in the
    upstream ring's ``GMOD`` but not vice versa — exercises Lemma 1
    (cross edges always point at already-closed components).
    """
    lines = ["program bridged", "  global ga, gb", ""]
    # Ring A: a1 ... a_size, a1 modifies ga, a_size bridges to b1.
    for index in range(1, size + 1):
        succ = index % size + 1
        lines.append("  proc a%d(x)" % index)
        lines.append("  begin")
        if index == 1:
            lines.append("    ga := x")
        lines.append("    if ga > 0 then")
        lines.append("      ga := ga - 1")
        lines.append("      call a%d(x)" % succ)
        lines.append("    end")
        if index == size:
            lines.append("    call b1(x)")
        lines.append("  end")
        lines.append("")
    for index in range(1, size + 1):
        succ = index % size + 1
        lines.append("  proc b%d(y)" % index)
        lines.append("  begin")
        if index == 1:
            lines.append("    gb := y")
        lines.append("    if gb > 0 then")
        lines.append("      gb := gb - 1")
        lines.append("      call b%d(y)" % succ)
        lines.append("    end")
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  ga := 2", "  gb := 2", "  call a1(1)", "end"]
    return "\n".join(lines) + "\n"


def parameter_shuffle(length: int) -> str:
    """A chain that rotates three formals at every hop; only the last
    procedure assigns its first formal.

    Expected: the β SCC/condensation must track positions — exactly one
    of the three formals is in each ``RMOD`` along the chain (which one
    rotates with depth).
    """
    lines = ["program shuffle", "  global g0, g1, g2", ""]
    for index in range(1, length + 1):
        lines.append("  proc s%d(a, b, c)" % index)
        lines.append("  begin")
        if index < length:
            lines.append("    call s%d(b, c, a)" % (index + 1))
        else:
            lines.append("    a := 1")
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  call s1(g0, g1, g2)", "end"]
    return "\n".join(lines) + "\n"


def fortran_style(num_procs: int, num_globals: int, mods_per_proc: int = 2) -> str:
    """A flat program where procedure ``i`` assigns ``mods_per_proc``
    globals (a sliding window) and calls procedure ``i+1``.

    Expected: ``GMOD(p_i)`` is the union of the windows from ``i``
    onward — a simple closed form for precision tests.
    """
    lines = ["program flat"]
    lines.append("  global %s" % ", ".join("g%d" % i for i in range(num_globals)))
    lines.append("")
    for index in range(num_procs):
        lines.append("  proc p%d()" % index)
        lines.append("  begin")
        for offset in range(mods_per_proc):
            lines.append("    g%d := %d" % ((index + offset) % num_globals, index))
        if index + 1 < num_procs:
            lines.append("    call p%d()" % (index + 1))
        lines.append("  end")
        lines.append("")
    lines += ["begin", "  call p0()", "end"]
    return "\n".join(lines) + "\n"


def self_recursive(depth_guard: int = 3) -> str:
    """Minimal self-recursion with a reference parameter cycle."""
    return """
program selfrec
  global g

  proc f(n, acc)
  begin
    acc := acc + n
    if n > 0 then
      call f(n - 1, acc)
    end
  end

begin
  g := 0
  call f(%d, g)
end
""" % depth_guard


def array_pipeline(num_procs: int, seed: int = 0) -> str:
    """A randomised array-processing pipeline: every procedure takes a
    matrix and two index parameters, touches a random section shape
    (element / row / column / block / whole), and forwards the matrix —
    sometimes with transformed index arguments — to later stages.

    Exercises whole-array reference passing, symbolic subscript
    translation through β chains, and every Figure 3 shape; the §6
    fuzz tests run it under the element-level oracle.
    """
    import random

    rng = random.Random(seed)
    lines = ["program pipeline", "  global array big[8][8]", "  global seed", ""]
    shapes = ("element", "row", "column", "block", "whole")
    for index in range(num_procs):
        shape = rng.choice(shapes)
        lines.append("  proc stage%d(t, r, c)" % index)
        lines.append("    local i, j")
        lines.append("  begin")
        if shape == "element":
            lines.append("    t[r][c] := %d" % rng.randint(0, 9))
        elif shape == "row":
            lines.append("    for j := 0 to 7 do")
            lines.append("      t[r][j] := j")
            lines.append("    end")
        elif shape == "column":
            lines.append("    for i := 0 to 7 do")
            lines.append("      t[i][c] := i")
            lines.append("    end")
        elif shape == "block":
            lo = rng.randint(0, 5)
            lines.append("    for i := %d to %d do" % (lo, lo + 2))
            lines.append("      t[i][%d] := i" % rng.randint(0, 7))
            lines.append("    end")
        else:
            lines.append("    for i := 0 to 7 do")
            lines.append("      for j := 0 to 7 do")
            lines.append("        t[i][j] := i + j")
            lines.append("      end")
            lines.append("    end")
        # Forward to up to two later stages with varied index arguments.
        for _ in range(rng.randint(0, 2)):
            target = rng.randrange(index + 1, num_procs + 1)
            if target == num_procs:
                continue
            args = []
            for name in ("r", "c"):
                roll = rng.random()
                if roll < 0.4:
                    args.append(name)  # Pass-through (stays symbolic).
                elif roll < 0.7:
                    args.append(str(rng.randint(0, 7)))  # Constant.
                else:
                    args.append("%s + 0" % name)  # By-value, unknown.
            lines.append("    call stage%d(t, %s, %s)" % (target, args[0], args[1]))
        lines.append("  end")
        lines.append("")
    lines.append("begin")
    lines.append("  seed := %d" % rng.randint(0, 7))
    for index in range(min(3, num_procs)):
        lines.append("  call stage%d(big, %d, %d)"
                     % (index, rng.randint(0, 7), rng.randint(0, 7)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def irreducible(pairs: int) -> str:
    """``pairs`` two-entry loops: main calls both members of each
    mutually recursive pair directly, so each loop {xi, yi} has two
    entries — the classic irreducible shape.

    Expected: T1-T2 reduction gets stuck on every pair (the call graph
    is irreducible), yet Figure 1 / Figure 2 still produce the least
    fixpoint — the paper's "neither algorithm relies on the assumption
    of reducibility".
    """
    lines = ["program irr"]
    lines.append("  global %s" % ", ".join("g%d" % i for i in range(pairs)))
    lines.append("")
    for index in range(pairs):
        lines.append("  proc x%d(n)" % index)
        lines.append("  begin")
        lines.append("    g%d := g%d + 1" % (index, index))
        lines.append("    if n > 0 then")
        lines.append("      call y%d(n - 1)" % index)
        lines.append("    end")
        lines.append("  end")
        lines.append("")
        lines.append("  proc y%d(n)" % index)
        lines.append("  begin")
        lines.append("    if n > 0 then")
        lines.append("      call x%d(n - 1)" % index)
        lines.append("    end")
        lines.append("  end")
        lines.append("")
    lines.append("begin")
    for index in range(pairs):
        lines.append("  call x%d(2)" % index)
        lines.append("  call y%d(2)" % index)
    lines.append("end")
    return "\n".join(lines) + "\n"
