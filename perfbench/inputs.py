"""Workload inputs, made from the seed alone.

The program under test receives only the generated CK source (and, for
the session workload, the seeded sequence of edited sources).  The
shapes and the reasons they were chosen live in ``record.json`` next to
this file.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Dict, Iterator, List

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_PATH = os.path.join(HERE, "record.json")

#: An assignment whose right-hand side is one integer literal.  Changing
#: the literal keeps the source valid and leaves every MOD/USE set and
#: every line number as it was.
_LITERAL_ASSIGNMENT = re.compile(r"^(\s+\w+ := )(\d+)$")


def load_record() -> Dict:
    with open(RECORD_PATH) as handle:
        return json.load(handle)


def make_source(spec: Dict, seed: int) -> str:
    """The CK source of one workload at one seed."""
    shape = spec["input"]
    if shape["generator"] == "GeneratorConfig":
        from repro.lang.pretty import pretty
        from repro.workloads.generator import GeneratorConfig, generate_program

        config = GeneratorConfig(
            seed=seed,
            num_procs=shape["num_procs"],
            num_globals=shape["num_globals"],
        )
        return pretty(generate_program(config))
    if shape["generator"] == "deep_nest":
        from repro.workloads.patterns import deep_nest

        # deep_nest takes no seed.  The seed adds 0-7 globals that only
        # the main program assigns, so inputs and outputs differ between
        # seeds while the closed form of the tower stays the same.
        pad = range(seed % shape["seed_pad_globals"])
        lines = deep_nest(shape["depth"]).rstrip("\n").split("\n")
        if lines[1] != "  global g" or lines[-1] != "end":
            raise ValueError("deep_nest no longer has the shape this padding expects")
        return "\n".join(
            lines[:2] + ["  global pad%d" % k for k in pad] + lines[2:-1]
            + ["  pad%d := %d" % (k, k) for k in pad] + ["end", ""]
        )
    raise ValueError("unknown generator %r" % shape["generator"])


def edit_sequence(source: str, seed: int) -> Iterator[str]:
    """Endless seeded single-literal edits, each applied on top of the
    previous one: one integer literal of one assignment changes."""
    rng = random.Random(seed * 7919 + 17)
    lines: List[str] = source.split("\n")
    candidates = [
        number for number, line in enumerate(lines)
        if _LITERAL_ASSIGNMENT.match(line)
    ]
    if not candidates:
        raise ValueError("source has no literal assignment to edit")
    while True:
        number = rng.choice(candidates)
        head, value = _LITERAL_ASSIGNMENT.match(lines[number]).groups()
        new_value = (int(value) + rng.randint(1, 9)) % 10
        lines[number] = "%s%d" % (head, new_value)
        yield "\n".join(lines)
