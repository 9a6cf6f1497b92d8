"""Record the expected output digest of every workload at seeds 0..N-1.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record.py [--seeds 64] [--workload NAME]

For each (workload, seed) the program's output is produced the way the
benchmark produces it, decoded with the public loader and reduced to a
canonical digest (``oracle.canonical_view``, ``oracle.digest_of_view``).
A digest is written to ``record.json`` only after the same output passed
the independent
oracle (``oracle.expected_gmod``); for the session workload the first
edits of the seeded sequence must also leave the oracle's answer
unchanged, since every update reply is checked against the same digest.
"""

from __future__ import annotations

import argparse
import json
import sys

import oracle
from inputs import RECORD_PATH, edit_sequence, load_record, make_source

#: Edits per seed whose oracle answer is compared with the unedited one.
CHECKED_EDITS = 3


def output_digest(spec, seed: int) -> str:
    from repro.core.persist import decode_summary_payload, summary_to_bytes
    from repro.core.pipeline import analyze_side_effects

    source = make_source(spec, seed)
    payload = decode_summary_payload(summary_to_bytes(analyze_side_effects(source)))
    view = oracle.canonical_view(payload)
    expected = oracle.expected_gmod(spec, source)
    reason = oracle.check_gmod(view, expected)
    if reason is not None:
        raise SystemExit("seed %d: %s" % (seed, reason))
    if spec["kind"] == "session":
        edits = edit_sequence(source, seed)
        for _ in range(CHECKED_EDITS):
            if oracle.expected_gmod(spec, next(edits)) != expected:
                raise SystemExit("seed %d: an edit moved the oracle's answer" % seed)
    return oracle.digest_of_view(view)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    record = load_record()
    names = args.workload or sorted(record["workloads"])
    for name in names:
        spec = record["workloads"][name]
        digests = {}
        for seed in range(args.seeds):
            digests[str(seed)] = output_digest(spec, seed)
            print("%s seed %d %s" % (name, seed, digests[str(seed)][:16]), flush=True)
        spec["digests"] = digests
        with open(RECORD_PATH, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
