"""One fresh-process sample of a batch workload: source → summary → file.

Run by ``run.py`` as::

    python3 perfbench/batch_child.py SPAWNED SOURCE OUT [SPANS]

``SPAWNED`` is the parent's monotonic clock reading just before the
spawn.  Prints one JSON line of measurements.  With ``SPANS`` the layer
shims are installed and the spans are written to that path at the end.
GC stays on, as shipped.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

clock = time.monotonic

#: What a process analysing CK source loads before it can take input:
#: the pipeline and persist entry points plus the modules the pipeline
#: imports on first use.  A module a later change deletes is skipped.
SETUP_MODULES = (
    "repro.core.pipeline",
    "repro.core.persist",
    "repro.lang.lexer",
    "repro.lang.parser",
    "repro.lang.semantic",
    "repro.core.bitplane",
)


def main(argv) -> int:
    spawned = float(argv[0])
    source_path, out_path = argv[1], argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    for name in SETUP_MODULES:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
    recorder = None
    if spans_path:
        import spans

        recorder = spans.install()
    from repro.core.persist import summary_to_bytes
    from repro.core.pipeline import analyze_side_effects

    ready = clock()
    with open(source_path) as handle:
        source = handle.read()

    start = clock()
    summary = analyze_side_effects(source)
    analyzed = clock()
    blob = summary_to_bytes(summary)
    with open(out_path, "wb") as handle:
        handle.write(blob)
    written = clock()

    result = {
        "setup_s": ready - spawned,
        "analyze_s": analyzed - start,
        "to_disk_s": written - start,
        "output_bytes": len(blob),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "root": [start, written],
    }
    if recorder is not None:
        spans.uninstall(recorder)
        recorder.dump(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
