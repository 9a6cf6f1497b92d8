"""Launch the shipped daemon, optionally with the layer shims installed.

Run by ``run.py`` as::

    python3 perfbench/serve_child.py STATE_DIR [SPANS]

It calls ``repro.cli.main(["serve", ...])`` on an ephemeral port; the
daemon prints the port it bound.  With ``SPANS`` the shims are
installed first, the spans stay in memory, and they are written to that
path once the daemon has shut down.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    state_dir = argv[0]
    spans_path = argv[1] if len(argv) > 1 else None
    recorder = None
    if spans_path:
        import spans

        recorder = spans.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", "--port", "0", "--state-dir", state_dir])
    finally:
        if recorder is not None:
            spans.uninstall(recorder)
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
