"""Run one ``repro`` command with spans around the layers it passes through.

Usage: ``python -m perfbench.traced_cli SPANS_DIR PARENT_SPAN ARGS...``

Runs ``repro.cli.main(ARGS)`` exactly as ``python -m repro ARGS`` would,
after timing the import of the CLI and the experiment registry and wrapping
the layers' public entry points (see :func:`perfbench.tracing.instrument`).
Every process of the command writes its spans into ``SPANS_DIR``; the root
span's parent is ``PARENT_SPAN``, the caller's span around the whole process.
"""

from __future__ import annotations

import sys
from pathlib import Path

from perfbench.tracing import Recorder, instrument


def main(argv: list[str]) -> int:
    spans_dir, parent, args = Path(argv[0]), argv[1], argv[2:]
    recorder = Recorder(spans_dir, parent=parent)
    try:
        with recorder.span("cli.command"):
            with recorder.span("cli.import"):
                import repro.cli
            with recorder.span("api.registry"):
                from repro.api.registry import ensure_builtins_registered

                ensure_builtins_registered()
            with recorder.span("obs.instrument"):
                instrument(recorder)
            with recorder.span("cli.main"):
                return repro.cli.main(args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
