"""Traced ``repro serve``: install the layer wrappers, then run the CLI.

Usage: ``python3 perfbench/serve_launcher.py PREFIX serve --port P ...``.
Spans are recorded in the server process only (pool workers run
unwrapped) and written to ``PREFIX.trace.json`` / ``PREFIX.layers.json``
when the server has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def main() -> int:
    from spans import SpanRecorder, install

    prefix, cli_args = Path(sys.argv[1]), sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    recorder.start()
    try:
        return cli_main(cli_args)
    finally:
        recorder.stop()
        recorder.write(prefix, "perfbench repro-serve")


if __name__ == "__main__":
    sys.exit(main())
