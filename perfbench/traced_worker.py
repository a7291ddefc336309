"""A ``repro.cli`` remote worker with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_worker.py --spans-dir DIR -- worker --listen
127.0.0.1:0 --key-file KEY``.  The source tree must be on ``PYTHONPATH``.
Everything after ``--`` is handed to ``repro.cli.main`` unchanged; when the
worker stops (SIGINT), its spans are written to ``DIR/worker-<pid>.spans``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-dir" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_dir, cli_args = argv[1], argv[3:]
    from repro import cli

    recorder = tracing.Recorder(always_on=True)
    tracing.Tracer(recorder).install()
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.spans"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
