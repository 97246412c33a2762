"""Run one measground CLI stage in this process, optionally traced.

Usage: python3 stage.py <src-dir> <trace-file or -> <subcommand> [args...]

The benchmark starts one such process per stage, back to back. With a trace
file, tracing wrappers are installed around the package's public functions
before ``measground.cli.main`` runs, and the recorded spans are written to the
file when ``main`` returns.
"""

from __future__ import annotations

import sys


def run(argv: list[str]) -> int:
    src, trace_path, cli_argv = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    from measground import cli

    if trace_path == "-":
        return cli.main(cli_argv)

    import tracer

    spans = tracer.Recorder()
    spans.install()
    status = spans.call_main(cli.main, cli_argv)
    spans.dump(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
