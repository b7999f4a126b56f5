"""Launch the HTTP server with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS_OUT serve SNAPSHOT --port 0

Everything after ``SPANS_OUT`` is passed to ``python -m repro``.  The
wrappers are installed before the CLI reaches
``repro.server.run_server``; when the server has drained (SIGTERM), the
spans are written to ``SPANS_OUT`` as JSON lines.
"""

from __future__ import annotations

import sys

import common


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    common.load_program()
    import repro.__main__ as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
