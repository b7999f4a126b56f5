"""The repo benchmark: one command, three workloads, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload miss-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the result object; the lines before it are the full report,
which is also written to ``.perfbench/report-<workload>-trace<n>.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("miss-mix", "http-zipf", "sharded-rw")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=common.ROWS,
                        help="relation size (the self-test runs small)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.rows < 1000:
        parser.error("--seconds must be positive and --rows at least 1000")
    common.load_program()
    if args.workload == "miss-mix":
        import miss_mix as workload
    elif args.workload == "http-zipf":
        import http_zipf as workload
    else:
        import sharded_rw as workload
    workload.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
