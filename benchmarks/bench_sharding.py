"""Sharded fan-out benchmark: throughput vs. shards and workers.

Beyond the paper (which runs each algorithm against one index): this
measures what :mod:`repro.sharding` costs and buys when the index is
hash-partitioned across N shards, under both fan-out paths:

* **serial** (``workers=0``) — the coordinator visits shards in a loop.
* **thread** (``workers=W``) — a persistent thread pool.  In CPython the
  GIL serialises the pure-python per-shard work, so the pool buys no CPU
  speedup; the ``thread_vs_serial`` table records that.  What the pool
  does buy is a deadline that can drop a shard still running mid-flight.

The gather algorithms (``UNaive``/``SNaive``/``UBasic``) scatter to the
shards and diverse-merge; ``UProbe`` stands for the coordinator-driven
scan, which reads through union cursors and prices their overhead; it
never uses the pool, so it is timed serial only.

Answers must be identical across every configuration.  Two gates check
that, and both are written to the report's ``gates`` block: every cell
returns as many results as the unsharded baseline, and a sample of
queries is bit-identical (Dewey IDs and scores) between the unsharded
engine and a pooled sharded one at every shard count.  The script exits
1 when a gate fails.

Run under pytest (``pytest benchmarks/bench_sharding.py``) or directly
(``python benchmarks/bench_sharding.py --rows 100000 --out
BENCH_sharding.json``).  Scales follow ``REPRO_BENCH_ROWS`` /
``REPRO_BENCH_QUERIES``.
"""

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.harness import env_int, run_sharded_workload
from repro.core.engine import DiversityEngine
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.index.inverted import InvertedIndex
from repro.sharding import ShardedEngine, ShardedIndex

DEFAULT_WORKLOAD_QUERIES = 200
K = 10
SHARD_COUNTS = (1, 2, 4, 8)
WORKERS = 4
#: Scatter-gather tags.
GATHER_TAGS = ("UNaive", "SNaive", "UBasic")
#: Coordinator-driven representative: quantifies union-cursor overhead.
SCAN_TAGS = ("UProbe",)
TAGS = GATHER_TAGS + SCAN_TAGS
#: (algorithm, scored) pairs of the bit-identity check.
IDENTITY_CASES = (("naive", False), ("probe", False), ("probe", True))
IDENTITY_QUERIES = 20

_DATA_CACHE = {}
_INDEX_CACHE = {}


def usable_cpus():
    """CPUs this process may run on (its affinity mask), not the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count()


def _setup(rows, queries=DEFAULT_WORKLOAD_QUERIES):
    key = (rows, queries)
    if key not in _DATA_CACHE:
        relation = generate_autos(AutosSpec(rows=rows, seed=42))
        workload = WorkloadGenerator(
            relation,
            WorkloadSpec(queries=queries, predicates=1, selectivity=0.5, seed=1),
        ).materialise()
        _DATA_CACHE[key] = (relation, workload)
    return _DATA_CACHE[key]


def _index(relation, rows, shards):
    """Shard-count-keyed index cache: the build cost is paid once, not
    once per (algorithm x workers) cell."""
    key = (rows, shards)
    if key not in _INDEX_CACHE:
        if shards == 1:
            _INDEX_CACHE[key] = InvertedIndex.build(relation, autos_ordering())
        else:
            _INDEX_CACHE[key] = ShardedIndex.build(
                relation, autos_ordering(), shards=shards
            )
    return _INDEX_CACHE[key]


def _engine(relation, rows, shards, workers):
    index = _index(relation, rows, shards)
    if shards == 1:
        return DiversityEngine(index)
    return ShardedEngine(index, workers=workers)


def _workload_slice(workload, rows, tag):
    """Large-scale runs slice the workload (same idiom as bench_fig5):
    per-query cost grows with the data, total cost is what's bounded."""
    if rows <= 20_000:
        return workload
    divisor = 10 if tag in SCAN_TAGS else 5
    return workload[: max(10, len(workload) // divisor)]


def identity_mismatches(rows, queries, shards):
    """Cases where a pooled sharded engine's answer differs from the
    unsharded engine's, as ``"algorithm/scored/query#"`` labels."""
    relation, workload = _setup(rows, queries)
    plain = DiversityEngine(_index(relation, rows, 1))
    mismatches = []
    with ShardedEngine(_index(relation, rows, shards), workers=WORKERS) as sharded:
        for number, query in enumerate(workload[:IDENTITY_QUERIES]):
            for tag, scored in IDENTITY_CASES:
                a = plain.search(query, K, algorithm=tag, scored=scored)
                b = sharded.search(query, K, algorithm=tag, scored=scored)
                if a.deweys != b.deweys or a.scores != b.scores:
                    mismatches.append(f"{tag}/{scored}/{number}")
    return mismatches


def measure(rows, queries=DEFAULT_WORKLOAD_QUERIES):
    """Time every (tag, shards, workers) cell; JSON-able report."""
    relation, workload = _setup(rows, queries)
    cells = []
    baselines = {}
    for tag in TAGS:
        tag_workload = _workload_slice(workload, rows, tag)
        for shards in SHARD_COUNTS:
            # The scan reads through union cursors, never the pool.
            pooled = shards > 1 and tag in GATHER_TAGS
            for workers in ((0, WORKERS) if pooled else (0,)):
                engine = _engine(relation, rows, shards, workers)
                gc.collect()
                try:
                    timing = run_sharded_workload(engine, tag_workload, K, tag)
                finally:
                    closer = getattr(engine, "close", None)
                    if callable(closer):
                        closer()
                if shards == 1:
                    baselines[tag] = timing
                baseline = baselines[tag]
                seconds = timing.total_seconds
                cells.append(
                    {
                        "algorithm": tag,
                        "shards": shards,
                        "workers": workers,
                        "queries": len(tag_workload),
                        "seconds": round(seconds, 6),
                        "queries_per_second": round(
                            len(tag_workload) / seconds, 1
                        ) if seconds > 0 else float("inf"),
                        "relative_to_1_shard": round(
                            seconds / baseline.total_seconds, 3
                        ) if baseline.total_seconds > 0 else float("inf"),
                        "next_calls": timing.next_calls,
                        "results_returned": timing.results_returned,
                        "baseline_results": baseline.results_returned,
                    }
                )
    report = {
        "benchmark": "sharding",
        "rows": rows,
        "queries": queries,
        "k": K,
        "router": "hash",
        "python": platform.python_version(),
        "cpus": usable_cpus(),
        "cells": cells,
    }
    report["thread_vs_serial"] = thread_vs_serial(report)
    return report


def thread_vs_serial(report):
    """Per tag and shard count: serial seconds / thread-pool seconds at
    the same shard count (> 1 means the pool was faster)."""
    seconds = {
        (c["algorithm"], c["shards"], c["workers"]): c["seconds"]
        for c in report["cells"]
    }
    table = {}
    for (tag, shards, workers), pooled in seconds.items():
        if workers == 0 or pooled <= 0:
            continue
        serial = seconds[(tag, shards, 0)]
        table.setdefault(tag, {})[str(shards)] = round(serial / pooled, 3)
    return table


def gates(report, identity):
    """The answer-identity checks as data; ``identity`` maps each shard
    count to its :func:`identity_mismatches` list."""
    count_mismatches = [
        f"{c['algorithm']} shards={c['shards']} workers={c['workers']}: "
        f"{c['results_returned']} != {c['baseline_results']}"
        for c in report["cells"]
        if c["results_returned"] != c["baseline_results"]
    ]
    bit_mismatches = {
        str(shards): labels for shards, labels in identity.items() if labels
    }
    return {
        "results_match_unsharded": {
            "cells": len(report["cells"]),
            "mismatches": count_mismatches,
            "satisfied": not count_mismatches,
        },
        "answers_bit_identical": {
            "shards": sorted(identity),
            "workers": WORKERS,
            "queries": IDENTITY_QUERIES,
            "cases": [f"{tag}/{'scored' if scored else 'unscored'}"
                      for tag, scored in IDENTITY_CASES],
            "mismatches": bit_mismatches,
            "satisfied": not bit_mismatches,
        },
    }


# ----------------------------------------------------------------------
# pytest entry points (same shape as the other benchmarks)
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - direct script runs without pytest
    pytest = None

if pytest is not None:
    BENCH_ROWS = env_int("REPRO_BENCH_ROWS", 5000)
    BENCH_QUERIES = env_int("REPRO_BENCH_QUERIES", DEFAULT_WORKLOAD_QUERIES)

    @pytest.mark.parametrize("shards", SHARD_COUNTS[1:])
    def test_sharded_results_match_unsharded_at_scale(shards):
        assert identity_mismatches(BENCH_ROWS, BENCH_QUERIES, shards) == []

    def test_scatter_gather_throughput(benchmark):
        relation, workload = _setup(BENCH_ROWS, BENCH_QUERIES)
        engine = ShardedEngine(_index(relation, BENCH_ROWS, 4))
        benchmark.group = f"sharding rows={BENCH_ROWS}"
        timing = benchmark.pedantic(
            run_sharded_workload, args=(engine, workload, K, "UNaive"),
            rounds=2, iterations=1,
        )
        assert timing.shards == 4


# ----------------------------------------------------------------------
# Script entry point: print + persist the scaling table
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=env_int("REPRO_BENCH_ROWS", 5000))
    parser.add_argument(
        "--queries", type=int,
        default=env_int("REPRO_BENCH_QUERIES", DEFAULT_WORKLOAD_QUERIES),
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (e.g. BENCH_sharding.json)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = measure(args.rows, args.queries)
    identity = {
        shards: identity_mismatches(args.rows, args.queries, shards)
        for shards in SHARD_COUNTS[1:]
    }
    report["gates"] = gates(report, identity)
    elapsed = time.perf_counter() - started

    print(
        f"sharded fan-out @ {args.rows} rows, {args.queries} queries, "
        f"k={K}, cpus={report['cpus']}:"
    )
    print(f"  {'algorithm':<10} {'shards':>6} {'workers':>7} "
          f"{'queries':>7} {'seconds':>9} {'q/s':>8} {'vs 1 shard':>10}")
    for cell in report["cells"]:
        print(
            f"  {cell['algorithm']:<10} {cell['shards']:>6} "
            f"{cell['workers']:>7} {cell['queries']:>7} "
            f"{cell['seconds']:>9.3f} {cell['queries_per_second']:>8.1f} "
            f"{cell['relative_to_1_shard']:>9.2f}x"
        )
    print(f"  thread vs serial at the same shard count: "
          f"{report['thread_vs_serial']}")
    failed = [name for name, gate in report["gates"].items()
              if not gate["satisfied"]]
    for name, gate in report["gates"].items():
        verdict = "PASS" if gate["satisfied"] else "FAIL"
        print(f"  gate {name}: {verdict}")
    print(f"  [measured in {elapsed:.1f}s]")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"  wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
