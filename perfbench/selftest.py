"""Small-scale self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at 3000 rows for 2 s and checks
that every metric ``BENCHMARK.json`` names is emitted with its unit, that
the answers were correct, and that ``wrong_answers`` and
``bound_violations`` are 0.  Then runs the benchmark in a directory that
holds only ``BENCHMARK.json`` and ``perfbench/`` (under ``.perfbench/``)
and checks that it fails without printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = "3000"
SECONDS = "2"
TIMEOUT_S = 170


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
         "--rows", ROWS],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check(workload: str, trace: int, spec) -> list:
    problems = []
    completed = run(workload, trace)
    if completed.returncode != 0:
        return [f"{workload} trace={trace}: exit {completed.returncode}: "
                f"{completed.stderr[-800:]}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for metric in wanted:
        emitted = metrics.get(metric["name"])
        if emitted is None or emitted.get("unit") != metric["unit"]:
            problems.append(f"{workload} trace={trace}: {metric['name']} "
                            f"missing or wrong unit: {emitted}")
    # Time outside every span (closed-loop bookkeeping, the server's
    # queue and hand-off) always exists; 0 means spans cover time they
    # should not, and a missing span could not show.
    unaccounted = metrics.get("trace.unaccounted_share", {}).get("value")
    if trace and not (unaccounted is not None and unaccounted > 0):
        problems.append(f"{workload} trace=1: trace.unaccounted_share = "
                        f"{unaccounted}, expected > 0")
    if set(metrics) != {metric["name"] for metric in wanted}:
        problems.append(f"{workload} trace={trace}: unexpected metrics "
                        f"{sorted(set(metrics) - {m['name'] for m in wanted})}")
    report_path = ROOT / ".perfbench" / f"report-{workload}-trace{trace}.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for name, value in report["checks"].items():
        if value != 0:
            problems.append(f"{workload} trace={trace}: {name} = {value}")
    return problems


def check_refuses_without_program() -> list:
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run("miss-mix", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        return ["without src/ the benchmark must exit non-zero and print "
                f"nothing; got exit {completed.returncode}, stdout "
                f"{completed.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}",
                  flush=True)
            problems.extend(found)
    problems.extend(check_refuses_without_program())
    for problem in problems:
        print(problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
