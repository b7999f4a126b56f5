"""Shared pieces of the repo benchmark: program loading, inputs, timing,
statistics, per-layer metrics and the result line.

Every timing in the benchmark is ``time.perf_counter`` around one
operation, taken only after the warm-up period has ended; the result
line gives it scaled to the machine's full speed (:class:`MachineSpeed`).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for snapshots, data directories, spans and reports.
WORK = ROOT / ".perfbench"

#: The headline scale: rows of the synthetic autos relation.
ROWS = 100_000
#: The relation is the same for every run; ``--seed`` drives the
#: requests and mutations, so seeds compare like with like.
DATA_SEED = 42
#: Query pools (``http-zipf``, ``sharded-rw``) are part of the workload
#: definition, like the relation: ``--seed`` draws the traffic over them.
#: A seeded pool would let the few queries a seed puts at the top ranks
#: set the mean cost of the whole run.
POOL_SEED = 7

clock = time.perf_counter

#: Counters whose sum is ``bound_violations``: the Theorem 2 probe bound,
#: the one-pass single-scan property and the planner's own access bound.
BOUND_COUNTERS = (
    "repro_probe_bound_violations_total",
    "repro_onepass_scan_violations_total",
    "repro_plan_bound_violations_total",
)


def load_program() -> None:
    """Put the checkout's ``src`` on the import path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program found at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def autos(rows: int):
    """The autos relation and its diversity ordering."""
    from repro.data.autos import autos_ordering, generate_autos

    return generate_autos(rows=rows, seed=DATA_SEED), autos_ordering()


def query_generator(relation):
    """One workload generator whose spec is swapped per regime (the value
    statistics it builds are the expensive part and are shared)."""
    from repro.data.workload import WorkloadGenerator

    return WorkloadGenerator(relation)


def make_query(generator, rng: random.Random, **spec):
    from repro.data.workload import WorkloadSpec

    generator.spec = WorkloadSpec(**spec)
    return generator.one_query(rng)


def draw_queries(relation, rng: random.Random, regimes, count: int,
                 exclude=()) -> List[tuple]:
    """``count`` distinct queries, the regimes taken in turn.

    Each regime is ``(workload spec, *extra)``; each query is
    ``(text, *extra)``, so the extra fields (k, scored) ride along.
    """
    from repro.query.rewrite import to_query_string

    generator = query_generator(relation)
    queries: List[tuple] = []
    seen = set(exclude)
    for _ in range(100 * count):
        if len(queries) == count:
            return queries
        spec, *extra = regimes[len(queries) % len(regimes)]
        entry = (to_query_string(make_query(generator, rng, **spec)), *extra)
        if entry not in seen:
            seen.add(entry)
            queries.append(entry)
    raise RuntimeError(f"could not draw {count} distinct queries")


def fixed_share_schedule(rng: random.Random, shares: Dict[str, int],
                         count: int) -> List[str]:
    """``count`` regime labels in shuffled blocks with exact shares."""
    block = [name for name, share in shares.items() for _ in range(share)]
    labels: List[str] = []
    while len(labels) < count:
        rng.shuffle(block)
        labels.extend(block)
    return labels[:count]


def zipf_schedule(rng: random.Random, n: int, s: float, count: int) -> List[int]:
    """``count`` popularity ranks in ``0..n-1`` with Zipf(``s``) shares
    that are fixed per block: in every block rank ``r`` appears
    ``round((n / (r+1))**s)`` times (the rarest once), in seeded order.

    Fixed shares keep the mean cost and the tail of a run from hanging
    on how often a seed happens to draw the few most expensive queries.
    """
    block = [rank for rank in range(n)
             for _ in range(max(1, round((n / (rank + 1)) ** s)))]
    ranks: List[int] = []
    while len(ranks) < count:
        rng.shuffle(block)
        ranks.extend(block)
    return ranks[:count]


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: How often a run stops to time the reference kernel, in seconds.
REFERENCE_PERIOD_S = 0.1
#: CPU time of :func:`reference_kernel` when the machine runs at full
#: speed: the kernel's fastest times on the tuning machine (Intel Xeon,
#: 2.1 GHz, 2 vCPUs, CPython 3.11).  Timings are scaled to this speed.
REFERENCE_NOMINAL_S = 0.0024


def reference_kernel() -> int:
    """A fixed piece of interpreter work: dict updates, tuple and string
    allocation, and a sort, the kind of work the program does."""
    table: Dict[int, int] = {}
    pairs = []
    total = 0
    for i in range(4000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        pairs.append((key, str(i)))
        total += len(pairs[-1][1])
    pairs.sort()
    return total + len(table) + len(pairs)


class MachineSpeed:
    """Reference-kernel timings taken between operations, and the factors
    that scale wall time to the machine's full speed.

    The machine is a share of a host whose speed swings by up to two
    times over seconds to minutes: the kernel's CPU time, and every
    operation's, rise together.  A sample is taken while no operation is
    in flight and timed with the thread's CPU clock, so a program thread
    or process that competes for the CPU does not slow the kernel down.
    The time between two samples is scaled by ``REFERENCE_NOMINAL_S`` over
    the mean of the two.  ``cpus`` is the CPU set to time the kernel on
    (the one the workload runs on); ``None`` times it where the caller
    runs.
    """

    def __init__(self, cpus=None):
        self.cpus = cpus
        #: ``(start, end, kernel CPU seconds)`` per sample.
        self.samples: List[tuple] = []
        self._starts: List[float] = []

    def sample(self) -> None:
        started = clock()
        allowed = os.sched_getaffinity(0)
        collecting = gc.isenabled()
        # A collection triggered by the kernel's allocations would scan
        # the program's heap and time that instead.
        gc.disable()
        try:
            if self.cpus is not None:
                os.sched_setaffinity(0, self.cpus)
            before = time.thread_time()
            reference_kernel()
            seconds = time.thread_time() - before
        finally:
            if collecting:
                gc.enable()
            if self.cpus is not None:
                os.sched_setaffinity(0, allowed)
        self.samples.append((started, clock(), seconds))

    @contextlib.contextmanager
    def sampling(self):
        """Sample every :data:`REFERENCE_PERIOD_S` on a timer signal while
        the body runs (in the main thread, between two bytecodes of
        whatever it is running)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S,
                         REFERENCE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _segment(self, when: float) -> int:
        """Index of the last sample that started at or before ``when``."""
        if len(self._starts) != len(self.samples):
            self._starts = [start for start, _, _ in self.samples]
        return max(0, bisect.bisect_right(self._starts, when) - 1)

    def _factor(self, index: int) -> float:
        kernel = [self.samples[i][2] for i in (index, index + 1)
                  if i < len(self.samples)]
        return REFERENCE_NOMINAL_S / statistics.fmean(kernel)

    def factor_at(self, when: float) -> float:
        """Scale for an operation that ended at ``when``."""
        return self._factor(self._segment(when))

    def scaled_seconds(self, start: float, end: float) -> float:
        """``(start, end)`` at full speed, the sampling pauses left out."""
        total = 0.0
        for index, (_, sampled, _) in enumerate(self.samples):
            following = (self.samples[index + 1][0]
                         if index + 1 < len(self.samples) else math.inf)
            overlap = min(end, following) - max(start, sampled)
            if overlap > 0:
                total += overlap * self._factor(index)
        return total

    def paused_seconds(self, start: float, end: float) -> float:
        """Time spent sampling inside ``(start, end)``."""
        return sum(max(0.0, min(end, stop) - max(start, begin))
                   for begin, stop, _ in self.samples)

    def summary(self) -> Dict:
        kernel = [seconds for _, _, seconds in self.samples]
        return {
            "samples": len(kernel),
            "period_s": REFERENCE_PERIOD_S,
            "nominal_kernel_s": REFERENCE_NOMINAL_S,
            "cpus": sorted(self.cpus) if self.cpus is not None else "any",
            "kernel_s": ({"min": min(kernel), "median": statistics.median(kernel),
                          "max": max(kernel)} if kernel else {}),
        }


def scaled_call(speed: MachineSpeed, call):
    """``(value, wall seconds, full-speed seconds)`` of one long call,
    such as a set-up, with the machine's speed sampled on a timer
    throughout; the wall seconds leave the sampling pauses out."""
    speed.sample()
    started = clock()
    with speed.sampling():
        value = call()
    ended = clock()
    speed.sample()
    wall = ended - started - speed.paused_seconds(started, ended)
    return value, wall, speed.scaled_seconds(started, ended)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def warmup_seconds(seconds: float) -> float:
    return min(1.0, seconds / 5.0)


def median_setup(build, repeats: int):
    """Run ``build()`` ``repeats`` times; returns the last value and the
    wall and full-speed seconds of every set-up.

    Every value but the last is closed (if it can be) and collected
    before the next build, so only one deployment is alive at a time and
    the peak memory does not hang on when a collection ran."""
    speed = MachineSpeed()
    wall, scaled = [], []
    value = None
    for attempt in range(repeats):
        if value is not None:
            close = getattr(value, "close", None)
            if callable(close):
                close()
            value = None
            gc.collect()
        value, elapsed, full_speed = scaled_call(speed, lambda: build(attempt))
        wall.append(elapsed)
        scaled.append(full_speed)
    return value, {"wall_s": wall, "full_speed_s": scaled}


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """Median and nearest-rank p99, with the sample counts behind them
    (both 0 when there is no sample: every operation failed)."""
    ordered = sorted(samples_ms)
    count = len(ordered)
    if count == 0:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "beyond_p99": 0}
    rank = math.ceil(0.99 * count)
    return {
        "count": count,
        "p50": statistics.median(ordered),
        "p99": ordered[rank - 1],
        "beyond_p99": count - rank,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def counter_delta(before: Dict, after: Dict, name: str, **labels) -> float:
    """Growth of one counter (summed over label sets matching ``labels``)."""
    def total(snapshot):
        return sum(c["value"] for c in snapshot.get("counters", [])
                   if c["name"] == name
                   and all(c["labels"].get(k) == v for k, v in labels.items()))
    return total(after) - total(before)


def gauge_value(snapshot: Dict, name: str) -> float:
    return sum(g["value"] for g in snapshot.get("gauges", [])
               if g["name"] == name)


def histogram_totals(snapshot: Dict, name: str, **labels) -> Dict[str, float]:
    """(count, sum) of one histogram across matching label sets."""
    count, total = 0, 0.0
    for histogram in snapshot.get("histograms", []):
        if histogram["name"] != name:
            continue
        if any(histogram["labels"].get(k) != v for k, v in labels.items()):
            continue
        count += histogram["count"]
        total += histogram["sum"]
    return {"count": count, "sum": total}


def registry_snapshot() -> Dict:
    from repro.observability import get_registry

    return get_registry().snapshot(spans=False)


def bound_violations(before: Dict, after: Dict) -> int:
    return int(sum(counter_delta(before, after, name) for name in BOUND_COUNTERS))


def environment(rows: int, seed: int) -> Dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "rows": rows,
        "data_seed": DATA_SEED,
        "seed": seed,
        "timer": "time.perf_counter, warm-up excluded",
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric -> unit, in report order.  Metrics of a layer the
#: workload does not exercise read 0 (no calls, no time, no count).
LAYER_UNITS = {
    "server.request_ms": "ms",
    "server.wire_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.price_us": "us",
    "server.serialise_us": "us",
    "serving.hit_ratio": "ratio",
    "serving.lookup_us": "us",
    "serving.invalidations_per_write": "count",
    "query.parse_us": "us",
    "query.prepare_us": "us",
    "planner.choose_us": "us",
    "planner.share.probe": "ratio",
    "planner.share.onepass": "ratio",
    "planner.share.naive": "ratio",
    "planner.cost_ratio.probe": "ratio",
    "planner.cost_ratio.onepass": "ratio",
    "planner.cost_ratio.naive": "ratio",
    "core.us.probe": "us",
    "core.us.probe-scored": "us",
    "core.us.onepass": "us",
    "core.us.naive": "us",
    "core.materialise_us": "us",
    "core.diverse_select_us": "us",
    "index.compile_us": "us",
    "index.next_calls.probe": "count",
    "index.next_calls.onepass": "count",
    "index.next_calls.naive": "count",
    "index.rows_touched_per_result": "count",
    "index.skips_per_query": "count",
    "index.probe_bound_use": "ratio",
    "sharding.fanout_us": "us",
    "sharding.merge_us": "us",
    "sharding.retries": "count",
    "replication.read_us": "us",
    "replication.apply_us": "us",
    "replication.failovers": "count",
    "replication.hedges": "count",
    "durability.wal_append_us": "us",
    "durability.wal_sync_us": "us",
    "durability.wal_bytes_per_write": "B",
    "storage.insert_us": "us",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_share": "ratio",
}

#: Span-timed metrics: metric -> span names whose self times are summed;
#: the first span's top-level calls are the denominator.  Values are self
#: time per call, in µs.
SPAN_METRICS = {
    "server.price_us": ("server.price",),
    "server.serialise_us": ("server.payload", "server.json"),
    "serving.lookup_us": ("serving.lookup",),
    "query.parse_us": ("query.parse",),
    "query.prepare_us": ("query.prepare",),
    "planner.choose_us": ("planner.choose",),
    "core.us.probe": ("core.run.probe",),
    "core.us.probe-scored": ("core.run.probe-scored",),
    "core.us.onepass": ("core.run.onepass",),
    "core.us.naive": ("core.run.naive",),
    "core.materialise_us": ("core.materialise",),
    "core.diverse_select_us": ("core.diverse_select",),
    "index.compile_us": ("index.compile",),
    "sharding.fanout_us": ("sharding.fanout",),
    "sharding.merge_us": ("sharding.merge",),
    "replication.read_us": ("replication.read",),
    "replication.apply_us": ("replication.apply",),
    "durability.wal_append_us": ("durability.wal_append",),
    "durability.wal_sync_us": ("durability.wal_sync",),
    "storage.insert_us": ("storage.insert",),
}


def span_metrics(summary: Dict[str, Dict]) -> Dict[str, float]:
    values = {}
    for metric, names in SPAN_METRICS.items():
        calls = summary.get(names[0], {}).get("calls", 0)
        self_s = sum(summary.get(name, {}).get("self_s", 0.0) for name in names)
        values[metric] = self_s * 1e6 / calls if calls else 0.0
    return values


def layered_self_seconds(summary: Dict[str, Dict]) -> float:
    """Self time covered by spans that belong to a named layer."""
    return sum(entry["self_s"] for entry in summary.values()
               if entry["layer"] is not None)


def result_stat_metrics(fresh: Sequence[tuple]) -> Dict[str, float]:
    """Planner and index metrics from executed (not cache-served) results.

    ``fresh`` holds ``(stats, returned, k, requested_algorithm)`` tuples.
    """
    values: Dict[str, float] = {}
    auto = [stats for stats, _, _, requested in fresh if requested == "auto"]
    for algorithm in ("probe", "onepass", "naive"):
        chosen = [s for s in auto if s.get("algorithm_selected") == algorithm]
        values[f"planner.share.{algorithm}"] = (
            len(chosen) / len(auto) if auto else 0.0)
        ratios = [s[f"plan_cost_{algorithm}"] / s["next_calls"]
                  for s in chosen if s.get("next_calls")]
        values[f"planner.cost_ratio.{algorithm}"] = (
            statistics.median(ratios) if ratios else 0.0)
    by_algorithm: Dict[str, List[Dict]] = {}
    for stats, _, _, requested in fresh:
        algorithm = stats.get("algorithm_selected", requested)
        by_algorithm.setdefault(algorithm, []).append(stats)
    for algorithm in ("probe", "onepass", "naive"):
        runs = by_algorithm.get(algorithm, [])
        values[f"index.next_calls.{algorithm}"] = (
            statistics.fmean(s.get("next_calls", 0) for s in runs)
            if runs else 0.0)
    touched = [stats.get("rows_touched", 0) / returned
               for stats, returned, _, _ in fresh if returned]
    values["index.rows_touched_per_result"] = (
        statistics.fmean(touched) if touched else 0.0)
    skips = [s.get("skips", 0) for s in by_algorithm.get("onepass", [])]
    values["index.skips_per_query"] = statistics.fmean(skips) if skips else 0.0
    bound_use = [stats["probe_calls"] / (2 * k + 1)
                 for stats, _, k, _ in fresh
                 if "probe_bound" in stats and "probe_calls" in stats]
    values["index.probe_bound_use"] = (
        statistics.fmean(bound_use) if bound_use else 0.0)
    return values


def trace_overhead(untraced_ops_per_s: float, traced_ops_per_s: float,
                   latency_s: float, summary: Dict[str, Dict]) -> Dict[str, float]:
    """Tracing overhead and the share of traced latency no layer explains.

    ``latency_s`` is the summed end-to-end latency of the traced
    operations (for the server: the summed server-side request time)."""
    covered = layered_self_seconds(summary)
    return {
        "trace.ops_per_s_untraced": untraced_ops_per_s,
        "trace.ops_per_s_traced": traced_ops_per_s,
        "trace.overhead_ratio": (untraced_ops_per_s / traced_ops_per_s
                                 if traced_ops_per_s else 0.0),
        "trace.unaccounted_share": (max(0.0, latency_s - covered) / latency_s
                                    if latency_s else 0.0),
    }


def layer_metrics(values: Dict[str, float]) -> Dict[str, Dict]:
    """Every per-layer metric, with its unit; absent ones read 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()}


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
def finish(workload: str, args, report: Dict, phase: "Phase", wrong: int,
           violations: int, attempted: int, failed: int,
           setup: Optional[Dict] = None, rss_mb: float = 0.0,
           layers: Optional[Dict[str, float]] = None,
           spans: Optional[Dict] = None) -> None:
    """Complete the report, write and print it, then print the result line.

    ``--trace 0`` results carry the end-to-end metrics; ``--trace 1``
    results carry the per-layer ``layers`` values.
    """
    report = dict(report, workload=workload, trace=args.trace,
                  attempted=attempted, failed=failed,
                  checks={"wrong_answers": wrong,
                          "bound_violations": violations})
    if args.trace:
        report["spans"] = spans
        metrics = layer_metrics(layers)
        report["metrics"] = metrics
    else:
        report["metrics"] = end_to_end(setup, rss_mb, phase, wrong, violations)
        metrics = {name: report["metrics"][name] for name in E2E_UNITS}
    report["correct"] = correct = wrong == 0 and violations == 0
    path = work_dir() / f"report-{workload}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))


# ----------------------------------------------------------------------
# The in-process closed loop
# ----------------------------------------------------------------------
class Phase:
    """Outcome of one timed phase of a load generator."""

    def __init__(self, speed: Optional[MachineSpeed] = None):
        #: ``(end, kind, wall latency s)`` of every measured operation.
        self.done: List[tuple] = []
        #: ``(start, end)`` of the measured window.
        self.window = (0.0, 0.0)
        self.speed = speed if speed is not None else MachineSpeed()
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}
        self.next_index = 0

    def add(self, ended: float, kind: str, latency_s: float) -> None:
        self.done.append((ended, kind, latency_s))

    def samples_ms(self, full_speed: bool = False) -> Dict[str, List[float]]:
        """Latencies by kind, as measured or scaled to full speed."""
        samples: Dict[str, List[float]] = {}
        for ended, kind, latency_s in self.done:
            scale = self.speed.factor_at(ended) if full_speed else 1.0
            samples.setdefault(kind, []).append(latency_s * scale * 1000.0)
        return samples

    @property
    def ops_per_s(self) -> float:
        """Completions per second of the window at full speed."""
        seconds = self.speed.scaled_seconds(*self.window)
        return len(self.done) / seconds if seconds > 0 else 0.0

    @property
    def wall_ops_per_s(self) -> float:
        """Completions per second of the window as measured (the sampling
        pauses left out)."""
        start, end = self.window
        seconds = end - start - self.speed.paused_seconds(start, end)
        return len(self.done) / seconds if seconds > 0 else 0.0


def closed_loop(ops: Sequence, execute, seconds: float, warmup_s: float,
                start: int = 0) -> Phase:
    """One caller issuing ``execute(index, op)`` back to back.

    ``execute`` returns the operation's kind (``"query"`` or
    ``"write"``).  Operations started during the first ``warmup_s``
    seconds are run but not measured; the loop stops issuing once
    ``warmup_s + seconds`` have passed.  Every
    :data:`REFERENCE_PERIOD_S` the loop pauses between two operations to
    sample the machine's speed.  An operation that raises counts as
    attempted and failed and leaves no latency sample.
    """
    phase = Phase()
    phase.speed.sample()
    measure_from = clock() + warmup_s
    stop = measure_from + seconds
    due = clock() + REFERENCE_PERIOD_S
    first = None
    index = start
    while True:
        started = clock()
        if started >= stop:
            break
        if started >= due:
            phase.speed.sample()
            due = clock() + REFERENCE_PERIOD_S
            continue
        phase.attempted += 1
        try:
            kind = execute(index, ops[index % len(ops)])
        except Exception as error:  # a failed operation, not a crash
            phase.failed += 1
            name = type(error).__name__
            phase.errors[name] = phase.errors.get(name, 0) + 1
            kind = None
        ended = clock()
        index += 1
        if started >= measure_from:
            if first is None:
                first = started
            if kind is not None:
                phase.add(ended, kind, ended - started)
    phase.speed.sample()
    phase.window = (first if first is not None else stop, started)
    phase.next_index = index
    return phase


#: End-to-end metric -> unit (the ``--trace 0`` result line).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

#: Reported end-to-end figures: as measured rather than at full speed,
#: 0 on a healthy run, or on one workload only.  They appear in the
#: report; non-zero counts turn ``correct`` false or show in ``failed``.
REPORT_UNITS = {
    "wall_setup_s": "s",
    "wall_ops_per_s": "1/s",
    "wall_query_p50_ms": "ms",
    "wall_query_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "failed_ratio": "ratio",
    "wrong_answers": "count",
    "bound_violations": "count",
}


def end_to_end(setup: Dict, rss_mb: float, phase: Phase, wrong: int,
               violations: int) -> Dict[str, Dict]:
    """Every end-to-end figure of one untraced run, with its unit.

    ``setup`` is the set-up report of :func:`median_setup`."""
    queries = latency_summary(phase.samples_ms(full_speed=True).get("query", []))
    wall = latency_summary(phase.samples_ms().get("query", []))
    writes = latency_summary(phase.samples_ms(full_speed=True).get("write", []))
    values = {
        "setup_s": statistics.median(setup["full_speed_s"]),
        "wall_setup_s": statistics.median(setup["wall_s"]),
        "peak_rss_mb": rss_mb,
        "ops_per_s": phase.ops_per_s,
        "wall_ops_per_s": phase.wall_ops_per_s,
        "query_p50_ms": queries["p50"],
        "query_p99_ms": queries["p99"],
        "wall_query_p50_ms": wall["p50"],
        "wall_query_p99_ms": wall["p99"],
        "failed_ratio": phase.failed / phase.attempted if phase.attempted else 0.0,
        "wrong_answers": wrong,
        "bound_violations": violations,
    }
    if writes["count"]:
        values["write_p50_ms"] = writes["p50"]
        values["write_p99_ms"] = writes["p99"]
    units = dict(E2E_UNITS, **REPORT_UNITS)
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def sample_counts(phase: Phase) -> Dict[str, Dict]:
    """Per latency kind: the sample count behind its percentiles, the
    samples beyond p99, and the deciles at full speed and as measured."""
    counts = {}
    wall = phase.samples_ms()
    for kind, samples in sorted(phase.samples_ms(full_speed=True).items()):
        summary = latency_summary(samples)
        counts[kind] = {
            "samples": summary["count"],
            "beyond_p99": summary["beyond_p99"],
            "deciles_ms": (statistics.quantiles(samples, n=10)
                           if len(samples) > 1 else []),
            "wall_deciles_ms": (statistics.quantiles(wall[kind], n=10)
                                if len(wall[kind]) > 1 else []),
        }
    return counts
