"""``http-zipf``: the real HTTP server in its own process, driven over
keep-alive connections by a Zipf-skewed pool of queries.

The server is ``python -m repro serve`` over a snapshot of the benchmark
relation, default configuration.  The benchmark process drives
:data:`CONNECTIONS` keep-alive connections, one thread each, each a closed
loop issuing ``/search?q=...&algorithm=auto&k=10`` requests.  Requests come
from a fixed pool of :data:`POOL` distinct queries with Zipf
(s = :data:`ZIPF_S`) popularity, except one in :data:`FRESH_EVERY`, which
is a query never sent before.  About 95% of requests are result-cache
hits, so the request path (protocol, admission pricing, parsing, cache
lookup, JSON) dominates.

The clients close their connections before the server is stopped; see
the README for the server bug that an idle keep-alive connection during
drain triggers.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse

import common

CONNECTIONS = 2
POOL = 300
ZIPF_S = 1.0
#: One request in this many is a fresh query: a steady 5% miss share, so
#: the p99 lies inside the miss latencies rather than on their edge.
FRESH_EVERY = 20
K = 10
SETUP_REPEATS = 2
#: Pool regimes, assigned to popularity ranks in turn: rank r gets
#: ``RANK_REGIMES[r % 4]`` so every seed puts the same kind of query at
#: each rank.  (workload spec, scored)
RANK_REGIMES = (
    (dict(predicates=3, selectivity=0.5), False),
    (dict(predicates=3, selectivity=0.3), False),
    (dict(predicates=2, selectivity=0.05), False),
    (dict(predicates=2, selectivity=0.3, disjunctive=True, weighted=True), True),
)
#: Fresh queries skip the narrow regime, whose distinct queries are few.
FRESH_REGIMES = (RANK_REGIMES[0], RANK_REGIMES[1], RANK_REGIMES[3])
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
IO_TIMEOUT_S = 30.0


def request_path(text: str, scored: bool) -> str:
    params = {"q": text, "algorithm": "auto", "k": K}
    if scored:
        params["scored"] = 1
    return "/search?" + urllib.parse.urlencode(params)


def make_streams(seed: int, length: int):
    """One seeded sequence of query indices per connection.

    Indices below :data:`POOL` are pool ranks on a fixed-share Zipf
    schedule; every :data:`FRESH_EVERY`-th request instead takes the next
    never-repeated query (indices from :data:`POOL` up), the long tail of
    real traffic that always misses the cache.
    """
    streams, fresh = [], POOL
    for connection in range(CONNECTIONS):
        stream = common.zipf_schedule(random.Random(seed * 1000 + connection),
                                      POOL, ZIPF_S, length)
        for position in range(FRESH_EVERY - 1, length, FRESH_EVERY):
            stream[position] = fresh
            fresh += 1
        streams.append(stream)
    return streams, fresh - POOL


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def serving_cpu():
    """The one CPU that client and server share.  On separate CPUs every
    request wakes the other CPU from idle, and how long that takes on a
    shared host swings with the host's load rather than with the speed
    the reference kernel measures; on one CPU the run's placement is also
    the same every time."""
    return {min(os.sched_getaffinity(0))}


def pin(pid: int, cpus) -> None:
    """Restrict a process to ``cpus``; where the system refuses, the
    scheduler keeps placing it."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


class Server:
    """One server process: started, timed to its first healthy answer,
    stopped with SIGTERM after the clients have hung up."""

    def __init__(self, snapshot, spans_out=None, tag: str = "server"):
        if spans_out is None:
            command = [sys.executable, "-u", "-m", "repro", "serve",
                       str(snapshot), "--port", "0"]
        else:
            command = [sys.executable, "-u",
                       str(common.ROOT / "perfbench" / "serve_traced.py"),
                       str(spans_out), "serve", str(snapshot), "--port", "0"]
        self.stderr_path = common.work_dir() / f"{tag}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        started = common.clock()
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.program_env(),
            stdout=subprocess.PIPE, stderr=self._stderr)
        try:
            pin(self.process.pid, serving_cpu())
            self.port = self._read_port(started + START_TIMEOUT_S)
            self._wait_healthy(started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        while common.clock() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode("utf-8", "replace")
                if "listening on http://" in line:
                    return int(line.strip().rsplit(":", 1)[1])
                if not line and self.process.poll() is not None:
                    break
        raise RuntimeError("server did not announce its port; see "
                           f"{self.stderr_path}")

    def _wait_healthy(self, deadline: float) -> None:
        while common.clock() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=10)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz with 200")

    def get_json(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns stderr tracebacks seen
        (0 on every call after the first)."""
        if self._stderr.closed:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()
        return self.stderr_path.read_bytes().count(b"Traceback")


# ----------------------------------------------------------------------
# The clients
# ----------------------------------------------------------------------
class ClientPhase(common.Phase):
    """A :class:`common.Phase` plus what the responses said."""

    def __init__(self, speed: common.MachineSpeed):
        super().__init__(speed)
        self.queue_ms = []
        self.algorithms = {}
        self.cache_hits = 0
        self.first_body = {}
        self.mismatches = 0


class _Client:
    """One keep-alive connection replaying one stream of pool ranks."""

    def __init__(self, port: int, stream):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=IO_TIMEOUT_S)
        self._stream = stream
        self._next = 0

    def run(self, paths, control: "_Control", phase: ClientPhase,
            measure: bool, lock: threading.Lock) -> None:
        """Closed loop: send, wait for the answer, record it, until the
        control says stop; hold between requests while it samples."""
        while not control.stop.is_set():
            if control.pause.is_set():
                control.hold()
                continue
            rank = self._stream[self._next % len(self._stream)]
            self._next += 1
            started = common.clock()
            try:
                self.connection.request("GET", paths[rank])
                response = self.connection.getresponse()
                answer = (response.status,
                          {name.lower(): value
                           for name, value in response.getheaders()},
                          response.read())
            except (OSError, http.client.HTTPException):
                # A failed request; the next one opens a new connection.
                self.connection.close()
                answer = (None, {}, b"")
            ended = common.clock()
            with lock:
                phase.attempted += 1
                _record(phase, rank, answer, started, ended, measure)

    def close(self) -> None:
        self.connection.close()


class _Control:
    """Stops the clients, or holds them all between two requests while
    the machine's speed is sampled (so no request is in flight)."""

    def __init__(self, clients: int):
        self.stop = threading.Event()
        self.pause = threading.Event()
        self._barrier = threading.Barrier(clients + 1, timeout=IO_TIMEOUT_S)

    def hold(self) -> None:
        """Client side: wait for the sample, then go on."""
        self._barrier.wait()
        self._barrier.wait()

    def sample(self, speed: common.MachineSpeed) -> None:
        self.pause.set()
        self._barrier.wait()
        self.pause.clear()
        try:
            speed.sample()
        finally:
            self._barrier.wait()

    def abort(self) -> None:
        self.stop.set()
        self._barrier.abort()


def _run(clients, paths, seconds: float, phase: ClientPhase, measure: bool):
    """Closed loop on every connection, one thread each, for ``seconds``,
    sampling the machine's speed every :data:`common.REFERENCE_PERIOD_S`;
    returns once every request sent has been answered.  The phase's
    window is set to the run's ``(start, end)``."""
    lock = threading.Lock()
    errors = []
    control = _Control(len(clients))
    phase.speed.sample()
    opened = common.clock()
    stop = opened + seconds

    def loop(client):
        try:
            client.run(paths, control, phase, measure, lock)
        except BaseException as error:  # re-raised below, in this thread
            errors.append(error)
            control.abort()

    threads = [threading.Thread(target=loop, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    try:
        while not errors:
            time.sleep(max(0.0, min(common.REFERENCE_PERIOD_S,
                                    stop - common.clock())))
            if common.clock() >= stop:
                break
            control.sample(phase.speed)
    except threading.BrokenBarrierError:
        pass  # a client failed; its error is re-raised below
    finally:
        control.stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    phase.window = (opened, common.clock())
    phase.speed.sample()


def _record(phase: ClientPhase, rank: int, answer, started: float,
            ended: float, measure: bool) -> None:
    status, headers, body = answer
    if status != 200:
        phase.failed += 1
        return
    # The cache flag is the only part of a body that may differ between
    # two answers to the same query.
    normalised = body.replace(b'"cache_hit":true', b'"cache_hit":false')
    algorithm = headers.get("x-repro-algorithm")
    first = phase.first_body.setdefault(rank, (normalised, algorithm))
    if first != (normalised, algorithm):
        phase.mismatches += 1
    if not measure:
        return
    phase.algorithms[algorithm] = phase.algorithms.get(algorithm, 0) + 1
    phase.cache_hits += headers.get("x-repro-cache") == "hit"
    phase.queue_ms.append(float(headers.get("x-repro-queue-ms", "0")))
    phase.add(ended, "query", ended - started)


def drive(server: Server, streams, paths, seconds: float, warmup: float):
    """Warm up, then measure; returns the phase and /metrics at both ends
    of the measured window (read while no request is in flight).  The
    connections are closed before this returns."""
    phase = ClientPhase(common.MachineSpeed(serving_cpu()))
    clients = [_Client(server.port, stream) for stream in streams]
    allowed = os.sched_getaffinity(0)
    # Client threads inherit the CPU set of the thread that starts them.
    pin(0, serving_cpu())
    try:
        _run(clients, paths, warmup, phase, measure=False)
        before = server.get_json("/metrics?format=json")
        _run(clients, paths, seconds, phase, measure=True)
        after = server.get_json("/metrics?format=json")
    finally:
        pin(0, allowed)
        for client in clients:
            client.close()
    return phase, before, after


def wrong_answers(engine, queries, phase: ClientPhase) -> int:
    """Each distinct query's answer against an in-process run of the
    algorithm the server reported, plus answers that changed mid-run."""
    wrong = phase.mismatches
    for index, (body, algorithm) in phase.first_body.items():
        text, scored = queries[index]
        expected = engine.search(text, K, algorithm=algorithm, scored=scored)
        served = [item["rid"] for item in json.loads(body)["items"]]
        wrong += served != [item.rid for item in expected.items]
    return wrong


def server_layer_metrics(phase: ClientPhase, before, after) -> dict:
    requests = {
        key: common.histogram_totals(after, "repro_http_request_ms",
                                     outcome="admitted")[key]
        - common.histogram_totals(before, "repro_http_request_ms",
                                  outcome="admitted")[key]
        for key in ("count", "sum")
    }
    request_ms = requests["sum"] / requests["count"] if requests["count"] else 0.0
    client_ms = statistics.fmean(phase.samples_ms()["query"])
    hits = (common.gauge_value(after, "repro_cache_hits")
            - common.gauge_value(before, "repro_cache_hits"))
    misses = (common.gauge_value(after, "repro_cache_misses")
              - common.gauge_value(before, "repro_cache_misses"))
    answered = sum(phase.algorithms.values())
    values = {
        "server.request_ms": request_ms,
        "server.wire_ms": client_ms - request_ms,
        "server.queue_wait_ms": statistics.fmean(phase.queue_ms),
        "serving.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    for algorithm in ("probe", "onepass", "naive"):
        values[f"planner.share.{algorithm}"] = (
            phase.algorithms.get(algorithm, 0) / answered if answered else 0.0)
    return values


def run(args) -> None:
    from repro import DiversityEngine, InvertedIndex, save_index

    relation, ordering = common.autos(args.rows)
    index = InvertedIndex.build(relation, ordering)
    snapshot = common.work_dir() / "http-zipf.idx"
    save_index(index, snapshot)
    reference = DiversityEngine(index)
    pool = common.draw_queries(relation, random.Random(common.POOL_SEED),
                               RANK_REGIMES, POOL)
    streams, fresh = make_streams(args.seed,
                                  length=int(1500 * (args.seconds + 2)))
    queries = pool + common.draw_queries(relation, random.Random(args.seed),
                                         FRESH_REGIMES, fresh, exclude=pool)
    paths = [request_path(text, scored) for text, scored in queries]
    warmup = common.warmup_seconds(args.seconds)

    tracebacks = 0
    servers = []
    setup_speed = common.MachineSpeed(serving_cpu())
    setup = {"wall_s": [], "full_speed_s": []}

    def launch(**options) -> Server:
        server, wall, full_speed = common.scaled_call(
            setup_speed, lambda: Server(snapshot, **options))
        servers.append(server)
        setup["wall_s"].append(wall)
        setup["full_speed_s"].append(full_speed)
        return server

    try:
        if args.trace:
            plain = launch(tag="server-untraced")
            untraced, _, first_after = drive(
                plain, streams, paths, args.seconds / 2, warmup)
            tracebacks += plain.stop()
            spans_out = common.work_dir() / "spans-http-zipf.jsonl"
            server = launch(spans_out=spans_out, tag="server-traced")
            phase, before, after = drive(server, streams, paths,
                                         args.seconds / 2, warmup)
        else:
            for attempt in range(SETUP_REPEATS):
                if servers:
                    tracebacks += servers[-1].stop()
                server = launch(tag=f"server-{attempt}")
            phase, before, after = drive(server, streams, paths,
                                         args.seconds, warmup)
        rss_mb = server.peak_rss_mb()
    finally:
        for started in servers:
            tracebacks += started.stop()
    violations = common.bound_violations({}, after)
    if args.trace:
        violations += common.bound_violations({}, first_after)
        phase.mismatches += untraced.mismatches
    wrong = wrong_answers(reference, queries, phase)

    attempted, failed = phase.attempted, phase.failed
    if args.trace:
        attempted += untraced.attempted
        failed += untraced.failed
    report = {
        "environment": common.environment(args.rows, args.seed),
        "inputs": {
            "deployment": "python -m repro serve <snapshot> --port 0 "
                          "(default config: 1 engine worker, queue depth 64)",
            "load": f"{CONNECTIONS} closed-loop keep-alive connections, "
                    f"one client thread each",
            "cpu_placement": {"client and server": sorted(serving_cpu())},
            "pool": {"distinct": POOL, "zipf_s": ZIPF_S, "k": K,
                     "algorithm": "auto",
                     "rank_regimes": [dict(spec, scored=scored)
                                      for spec, scored in RANK_REGIMES]},
            "fresh_queries": f"1 request in {FRESH_EVERY} is a query never "
                             f"sent before",
            "setup": dict(setup, what="process start to first /healthz 200"),
            "machine_speed": phase.speed.summary(),
            "latency_samples": common.sample_counts(phase),
            "distinct_queries_checked": len(phase.first_body),
            "cache_hits_measured": phase.cache_hits,
            "server_stderr_tracebacks": tracebacks,
            "run_seconds": args.seconds,
            "warmup_seconds": warmup,
        },
    }
    values = summary = None
    if args.trace:
        from tracer import START, read_spans, summarise

        # Only spans of the measured window count: not snapshot restore,
        # warm-up or the /metrics reads.  perf_counter is the system-wide
        # monotonic clock, so server and client times compare.
        start, end = phase.window
        summary = summarise([span for span in read_spans(spans_out)
                             if start <= span[START] <= end])
        values = common.span_metrics(summary)
        values.update(server_layer_metrics(phase, before, after))
        served_ms = (common.histogram_totals(after, "repro_http_request_ms")["sum"]
                     - common.histogram_totals(before, "repro_http_request_ms")["sum"])
        values.update(common.trace_overhead(
            untraced.ops_per_s, phase.ops_per_s, served_ms / 1000.0, summary))
    common.finish("http-zipf", args, report, phase, wrong, violations, attempted,
                  failed, setup=setup, rss_mb=rss_mb, layers=values, spans=summary)
