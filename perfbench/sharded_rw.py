"""``sharded-rw``: a durable, replicated, sharded ``ServingEngine`` under
interleaved reads and writes, in process.

The deployment is ``ServingEngine.from_relation(..., shards=4,
replicas=2, data_dir=..., fsync_every=1, snapshot_every=0)``: every WAL
record is fsynced and periodic snapshots are off.  One closed-loop
caller issues, per block of 10 operations, 8 ``auto`` reads drawn from a
Zipf pool (which includes the naive-routed narrow big-k regime, so both
the coordinator scan and the gather fan-out run), 1 insert of a fresh
row and 1 delete of a live row.

Every write passes through WAL, replicas and relation and bumps the
epoch, which invalidates the result cache; every read pays fan-out,
merge and replica selection.  Answers are checked against an unsharded
reference engine that replays the same mutations.
"""

from __future__ import annotations

import random
import shutil

import common

SHARDS = 4
REPLICAS = 2
FSYNC_EVERY = 1
SNAPSHOT_EVERY = 0
#: Mild skew: writes invalidate the cache every few operations, so most
#: reads execute whatever the skew.  One block of the Zipf schedule is
#: about 385 reads, so a run covers several.
POOL = 200
ZIPF_S = 0.5
#: One set-up per run: it takes about 15 s at 10^5 rows, and a second
#: would make each run half as long again.
SETUP_REPEATS = 1
#: Per block of 10 operations.
SHARES = {"read": 8, "insert": 1, "delete": 1}
#: Pool regimes by popularity rank, in turn: (workload spec, k, scored).
RANK_REGIMES = (
    (dict(predicates=3, selectivity=0.5), 10, False),
    (dict(predicates=2, selectivity=0.05), 100, False),
    (dict(predicates=3, selectivity=0.3), 10, False),
    (dict(predicates=2, selectivity=0.3, disjunctive=True, weighted=True), 10, True),
)
#: Reads checked against the reference engine.
CHECKED_READS = 300


def make_ops(seed: int, count: int, rows: int):
    """``("read", rank)``, ``("insert", row)`` and ``("delete", pick)``
    operations; a delete's ``pick`` selects among the rows live when it
    runs, so the sequence is fixed by the seed alone."""
    from repro.data.autos import generate_autos

    rng = random.Random(seed)
    ranks = iter(common.zipf_schedule(rng, POOL, ZIPF_S, count))
    fresh_rows = iter(generate_autos(rows=count // 10 + 10,
                                     seed=common.DATA_SEED + seed + 1))
    ops = []
    for kind in common.fixed_share_schedule(rng, SHARES, count):
        if kind == "read":
            ops.append(("read", next(ranks)))
        elif kind == "insert":
            ops.append(("insert", next(fresh_rows)))
        else:
            ops.append(("delete", rng.random()))
    return ops


class Mutator:
    """Applies the op sequence's writes to one engine, tracking live rids
    the same way for the measured deployment and the reference."""

    def __init__(self, rows: int):
        self.live = list(range(rows))

    def apply(self, engine, op):
        kind, value = op
        if kind == "insert":
            rid = engine.insert(value)
            self.live.append(rid)
            return rid
        position = int(value * len(self.live))
        rid = self.live[position]
        self.live[position] = self.live[-1]
        self.live.pop()
        if not engine.delete(rid):
            raise RuntimeError(f"delete of live rid {rid} found nothing")
        return rid


def check_answers(args, ordering, pool, ops, log, executed: int):
    """Replay the executed ops on an unsharded engine over a fresh copy of
    the relation; compare the sampled reads' rids and every write's rid.
    Returns ``(wrong answers, reads checked)``."""
    from repro import DiversityEngine

    relation, _ = common.autos(args.rows)
    reference = DiversityEngine.from_relation(relation, ordering)
    mutator = Mutator(args.rows)
    reads = [i for i in range(executed) if ops[i % len(ops)][0] == "read"]
    checked = set(random.Random(args.seed + 2).sample(
        reads, min(CHECKED_READS, len(reads))))
    wrong = 0
    for index in range(executed):
        op = ops[index % len(ops)]
        if op[0] != "read":
            wrong += mutator.apply(reference, op) != log.get(index)
            continue
        if index not in checked or log.get(index) is None:
            continue
        text, k, scored = pool[op[1]]
        rids, algorithm = log[index]
        expected = reference.search(text, k, algorithm=algorithm, scored=scored)
        wrong += rids != [item.rid for item in expected.items]
    return wrong, len(checked)


def run(args) -> None:
    from repro import ServingEngine

    relation, ordering = common.autos(args.rows)
    pool = common.draw_queries(relation, random.Random(common.POOL_SEED),
                               RANK_REGIMES, POOL)
    warmup = common.warmup_seconds(args.seconds)
    ops = make_ops(args.seed, count=int(2500 * (args.seconds + warmup)) + 100,
                   rows=args.rows)
    data_dirs = []

    def build(attempt):
        data_dir = common.work_dir() / f"sharded-rw-{attempt}"
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dirs.append(data_dir)
        return ServingEngine.from_relation(
            relation, ordering, shards=SHARDS, replicas=REPLICAS,
            data_dir=data_dir, fsync_every=FSYNC_EVERY,
            snapshot_every=SNAPSHOT_EVERY)

    mutator = Mutator(args.rows)
    log = {}
    fresh = []
    collect = False
    try:
        serving, setup = common.median_setup(
            build, SETUP_REPEATS if not args.trace else 1)

        def execute(index, op):
            if op[0] != "read":
                log[index] = mutator.apply(serving, op)
                return "write"
            text, k, scored = pool[op[1]]
            result = serving.search(text, k, algorithm="auto", scored=scored)
            log[index] = ([item.rid for item in result.items],
                          result.stats["algorithm_selected"])
            if collect and not result.stats.get("cache_hit"):
                fresh.append((result.stats, len(result), k, "auto"))
            return "query"

        before = common.registry_snapshot()
        if args.trace:
            from tracer import Tracer

            untraced = common.closed_loop(ops, execute, args.seconds / 2, warmup)
            traced_before = common.registry_snapshot()
            cache_before = serving.cache.stats_snapshot()
            tracer = Tracer()
            tracer.install()
            collect = True
            try:
                phase = common.closed_loop(ops, execute, args.seconds / 2, 0.0,
                                           start=untraced.next_index)
            finally:
                tracer.uninstall()
            tracer.write(common.work_dir() / "spans-sharded-rw.jsonl")
            attempted = untraced.attempted + phase.attempted
            failed = untraced.failed + phase.failed
        else:
            phase = common.closed_loop(ops, execute, args.seconds, warmup)
            attempted, failed = phase.attempted, phase.failed
        cache_after = serving.cache.stats_snapshot()
        after = common.registry_snapshot()
        rss_mb = common.peak_rss_mb()
        serving.close()
    finally:
        for data_dir in data_dirs:
            shutil.rmtree(data_dir, ignore_errors=True)
    violations = common.bound_violations(before, after)
    wrong, reads_checked = check_answers(args, ordering, pool, ops, log,
                                         phase.next_index)

    report = {
        "environment": common.environment(args.rows, args.seed),
        "inputs": {
            "deployment": f"ServingEngine, shards={SHARDS}, replicas={REPLICAS}, "
                          f"durable data directory, default cache, "
                          f"sequential fan-out",
            "flush_policy": f"fsync every WAL record (fsync_every={FSYNC_EVERY}); "
                            f"periodic snapshots off (snapshot_every="
                            f"{SNAPSHOT_EVERY})",
            "load": "1 closed-loop caller, in process",
            "shares_per_10": SHARES,
            "pool": {"distinct": POOL, "zipf_s": ZIPF_S, "algorithm": "auto",
                     "rank_regimes": [dict(spec, k=k, scored=scored)
                                      for spec, k, scored in RANK_REGIMES]},
            "setup": dict(setup, what="store, snapshot and replica bootstrap "
                                      "(ServingEngine.from_relation)"),
            "machine_speed": phase.speed.summary(),
            "latency_samples": common.sample_counts(phase),
            "reads_checked": reads_checked,
            "run_seconds": args.seconds,
            "warmup_seconds": warmup,
            "errors": phase.errors,
        },
    }
    values = summary = None
    if args.trace:
        from tracer import summarise

        summary = summarise(tracer.spans)
        writes = len(phase.samples_ms().get("write", []))
        lookups = ((cache_after.hits - cache_before.hits)
                   + (cache_after.misses - cache_before.misses))
        values = common.span_metrics(summary)
        values.update(common.result_stat_metrics(fresh))

        def grown(name, **labels):
            return common.counter_delta(traced_before, after, name, **labels)

        values.update({
            "serving.hit_ratio": ((cache_after.hits - cache_before.hits) / lookups
                                  if lookups else 0.0),
            "serving.invalidations_per_write": (
                (cache_after.epoch_invalidations
                 - cache_before.epoch_invalidations) / writes if writes else 0.0),
            "sharding.retries": grown("repro_retries_total"),
            "replication.failovers": grown("repro_replica_failovers_total"),
            "replication.hedges": grown("repro_replica_hedges_total",
                                        outcome="fired"),
            "durability.wal_bytes_per_write": (
                grown("repro_wal_bytes_appended_total") / writes
                if writes else 0.0),
        })
        latency_s = sum(latency for _, _, latency in phase.done)
        values.update(common.trace_overhead(
            untraced.ops_per_s, phase.ops_per_s, latency_s, summary))
    common.finish("sharded-rw", args, report, phase, wrong, violations, attempted,
                  failed, setup=setup, rss_mb=rss_mb, layers=values,
                  spans=summary)
