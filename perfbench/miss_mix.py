"""``miss-mix``: one closed-loop caller of ``DiversityEngine.search``, no cache.

Every request is a fresh seeded query, sent as query text, drawn from fixed shares of four
regimes (per block of 20 requests):

* 12 broad or match-all queries, k=10 (the planner picks probe);
* 3 narrow two-predicate conjunctions, k=100 (the planner picks naive
  for most of them);
* 3 weighted disjunctive scored queries, k=10;
* 2 queries pinned to ``algorithm="onepass"``, k=10.

Nearly all the time goes to the core, index, planner and query layers.
"""

from __future__ import annotations

import random

import common

#: regime -> (workload spec, k, scored, algorithm)
REGIMES = {
    "matchall": (dict(predicates=0), 10, False, "auto"),
    "broad": (dict(predicates=1, selectivity=0.5), 10, False, "auto"),
    "narrow": (dict(predicates=2, selectivity=0.05), 100, False, "auto"),
    "scored": (dict(predicates=2, selectivity=0.3, disjunctive=True,
                    weighted=True), 10, True, "auto"),
    "onepass": (dict(predicates=1, selectivity=0.3), 10, False, "onepass"),
}
#: Probe-routed regimes take 12 of 20 requests, so the median falls inside
#: their latency cluster rather than on its edge.
SHARES = {"matchall": 4, "broad": 8, "narrow": 3, "scored": 3, "onepass": 2}
#: Answers per regime checked against the full-scan oracle (the oracle
#: is quadratic in the match set, so broad regimes get fewer checks; the
#: match-all query is the same every time).
CHECKS = {"matchall": 1, "broad": 1, "narrow": 2, "scored": 1, "onepass": 1}
#: Index builds per run: each takes about 2 s; each is scaled to full
#: speed, and the median of 3 stays put when one of them goes wrong.
SETUP_REPEATS = 3


def make_ops(relation, seed: int, count: int):
    """``(regime, query, text, k, scored, algorithm)`` per request; the
    engine is sent the text, the oracle checks against the query tree."""
    from repro.query.rewrite import to_query_string

    rng = random.Random(seed)
    generator = common.query_generator(relation)
    ops = []
    for label in common.fixed_share_schedule(rng, SHARES, count):
        spec, k, scored, algorithm = REGIMES[label]
        query = common.make_query(generator, rng, **spec)
        ops.append((label, query, to_query_string(query), k, scored, algorithm))
    return ops


def check_sample(ops, seed: int, limit: int):
    """Op indices whose answers are checked: a seeded few per regime,
    among the first ``limit`` ops (every run gets that far)."""
    rng = random.Random(seed + 1)
    chosen = set()
    for label, count in CHECKS.items():
        indices = [i for i in range(min(limit, len(ops))) if ops[i][0] == label]
        chosen.update(rng.sample(indices, min(count, len(indices))))
    return chosen


def wrong_answers(relation, engine, ops, answers) -> int:
    """Definition 2 (or its scored form) against the full-scan match set."""
    from repro.core.similarity import is_diverse, is_scored_diverse
    from repro.query.evaluate import res, scored_res

    dewey_of = engine.index.dewey.dewey_of
    wrong = 0
    for index, result in answers.items():
        _, query, _, k, scored, _ = ops[index % len(ops)]
        selected = [item.dewey for item in result.items]
        if scored:
            matches = {dewey_of(rid): score
                       for rid, score in scored_res(relation, query)}
            ok = is_scored_diverse(selected, matches, k)
        else:
            ok = is_diverse(selected, [dewey_of(rid) for rid in res(relation, query)], k)
        wrong += not ok
    return wrong


def run(args) -> None:
    from repro import DiversityEngine

    relation, ordering = common.autos(args.rows)
    warmup = common.warmup_seconds(args.seconds)
    ops = make_ops(relation, args.seed,
                   count=int(1000 * (args.seconds + warmup)) + 200)
    sample = check_sample(ops, args.seed, limit=400)
    engine, setup = common.median_setup(
        lambda _: DiversityEngine.from_relation(relation, ordering),
        SETUP_REPEATS if not args.trace else 1)

    answers = {}
    fresh = []

    def execute(index, op):
        _, _, text, k, scored, algorithm = op
        result = engine.search(text, k, algorithm=algorithm, scored=scored)
        if index in sample:
            answers[index] = result
        if collect:
            fresh.append((result.stats, len(result), k, algorithm))
        return "query"

    before = common.registry_snapshot()
    collect = False
    if args.trace:
        from tracer import Tracer

        untraced = common.closed_loop(ops, execute, args.seconds / 2, warmup)
        tracer = Tracer()
        tracer.install()
        collect = True
        try:
            phase = common.closed_loop(ops, execute, args.seconds / 2, 0.0,
                                       start=untraced.next_index)
        finally:
            tracer.uninstall()
        tracer.write(common.work_dir() / "spans-miss-mix.jsonl")
        attempted = untraced.attempted + phase.attempted
        failed = untraced.failed + phase.failed
    else:
        phase = common.closed_loop(ops, execute, args.seconds, warmup)
        attempted, failed = phase.attempted, phase.failed
    rss_mb = common.peak_rss_mb()
    violations = common.bound_violations(before, common.registry_snapshot())
    wrong = wrong_answers(relation, engine, ops, answers)

    report = {
        "environment": common.environment(args.rows, args.seed),
        "inputs": {
            "deployment": "DiversityEngine, array backend, no cache",
            "load": "1 closed-loop caller, in process",
            "shares_per_20": SHARES,
            "regimes": {label: {"spec": spec, "k": k, "scored": scored,
                                "algorithm": algorithm}
                        for label, (spec, k, scored, algorithm) in REGIMES.items()},
            "setup": dict(setup, what="index build "
                                      "(DiversityEngine.from_relation)"),
            "machine_speed": phase.speed.summary(),
            "latency_samples": common.sample_counts(phase),
            "answers_checked": len(answers),
            "run_seconds": args.seconds,
            "warmup_seconds": warmup,
            "errors": phase.errors,
        },
    }
    values = summary = None
    if args.trace:
        from tracer import summarise

        summary = summarise(tracer.spans)
        latency_s = sum(phase.samples_ms().get("query", [])) / 1000.0
        values = common.span_metrics(summary)
        values.update(common.result_stat_metrics(fresh))
        values.update(common.trace_overhead(
            untraced.ops_per_s, phase.ops_per_s, latency_s, summary))
    common.finish("miss-mix", args, report, phase, wrong, violations, attempted,
                  failed, setup=setup, rss_mb=rss_mb, layers=values,
                  spans=summary)
