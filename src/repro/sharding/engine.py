"""The sharded serving engine: fan-out, per-shard top-k, diverse-merge.

:class:`ShardedEngine` is a :class:`~repro.core.engine.DiversityEngine`
over a :class:`~repro.sharding.sharded_index.ShardedIndex`.  Two execution
strategies, picked per algorithm so every answer stays bit-identical to an
unsharded engine:

* **Scatter-gather** (``naive``, and unscored ``basic``): the query fans
  out to all shards — sequentially or on a persistent thread pool
  (``workers``; under the GIL the pool buys no CPU speedup, but a shard
  still running at the deadline can be dropped) — each shard computes its
  *local* diverse top-k (the canonical Definitions 1-2 selection over its
  rows), and the coordinator re-applies Definitions 1-2 to the union
  (:mod:`repro.sharding.merge`).
  Subtree co-location + the shared Dewey space make each shard's answer a
  superset of its contribution to the global answer, so the merge is exact.

* **Coordinator-driven scan** (``onepass``, ``probe``, scored ``basic``,
  ``multq``): these algorithms' outputs depend on the scan/probing order
  over the merged list, not just on the match set — a maximally diverse
  subset is not unique, and one-pass keeps whichever representative it
  meets first.  Gathering per-shard one-pass answers and re-merging would
  return a *valid* diverse set but not *the* set the unsharded scan
  returns.  Instead the unmodified algorithm runs on the coordinator
  against the sharded index's union cursors: every ``next`` probe fans out
  to all shards and takes the min/max — a distributed leapfrog whose probe
  responses (and therefore whose answers, probe counts included) are
  identical to the unsharded run.

**Failure story** (:mod:`repro.resilience`): every shard call runs under
the engine's :class:`~repro.resilience.policy.ResiliencePolicy` — deadline
budget, bounded retries with jittered exponential backoff for transient
faults, and a per-shard circuit breaker.  The two strategies degrade
differently:

* Scatter-gather *drops* a shard that is crashed, open-circuit, out of
  retries, or past deadline, and diverse-merges the survivors — still a
  valid Definitions 1-2 diverse top-k over the reachable rows
  (docs/paper_mapping.md), flagged ``degraded`` in ``result.stats``.  Only
  a total loss raises.
* The coordinator-driven scan needs every shard (union cursors have no
  survivors-only mode that preserves bit-identity), so it retries whole
  runs on transient faults and otherwise **fails fast** with a structured
  :class:`~repro.resilience.errors.ShardUnavailableError` naming the lost
  shards.

Mutations (``insert``/``delete``) route to exactly one shard and bump only
that shard's epoch; the serving caches of PR 1 attach unchanged, keying on
the global (summed) epoch (degraded answers are never cached).
"""

from __future__ import annotations

import random
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core import baselines
from ..core.dewey import DeweyId
from ..core.diversify import diverse_subset, scored_diverse_subset
from ..core.engine import AUTO, DiversityEngine, run_algorithm
from ..core.ordering import DiversityOrdering
from ..core.result import DiverseResult
from ..index.merged import MergedList
from ..index.postings import ARRAY_BACKEND
from ..observability import MONOTONIC, Clock, get_registry, span
from ..query.parser import parse_query
from ..query.query import Query
from ..query.rewrite import normalise
from ..resilience import (
    ChaosPolicy,
    Deadline,
    DeadlineExceededError,
    HealthBoard,
    ResilienceError,
    ResiliencePolicy,
    ShardCrashedError,
    ShardUnavailableError,
    TransientShardError,
)
from ..resilience.policy import DEFAULT_POLICY, deadline_scope
from ..storage.relation import Relation
from .merge import diverse_merge, merge_first_k, scored_diverse_merge
from .router import ShardRouter
from .sharded_index import ShardedIndex

#: Algorithms served by scatter-gather + diverse-merge (their unsharded
#: output is the canonical Definitions 1-2 selection, which the merge
#: reconstructs exactly); the rest run coordinator-driven.
GATHER_ALGORITHMS = ("naive", "basic")


class _ZeroStats:
    """The index read protocol over nothing: every posting list empty.

    The degraded-plan path prices its fallback decision against this
    instead of touching an unreachable shard — the resulting feature
    vector is honestly all-zero rather than partially read.
    """

    depth = 1
    epoch = 0

    def __len__(self) -> int:
        return 0

    def scalar_postings(self, attribute: str, value: Any):
        return ()

    def token_postings(self, attribute: str, token: str):
        return ()

    def all_postings(self):
        return ()


_EMPTY_STATS = _ZeroStats()


def _register_health_collector(registry, engine: "ShardedEngine"):
    """Publish the health board as per-shard gauges at export time.

    Weakref'd like the serving cache collector: a collected engine
    unhooks itself from the registry on the next export.
    """
    if registry is None or not registry.enabled:
        return None
    ref = weakref.ref(engine)

    def collect() -> None:
        target = ref()
        if target is None:
            registry.unregister_collector(collect)
            return
        gauge = registry.gauge
        for entry in target.health.snapshot():
            shard = str(entry["shard_id"])
            if entry.get("replica_id") is not None:
                # Physical-copy rows (replicated deployments): their own
                # metric family, keyed {shard, replica} — the logical
                # per-shard gauges below stay exactly as before.
                replica = str(entry["replica_id"])
                gauge("repro_replica_requests",
                      "Reads attempted on the replica",
                      shard=shard, replica=replica).set(entry["requests"])
                gauge("repro_replica_successes",
                      "Successful replica reads",
                      shard=shard, replica=replica).set(entry["successes"])
                gauge("repro_replica_transient_failures",
                      "Transient replica faults observed",
                      shard=shard, replica=replica
                      ).set(entry["transient_failures"])
                gauge("repro_replica_hard_failures",
                      "Crashes / non-retryable replica errors",
                      shard=shard, replica=replica).set(entry["hard_failures"])
                gauge("repro_replica_skipped_open",
                      "Reads rejected by the replica's open circuit",
                      shard=shard, replica=replica).set(entry["skipped_open"])
                gauge("repro_replica_breaker_open",
                      "1 while the replica's circuit breaker is open",
                      shard=shard, replica=replica
                      ).set(1.0 if entry["breaker"] == "open" else 0.0)
                gauge("repro_replica_ewma_latency_ms",
                      "Smoothed replica read latency",
                      shard=shard, replica=replica
                      ).set(entry.get("ewma_ms", 0.0))
                continue
            gauge("repro_shard_requests",
                  "Calls admitted to the shard", shard=shard
                  ).set(entry["requests"])
            gauge("repro_shard_successes",
                  "Successful shard calls", shard=shard
                  ).set(entry["successes"])
            gauge("repro_shard_transient_failures",
                  "Transient shard faults observed", shard=shard
                  ).set(entry["transient_failures"])
            gauge("repro_shard_hard_failures",
                  "Crashes / non-retryable shard errors", shard=shard
                  ).set(entry["hard_failures"])
            gauge("repro_shard_retries",
                  "Re-attempts spent on the shard", shard=shard
                  ).set(entry["retries"])
            gauge("repro_shard_skipped_open",
                  "Calls rejected by an open circuit", shard=shard
                  ).set(entry["skipped_open"])
            gauge("repro_shard_deadline_drops",
                  "Calls abandoned for deadline reasons", shard=shard
                  ).set(entry["deadline_drops"])
            gauge("repro_shard_breaker_open",
                  "1 while the shard's circuit breaker is open", shard=shard
                  ).set(1.0 if entry["breaker"] == "open" else 0.0)

    registry.register_collector(collect)
    return (registry, collect)


@dataclass
class ShardOutcome:
    """One shard's fate within a single scatter-gather fan-out."""

    shard_id: int
    value: Any = None
    ok: bool = False
    reason: str = ""          # "" | "crashed" | "circuit open" |
                              # "retries exhausted" | "deadline" | "error"
    retries: int = 0


class _RetryingReads:
    """The sharded index's read protocol with per-read transient retries.

    The coordinator-driven scan makes many small index reads (multq can
    make hundreds); retrying the *whole run* on one flaky read would need
    a fault-free pass through all of them — exponentially unlikely.  Each
    read is idempotent, so retrying just the failed read is both cheap and
    exactly answer-preserving: once it succeeds the scan proceeds as if
    the fault never happened.  All reads share one deadline budget.
    """

    __slots__ = ("_engine", "_deadline", "retries")

    def __init__(self, engine: "ShardedEngine", deadline: Deadline):
        self._engine = engine
        self._deadline = deadline
        self.retries = 0

    def _read(self, operation):
        value, attempts = self._engine._run_with_retries(operation, self._deadline)
        self.retries += attempts
        return value

    def scalar_postings(self, attribute: str, value: Any):
        index = self._engine.sharded_index
        return self._read(lambda: index.scalar_postings(attribute, value))

    def token_postings(self, attribute: str, token: str):
        index = self._engine.sharded_index
        return self._read(lambda: index.token_postings(attribute, token))

    def all_postings(self):
        index = self._engine.sharded_index
        return self._read(index.all_postings)

    def vocabulary(self, attribute: str) -> list:
        index = self._engine.sharded_index
        return self._read(lambda: index.vocabulary(attribute))

    def __len__(self) -> int:
        return len(self._engine.sharded_index)

    def __getattr__(self, name: str):
        # Control plane (relation, ordering, dewey, depth, epoch, ...)
        # passes through untouched.
        return getattr(self._engine.sharded_index, name)


class ShardedEngine(DiversityEngine):
    """Diverse top-k over a sharded index, answer-identical to unsharded.

    ``workers`` > 1 fans scatter-gather queries out on a persistent thread
    pool of that size (0 or 1 = sequential); :meth:`close` (or use as a
    context manager) releases it.  ``policy`` sets the failure-handling
    budgets (:class:`ResiliencePolicy`); per-shard breakers and health
    counters live in :attr:`health`.  Everything else — caching, prepare/
    execute split, weighted search, explain — is inherited: the sharded
    index implements the single-index read protocol.
    """

    def __init__(
        self,
        index: ShardedIndex,
        cache=None,
        workers: int = 0,
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        sleep=time.sleep,
        registry=None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        super().__init__(index, cache=cache, registry=registry)
        self._workers = workers
        self._policy = policy if policy is not None else DEFAULT_POLICY
        # One clock drives deadlines, breakers and backoff alike (and one
        # injectable sleep serves the backoff waits), so a FakeClock fakes
        # the whole failure path end-to-end — no mixed perf_counter/
        # monotonic timelines to drift apart.
        self._clock = clock
        self._sleep = sleep
        self._health = HealthBoard(index.num_shards, self._policy, clock=clock)
        # Lazy binding: replica rows appear in health snapshots as soon as
        # the index is replicated, even when that happens after engine
        # construction (the serving path replicates after wrapping shards
        # in durable stores).
        self._health.bind_replica_source(lambda: self._index.shards)
        self._retry_rng = random.Random(self._policy.seed)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_width = 0
        self._close_lock = threading.Lock()
        self._closed = False
        self._collector = _register_health_collector(self._metrics(), self)
        self._push_worker_budget()

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        ordering: Union[DiversityOrdering, Sequence[str]],
        shards: int = 2,
        backend: str = ARRAY_BACKEND,
        router: Union[str, ShardRouter] = "hash",
        cache=None,
        workers: int = 0,
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        sleep=time.sleep,
        replicas: int = 1,
        hedge_ms: Optional[float] = None,
    ) -> "ShardedEngine":
        """Build the sharded index (offline step) and wrap it in an engine.

        ``replicas`` > 1 grows every shard to that many bit-identical
        copies behind automatic failover; ``hedge_ms`` additionally arms
        hedged reads with that cold-start delay (see
        :mod:`repro.replication`).
        """
        index = ShardedIndex.build(
            relation, ordering, shards=shards, backend=backend, router=router
        )
        if replicas > 1:
            from ..replication import HedgePolicy

            hedge = HedgePolicy(delay_ms=hedge_ms) if hedge_ms is not None else None
            index.replicate(replicas, policy=policy, clock=clock, hedge=hedge)
        return cls(index, cache=cache, workers=workers, policy=policy,
                   clock=clock, sleep=sleep)

    # ------------------------------------------------------------------
    # Lifecycle (persistent fan-out pool)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the fan-out thread pool down.

        Idempotent and concurrency-safe (callable from a signal handler
        while a search is in flight): callers serialise on the close
        lock, the first one tears down, the rest block until it has
        finished and then return."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            collector, self._collector = self._collector, None
            if collector is not None:
                registry, collect = collector
                registry.unregister_collector(collect)
            pool, self._pool = self._pool, None
            self._pool_width = 0
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            for shard in self._index.shards:
                # Release replica-set hedge pools; the replicas themselves
                # (and their WALs) belong to the serving layer's close.
                close_pool = getattr(shard, "close_pool", None)
                if callable(close_pool):
                    close_pool()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # The pool width tracks the live config: min(workers, num_shards)
        # is re-derived on every call and a mismatch rebuilds the pool —
        # sizing it once at first use and never again would serve forever
        # from a stale width after set_workers() or a topology change.
        width = min(self._workers, self._index.num_shards)
        if self._pool is not None and self._pool_width != width:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=width,
                thread_name_prefix="repro-shard",
            )
            self._pool_width = width
        return self._pool

    def _push_worker_budget(self) -> None:
        """Publish the engine's worker budget to the index and its replica
        sets, so hedge pools derive their width from it (never a width
        that oversubscribes replicated + parallel fan-out)."""
        from ..replication.replica_set import ReplicaSet

        index = self._index
        try:
            index.worker_budget = self._workers
        except AttributeError:
            pass  # plain/duck-typed indexes without the budget slot
        for shard in index.shards:
            if isinstance(shard, ReplicaSet):
                shard.set_pool_budget(ReplicaSet.derive_pool_width(
                    shard.num_replicas, index.num_shards, self._workers
                ))

    def set_workers(self, workers: int) -> None:
        """Re-size the fan-out worker budget at runtime.

        The thread pool is lazily rebuilt at the new width on the next
        fan-out; replica-set hedge pools re-derive theirs immediately.
        """
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self._workers = workers
        self._push_worker_budget()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sharded_index(self) -> ShardedIndex:
        return self._index

    @property
    def num_shards(self) -> int:
        return self._index.num_shards

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def policy(self) -> ResiliencePolicy:
        return self._policy

    @property
    def health(self) -> HealthBoard:
        """Per-shard health counters + circuit breakers."""
        return self._health

    def shard_epochs(self) -> List[int]:
        return self._index.shard_epochs()

    # ------------------------------------------------------------------
    # Fault injection pass-through
    # ------------------------------------------------------------------
    def inject_chaos(self, chaos: ChaosPolicy) -> ChaosPolicy:
        """Make shard reads fail per ``chaos`` (tests/benchmarks/CLI)."""
        # Latency injection sleeps on the engine's injectable sleep, so a
        # FakeClock-driven test fakes chaos delays too (no real blocking).
        chaos.bind_sleep(self._sleep)
        self._index.inject_chaos(chaos)
        return chaos

    def clear_chaos(self) -> None:
        self._index.clear_chaos()

    # ------------------------------------------------------------------
    # Coordinator-side retry loop (prepare + scan algorithms)
    # ------------------------------------------------------------------
    def _deadline(self) -> Deadline:
        return Deadline(self._policy.deadline_ms, clock=self._clock)

    def _metrics(self):
        return self._registry if self._registry is not None else get_registry()

    def _count_retry(self, phase: str) -> None:
        self._metrics().counter(
            "repro_retries_total",
            "Shard-call retries spent on transient faults, by phase",
            phase=phase,
        ).inc()

    def _run_with_retries(self, operation, deadline: Deadline,
                          phase: str = "scan"):
        """Run ``operation()`` retrying transient shard faults per policy.

        Returns ``(value, retries_spent)``.  Crashes and exhausted retries
        surface as :class:`ShardUnavailableError`; an expired deadline as
        :class:`DeadlineExceededError`.  Used where the work cannot be
        split per shard: plan preparation and the coordinator-driven scan,
        both of which read through union cursors that touch every shard.
        """
        policy = self._policy
        health = self._health
        attempts = 0
        while True:
            try:
                # The deadline scope lets layers below the index read
                # protocol (a ReplicaSet timing a hedged backup read) see
                # the remaining budget without widening the protocol.
                with deadline_scope(deadline):
                    return operation(), attempts
            except TransientShardError as error:
                health.record_transient(error.shard_id)
                if attempts >= policy.max_retries:
                    raise ShardUnavailableError(
                        {error.shard_id: "retries exhausted"}, self.num_shards
                    ) from error
                if deadline.expired():
                    raise DeadlineExceededError(
                        policy.deadline_ms or 0.0, deadline.elapsed_ms()
                    ) from error
                attempts += 1
                health.record_retry(error.shard_id)
                self._count_retry(phase)
                delay_s = policy.backoff_ms(attempts, self._retry_rng) / 1000.0
                delay_s = min(delay_s, deadline.remaining_ms() / 1000.0)
                if delay_s > 0.0:
                    self._sleep(delay_s)
                if deadline.expired():
                    # The backoff consumed the rest of the budget: without
                    # this check the loop would grant one extra attempt
                    # *after* the deadline fully elapsed (drift).
                    raise DeadlineExceededError(
                        policy.deadline_ms or 0.0, deadline.elapsed_ms()
                    ) from error
            except ShardCrashedError as error:
                health.record_hard(error.shard_id)
                raise ShardUnavailableError(
                    {error.shard_id: "crashed"}, self.num_shards
                ) from error

    def prepare(
        self,
        query: Union[Query, str],
        scored: bool = False,
        optimize: bool = True,
    ) -> Query:
        """Plan step, retry-wrapped: the leapfrog ordering reads posting
        statistics through the sharded index, so a flaky shard can fault
        here too.  When a shard is hard-down (or retries run out) the
        *plan* degrades instead of the query: parse + normalise are pure,
        only the statistics-driven reordering is skipped — answers do not
        depend on predicate order, so execution can still proceed (and
        degrade, or fail fast, on its own terms).

        A shard whose breaker is already open is presumed down: the plan
        degrades *immediately*, without touching any shard.  Re-proving the
        failure here every query would charge the broken shard a fresh
        hard failure per query on top of the one the execute phase records
        — double-counting its health stats — and burn retry/backoff time
        from every caller's budget while the breaker is trying to cool
        down."""
        degraded_reason = None
        if optimize and self._health.open_shards():
            degraded_reason = "circuit open"
        else:
            parent = super()
            try:
                plan, _ = self._run_with_retries(
                    lambda: parent.prepare(query, scored, optimize),
                    self._deadline(), phase="prepare",
                )
            except ShardUnavailableError:
                if not optimize:
                    raise
                degraded_reason = "shard unavailable"
        if degraded_reason is not None:
            self._metrics().counter(
                "repro_plan_degraded_total",
                "Plans that skipped statistics-driven reordering",
                reason=degraded_reason,
            ).inc()
            plan = parse_query(query) if isinstance(query, str) else query
            if optimize and not scored:
                plan = normalise(plan)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def plan(
        self,
        query: Union[Query, str],
        k: int,
        scored: bool = False,
        candidates=None,
    ):
        """Plan step of ``algorithm="auto"``, retry-wrapped like
        :meth:`prepare`: the cost model reads posting statistics through the
        sharded index's union views, so a flaky shard can fault here too.
        Transient faults retry; when a shard stays unreachable (or its
        breaker is already open) the *decision* degrades to ``naive`` — the
        scatter-gather algorithm that can still answer from surviving
        shards — instead of failing the query before it even ran.

        Union posting views report global list lengths, so a healthy
        sharded deployment plans identically to an unsharded engine over
        the same rows (the differential tests assert this across shard
        counts)."""
        from ..planner import PlanDecision, choose, extract_features

        if isinstance(query, str):
            query = parse_query(query)
        degraded_reason = None
        if self._health.open_shards():
            degraded_reason = "circuit open"
        else:
            index = self._index
            try:
                decision, _ = self._run_with_retries(
                    lambda: choose(index, query, k, scored, candidates=candidates),
                    self._deadline(), phase="plan",
                )
                return decision
            except ShardUnavailableError:
                degraded_reason = "shard unavailable"
        self._metrics().counter(
            "repro_plan_degraded_total",
            "Plans that skipped statistics-driven reordering",
            reason=degraded_reason,
        ).inc()
        # Stats are unreachable: a zeroed feature vector prices nothing,
        # so fall back to the degradable gather algorithm outright.
        features = extract_features(_EMPTY_STATS, query, k, scored)
        return PlanDecision(
            algorithm="naive",
            k=k,
            scored=scored,
            epoch=self.epoch,
            costs={"naive": 0.0},
            features=features,
            candidates=("naive",),
            reason="stats unavailable",
        )

    def execute(
        self,
        query: Query,
        k: int,
        algorithm: str = "probe",
        scored: bool = False,
        decision=None,
    ) -> DiverseResult:
        """Sharded execution of an already-prepared plan.

        Scatter-gather (degradable) for the canonical algorithms,
        coordinator-driven union-cursor scan (all-shards-or-fail) for the
        scan-order-dependent ones; ``auto`` plans first (see :meth:`plan`)
        and dispatches the selected algorithm through the same split.
        """
        if algorithm == AUTO:
            return self._execute_auto(query, k, scored, decision)
        if algorithm == "naive":
            return self._execute_gather_naive(query, k, scored)
        if algorithm == "basic" and not scored:
            return self._execute_gather_basic(query, k)
        return self._execute_scan(query, k, algorithm, scored)

    def _execute_scan(
        self, query: Query, k: int, algorithm: str, scored: bool
    ) -> DiverseResult:
        """Coordinator-driven scan: needs every shard, so fail fast.

        An open circuit means a shard is presumed down — refuse before
        burning the deadline.  Transient faults retry the *failed read*
        (idempotent, so the answer stays bit-identical to the unsharded
        scan — see :class:`_RetryingReads`); crashes surface immediately
        as :class:`ShardUnavailableError` naming the dead shard.
        """
        open_shards = self._health.open_shards()
        if open_shards:
            raise ShardUnavailableError(
                {shard: "circuit open" for shard in open_shards}, self.num_shards
            )
        with span("shard.scan", registry=self._registry, algorithm=algorithm,
                  k=k, shards=self.num_shards):
            reader = _RetryingReads(self, self._deadline())
            deweys, scores, stats = run_algorithm(
                reader, query, k, algorithm, scored
            )
        # A completed scan heard back from the whole deployment: credit the
        # breakers so a recovered shard's circuit can close again.
        for shard in range(self.num_shards):
            self._health.record_success(shard)
        result = self._package(deweys, scores, stats, k, algorithm, scored)
        result.stats.update(
            degraded=False,
            shards_failed=0,
            shards_total=self.num_shards,
            replicas=self._index.replication_factor,
            retries=reader.retries,
            deadline_ms=self._policy.deadline_ms or 0,
        )
        return result

    # ------------------------------------------------------------------
    # Scatter-gather with degradation
    # ------------------------------------------------------------------
    def _run_shard_task(
        self, shard_id: int, shard, task, deadline: Deadline
    ) -> ShardOutcome:
        """Run ``task(shard)`` under the policy; never raises.

        Breaker-gated admission, bounded retries with jittered backoff on
        transient faults, deadline checks between attempts.  The outcome
        carries either the value or a machine-readable failure reason the
        gather step turns into degradation stats.
        """
        policy = self._policy
        health = self._health
        if not health.allow(shard_id):
            health.record_skip(shard_id)
            return ShardOutcome(shard_id, reason="circuit open")
        attempts = 0
        while True:
            if deadline.expired():
                health.record_deadline_drop(shard_id)
                return ShardOutcome(shard_id, reason="deadline", retries=attempts)
            health.record_admitted(shard_id)
            try:
                with deadline_scope(deadline):
                    value = task(shard)
            except TransientShardError:
                health.record_transient(shard_id)
                if attempts >= policy.max_retries:
                    return ShardOutcome(
                        shard_id, reason="retries exhausted", retries=attempts
                    )
                attempts += 1
                health.record_retry(shard_id)
                self._count_retry("gather")
                delay_s = policy.backoff_ms(attempts, self._retry_rng) / 1000.0
                delay_s = min(delay_s, deadline.remaining_ms() / 1000.0)
                if delay_s > 0.0:
                    self._sleep(delay_s)
            except ShardCrashedError:
                health.record_hard(shard_id)
                return ShardOutcome(shard_id, reason="crashed", retries=attempts)
            except ResilienceError:
                health.record_hard(shard_id)
                return ShardOutcome(shard_id, reason="error", retries=attempts)
            else:
                health.record_success(shard_id)
                return ShardOutcome(
                    shard_id, value=value, ok=True, retries=attempts
                )

    def _scatter(self, task) -> List[ShardOutcome]:
        """Fan ``task(shard)`` out to every shard under the policy.

        Returns one outcome per shard (shard order).  Raises only on total
        loss: :class:`DeadlineExceededError` when the deadline killed every
        shard, :class:`ShardUnavailableError` when no shard survived for
        any other mix of reasons.
        """
        with span("shard.scatter", registry=self._registry,
                  shards=self.num_shards, workers=self._workers):
            return self._scatter_inner(task)

    def _scatter_inner(self, task) -> List[ShardOutcome]:
        deadline = self._deadline()
        shards = self._index.shards
        if self._workers > 1 and len(shards) > 1:
            pool = self._ensure_pool()
            futures = {
                pool.submit(self._run_shard_task, shard_id, shard, task, deadline):
                    shard_id
                for shard_id, shard in enumerate(shards)
            }
            try:
                timeout = deadline.remaining_ms() / 1000.0
                done, not_done = wait(
                    futures, timeout=None if timeout == float("inf") else timeout
                )
            except BaseException:
                # The fan-out itself failed (not a shard): cancel what has
                # not started and surface the error with the pool clean —
                # never leak futures into a pool we may close right after.
                for future in futures:
                    future.cancel()
                raise
            outcomes: Dict[int, ShardOutcome] = {}
            for future in done:
                shard_id = futures[future]
                error = future.exception()
                if error is not None:
                    # The runner is supposed to be total; treat a leak as a
                    # hard shard failure rather than poisoning the pool.
                    self._health.record_hard(shard_id)
                    outcomes[shard_id] = ShardOutcome(shard_id, reason="error")
                else:
                    outcomes[shard_id] = future.result()
            for future in not_done:
                # Past deadline: cancel what never started, abandon (drain
                # into the persistent pool) what is mid-flight.
                shard_id = futures[future]
                future.cancel()
                self._health.record_deadline_drop(shard_id)
                outcomes[shard_id] = ShardOutcome(shard_id, reason="deadline")
            ordered = [outcomes[shard_id] for shard_id in sorted(outcomes)]
        else:
            ordered = [
                self._run_shard_task(shard_id, shard, task, deadline)
                for shard_id, shard in enumerate(shards)
            ]
        if not any(outcome.ok for outcome in ordered):
            if all(outcome.reason == "deadline" for outcome in ordered):
                raise DeadlineExceededError(
                    self._policy.deadline_ms or 0.0, deadline.elapsed_ms()
                )
            raise ShardUnavailableError(
                {outcome.shard_id: outcome.reason for outcome in ordered},
                self.num_shards,
            )
        return ordered

    def _execute_gather_naive(
        self, query: Query, k: int, scored: bool
    ) -> DiverseResult:
        """Per-shard canonical diverse top-k, then Definitions 1-2 re-merge."""

        def local_topk(shard):
            merged = MergedList(query, shard)
            if scored:
                matches = baselines.collect_all_scored(merged)
                chosen = scored_diverse_subset(matches, k)
                local: Union[Dict[DeweyId, float], List[DeweyId]] = {
                    dewey: matches[dewey] for dewey in chosen
                }
            else:
                local = diverse_subset(baselines.collect_all(merged), k)
            return local, merged.next_calls, merged.scored_next_calls

        outcomes = self._scatter(local_topk)
        gathered = [outcome.value for outcome in outcomes if outcome.ok]
        candidates = [local for local, _, _ in gathered]
        stats = self._gather_stats(gathered, candidates)
        stats.update(self._resilience_stats(outcomes))
        if scored:
            scores = scored_diverse_merge(candidates, k)
            deweys = sorted(scores)
        else:
            scores = None
            deweys = diverse_merge(candidates, k)
        return self._package(deweys, scores, stats, k, "naive", scored)

    def _execute_gather_basic(self, query: Query, k: int) -> DiverseResult:
        """Per-shard first-k, merged to the global document-order first-k."""

        def local_firstk(shard):
            merged = MergedList(query, shard)
            local = baselines.basic_unscored(merged, k)
            return local, merged.next_calls, merged.scored_next_calls

        outcomes = self._scatter(local_firstk)
        gathered = [outcome.value for outcome in outcomes if outcome.ok]
        candidates = [local for local, _, _ in gathered]
        stats = self._gather_stats(gathered, candidates)
        stats.update(self._resilience_stats(outcomes))
        deweys = merge_first_k(candidates, k)
        return self._package(deweys, None, stats, k, "basic", False)

    def _gather_stats(self, gathered, candidates) -> Dict[str, int]:
        return {
            "next_calls": sum(calls for _, calls, _ in gathered),
            "scored_next_calls": sum(calls for _, _, calls in gathered),
            "shards_queried": len(gathered),
            "merge_candidates": sum(len(local) for local in candidates),
        }

    def _resilience_stats(self, outcomes: Sequence[ShardOutcome]) -> Dict[str, int]:
        """Per-query resilience stats for ``result.stats``.

        These count the *execute* fan-out only — one entry per shard per
        query, so a shard that also faulted during plan preparation is not
        double-counted here (prepare-phase faults show up in
        :attr:`health` and the ``repro_retries_total{phase="prepare"}`` /
        ``repro_plan_degraded_total`` metrics instead).
        """
        failed = [outcome for outcome in outcomes if not outcome.ok]
        if failed:
            registry = self._metrics()
            registry.counter(
                "repro_degraded_queries_total",
                "Scatter-gather queries answered from surviving shards only",
            ).inc()
            for outcome in failed:
                registry.counter(
                    "repro_shards_failed_total",
                    "Per-query shard losses in the execute fan-out, by reason",
                    reason=outcome.reason,
                ).inc()
        return {
            "degraded": bool(failed),
            "shards_failed": len(failed),
            "shards_total": self.num_shards,
            "replicas": self._index.replication_factor,
            "retries": sum(outcome.retries for outcome in outcomes),
            "deadline_ms": self._policy.deadline_ms or 0,
        }
