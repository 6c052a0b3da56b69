"""Multi-query batch serving with cross-query CMM reuse.

A serving deployment answers *streams* of queries against one outsourced
graph, and most of the SP-side work is re-derivable: Alg. 1's enumeration
depends only on the query's *label view* (the ordered ``V_Q`` labels,
``d_Q`` and the semantics -- exactly the plaintext fields of the encrypted
query message), never on the encrypted edges.  Two queries with the same
:func:`~repro.core.enumeration.enumeration_signature` induce identical
mask streams on every ball.

:class:`QueryBatchEngine` exploits that by putting a :class:`CMMCache` in
front of evaluation: on first contact with a ``(ball, signature)`` pair
the ball's mask stream is recorded once
(:func:`~repro.core.enumeration.prepare_ball`), and every later query of
the same signature group hands the recorded
:class:`~repro.core.enumeration.PreparedBall` to the worker instead of
the ball (a cache hit).  Evaluation itself is ``Prilo.run``'s: one kernel
and one verifier read the recorded stream, wherever it was recorded, so
batch results are *value-identical* to independent ``run`` calls by
construction (``tests/test_server.py`` compares them field by field).

Obliviousness: the cache key and everything inside a prepared ball are
functions of the ball's plaintext adjacency (SP-owned) and the public
label view.  No ciphertext value, verdict, or pruning outcome ever flows
into cache state, and per query the SP still performs one verification
pass per scheduled ball.  See DESIGN.md ("Evaluation").
"""

from __future__ import annotations

import logging
import signal
import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter

from repro.cache import LRU
from repro.core.enumeration import (
    PreparedBall,
    enumeration_signature,
    prepare_ball,
)
from repro.crypto.ops import OpCounter
from repro.framework.metrics import CacheStats, JournalCounters, RunMetrics
from repro.framework.wire import canonical_answer_of_result
from repro.framework.prilo import (
    BallBudgetExceeded,
    DeadlineExceeded,
    Prilo,
    QueryResult,
)
from repro.graph.ball import Ball, BallIndex
from repro.graph.delta import GraphDelta
from repro.graph.query import Query, QueryLabelView
from repro.observability.spans import ROLE_SP
from repro.storage.journal import (
    JournalError,
    RecordType,
    RunJournal,
    answer_digest,
    config_fingerprint,
    query_idempotency_key,
)
from repro.storage.store import graph_digest, plan_delta

logger = logging.getLogger(__name__)

#: Default CMM cache capacity, in stored ints (``PreparedBall.weight``:
#: one per distinct mask and one per count).  512k ints is tens of MB of
#: tuple data -- far above any tier-1 workload, so eviction only engages
#: on serving workloads with genuinely large working sets.
DEFAULT_CMM_CACHE_WEIGHT = 512_000


class CMMCache(LRU[PreparedBall]):
    """Bounded LRU cache of :class:`PreparedBall` keyed by
    ``(ball_id, enumeration signature)``.

    The size bound is expressed in stored ints (``PreparedBall.weight``:
    the entry's distinct masks plus their counts) rather than entry
    count, so one giant ball cannot silently dominate memory; a ball
    whose CMMs collapse onto few masks weighs the masks it keeps.  Eviction
    is :class:`~repro.cache.LRU`'s: least recently used first, never the
    entry being inserted, counted in its :class:`CacheStats` -- the
    schema every bounded cache reports through.
    """

    def __init__(self, max_weight: int = DEFAULT_CMM_CACHE_WEIGHT,
                 stats: CacheStats | None = None) -> None:
        super().__init__(max_weight, weigh=attrgetter("weight"),
                         stats=stats)
        #: Wall-clock seconds spent building entries, per ball id, for the
        #: most recent ``prepare`` call (0.0 on hits).  Read by the engine
        #: to account enumeration cost into per-ball evaluation cost.
        self.last_build_seconds = 0.0

    def prepare(self, view: QueryLabelView, ball: Ball, *,
                enumeration_limit: int,
                cmm_bound_bypass: int) -> PreparedBall:
        """Return the ball's prepared form, enumerating on first contact."""
        signature = enumeration_signature(
            view, enumeration_limit=enumeration_limit,
            cmm_bound_bypass=cmm_bound_bypass)
        key = (ball.ball_id, signature)
        entry = self.get(key)
        if entry is not None:
            self.last_build_seconds = 0.0
            return entry
        started = time.perf_counter()
        entry = prepare_ball(view, ball,
                             enumeration_limit=enumeration_limit,
                             cmm_bound_bypass=cmm_bound_bypass)
        self.last_build_seconds = time.perf_counter() - started
        self.put(key, entry)
        return entry

    def invalidate_balls(self, ball_ids) -> int:
        """Drop every cached prepared form of the given balls (all
        signatures).  Called after a delta: a dirty ball's adjacency
        changed, so its enumerations -- cached under *every* signature --
        describe a ball that no longer exists.  Returns the number of
        entries dropped (counted as evictions)."""
        targets = set(ball_ids)
        dropped = [key for key in self if key[0] in targets]
        for key in dropped:
            self.pop(key)
        return len(dropped)


class QueryStatus:
    """Admission-control vocabulary for one submitted query."""

    #: Ran to completion (possibly replayed from the journal).
    OK = "ok"
    #: Shed at admission: the batch exceeded the queue bound.
    REJECTED_OVERLOAD = "rejected(overload)"
    #: Shed pre-evaluation: candidate balls exceeded ``config.ball_budget``.
    REJECTED_BALL_BUDGET = "rejected(ball_budget)"
    #: Aborted mid-run by the per-query wall-clock deadline.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: Never started: a graceful drain (SIGTERM/SIGINT) was requested.
    DRAINED = "drained"
    #: Gateway-side verdict: every covering slice either failed its
    #: result certificate or had no honest shard left to serve it, so
    #: the (possibly forged) answer was withheld from the user.
    FORGED = "forged(result)"


@dataclass
class QueryOutcome:
    """What happened to one submitted query -- one entry per submission,
    in submission order, whatever its fate.  ``result`` is None for every
    non-``OK`` status; ``metrics`` carries the partial run state of a
    deadline-exceeded query (phases completed before the abort, fault and
    journal counters) so callers observe *where* the budget ran out."""

    index: int
    status: str
    result: QueryResult | None = None
    latency_seconds: float = 0.0
    detail: str = ""
    metrics: RunMetrics | None = None
    #: Journal idempotency key ("" when the batch is not journaled).
    query_key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == QueryStatus.OK


@dataclass
class AdmissionStats:
    """Admission-control counters of one ``serve`` call."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    shed_overload: int = 0
    shed_ball_budget: int = 0
    deadline_exceeded: int = 0
    drained: int = 0
    #: Queries whose committed answer was replayed and cross-checked
    #: against the journal instead of recomputed from scratch.
    replayed_commits: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed_overload": self.shed_overload,
            "shed_ball_budget": self.shed_ball_budget,
            "deadline_exceeded": self.deadline_exceeded,
            "drained": self.drained,
            "replayed_commits": self.replayed_commits,
        }

    def summary_line(self) -> str:
        return (f"submitted={self.submitted} admitted={self.admitted} "
                f"completed={self.completed} "
                f"shed={self.shed_overload + self.shed_ball_budget} "
                f"deadline={self.deadline_exceeded} drained={self.drained}")


@dataclass
class BatchReport:
    """What one ``serve`` call did, for benchmarks and the CLI."""

    results: list[QueryResult]
    #: Per-query end-to-end latency, in submission order.
    latencies: list[float]
    #: Wall-clock of the whole batch.
    makespan: float
    #: Signature -> indices of the queries sharing it (submission order).
    signature_groups: dict[tuple, list[int]] = field(default_factory=dict)
    #: CMM cache counters accumulated over this batch.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: One entry per *submitted* query (``results`` holds completed runs
    #: only; shed/drained/deadline queries appear here, not there).
    outcomes: list[QueryOutcome] = field(default_factory=list)
    #: Admission-control counters for the batch.
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    #: Journal counters merged across every run of the batch.
    journal: JournalCounters = field(default_factory=JournalCounters)

    @property
    def distinct_signatures(self) -> int:
        return len(self.signature_groups)

    def summary(self) -> dict:
        report = {
            "queries": len(self.results),
            "distinct_signatures": self.distinct_signatures,
            "makespan_seconds": self.makespan,
            "latency_seconds": list(self.latencies),
            "mean_latency_seconds": (sum(self.latencies) / len(self.latencies)
                                     if self.latencies else 0.0),
            "cmm_cache": self.cache_stats.as_dict(),
            "matches": [r.num_matches for r in self.results],
        }
        if self.outcomes:
            report["statuses"] = [o.status for o in self.outcomes]
            report["admission"] = self.admission.as_dict()
        if self.journal:
            report["journal"] = self.journal.as_dict()
        ops = OpCounter()
        for result in self.results:
            ops.merge(getattr(result.metrics, "ops", None))
        if ops:
            report["crypto_ops"] = ops.as_dict()
        return report


@dataclass
class StandingQuery:
    """One registered continuous query and its last known match set.

    ``matches`` is the canonical per-ball match map (ball id string ->
    sorted canonical match JSON) of :func:`canonical_answer` -- the
    merge-stable form the gateway already compares answers in.  After a
    delta, only the affected balls are re-evaluated and their slice of
    this map is replaced; the query *re-notifies* exactly when the merged
    map differs from the previous one.
    """

    name: str
    query: Query
    matches: dict[str, list[str]] = field(default_factory=dict)
    #: Times the match set changed (registration does not count).
    notifications: int = 0
    #: Delta-driven partial re-evaluations performed.
    evaluations: int = 0

    @property
    def num_matches(self) -> int:
        return sum(len(v) for v in self.matches.values())


@dataclass(frozen=True)
class StandingNotice:
    """What one delta did to one standing query."""

    name: str
    changed: bool
    num_matches: int

    def as_dict(self) -> dict:
        return {"name": self.name, "changed": self.changed,
                "num_matches": self.num_matches}


@dataclass
class DeltaApplication:
    """The outcome of one :meth:`QueryBatchEngine.apply_delta`."""

    #: Ball ids whose content changed (survivors re-encrypted).
    dirty_ball_ids: tuple[int, ...]
    added_ball_ids: tuple[int, ...]
    removed_ball_ids: tuple[int, ...]
    #: CMM cache entries dropped by the invalidation sweep.
    cache_invalidated: int
    #: The store-side report, or None for a no-store engine.
    store_report: object | None = None
    notices: list[StandingNotice] = field(default_factory=list)

    @property
    def notified(self) -> int:
        return sum(1 for n in self.notices if n.changed)

    def as_dict(self) -> dict:
        payload = {
            "dirty": len(self.dirty_ball_ids),
            "added": len(self.added_ball_ids),
            "removed": len(self.removed_ball_ids),
            "cache_invalidated": self.cache_invalidated,
            "standing": len(self.notices),
            "notified": self.notified,
            "notices": [n.as_dict() for n in self.notices],
        }
        if self.store_report is not None:
            payload["store"] = self.store_report.as_dict()
        return payload


class QueryBatchEngine:
    """Serves query batches over one :class:`Prilo` engine.

    Queries execute strictly in submission order -- ``prepare_query``
    consumes the user's CGBE randomness, so order preservation is what
    makes batch results bit-identical to the same queries run alone.
    Signature grouping is purely logical: it decides cache keys and the
    report's grouping, not execution order, and it never changes what the
    SP observes for any individual query.
    """

    def __init__(self, engine: Prilo,
                 cache: CMMCache | None = None,
                 journal: RunJournal | None = None,
                 queue_bound: int | None = None) -> None:
        if queue_bound is not None and (isinstance(queue_bound, bool)
                                        or queue_bound < 1):
            raise ValueError("queue_bound must be a positive int or None")
        self.engine = engine
        self.cache = cache if cache is not None else CMMCache()
        #: Optional :class:`repro.storage.RunJournal`.  When set, every
        #: batch admission, query begin/commit and executor-share result
        #: is checkpointed durably; a journal file left behind by a killed
        #: process is replayed at the next ``serve`` and only unjournaled
        #: work is re-evaluated.
        self.journal = journal
        #: Admission bound: queries past this many per batch (or per
        #: open :class:`QueryStream`, as a shard serves) are shed
        #: deterministically -- the earliest ``queue_bound`` run, the
        #: rest are rejected up front with ``REJECTED(overload)``.
        self.queue_bound = queue_bound
        self._drain = threading.Event()
        #: Registered standing queries, partially re-evaluated (dirty
        #: balls only) after every applied delta.
        self._standing: list[StandingQuery] = []

    def close(self) -> None:
        """Close the underlying engine (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "QueryBatchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- graceful drain -------------------------------------------------
    def request_drain(self) -> None:
        """Stop admitting new queries; the in-flight query finishes (its
        shares are already being checkpointed) and ``serve`` -- or any
        open :class:`QueryStream` -- marks the remaining ones
        ``drained``."""
        self._drain.set()

    def _on_drain_signal(self, signum: int, frame: object) -> None:
        logger.warning("received signal %d: draining batch (in-flight "
                       "query checkpoints, the rest are not admitted)",
                       signum)
        self.request_drain()

    def _install_drain_handlers(self) -> dict | None:
        """SIGTERM/SIGINT -> graceful drain, main thread only (signal
        handlers cannot be installed elsewhere); returns the previous
        handlers for restoration."""
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, self._on_drain_signal)
        return previous

    # -- journal hand-off -----------------------------------------------
    def fingerprint(self) -> str:
        """This engine's journal identity: every answer- or
        partition-shaping config field plus the graph digest."""
        return config_fingerprint(self.engine.config,
                                  graph_digest(self.engine.graph))

    def _load_journal_state(self):
        """Replay (and tail-truncate) the journal, refusing a fingerprint
        mismatch: a journal written under another config/graph would
        splice foreign ciphertexts into this engine's shares."""
        with self.engine.tracer.span("journal_replay", ROLE_SP) as span:
            state = self.journal.replay()
            span.set("records", state.records)
            span.set("tampered", state.tampered_records)
            span.set("truncated_bytes", state.truncated_bytes)
            span.set("queries", len(state.queries))
        fingerprint = self.fingerprint()
        if state.fingerprint and state.fingerprint != fingerprint:
            raise JournalError(
                f"journal {self.journal.path} was written by a different "
                f"engine configuration (fingerprint "
                f"{state.fingerprint[:12]}.. != {fingerprint[:12]}..); "
                f"refusing to resume")
        return state, fingerprint

    def serve(self, queries: list[Query]) -> BatchReport:
        """Answer every admitted query; results are value-identical to
        independent ``engine.run`` calls in the same order.

        With a journal attached this is also the resume entry point: call
        it again after a crash with the *same* submission list and every
        journaled share (and every committed query's answer) is replayed
        instead of recomputed.  Queries execute strictly in submission
        order -- ``prepare_query`` consumes the user's CGBE randomness,
        so order preservation is what makes a resumed run's messages
        bit-identical to the uninterrupted run's.

        A batch is a :class:`QueryStream` fed the whole list: the stream
        is the one admission path (queue bound, drain, journal, report).
        """
        previous_handlers = self._install_drain_handlers()
        try:
            stream = QueryStream(self, batch=len(queries))
            for query in queries:
                stream.serve_one(query)
        finally:
            if previous_handlers is not None:
                for signum, handler in previous_handlers.items():
                    signal.signal(signum, handler)
        return stream.report()

    # -- standing queries & dynamic updates -----------------------------
    @property
    def standing(self) -> tuple[StandingQuery, ...]:
        return tuple(self._standing)

    def register_standing(self, query: Query,
                          name: str | None = None) -> StandingQuery:
        """Register ``query`` for continuous evaluation across deltas.

        The query is evaluated once, in full, to seed the baseline match
        set; registration itself never counts as a notification.  After
        every :meth:`apply_delta` the query is re-evaluated against only
        the dirty/added balls and a notice is raised iff the merged match
        set actually changed."""
        if name is None:
            name = f"standing-{len(self._standing)}"
        result = self.engine.run(query, cmm_cache=self.cache)
        sq = StandingQuery(
            name=name, query=query,
            matches=dict(canonical_answer_of_result(result)["matches"]))
        self._standing.append(sq)
        return sq

    def apply_delta(self, delta: GraphDelta) -> DeltaApplication:
        """Apply a graph delta to the live engine and its artifacts.

        Store-backed engines delegate the artifact surgery to
        :meth:`repro.storage.ArtifactStore.apply_delta` (dirty-ball
        re-encryption, Merkle/catalog patching); in-memory engines mutate
        the graph and rebuild a ball index that keeps the surviving
        balls' ids stable.  Either way the CMM cache entries of every
        affected ball are invalidated and each standing query is
        re-evaluated over only the dirty/added balls.

        The emitted ``delta_apply`` trace span carries counts only
        (balls, dirty, reencrypted, standing, notified) -- never vertex
        names, labels or match content, per the leakage model.
        """
        engine = self.engine
        graph = engine.graph
        radii = tuple(sorted(set(engine.config.radii)))
        store_report = None
        if engine.store is not None:
            store_report = engine.store.apply_delta(delta, graph,
                                                    engine.owner.key)
            engine.refresh()
            dirty = store_report.dirty_ball_ids
            added = store_report.added_ball_ids
            removed = store_report.removed_ball_ids
        else:
            plan = plan_delta(delta, graph, radii, engine.index.id_map())
            dirty, added, removed = plan.dirty, plan.added, plan.removed
            engine.refresh(index=BallIndex(graph, radii, ids=plan.ids))
        affected = set(dirty) | set(added) | set(removed)
        invalidated = self.cache.invalidate_balls(affected)
        restrict = set(dirty) | set(added)
        notices = [self._renotify(sq, restrict, set(removed))
                   for sq in self._standing]
        application = DeltaApplication(
            dirty_ball_ids=dirty, added_ball_ids=added,
            removed_ball_ids=removed, cache_invalidated=invalidated,
            store_report=store_report, notices=notices)
        engine.tracer.event(
            "delta_apply", ROLE_SP,
            balls=len(engine.index.id_map()),
            dirty=len(dirty),
            reencrypted=(store_report.reencrypted
                         if store_report is not None else len(restrict)),
            standing=len(self._standing),
            notified=application.notified)
        return application

    def _renotify(self, sq: StandingQuery, restrict: set,
                  removed: set) -> StandingNotice:
        """Re-evaluate one standing query against only ``restrict`` balls
        and merge into its retained match set."""
        engine = self.engine
        fresh: dict[str, list[str]] = {}
        if restrict:
            previous = engine.ball_filter
            if previous is None:
                predicate = restrict.__contains__
            else:
                def predicate(ball_id, _keep=previous):
                    return ball_id in restrict and _keep(ball_id)
            engine.install_ball_filter(predicate)
            try:
                result = engine.run(sq.query, cmm_cache=self.cache)
            finally:
                engine.install_ball_filter(previous)
            fresh = canonical_answer_of_result(result)["matches"]
        stale_keys = {str(b) for b in restrict | removed}
        merged = {bid: match for bid, match in sq.matches.items()
                  if bid not in stale_keys}
        merged.update(fresh)
        merged = {bid: merged[bid] for bid in sorted(merged, key=int)}
        changed = merged != sq.matches
        sq.evaluations += 1
        if changed:
            sq.matches = merged
            sq.notifications += 1
        return StandingNotice(name=sq.name, changed=changed,
                              num_matches=sq.num_matches)


class QueryStream:
    """The one per-query admission path of a :class:`QueryBatchEngine`:
    queue bound, drain, journal, run, commit and counters.

    :meth:`QueryBatchEngine.serve` is a stream fed its whole list; a
    network shard receives queries one frame at a time and cannot know
    the batch in advance, so it keeps one stream open.  The journal state
    is loaded once at construction (so crash-resume works identically:
    re-submitting the same ``(query, index)`` pairs replays journaled
    shares/commits).

    ``batch`` is the batch size a ``serve`` call announces in its
    ``BATCH_ADMIT`` record and ``admission`` trace event; an open-ended
    stream (``None``) records a ``streaming`` admission instead.

    Indices are the caller's (the gateway assigns globally unique ones so
    per-shard journal idempotency keys line up across the fleet);
    ``serve_one`` defaults to submission order when the caller does not
    care.  Not thread-safe -- queries execute strictly in submission
    order.
    """

    def __init__(self, server: QueryBatchEngine,
                 batch: int | None = None) -> None:
        self._server = server
        self._state = None
        if server.journal is not None:
            self._state, fingerprint = server._load_journal_state()
        if batch is None:
            admit = {"submitted": 0, "admitted": 0, "streaming": True}
        else:
            bound = server.queue_bound
            admitted = batch if bound is None else min(batch, bound)
            server.engine.tracer.event("admission", ROLE_SP,
                                       submitted=batch, admitted=admitted,
                                       shed=batch - admitted)
            admit = {"submitted": batch, "admitted": admitted}
        if server.journal is not None:
            server.journal.append(RecordType.BATCH_ADMIT,
                                  {"fingerprint": fingerprint, **admit})
        self.groups: dict[tuple, list[int]] = {}
        self.results: list[QueryResult] = []
        self.latencies: list[float] = []
        self.outcomes: list[QueryOutcome] = []
        self.admission = AdmissionStats()
        self.journal_counters = JournalCounters()
        self._cache_before = server.cache.stats.snapshot()
        self._started = time.perf_counter()
        self._drain_journaled = False

    @property
    def engine(self) -> Prilo:
        return self._server.engine

    @property
    def drained(self) -> bool:
        """Whether the engine's drain flag (``request_drain`` or a
        SIGTERM/SIGINT during ``serve``) is set."""
        return self._server._drain.is_set()

    def request_drain(self) -> None:
        """Stop serving: every later admitted submission reports
        ``drained`` without touching the engine."""
        self._server.request_drain()
        self._journal_drain()

    def _journal_drain(self) -> None:
        """Journal the drain once, at the current submission count."""
        if self._drain_journaled:
            return
        self._drain_journaled = True
        if self._server.journal is not None:
            self._server.journal.append(
                RecordType.DRAIN, {"at_index": self.admission.submitted})

    def serve_one(self, query: Query, index: int | None = None,
                  ) -> QueryOutcome:
        """Admit, run and (when journaled) commit one query.

        Past the engine's ``queue_bound`` admitted queries a submission is
        shed as ``REJECTED(overload)`` up front -- it never waits, so
        overload can't stall the queries that were admitted; an admitted
        one after a drain request reports ``drained``."""
        if index is None:
            index = self.admission.submitted
        bound = self._server.queue_bound
        if bound is not None and self.admission.admitted >= bound:
            self.admission.shed_overload += 1
            outcome = QueryOutcome(index=index,
                                   status=QueryStatus.REJECTED_OVERLOAD,
                                   detail=f"queue bound {bound} exceeded")
        elif self.drained:
            self._journal_drain()
            self.admission.admitted += 1
            self.admission.drained += 1
            outcome = QueryOutcome(index=index, status=QueryStatus.DRAINED,
                                   detail="graceful drain requested")
        else:
            self.admission.admitted += 1
            outcome = self._run(index, query)
        self.admission.submitted += 1
        self.outcomes.append(outcome)
        return outcome

    def _run(self, index: int, query: Query) -> QueryOutcome:
        """Run and (when journaled) commit one admitted query."""
        server = self._server
        config = server.engine.config
        signature = enumeration_signature(
            query,
            enumeration_limit=config.enumeration_limit,
            cmm_bound_bypass=config.cmm_bound_bypass)
        self.groups.setdefault(signature, []).append(index)
        query_key = ""
        resume = None
        if server.journal is not None:
            query_key = query_idempotency_key(server.journal.key, query,
                                              index)
            resume = self._state.queries.get(query_key)
            server.journal.append(RecordType.QUERY_BEGIN,
                                  {"query": query_key, "index": index})
        started = time.perf_counter()
        try:
            result = server.engine.run(query, cmm_cache=server.cache,
                                       journal=server.journal,
                                       query_key=query_key, resume=resume)
        except BallBudgetExceeded as exc:
            self.admission.shed_ball_budget += 1
            logger.warning("query %d shed: %s", index, exc)
            return QueryOutcome(index=index,
                                status=QueryStatus.REJECTED_BALL_BUDGET,
                                latency_seconds=time.perf_counter() - started,
                                detail=str(exc), query_key=query_key)
        except DeadlineExceeded as exc:
            self.admission.deadline_exceeded += 1
            if exc.metrics is not None:
                self.journal_counters.merge(exc.metrics.journal)
            logger.warning("query %d aborted: %s", index, exc)
            return QueryOutcome(index=index,
                                status=QueryStatus.DEADLINE_EXCEEDED,
                                latency_seconds=time.perf_counter() - started,
                                detail=str(exc), metrics=exc.metrics,
                                query_key=query_key)
        latency = time.perf_counter() - started
        if server.journal is not None:
            self._commit(query_key, index, result, resume)
        self.journal_counters.merge(result.metrics.journal)
        self.admission.completed += 1
        self.results.append(result)
        self.latencies.append(latency)
        return QueryOutcome(index=index, status=QueryStatus.OK,
                            result=result, latency_seconds=latency,
                            metrics=result.metrics, query_key=query_key)

    def _commit(self, query_key: str, index: int, result: QueryResult,
                resume) -> None:
        """Durably commit one answer -- or, when the journal already holds
        a commit for this submission, cross-check it: a digest mismatch on
        a *committed* answer is an integrity violation, never a recovery
        (the journaled shares fed the recomputation, so only tampering or
        a foreign journal can get here)."""
        journal = self._server.journal
        digest = answer_digest(journal.key, result.verified_ids,
                               result.match_ball_ids, result.num_matches)
        if resume is not None and resume.committed:
            if resume.answer_digest != digest:
                raise JournalError(
                    f"journaled commit for query #{index} does not match "
                    f"the recomputed answer ({resume.answer_digest[:12]}.. "
                    f"!= {digest[:12]}..); journal integrity violated")
            self.admission.replayed_commits += 1
            self.engine.tracer.event("query_commit", ROLE_SP,
                                     index=index, replayed=True)
            return
        faults = result.metrics.faults
        journal.append(RecordType.QUERY_COMMIT,
                       {"query": query_key, "index": index,
                        "answer_digest": digest,
                        "faults": {"injected": faults.injected,
                                   "detected": faults.detected,
                                   "retries": faults.retries,
                                   "recovered": faults.recovered,
                                   "degraded": faults.degraded}})
        self.engine.tracer.event("query_commit", ROLE_SP,
                                 index=index, replayed=False)

    def report(self) -> BatchReport:
        """Everything served so far, in the batch report shape."""
        return BatchReport(
            results=list(self.results), latencies=list(self.latencies),
            makespan=time.perf_counter() - self._started,
            signature_groups=dict(self.groups),
            cache_stats=self._server.cache.stats.delta(self._cache_before),
            outcomes=list(self.outcomes), admission=self.admission,
            journal=self.journal_counters)


__all__ = [
    "DEFAULT_CMM_CACHE_WEIGHT",
    "AdmissionStats",
    "BatchReport",
    "CMMCache",
    "DeltaApplication",
    "QueryBatchEngine",
    "QueryOutcome",
    "QueryStatus",
    "QueryStream",
    "StandingNotice",
    "StandingQuery",
    "enumeration_signature",
]
