"""Scatter-gather serving gateway over consistent-hash ball shards.

The gateway is the front end of the sharded serving tier: it holds no
engine, no keys and no graph -- only the membership ring, one
connection to every shard, and the merge state of in-flight queries.
For each query it runs one task per live shard; each shard
self-restricts to its ring-owned slice of the ball space and returns a
*verdict* (its answer slice plus per-run counters).  Because per-ball
evaluation is independent -- Alg. 3 iterates balls with no cross-ball
state -- the union of slice answers is exactly the single-engine answer,
and :func:`repro.framework.wire.canonical_answer` makes the equality
checkable byte-for-byte.

Dispatch: a ``(query, shard)`` task is one coroutine holding one of the
shard's :data:`WINDOW` slots (an :class:`asyncio.Semaphore`, whose FIFO
waiters keep each shard's frames in routing order) while its frame is
on the shard's one connection.  A shard answers one query at a time
under its engine lock, so a second connection would overlap nothing.

Admission is the fleet's, not a shard's: with ``queue_bound=N`` the
first N submissions are routed and the rest are ``rejected(overload)``
without reaching any shard, so no shard evaluates a slice whose query
is shed elsewhere.

Failure model: a shard dying (SIGKILL, the chaos hook's weapon) fails
its in-flight tasks, and a task that gets its window on a dead or
evicted shard re-places itself.  Each failed task ``(members M)`` is
re-dispatched to every survivor as ``(members M', prev M)`` where ``M'``
is the *current* membership; consistent hashing guarantees the
survivors' ``owned(M') - owned(M)`` sets union to (a superset of) the
dead member's slice, and the union-based merge makes over-coverage
harmless -- a ball evaluated twice yields the identical verdict, and the
merge cross-checks instead of double-counting.  Re-dispatched tasks get
fresh journal indices (``qid + wave << 20``) so survivor journals never
see two different runs under one idempotency key.

Trust model: with an :class:`~repro.framework.verify.AnswerVerifier`
installed, shards are *untrusted* -- every OK verdict must carry a
certificate proving its slice complete (against the owner-committed
Merkle root + candidate catalog) and sound (keyed digests the SP cannot
mint) before the merge sees it.  A shard caught forging is evicted and
its task re-scattered to the honest survivors exactly like a death;
when no honest member can re-cover the slice, the query is marked
``FORGED`` and its answer withheld.  See
:mod:`repro.framework.verify`.

Metrics honesty: per-shard cache counters merge under shard-qualified
keys (:meth:`RunMetrics.record_shard_caches`) and crypto-op buckets
under ``role@shard<k>`` scopes (:meth:`OpCounter.merge_scoped`), so
fleet totals are exact sums and per-shard attribution survives the
merge -- summed exactly once, at the gateway, never shard-side.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import logging
import math
import random
import time
from dataclasses import dataclass, field, fields

from repro.crypto.ops import OpCounter, OpCounts
from repro.framework import wire
from repro.framework.faults import FaultAction, FaultKind
from repro.framework.metrics import CacheStats, JournalCounters, RunMetrics
from repro.framework.server import QueryStatus
from repro.framework.verify import VerificationError, slice_problems
from repro.graph.query import Query
from repro.observability.spans import NULL_TRACER, ROLE_SP

logger = logging.getLogger(__name__)

#: Query frames in flight on one shard's connection.
WINDOW = 4
#: Re-dispatch waves shift the journal index by this many bits, keeping
#: replacement runs disjoint from epoch-0 commits in survivor journals.
_WAVE_SHIFT = 20

#: Status severity for the cross-shard fold (worst wins).  The lattice
#: mirrors the CLI exit-code fold: a query is only ``ok`` when every
#: covering slice completed.
_SEVERITY = {
    QueryStatus.OK: 0,
    QueryStatus.DRAINED: 1,
    QueryStatus.REJECTED_OVERLOAD: 2,
    QueryStatus.REJECTED_BALL_BUDGET: 3,
    QueryStatus.DEADLINE_EXCEEDED: 4,
    QueryStatus.FORGED: 5,
}
#: What a shard may report; ``FORGED`` is the gateway's own verdict.
_SHARD_STATUSES = frozenset(_SEVERITY) - {QueryStatus.FORGED}


def _counts(payload, names: tuple[str, ...]) -> bool:
    """A dict whose ``names`` that are present are non-negative ints."""
    return isinstance(payload, dict) and all(
        type(payload.get(name, 0)) is int and payload.get(name, 0) >= 0
        for name in names)


def _named_counts(payload, names: tuple[str, ...]) -> bool:
    """A dict of string keys to :func:`_counts` payloads."""
    return isinstance(payload, dict) and all(
        isinstance(key, str) and _counts(value, names)
        for key, value in payload.items())


_CACHE_FIELDS = tuple(f.name for f in fields(CacheStats))
_OPS_FIELDS = tuple(f.name for f in fields(OpCounts))
_JOURNAL_FIELDS = tuple(f.name for f in fields(JournalCounters))


def check_verdict_shape(verdict: dict) -> None:
    """The one shape check every shard verdict passes before the merge
    reads it, with or without a verifier: a status a shard may report, a
    finite non-negative ``busy``, counter payloads of non-negative ints
    (``caches``, ``ops``, ``journal``), and -- on an OK verdict carrying
    a slice -- the slice shape the verifier also checks.  Anything else
    raises :class:`VerificationError` (``FORGE_RESULT``): the shard is
    treated as a forger, never allowed to crash the merge."""
    status = verdict.get("status", QueryStatus.OK)
    busy = verdict.get("busy", 0.0)
    problems = [name for name, ok in (
        ("status", isinstance(status, str) and status in _SHARD_STATUSES),
        ("busy", type(busy) in (int, float) and math.isfinite(busy)
         and busy >= 0),
        ("caches", _named_counts(verdict.get("caches", {}), _CACHE_FIELDS)),
        ("ops", _named_counts(verdict.get("ops", {}), _OPS_FIELDS)),
        ("journal", _counts(verdict.get("journal", {}), _JOURNAL_FIELDS)),
    ) if not ok]
    if status == QueryStatus.OK and "candidates" in verdict:
        problems += slice_problems(verdict)
    if problems:
        raise VerificationError(
            FaultKind.FORGE_RESULT,
            f"malformed verdict: {', '.join(problems)} of the wrong shape")


class GatewayError(RuntimeError):
    """Unrecoverable gateway state (no shards left, divergent answers,
    a shard-side evaluation error)."""


class ShardDied(GatewayError):
    """The peer went away mid-conversation (EOF, reset, write failure)."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"shard {shard_id} died")
        self.shard_id = shard_id


@dataclass
class GatewayChaos:
    """Deterministic failure injection: SIGKILL one shard mid-batch.

    Either name the victim outright (``kill_shard``) or derive it from
    ``seed`` -- same seed, same membership, same victim, so a chaos run
    is as reproducible as a clean one.  The kill fires after the victim
    delivers its ``kill_after_verdicts``-th verdict, guaranteeing the
    death lands mid-batch (some work done, some stranded) rather than
    degenerating into an N-1-shard run.
    """

    kill_shard: int | None = None
    kill_after_verdicts: int = 1
    seed: int | None = None

    def resolve(self, members: tuple[int, ...]) -> tuple[int, int] | None:
        after = max(1, int(self.kill_after_verdicts))
        if self.kill_shard is not None:
            if self.kill_shard not in members:
                raise GatewayError(
                    f"chaos victim {self.kill_shard} is not a member "
                    f"of {list(members)}")
            return self.kill_shard, after
        if self.seed is None:
            return None
        return random.Random(self.seed).choice(list(members)), after


class ShardClient:
    """One connection + request/response matching for one shard.

    Requests tag a monotonically increasing ``rid``; the shard echoes it
    and a reader task resolves the matching future, so several requests
    ride the connection at once.  Death is detected at the socket
    (EOF/reset on read, failure on write), fails every pending future
    with :class:`ShardDied`, and fires ``on_death`` exactly once.
    """

    def __init__(self, shard_id: int, host: str, port: int) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.hello: dict | None = None
        self.dead = False
        self.on_death = None
        self._closing = False
        self._rids = itertools.count()
        self._writer: asyncio.StreamWriter | None = None
        self._reader: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}

    async def connect(self) -> None:
        reader, self._writer = await asyncio.open_connection(self.host,
                                                             self.port)
        hello = await wire.read_frame(reader)
        if hello is None or hello.get("t") != "hello":
            raise GatewayError(
                f"shard {self.shard_id} at {self.host}:{self.port} "
                f"did not say hello (got {hello!r})")
        self.hello = hello
        self._reader = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    break
                future = self._pending.pop(frame.get("rid"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (wire.WireError, ConnectionError, OSError):
            pass
        finally:  # on *any* exit: a reader that is gone resolves nothing
            self._mark_dead()

    def _mark_dead(self) -> None:
        if self.dead or self._closing:
            return
        self.dead = True
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(ShardDied(self.shard_id))
        # Close the socket *now*: a dead client's half-open writer must
        # not linger until close().
        if self._reader is not None and not self._reader.done():
            self._reader.cancel()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self.on_death is not None:
            self.on_death(self.shard_id)

    async def request(self, payload: dict) -> dict:
        """Send one frame and await the matching reply."""
        if self.dead:
            raise ShardDied(self.shard_id)
        rid = next(self._rids)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            await wire.write_frame(self._writer, {**payload, "rid": rid})
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            self._mark_dead()
            raise ShardDied(self.shard_id) from exc
        return await future

    async def close(self) -> None:
        self._closing = True
        if self._reader is not None:
            self._reader.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._writer = None


@dataclass
class _QueryState:
    """Merge state of one query across its covering tasks."""

    statuses: list[str] = field(default_factory=list)
    details: list[str] = field(default_factory=list)
    candidates: set[int] = field(default_factory=set)
    pm_positive: set[int] = field(default_factory=set)
    verified: set[int] = field(default_factory=set)
    matches: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class GatewayOutcome:
    """The merged fate of one submitted query."""

    index: int
    status: str
    answer: dict | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == QueryStatus.OK


@dataclass
class GatewayReport:
    """What one gateway batch did, across the fleet."""

    outcomes: list[GatewayOutcome]
    makespan: float
    #: Exact-once merged fleet counters: caches under ``name@shard<k>``
    #: keys, crypto ops under ``role@shard<k>`` buckets, journal summed.
    metrics: RunMetrics
    #: Engine-busy CPU seconds per shard (per-query ``process_time`` the
    #: shard reported, summed over its verdicts -- re-placed work
    #: included; scheduler wait on oversubscribed hosts excluded).
    per_shard_busy: dict[int, float] = field(default_factory=dict)
    shards: int = 0
    deaths: list[int] = field(default_factory=list)
    re_dispatches: int = 0
    final_members: tuple[int, ...] = ()
    drain_summaries: dict[int, dict] = field(default_factory=dict)
    #: Untrusted-shard serving: whether a verifier judged every OK
    #: verdict, how many certificates checked out, how many forged
    #: verdicts were caught (and their shards evicted), and what the
    #: proofs cost (bytes on the wire, seconds at the merge).
    verify_enabled: bool = False
    proofs_checked: int = 0
    forgeries_detected: int = 0
    evictions: list[int] = field(default_factory=list)
    proof_bytes: int = 0
    verify_seconds: float = 0.0

    @property
    def answers(self) -> list[dict | None]:
        return [outcome.answer for outcome in self.outcomes]

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def critical_path_seconds(self) -> float:
        """The busiest shard's engine seconds: the simulated-cluster
        makespan on hardware with one core per shard.  On a single-core
        host the shard processes timeshare one CPU, so wall-clock
        measures the scheduler, not the architecture; this is the same
        convention as the replay-speedup benchmarks."""
        return max(self.per_shard_busy.values(), default=0.0)

    @property
    def busy_seconds(self) -> float:
        return sum(self.per_shard_busy.values())

    @property
    def forged(self) -> int:
        """Queries whose answer was withheld as unrecoverably forged."""
        return sum(1 for outcome in self.outcomes
                   if outcome.status == QueryStatus.FORGED)

    @property
    def answers_digest(self) -> str:
        """One hex digest over every canonical answer in query order --
        what two runs (chaos vs. clean, sharded vs. plain) must agree on
        for their answers to be byte-identical."""
        hasher = hashlib.sha256()
        for answer in self.answers:
            hasher.update(b"\x00" if answer is None
                          else wire.answer_bytes(answer))
            hasher.update(b"\x1e")
        return hasher.hexdigest()

    def summary(self) -> dict:
        return {
            "queries": len(self.outcomes),
            "completed": self.completed,
            "answers_digest": self.answers_digest,
            "statuses": [outcome.status for outcome in self.outcomes],
            "makespan_seconds": self.makespan,
            "busy_seconds": self.busy_seconds,
            "critical_path_seconds": self.critical_path_seconds,
            "per_shard_busy_seconds": {str(k): v for k, v
                                       in sorted(self.per_shard_busy.items())},
            "shards": self.shards,
            "deaths": list(self.deaths),
            "re_dispatches": self.re_dispatches,
            "final_members": list(self.final_members),
            "caches": {name: stats.as_dict() for name, stats
                       in sorted(self.metrics.cache_totals().items())},
            "journal": self.metrics.journal.as_dict(),
            "crypto_ops": self.metrics.ops.as_dict(),
            "verify": {
                "enabled": self.verify_enabled,
                "proofs_checked": self.proofs_checked,
                "forgeries_detected": self.forgeries_detected,
                "evictions": list(self.evictions),
                "forged_answers": self.forged,
                "proof_bytes": self.proof_bytes,
                "verify_seconds": self.verify_seconds,
            },
        }


class Gateway:
    """Fan queries out over shard handles; merge verdicts deterministically.

    ``handles`` expose ``shard_id``/``host``/``port`` (and, for local
    clusters, ``kill()`` used by the chaos hook) -- see
    :class:`repro.framework.shard.ShardHandle`.  One :meth:`serve` call
    is one batch; the gateway admits the first ``queue_bound``
    submissions, groups them by enumeration signature (cache-affine
    dispatch order, like the batch engine), routes every admitted query
    to every live shard, and merges each query's verdicts as they land
    -- no cross-query barrier, so one slow signature group never stalls
    the fleet.
    """

    def __init__(self, handles, *,
                 chaos: GatewayChaos | None = None,
                 verifier=None,
                 queue_bound: int | None = None,
                 tracer=None) -> None:
        handles = sorted(handles, key=lambda h: h.shard_id)
        ids = [h.shard_id for h in handles]
        if not handles:
            raise GatewayError("a gateway needs at least one shard")
        if len(set(ids)) != len(ids):
            raise GatewayError(f"duplicate shard ids: {ids}")
        if queue_bound is not None and (isinstance(queue_bound, bool)
                                        or queue_bound < 1):
            raise ValueError("queue_bound must be a positive int or None")
        self.handles = {h.shard_id: h for h in handles}
        self.chaos = chaos
        #: An :class:`repro.framework.verify.AnswerVerifier` makes this
        #: an *untrusted-shard* gateway: every OK verdict must carry a
        #: certificate that checks out before its slice touches the
        #: merge.  ``None`` keeps the PR 7 trusted-shard behavior.
        self.verifier = verifier
        #: Admit the first N submissions of a batch; the rest are
        #: ``rejected(overload)`` and never reach a shard.
        self.queue_bound = queue_bound
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- public entry points -------------------------------------------
    def run(self, queries: list[Query]) -> GatewayReport:
        return asyncio.run(self.serve(queries))

    async def serve(self, queries: list[Query]) -> GatewayReport:
        started = time.perf_counter()
        self._queries = list(queries)
        self._members: tuple[int, ...] = tuple(sorted(self.handles))
        self._initial_shards = len(self._members)
        self._dead: set[int] = set()
        self._deaths: list[int] = []
        self._evicted: list[int] = []
        self._forgeries = 0
        self._proofs_checked = 0
        self._proof_bytes = 0
        self._verify_seconds = 0.0
        self._wave = 0
        self._re_dispatches = 0
        self._states = [_QueryState() for _ in self._queries]
        self._busy: dict[int, float] = {sid: 0.0 for sid in self._members}
        self._metrics = RunMetrics()
        self._windows = {sid: asyncio.Semaphore(WINDOW)
                         for sid in self._members}
        self._tasks: set[asyncio.Task] = set()
        self._chaos_plan = (self.chaos.resolve(self._members)
                            if self.chaos else None)
        self._chaos_verdicts = 0
        self._chaos_fired = False
        drain_summaries: dict[int, dict] = {}

        self._clients = {sid: ShardClient(sid, handle.host, handle.port)
                         for sid, handle in self.handles.items()}
        try:
            with self.tracer.span("gateway.serve", "sp",
                                  shards=self._initial_shards,
                                  queries=len(self._queries),
                                  window=WINDOW):
                for client in self._clients.values():
                    client.on_death = self._on_death
                    await client.connect()
                    pong = await client.request({"t": "ping"})
                    if pong.get("t") != "pong":
                        raise GatewayError(
                            f"shard {client.shard_id} failed its health "
                            f"check: {pong!r}")
                self._route()
                await self._supervise()
                drain_summaries = await self._drain()
        finally:
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            for client in self._clients.values():
                client.on_death = None
                await client.close()

        return self._build_report(started, drain_summaries)

    # -- admission, routing & supervision -------------------------------
    def _route(self) -> None:
        """Admit the first ``queue_bound`` submissions, then start one
        task per (admitted query, member), grouped by enumeration
        signature so shard-side CMM caches see signature-affine order."""
        submitted = len(self._queries)
        bound = self.queue_bound
        admitted = submitted if bound is None else min(submitted, bound)
        self.tracer.event("admission", ROLE_SP, submitted=submitted,
                          admitted=admitted, shed=submitted - admitted)
        for state in self._states[admitted:]:
            state.statuses.append(QueryStatus.REJECTED_OVERLOAD)
            state.details.append(f"queue bound {bound} exceeded")
        groups: dict[tuple, list[int]] = {}
        for qid, query in enumerate(self._queries[:admitted]):
            # The bound-free prefix of the engine's enumeration_signature
            # (the gateway does not know shard enumeration bounds, and
            # routing only needs stable affinity, not exact cache keys).
            signature = (tuple(query.label(u) for u in query.vertex_order),
                         query.diameter, query.semantics)
            groups.setdefault(signature, []).append(qid)
        self._wire_queries = [wire.query_to_jsonable(q)
                              for q in self._queries[:admitted]]
        for indices in groups.values():
            for qid in indices:
                for sid in self._members:
                    self._spawn(sid, {"qid": qid, "jindex": qid,
                                      "members": self._members,
                                      "prev_members": None})

    def _spawn(self, sid: int, task: dict) -> None:
        self._tasks.add(asyncio.create_task(
            self._dispatch(sid, task),
            name=f"gateway-q{task['qid']}-shard{sid}"))

    async def _supervise(self) -> None:
        """Wait for every task, re-placements spawned on the way
        included; the first task to raise fails the batch."""
        while self._tasks:
            finished, _ = await asyncio.wait(
                set(self._tasks), return_when=asyncio.FIRST_EXCEPTION)
            self._tasks -= finished
            errors = [task.exception() for task in finished
                      if task.exception() is not None]
            if errors:
                raise errors[0]

    async def _dispatch(self, sid: int, task: dict) -> None:
        """One (query, shard) task: take a window slot on the shard,
        send the frame, judge and merge the verdict.  A task whose shard
        died or was evicted before it got a slot re-places itself."""
        async with self._windows[sid]:
            if sid in self._dead:
                self._reassign(task)
                return
            payload = {
                "t": "query", "qid": task["qid"], "jindex": task["jindex"],
                "query": self._wire_queries[task["qid"]],
                "members": list(task["members"]),
            }
            if task["prev_members"] is not None:
                payload["prev_members"] = list(task["prev_members"])
            try:
                verdict = await self._clients[sid].request(payload)
            except ShardDied:
                self._on_death(sid)
                self._reassign(task)
                return
            if verdict.get("t") == "error":
                raise GatewayError(
                    f"shard {sid} could not serve query {task['qid']}: "
                    f"{verdict.get('detail', '')}")
            if self._verify(sid, task, verdict):
                self._absorb(sid, task, verdict)
                self._maybe_fire_chaos(sid)

    # -- certificate verification (untrusted shards) --------------------
    def _verify(self, sid: int, task: dict, verdict: dict) -> bool:
        """Judge one verdict user-side before the merge sees it.

        Returns ``True`` when the slice may be absorbed.  Every verdict
        passes :func:`check_verdict_shape` first.  With a verifier, OK
        verdicts -- the only ones carrying answer slices -- must also
        carry a certificate that checks out; a shard claiming overload/
        deadline contributes no answer bytes and can at worst fail the
        query loudly (availability, not integrity).
        """
        try:
            check_verdict_shape(verdict)
        except VerificationError as err:
            self._on_forgery(sid, task, err)
            return False
        if self.verifier is None:
            return True
        status = verdict.get("status", QueryStatus.OK)
        if status != QueryStatus.OK:
            return True

        qid = task["qid"]
        t0 = time.perf_counter()
        try:
            self._proof_bytes += self.verifier.verify_verdict(
                qid=qid, shard_id=sid, members=task["members"],
                prev_members=task["prev_members"],
                query=self._queries[qid], verdict=verdict)
        except VerificationError as err:
            self._verify_seconds += time.perf_counter() - t0
            self._on_forgery(sid, task, err)
            return False
        self._verify_seconds += time.perf_counter() - t0
        self._proofs_checked += 1
        self.tracer.event("gateway.verify", "user", qid=qid, shard=sid)
        return True

    def _on_forgery(self, sid: int, task: dict, err) -> None:
        """A shard's certificate failed: the shard is malicious (or
        serving corrupt state).  Evict it and re-scatter the task to the
        honest survivors; with nobody left to cover the slice, the query
        is marked FORGED and its answer withheld -- a forged answer
        never reaches the user, whatever happens."""
        qid = task["qid"]
        key = f"shard{sid}:q{qid}"
        self._forgeries += 1
        self._metrics.faults.record(err.kind, key, FaultAction.DETECTED,
                                    detail=str(err))
        self.tracer.event("gateway.forgery", "user", qid=qid, shard=sid,
                          kind=err.kind)
        logger.warning("gateway: shard %d failed verification on query "
                       "%d (%s): %s", sid, qid, err.kind, err)
        if sid not in self._dead and len(self._members) > 1:
            self._evict(sid)
        if self._members and sid not in self._members:
            self._reassign(task)
            self._metrics.faults.record(
                err.kind, key, FaultAction.RECOVERED,
                detail=f"re-scattered to {len(self._members)} honest "
                       f"member(s)")
            return
        state = self._states[qid]
        state.statuses.append(QueryStatus.FORGED)
        state.details.append(f"shard{sid}: {err}")
        self._metrics.faults.record(
            err.kind, key, FaultAction.DEGRADED,
            detail="no honest members left to re-cover the slice; "
                   "answer withheld")

    def _evict(self, sid: int) -> None:
        """Remove a malicious member: like a death, but the process
        stays up (we just stop talking to it) and running out of honest
        members degrades per-query instead of failing the batch."""
        self._dead.add(sid)
        self._evicted.append(sid)
        self._members = tuple(m for m in self._members if m != sid)
        logger.warning("gateway: evicting shard %d after forged verdict; "
                       "%d members remain", sid, len(self._members))
        self.tracer.event("gateway.eviction", "user", shard=sid,
                          shards=len(self._members))

    # -- failure handling ----------------------------------------------
    def _on_death(self, sid: int) -> None:
        """Idempotent: the socket reader and every task in flight on the
        dead shard report the same death."""
        if sid in self._dead:
            return
        self._dead.add(sid)
        self._deaths.append(sid)
        survivors = tuple(m for m in self._members if m != sid)
        self._members = survivors
        if not survivors:
            # This may be a socket reader's task, which nobody awaits: a
            # task holding one of the dead shard's queries fails the
            # batch from _reassign, where _supervise sees it.
            return
        logger.warning("gateway: shard %d died; %d survivors, "
                       "re-placing its slice", sid, len(survivors))
        self.tracer.event("gateway.shard_death", "sp", shard=sid,
                          shards=len(survivors))

    def _reassign(self, task: dict) -> None:
        """Re-dispatch one failed task to every survivor as a
        re-placement pass over the balls that moved."""
        if not self._members:
            raise GatewayError(f"shard(s) {self._deaths} died and no "
                               f"members survive to re-place their work")
        self._wave += 1
        for sid in self._members:
            self._spawn(sid, {
                "qid": task["qid"],
                "jindex": task["qid"] + (self._wave << _WAVE_SHIFT),
                "members": self._members,
                "prev_members": task["members"],
            })
        self._re_dispatches += len(self._members)

    def _maybe_fire_chaos(self, sid: int) -> None:
        if self._chaos_plan is None or self._chaos_fired:
            return
        victim, after = self._chaos_plan
        if sid != victim:
            return
        self._chaos_verdicts += 1
        if self._chaos_verdicts < after:
            return
        self._chaos_fired = True
        handle = self.handles[victim]
        kill = getattr(handle, "kill", None)
        if kill is None:
            raise GatewayError(
                f"chaos victim {victim} has no kill() handle")
        logger.warning("gateway: chaos killing shard %d after %d "
                       "verdicts", victim, self._chaos_verdicts)
        kill()

    # -- merge ----------------------------------------------------------
    def _absorb(self, sid: int, task: dict, verdict: dict) -> None:
        qid = task["qid"]
        state = self._states[qid]
        status = verdict.get("status", QueryStatus.OK)
        state.statuses.append(status)
        detail = verdict.get("detail", "")
        if detail:
            state.details.append(f"shard{sid}: {detail}")
        self._busy[sid] = (self._busy.get(sid, 0.0)
                           + float(verdict.get("busy", 0.0)))
        if "caches" in verdict:
            self._metrics.record_shard_caches(sid, {
                name: CacheStats.from_dict(payload)
                for name, payload in verdict["caches"].items()})
        if "ops" in verdict:
            self._metrics.ops.merge_scoped(
                OpCounter.from_dict(verdict["ops"]),
                scope=f"shard{sid}")
        if "journal" in verdict:
            self._metrics.journal.merge(
                JournalCounters.from_dict(verdict["journal"]))
        if status == QueryStatus.OK and "candidates" in verdict:
            state.candidates.update(int(b) for b in verdict["candidates"])
            state.pm_positive.update(int(b) for b in verdict["pm_positive"])
            state.verified.update(int(b) for b in verdict["verified"])
            for ball_id, subs in verdict.get("matches", {}).items():
                subs = list(subs)
                existing = state.matches.get(ball_id)
                if existing is None:
                    state.matches[ball_id] = subs
                elif existing != subs:
                    # Two slices evaluated the same ball (re-placement
                    # overlap) and disagreed: per-ball evaluation is
                    # deterministic, so divergence means corruption.
                    raise GatewayError(
                        f"divergent answers for ball {ball_id} of query "
                        f"{qid}: shard {sid} disagrees with an earlier "
                        f"slice")

    # -- wrap-up ---------------------------------------------------------
    async def _drain(self) -> dict:
        summaries: dict[int, dict] = {}
        for sid, client in self._clients.items():
            # Evicted shards are alive but untrusted: no drain handshake,
            # and certainly no merging of their self-reported summaries.
            if client.dead or sid in self._dead:
                continue
            try:
                reply = await client.request({"t": "drain"})
            except ShardDied:
                continue
            if reply.get("t") == "drained":
                summaries[sid] = reply.get("summary", {})
        return summaries

    def _build_report(self, started: float,
                      drain_summaries: dict[int, dict]) -> GatewayReport:
        outcomes = []
        for qid, state in enumerate(self._states):
            status = max(state.statuses, key=lambda s: _SEVERITY.get(s, 5),
                         default=QueryStatus.DRAINED)
            answer = None
            if status == QueryStatus.OK:
                answer = wire.canonical_answer(
                    state.candidates, state.pm_positive, state.verified,
                    state.matches)
            outcomes.append(GatewayOutcome(
                index=qid, status=status, answer=answer,
                detail="; ".join(state.details)))
        return GatewayReport(
            outcomes=outcomes,
            makespan=time.perf_counter() - started,
            metrics=self._metrics,
            per_shard_busy=dict(sorted(self._busy.items())),
            shards=self._initial_shards,
            deaths=list(self._deaths),
            re_dispatches=self._re_dispatches,
            final_members=self._members,
            drain_summaries=drain_summaries,
            verify_enabled=self.verifier is not None,
            proofs_checked=self._proofs_checked,
            forgeries_detected=self._forgeries,
            evictions=list(self._evicted),
            proof_bytes=self._proof_bytes,
            verify_seconds=self._verify_seconds,
        )


__all__ = [
    "WINDOW",
    "Gateway",
    "GatewayChaos",
    "GatewayError",
    "GatewayOutcome",
    "GatewayReport",
    "ShardClient",
    "ShardDied",
]
