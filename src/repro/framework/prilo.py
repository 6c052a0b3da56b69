"""The Prilo engine -- Alg. 3 end to end.

:class:`Prilo` wires the four parties together and runs the three generic
steps (candidate enumeration, query verification, query matching) without
any of the Prilo* optimizations: no pruning messages, and RSG ordering.
:class:`repro.framework.prilo_star.PriloStar` flips the optimization
switches on the same machinery.

``run`` returns a :class:`QueryResult` holding the matches, the simulated
schedule (the paper's time-to-results metrics), and the per-phase
measurements that every benchmark consumes.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass, field, replace

from repro.core.bf_pruning import BFConfig
from repro.core.retrieval import PlayerSequence, rsg_sequences
from repro.core.twiglets import TWIGLET_HEIGHTS
from repro.crypto.keys import UserKeyring
from repro.crypto.ops import counting
from repro.framework.faults import (
    ChaosPolicy,
    FaultAction,
    FaultInjector,
    FaultKind,
)
from repro.framework.messages import (
    DecryptedPMs,
    EncryptedQueryMessage,
    EvaluationResult,
    PruningMessages,
)
from repro.framework.executor import (
    BallExecutor,
    EvaluationShare,
    ShareOutcome,
    partition_shares,
    share_key,
)
from repro.framework.metrics import MessageSizes, RunMetrics, Stopwatch
from repro.framework.roles import DataOwner, Dealer, Player, User, merge_pms
from repro.observability.spans import (
    NULL_TRACER,
    ROLE_DEALER,
    ROLE_ENCLAVE,
    ROLE_SP,
    ROLE_USER,
)
from repro.framework.simulator import ScheduleOutcome, simulate_schedule
from repro.graph.ball import Ball
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.query import Query, QueryLabelView, Semantics
from repro.tee.enclave import Enclave

logger = logging.getLogger(__name__)


class AdmissionError(RuntimeError):
    """A query was refused before evaluation (admission control)."""


class BallBudgetExceeded(AdmissionError):
    """The query's candidate set exceeds the configured ball budget --
    admitting it would monopolize the serving engine."""

    def __init__(self, candidates: int, budget: int) -> None:
        super().__init__(
            f"query admits {candidates} candidate balls, over the "
            f"configured ball budget of {budget}")
        self.candidates = candidates
        self.budget = budget


class DeadlineExceeded(RuntimeError):
    """A query ran past its per-query deadline.

    Carries the partial :class:`RunMetrics` (everything measured up to
    the abort point) so overload reports stay observable -- and, under a
    journal, every share completed before the deadline is already a
    durable checkpoint a later resume can reuse.
    """

    def __init__(self, where: str, elapsed_ms: float,
                 budget_ms: float) -> None:
        super().__init__(
            f"deadline of {budget_ms:.0f}ms exceeded {where} "
            f"(elapsed {elapsed_ms:.0f}ms)")
        self.where = where
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms
        self.metrics: RunMetrics | None = None


class Deadline:
    """A per-query wall-clock budget, checked at protocol boundaries
    (phase transitions and executor-share completions)."""

    def __init__(self, budget_ms: float) -> None:
        if budget_ms < 0:
            raise ValueError("deadline budget must be >= 0 milliseconds")
        self.budget_ms = budget_ms
        self._started = time.perf_counter()

    @property
    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self._started) * 1000.0

    @property
    def expired(self) -> bool:
        return self.elapsed_ms > self.budget_ms

    def check(self, where: str) -> None:
        elapsed = self.elapsed_ms
        if elapsed > self.budget_ms:
            raise DeadlineExceeded(where, elapsed, self.budget_ms)


@dataclass(frozen=True)
class PriloConfig:
    """Engine configuration (defaults follow Sec. 6.1 where practical).

    The paper's CGBE uses 32-bit q/r over a 4096-bit public value; those are
    available via :meth:`paper_crypto`, while the default 2048-bit modulus
    keeps pure-Python arithmetic snappy with identical semantics.
    """

    k_players: int = 4
    modulus_bits: int = 2048
    q_bits: int = 32
    r_bits: int = 32
    radii: tuple[int, ...] = (1, 2, 3, 4)
    use_bf: bool = False
    use_twiglet: bool = False
    use_path: bool = False
    use_neighbor: bool = False
    use_ssg: bool = False
    twiglet_h: int = 3
    bf: BFConfig = field(default_factory=BFConfig)
    enumeration_limit: int = 2_000
    cmm_bound_bypass: int = 2_000
    label_strategy: str = "max"  # Alg. 3 line 2 ("max") or ablation "min"
    seed: int = 0
    #: Seeded fault-injection schedule (None: chaos off).  Injection
    #: decisions are pure functions of the policy, so the same policy
    #: replays the same faults in any process.
    chaos: ChaosPolicy | None = None
    #: Per-query wall-clock deadline in milliseconds (None: unbounded).
    #: Checked at phase boundaries and after every executor share; an
    #: expired query raises :class:`DeadlineExceeded` with its partial
    #: metrics attached.
    deadline_ms: float | None = None
    #: Admission bound on candidate balls per query (None: unbounded).
    #: A query whose candidate set exceeds the budget is refused with
    #: :class:`BallBudgetExceeded` before any evaluation starts.
    ball_budget: int | None = None

    def __post_init__(self) -> None:
        # Eager validation with actionable messages: a bad value must fail
        # here, not deep inside a run.
        if (isinstance(self.k_players, bool)
                or not isinstance(self.k_players, int)
                or self.k_players < 1):
            raise ValueError(
                f"k_players must be an int >= 1 (one Player server per "
                f"sequence); got {self.k_players!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int; got {self.seed!r}")
        if self.chaos is not None and not isinstance(self.chaos,
                                                     ChaosPolicy):
            raise ValueError(
                f"chaos must be a repro.framework.faults.ChaosPolicy or "
                f"None; got {type(self.chaos).__name__} "
                f"({self.chaos!r}) -- e.g. "
                f"ChaosPolicy(seed=7, fault_rate=0.1)")
        if self.use_ssg and self.k_players < 2:
            raise ValueError("SSG requires at least two players (Sec. 2.3)")
        if self.twiglet_h not in TWIGLET_HEIGHTS:
            raise ValueError("twiglet_h must be in 3..5 (Sec. 4.2)")
        if self.enumeration_limit < 1 or self.cmm_bound_bypass < 1:
            raise ValueError("enumeration bounds must be positive")
        if not self.radii:
            raise ValueError("at least one ball radius is required")
        if self.deadline_ms is not None and (
                not isinstance(self.deadline_ms, (int, float))
                or isinstance(self.deadline_ms, bool)
                or self.deadline_ms <= 0):
            raise ValueError(
                f"deadline_ms must be positive milliseconds or None "
                f"(no deadline); got {self.deadline_ms!r}")
        if self.ball_budget is not None and (
                isinstance(self.ball_budget, bool)
                or not isinstance(self.ball_budget, int)
                or self.ball_budget < 1):
            raise ValueError(
                f"ball_budget must be an int >= 1 or None (unbounded); "
                f"got {self.ball_budget!r}")

    def paper_crypto(self) -> "PriloConfig":
        """The exact Sec. 6.1 CGBE parameters (slower in pure Python)."""
        return replace(self, modulus_bits=4096, q_bits=32, r_bits=32)

    @property
    def any_pruning(self) -> bool:
        return (self.use_bf or self.use_twiglet or self.use_path
                or self.use_neighbor)


@dataclass
class QueryResult:
    """Everything one engine run produced."""

    query: Query
    chosen_label: Label
    candidate_ids: tuple[int, ...]
    pm_positive_ids: frozenset[int]
    pm_per_method: dict[str, dict[int, bool]]
    verified_ids: frozenset[int]
    matches: dict[int, list[LabeledGraph]]
    sequences: list[PlayerSequence]
    sequence_mode: str
    schedule: ScheduleOutcome
    metrics: RunMetrics

    @property
    def num_matches(self) -> int:
        return sum(len(found) for found in self.matches.values())

    @property
    def match_ball_ids(self) -> frozenset[int]:
        return frozenset(self.matches)

    def stream_matches(self):
        """Matches in the order the user could have computed them.

        Prilo*'s selling point is early results: positives' ciphertext
        results reach the Dealer (and hence the user) at their schedule
        completion times, long before the full evaluation ends.  Yields
        ``(completion_seconds, ball_id, matching_subgraphs)`` sorted by
        completion time; the first tuple's time is the paper's
        time-to-first-results metric (Fig. 2(b)).
        """
        ordered = sorted(
            ((self.schedule.completion[ball_id], ball_id)
             for ball_id in self.matches
             if ball_id in self.schedule.completion))
        for when, ball_id in ordered:
            yield when, ball_id, self.matches[ball_id]

    def time_to_first_match(self) -> float | None:
        """When the earliest match-containing ball's result was available
        (None if the query has no matches)."""
        for when, _, _ in self.stream_matches():
            return when
        return None


class Prilo:
    """The baseline framework: Alg. 3 with RSG ordering and no pruning."""

    #: Optimization switches applied by ``setup`` on top of user config.
    _OVERRIDES = dict(use_bf=False, use_twiglet=False, use_ssg=False)

    def __init__(self, graph: LabeledGraph, config: PriloConfig,
                 keyring: UserKeyring | None = None, store=None,
                 tracer=None) -> None:
        self.graph = graph
        self.config = config
        #: Role-scoped span tracer (:mod:`repro.observability`).  Kept
        #: out of the frozen config on purpose: tracing must not change
        #: the journal's config fingerprint or any answer-shaping state.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`repro.storage.ArtifactStore` -- the persisted
        #: offline outsourcing output.  When set, the ball index and the
        #: Dealer's encrypted blobs load from disk (staleness-checked in
        #: DataOwner).  Twiglet pruning walks each candidate ball afresh
        #: under the query's alphabet; the store holds no twiglets.
        self.store = store
        self.owner = DataOwner(graph, config.radii, seed=config.seed,
                               store=store)
        if keyring is None:
            keyring = UserKeyring.generate(modulus_bits=config.modulus_bits,
                                           seed=config.seed,
                                           q_bits=config.q_bits,
                                           r_bits=config.r_bits)
        self.user = User(keyring)
        self.owner.grant_key(self.user)
        self.index = self.owner.player_store()
        self.players = [Player(i, self.index)
                        for i in range(config.k_players)]
        self.dealer = Dealer(self.owner.dealer_store())
        self.executor = BallExecutor()
        #: Optional ball-id predicate restricting candidate enumeration --
        #: the sharded gateway's placement hook (see ``install_ball_filter``).
        self.ball_filter = None

    def install_ball_filter(self, predicate) -> None:
        """Restrict this engine to candidate balls whose id satisfies
        ``predicate`` (``None`` removes the restriction).

        The filter is applied *before* a ball is materialized, so a shard
        engine backed by a sliced pack never loads balls outside its
        placement.  Filtering is sound because per-ball evaluation is
        independent across balls: the union of results over a partition
        of the ball space equals the unpartitioned run (the sharded
        gateway's merge relies on exactly this; see
        ``tests/test_gateway.py``).  Note the filter changes the
        *answer-visible* candidate set, so it is serving-topology state,
        never something to install on a standalone engine mid-batch.
        """
        self.ball_filter = predicate

    def install_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a span tracer post-construction.

        The serving layer builds engines first and decides on tracing
        later; ``_run`` re-installs ``self.tracer`` into the executor,
        the store and every enclave on each query, so swapping here is
        enough."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def refresh(self, index=None) -> None:
        """Rebind every role to the (mutated) live graph after a delta.

        ``ArtifactStore.apply_delta`` updates the store and mutates
        ``self.graph`` in place, which moves the graph's mutation epoch
        and correctly strands the old ball index
        (:class:`repro.graph.ball.StaleIndexError`).  This rebuilds the
        owner/index/players/dealer stack against the new graph state --
        a store-backed owner re-checks the (now updated) manifest, a
        no-store caller passes ``index`` carrying the delta-stable id
        assignment.  The user, executor, tracer and ball filter survive:
        none of them depend on ball contents, except the user's slice
        memo, whose keys are blob tags a re-encrypted ball never reuses.
        """
        self.owner = DataOwner(self.graph, self.config.radii,
                               seed=self.config.seed, store=self.store,
                               index=index)
        self.owner.grant_key(self.user)
        self.index = self.owner.player_store()
        self.players = [Player(i, self.index)
                        for i in range(self.config.k_players)]
        self.dealer = Dealer(self.owner.dealer_store())

    def close(self) -> None:
        """Nothing to release: shares are evaluated in-process.  Kept so
        engines stay context managers for callers and serving layers."""

    def __enter__(self) -> "Prilo":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @classmethod
    def setup(cls, graph: LabeledGraph, config: PriloConfig | None = None,
              store=None, tracer=None, **overrides: object) -> "Prilo":
        """Build an engine; keyword overrides patch the default config."""
        return cls(graph, cls.effective_config(config, **overrides),
                   store=store, tracer=tracer)

    @classmethod
    def effective_config(cls, config: PriloConfig | None = None,
                         **overrides: object) -> PriloConfig:
        """The config an engine of this class runs under: ``config``
        (default :class:`PriloConfig`) with the class's optimization
        switches forced, then ``overrides`` applied.  What result
        certificates and journal fingerprints must bind."""
        merged = {**cls._OVERRIDES, **overrides}
        config = config or PriloConfig()
        return replace(config, **merged)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def candidate_balls(self, query: Query) -> tuple[Label, list[Ball]]:
        """Alg. 3 lines 2-4: pick the label and collect candidate balls."""
        if self.config.label_strategy == "max":
            label = query.most_frequent_label(self.graph)
        elif self.config.label_strategy == "min":
            label = query.least_frequent_label(self.graph)
        else:
            raise ValueError(
                f"unknown label strategy {self.config.label_strategy!r}")
        if query.diameter not in self.config.radii:
            raise ValueError(
                f"query diameter {query.diameter} is not covered by the "
                f"precomputed ball radii {self.config.radii}")
        if self.ball_filter is None:
            return label, list(self.index.candidate_balls(label,
                                                          query.diameter))
        # Filter on ids before materializing: same center order as
        # BallIndex.candidate_balls, but non-owned balls are never loaded
        # (a shard pack does not even hold them).
        keep = self.ball_filter
        balls = [
            self.index.ball(v, query.diameter)
            for v in self.graph.sorted_vertices_with_label(label)
            if keep(self.index.ball_id(v, query.diameter))
        ]
        return label, balls

    # ------------------------------------------------------------------
    def run(self, query: Query, *, cmm_cache=None, journal=None,
            query_key: str = "", resume=None,
            deadline: Deadline | None = None) -> QueryResult:
        """Answer one query end to end.

        ``cmm_cache`` (a :class:`repro.framework.server.CMMCache`) sits
        in front of evaluation: each ball's mask stream comes out of the
        cache instead of being recorded again in the share.  The batch
        server passes its shared cache here; evaluation itself is the
        same function of ``(message, ball)`` with or without it.

        ``journal`` (a :class:`repro.storage.journal.RunJournal`) turns
        every executor-share completion into a durable checkpoint keyed
        by ``query_key``; ``resume`` (the query's replayed
        :class:`~repro.storage.journal.QueryJournalState`) feeds those
        checkpoints back so only unjournaled shares are re-evaluated.
        ``deadline`` aborts the query with :class:`DeadlineExceeded` when
        its wall-clock budget runs out (defaults to a fresh deadline when
        ``config.deadline_ms`` is set).
        """
        config = self.config
        if deadline is None and config.deadline_ms is not None:
            deadline = Deadline(config.deadline_ms)
        metrics = RunMetrics()
        try:
            return self._run(query, metrics, cmm_cache=cmm_cache,
                             journal=journal, query_key=query_key,
                             resume=resume, deadline=deadline)
        except DeadlineExceeded as exc:
            metrics.journal.deadline_hits += 1
            exc.metrics = metrics
            raise

    def _run(self, query: Query, metrics: RunMetrics, *, cmm_cache,
             journal, query_key: str, resume,
             deadline: Deadline | None) -> QueryResult:
        config = self.config
        timings = metrics.timings
        sizes = metrics.sizes

        # One injector per run, recording straight into this run's
        # metrics; threaded through the executor, the store, the user's
        # channel establishment and the final retrieval.
        injector = FaultInjector(config.chaos, report=metrics.faults)
        self.executor.install_faults(injector)
        if self.store is not None:
            self.store.install_faults(injector)

        # Tracing rides the same installation points as fault injection:
        # the tracer travels engine -> executor/store/enclaves per run, so
        # a serving layer that swaps tracers between queries stays coherent.
        tracer = self.tracer
        self.executor.install_tracer(tracer)
        if self.store is not None:
            self.store.install_tracer(tracer)
        for player in self.players:
            player.enclave.tracer = tracer

        label, candidates = self.candidate_balls(query)
        metrics.candidate_balls = len(candidates)
        tracer.event("candidate_enumeration", ROLE_SP,
                     candidates=len(candidates), diameter=query.diameter)
        if (config.ball_budget is not None
                and len(candidates) > config.ball_budget):
            raise BallBudgetExceeded(len(candidates), config.ball_budget)
        candidate_ids = tuple(ball.ball_id for ball in candidates)
        by_id = {ball.ball_id: ball for ball in candidates}
        logger.info("run %s: label=%r, %d candidate balls",
                    query, label, len(candidates))

        # Step 2: the user encrypts the query.
        with tracer.span("query_preprocessing", ROLE_USER) as prep_span, \
                counting(metrics.ops, "user_preprocessing", "user"):
            message, state = self.user.prepare_query(
                query,
                use_bf=config.use_bf,
                use_twiglet=config.use_twiglet,
                use_path=config.use_path,
                use_neighbor=config.use_neighbor,
                twiglet_h=config.twiglet_h,
                bf_config=config.bf,
                enclaves=[p.enclave for p in self.players],
                sizes=sizes,
                timings=timings,
                faults=injector,
            )
            prep_span.set("bytes", sizes.encrypted_matrix
                          + sizes.twiglet_tables + sizes.bf_encodings)

        if deadline is not None:
            deadline.check("after query preprocessing")

        # Steps 2-4: pruning messages (Prilo* only).  A resume replays
        # the journaled (already Dealer-visible) PM verdicts instead of
        # recomputing them -- but only after every player's enclave
        # re-attests; a failed attestation falls back to recomputation.
        pms = PruningMessages()
        pm_per_method: dict[str, dict[int, bool]] = {}
        # The user's CGBE unblinding memo, recorded as "decrypt" across
        # PM and result decryption (the only CGBE decrypts of a run).
        unblinding = self.user.keyring.cgbe.decrypt_stats
        decrypt_before = unblinding.snapshot()
        if config.any_pruning:
            replayed = self._replayed_pms(metrics, resume, injector,
                                          query_key)
            if replayed is not None:
                decrypted, pm_per_method = replayed
                tracer.event("pm_replay", ROLE_SP, replayed=True,
                             balls=len(candidate_ids))
            else:
                self._compute_pms(message, candidates, pms, metrics)
                if config.use_bf:
                    tracer.event("bf_pruning", ROLE_ENCLAVE,
                                 duration_s=timings.pm_bf,
                                 balls=len(candidates))
                if config.use_twiglet:
                    tracer.event("twiglet_aggregation", ROLE_SP,
                                 duration_s=timings.pm_twiglet,
                                 balls=len(candidates))
                with counting(metrics.ops, "user_pm_decryption", "user"):
                    decrypted, pm_per_method = self.user.decrypt_pms(
                        pms, candidate_ids, state, timings)
                tracer.event("pm_decryption", ROLE_USER,
                             duration_s=timings.user_pm_decryption,
                             positives=len(decrypted.positives))
                self._account_pm_sizes(message, pms, sizes)
                self._journal_pms(journal, query_key, decrypted,
                                  pm_per_method, metrics, injector)
            if deadline is not None:
                deadline.check("after pruning messages")
        else:
            decrypted = DecryptedPMs(ball_ids=tuple(sorted(candidate_ids)),
                                     positives=frozenset(candidate_ids))
        metrics.positives_after_pruning = len(decrypted.positives)
        if config.any_pruning:
            logger.info("pruning kept %d/%d balls (theta=%.3f)",
                        len(decrypted.positives), len(candidate_ids),
                        decrypted.theta)

        # Steps 5-6: the Dealer orders the balls.
        with Stopwatch() as watch:
            sequences, mode = self.dealer.generate_sequences(
                decrypted, config.k_players, use_ssg=config.use_ssg,
                seed=config.seed)
            sequences = self._replan_dropouts(sequences, injector)
        timings.sequence_generation += watch.total
        # The Dealer legitimately sees the decrypted positives (step 4 of
        # the protocol); counts and mode are exactly its honest view.
        tracer.event("sequence_generation", ROLE_DEALER,
                     duration_s=watch.total, mode=mode,
                     sequences=len(sequences),
                     positives=len(decrypted.positives))

        if deadline is not None:
            deadline.check("after sequence generation")

        # Step 7: Players evaluate (each unique ball once; dummies reuse
        # the measured cost in the schedule replay).
        results = self._evaluate(message, sequences, by_id, metrics,
                                 cmm_cache=cmm_cache, journal=journal,
                                 query_key=query_key, resume=resume,
                                 deadline=deadline, injector=injector)
        sizes.add("ciphertext_results",
                  sum(self._verdict_bytes(r) for r in results.values()))
        tracer.event("evaluation", ROLE_SP,
                     duration_s=timings.evaluation,
                     balls=len(results), cmms=metrics.cmms_enumerated,
                     bypassed=metrics.bypassed_balls,
                     bytes=sizes.ciphertext_results)

        if deadline is not None:
            deadline.check("after evaluation")

        # Schedule replay: the paper's time-to-results metrics.
        schedule = simulate_schedule(sequences, metrics.per_ball_eval_cost,
                                     decrypted.positives)

        # Steps 8-9: decrypt, retrieve, match.
        with counting(metrics.ops, "user_result_decryption", "user"):
            verified = self.user.decrypt_results(results.values(), timings)
        verified &= set(decrypted.positives)
        metrics.record_cache("decrypt", unblinding.delta(decrypt_before))
        tracer.event("result_decryption", ROLE_USER,
                     duration_s=timings.user_result_decryption,
                     balls=len(verified))
        before = self.user.slices.stats.snapshot()
        matches = self.user.retrieve_and_match(
            verified, self.dealer, query, sizes, timings, faults=injector)
        slices = self.user.slices.stats.delta(before)
        metrics.record_cache("ball_slice", slices)
        # Localized retrieval: the Dealer observes which verified balls
        # the user pulls (the paper's accepted disclosure) -- the trace
        # records only their count and byte volume.
        tracer.event("ball_retrieval", ROLE_DEALER,
                     balls=len(verified), bytes=sizes.retrieved_balls)
        tracer.event("query_matching", ROLE_USER,
                     duration_s=timings.user_matching,
                     decrypt_s=timings.user_ball_decrypt,
                     decode_s=timings.user_ball_decode,
                     match_s=timings.user_ball_match,
                     decoded=slices.misses, reused=slices.hits,
                     balls=len(matches))
        if metrics.faults:
            logger.info("faults: %s", metrics.faults.summary_line())
        logger.info("verified %d balls, %d contain matches "
                    "(%s mode, all positives by t=%.4fs of %.4fs)",
                    len(verified), len(matches), mode,
                    schedule.all_positives, schedule.makespan)

        return QueryResult(
            query=query,
            chosen_label=label,
            candidate_ids=candidate_ids,
            pm_positive_ids=frozenset(decrypted.positives),
            pm_per_method=pm_per_method,
            verified_ids=frozenset(verified),
            matches=matches,
            sequences=sequences,
            sequence_mode=mode,
            schedule=schedule,
            metrics=metrics,
        )

    #: Serving-layer name for the end-to-end call (``QueryBatchEngine``
    #: and the docs speak of "answering" queries).
    answer = run

    # ------------------------------------------------------------------
    def _replan_dropouts(self, sequences: list[PlayerSequence],
                         injector: FaultInjector) -> list[PlayerSequence]:
        """Dealer-side dropout recovery (step 5.5, chaos-driven).

        Players the schedule declares unreachable are removed and any ball
        that only *they* would have evaluated is re-planned across the
        survivors (a fresh RSG partition appended to their sequences; SSG's
        dummy duplication already covers most orphans).  At least one
        Player always survives.  Per-ball evaluation is a pure function of
        ``(message, ball)``, so re-planning changes scheduling only --
        never answers.  ``scp`` is dropped on extended sequences: the
        cutoff bookkeeping no longer describes them.
        """
        policy = injector.policy
        if (not injector.active
                or FaultKind.PLAYER_DROPOUT not in policy.kinds):
            return sequences
        players = sorted({seq.player for seq in sequences})
        dropped = [p for p in players
                   if policy.decides(FaultKind.PLAYER_DROPOUT,
                                     f"player:{p}")]
        if not dropped:
            return sequences
        survivors = [p for p in players if p not in dropped]
        if not survivors:
            # Losing every Player is not recoverable by re-planning; keep
            # the lowest id alive (the deterministic choice).
            survivors = [dropped.pop(0)]
        for p in dropped:
            injector.record(FaultKind.PLAYER_DROPOUT, f"player:{p}",
                            FaultAction.INJECTED,
                            detail="player unreachable at evaluation start")
            injector.record(FaultKind.PLAYER_DROPOUT, f"player:{p}",
                            FaultAction.DETECTED,
                            detail="sequence delivery failed")
        surviving = [seq for seq in sequences if seq.player in survivors]
        covered: set[int] = set()
        for seq in surviving:
            covered.update(seq.sequence)
        orphans: set[int] = set()
        for seq in sequences:
            if seq.player in dropped:
                orphans.update(seq.sequence)
        orphans -= covered
        if orphans:
            extra = rsg_sequences(sorted(orphans), len(survivors),
                                  seed=self.config.seed)
            merged: list[PlayerSequence] = []
            for index, seq in enumerate(surviving):
                addition = extra[index % len(extra)].sequence
                if addition:
                    seq = PlayerSequence(
                        player=seq.player,
                        sequence=seq.sequence + addition,
                        scp=None)
                merged.append(seq)
            surviving = merged
        injector.record(
            FaultKind.PLAYER_DROPOUT,
            "players:" + ",".join(str(p) for p in dropped),
            FaultAction.DEGRADED,
            detail=f"re-planned {len(orphans)} orphaned balls across "
                   f"{len(survivors)} surviving players")
        return surviving

    # ------------------------------------------------------------------
    def _compute_pms(self, message: EncryptedQueryMessage,
                     candidates: list[Ball], pms: PruningMessages,
                     metrics: RunMetrics) -> None:
        """Partition the candidates round-robin over the players and
        compute each player's PM share."""
        partition: list[list[Ball]] = [[] for _ in self.players]
        for index, ball in enumerate(candidates):
            partition[index % len(self.players)].append(ball)
        shares = [
            (player.player_id, player.enclave, tuple(share))
            for player, share in zip(self.players, partition)
            if share
        ]
        outcomes = self.executor.compute_pm_shares(
            message, shares,
            bf_config=self.config.bf,
            twiglet_h=self.config.twiglet_h)
        timings = metrics.timings
        for outcome in outcomes:
            merge_pms(pms, outcome.pms)
            metrics.per_ball_pm_cost.update(outcome.pm_costs)
            timings.pm_bf += outcome.timings.pm_bf
            timings.pm_twiglet += outcome.timings.pm_twiglet
            timings.pm_computation += outcome.timings.pm_computation
            metrics.per_worker_pm_wall[outcome.player] = outcome.wall_seconds
            metrics.ops.merge(getattr(outcome, "ops", None))

    def _replayed_shares(self, keys: list[str], metrics: RunMetrics,
                         resume) -> dict[str, ShareOutcome]:
        """Journaled outcomes for this fan-out, keyed by share key.

        Each replayed record's fault events are merged into this run's
        report *here* -- once per share, exactly once per resumed run --
        which is what keeps post-resume fault totals equal to an
        uninterrupted run's (pre-crash injections are not recounted, not
        dropped).  A journaled payload of the wrong shape counts as
        tampered and the share is re-evaluated from the live pipeline.
        """
        completed: dict[str, ShareOutcome] = {}
        if resume is None or not resume.shares:
            return completed
        counters = metrics.journal
        for key in keys:
            entry = resume.shares.get(key)
            if entry is None:
                continue
            if not isinstance(entry.outcome, ShareOutcome):
                counters.tampered_records += 1
                metrics.faults.record(
                    FaultKind.JOURNAL_TAMPER, f"journal:{key}",
                    FaultAction.DETECTED,
                    detail="journaled share payload has the wrong shape; "
                           "re-evaluating")
                continue
            completed[key] = entry.outcome
            self._replay_share(metrics, entry)
        return completed

    @staticmethod
    def _replay_share(metrics: RunMetrics, entry) -> None:
        """Count one journaled share as replayed instead of evaluated,
        and re-record the fault events journaled with it, once each."""
        counters = metrics.journal
        counters.records_replayed += 1
        counters.shares_skipped += 1
        for event in entry.events:
            metrics.faults.record(
                event.get("kind", "unknown"), event.get("key", ""),
                event.get("action", ""), detail=event.get("detail", ""),
                attempt=event.get("attempt", 0))
            counters.replayed_fault_events += 1

    #: Journal share key of a query's pruning-message record.  PM-phase
    #: fault events fire on these coordinate prefixes (sealed-channel
    #: re-requests and enclave ECALL retries), so the record carries them
    #: for the exactly-once replay guarantee (``TestResumeTwiceCounters``).
    PM_SHARE_KEY = "pm"
    _PM_EVENT_PREFIXES = ("bf-blob:", "enclave-mem:")

    def _journal_pms(self, journal, query_key: str, decrypted: DecryptedPMs,
                     pm_per_method: dict, metrics: RunMetrics,
                     injector: FaultInjector) -> None:
        """Checkpoint the decrypted PM verdicts.

        What is persisted -- ball ids with their positive bits and the
        per-method breakdown -- is exactly the :class:`DecryptedPMs` the
        user already reveals to the Dealer in step 4, so the journal
        widens the leakage surface by nothing.  The sealed ``c_sgx``
        blobs are deliberately *not* persisted: they only authenticate
        under the dead process's session key.
        """
        if journal is None:
            return
        events = [e.as_dict() for e in metrics.faults.events
                  if e.key.startswith(self._PM_EVENT_PREFIXES)]
        journal.append_share(query_key, self.PM_SHARE_KEY, {
            "ball_ids": tuple(decrypted.ball_ids),
            "positives": tuple(sorted(decrypted.positives)),
            "pm_per_method": {method: dict(verdicts)
                              for method, verdicts in pm_per_method.items()},
        }, events)
        metrics.journal.checkpoints_written += 1
        self._maybe_kill(injector, f"kill:{query_key}:{self.PM_SHARE_KEY}")

    def _replayed_pms(self, metrics: RunMetrics, resume,
                      injector: FaultInjector, query_key: str):
        """The journaled ``(DecryptedPMs, pm_per_method)`` of a resumed
        query, or ``None`` to recompute.

        Reuse is gated on re-attestation: the journaled BF verdicts were
        produced inside the previous process's enclaves, so each player's
        enclave must present a fresh attestation report with the expected
        measurement before a new process trusts them.  Any failed
        attestation (or a chaos-injected rejection) degrades to full PM
        recomputation -- sound, merely slower."""
        if resume is None:
            return None
        entry = resume.shares.get(self.PM_SHARE_KEY)
        if entry is None:
            return None
        counters = metrics.journal
        outcome = entry.outcome
        if (not isinstance(outcome, dict)
                or not isinstance(outcome.get("ball_ids"), tuple)
                or not isinstance(outcome.get("positives"), tuple)
                or not isinstance(outcome.get("pm_per_method"), dict)):
            counters.tampered_records += 1
            metrics.faults.record(
                FaultKind.JOURNAL_TAMPER, "journal:pm",
                FaultAction.DETECTED,
                detail="journaled PM payload has the wrong shape; "
                       "recomputing pruning messages")
            return None
        for player in self.players:
            key = f"reattest:{query_key}:p{player.player_id}"
            counters.reattestations += 1
            report = player.enclave.attest()
            if not report.verify(Enclave.APP_IDENTITY) or injector.should(
                    FaultKind.ENCLAVE_ATTESTATION, key,
                    detail="re-attestation rejected on resume"):
                injector.record(
                    FaultKind.ENCLAVE_ATTESTATION, key,
                    FaultAction.DEGRADED,
                    detail="resume re-attestation failed; journaled BF "
                           "verdicts discarded, recomputing pruning "
                           "messages")
                return None
        self._replay_share(metrics, entry)
        counters.pm_replays += 1
        decrypted = DecryptedPMs(
            ball_ids=tuple(outcome["ball_ids"]),
            positives=frozenset(outcome["positives"]))
        pm_per_method = {method: dict(verdicts)
                         for method, verdicts
                         in outcome["pm_per_method"].items()}
        return decrypted, pm_per_method

    def _checkpoint_hook(self, metrics: RunMetrics, journal, query_key: str,
                         injector: FaultInjector,
                         deadline: Deadline | None):
        """The executor's ``on_result`` callback: journal each completed
        share, fire the chaos kill if scheduled, then enforce the
        deadline.  ``None`` when neither a journal nor a deadline is
        active, so the hot path stays callback-free."""
        if journal is None and deadline is None:
            return None

        def hook(key: str, outcome: ShareOutcome) -> None:
            metrics.journal.shares_evaluated += 1
            if journal is not None:
                journal.append_share(query_key, key, outcome)
                metrics.journal.checkpoints_written += 1
                self._maybe_kill(injector, f"kill:{query_key}:{key}")
            if deadline is not None:
                deadline.check(f"after share {key}")

        return hook

    @staticmethod
    def _maybe_kill(injector: FaultInjector, coordinate: str) -> None:
        """The ``KILL_PROCESS`` chaos hook: die as ``kill -9`` would,
        immediately after a checkpoint.  The journal record for this
        coordinate is already written and flushed, which is all a SIGKILL
        needs (its ``fsync`` comes with the query's commit), so the kill
        point is exactly the crash-consistency boundary a resume must
        survive."""
        if not injector.active:
            return
        if injector.policy.decides(FaultKind.KILL_PROCESS, coordinate):
            logger.warning("chaos: SIGKILL at %s", coordinate)
            os.kill(os.getpid(), signal.SIGKILL)

    def _evaluate(self, message: EncryptedQueryMessage,
                  sequences: list[PlayerSequence],
                  by_id: dict[int, Ball],
                  metrics: RunMetrics,
                  cmm_cache=None, journal=None, query_key: str = "",
                  resume=None, deadline: Deadline | None = None,
                  injector: FaultInjector | None = None,
                  ) -> dict[int, EvaluationResult]:
        """Step 7: the Players evaluate their shares.

        The Dealer's sequences are deduplicated into disjoint shares
        (first sequence to mention a ball owns it) and merged back
        first-evaluation-wins by ball id.

        With ``cmm_cache`` set (and non-SSIM semantics), each share's
        balls are replaced by their recorded mask streams from the cache
        before evaluation; the enumeration time paid on cache misses is
        folded into the per-ball evaluation cost so the schedule replay
        stays honest.

        With a journal, every share completion is checkpointed durably;
        with ``resume``, journaled shares are spliced in without being
        evaluated.
        """
        if injector is None:
            injector = FaultInjector(report=metrics.faults)
        cached = (cmm_cache is not None
                  and message.semantics is not Semantics.SSIM)
        shares = partition_shares(sequences, by_id, len(self.players),
                                  cached=cached)
        keys = [share_key(i, share) for i, share in enumerate(shares)]
        completed = self._replayed_shares(keys, metrics, resume)
        build_costs: dict[int, float] = {}
        if cached:
            shares = self._through_cache(message, shares, keys, completed,
                                         cmm_cache, metrics, build_costs)
        outcomes = self.executor.evaluate_shares(
            message, shares,
            enumeration_limit=self.config.enumeration_limit,
            cmm_bound_bypass=self.config.cmm_bound_bypass,
            completed=completed,
            on_result=self._checkpoint_hook(metrics, journal, query_key,
                                            injector, deadline))
        results: dict[int, EvaluationResult] = {}
        for outcome in outcomes:
            metrics.per_worker_eval_wall[outcome.player] = max(
                metrics.per_worker_eval_wall.get(outcome.player, 0.0),
                outcome.wall_seconds)
            for name, stats in outcome.caches.items():
                metrics.record_cache(name, stats)
            # getattr: journal-replayed outcomes from pre-accounting runs
            # carry no op counters; merge(None) is a no-op.
            metrics.ops.merge(getattr(outcome, "ops", None))
            for result in outcome.results:
                if result.ball_id in results:
                    continue
                results[result.ball_id] = result
                cost = (result.cost_seconds
                        + build_costs.get(result.ball_id, 0.0))
                metrics.per_ball_eval_cost[result.ball_id] = cost
                metrics.timings.evaluation += cost
                metrics.cmms_enumerated += result.cmms
                if result.bypassed:
                    metrics.bypassed_balls += 1
        return results

    def _through_cache(self, message: EncryptedQueryMessage,
                       shares: list[EvaluationShare], keys: list[str],
                       completed: dict[str, ShareOutcome], cmm_cache,
                       metrics: RunMetrics, build_costs: dict[int, float],
                       ) -> list[EvaluationShare]:
        """The shares with every ball replaced by the recorded mask stream
        ``cmm_cache`` holds (or now records) for it.

        A share whose outcome is already journaled (``completed``) is left
        alone: it is never evaluated, and -- just as important for resume
        speed -- its balls never go through ``cmm_cache.prepare``, so no
        enumeration is repaid.
        """
        config = self.config
        view = QueryLabelView(labels=message.vertex_labels,
                              diameter=message.diameter,
                              semantics=message.semantics)
        before = cmm_cache.stats.snapshot()
        fed: list[EvaluationShare] = []
        for key, share in zip(keys, shares):
            if key not in completed:
                prepared = []
                for ball in share.balls:
                    prepared.append(cmm_cache.prepare(
                        view, ball,
                        enumeration_limit=config.enumeration_limit,
                        cmm_bound_bypass=config.cmm_bound_bypass))
                    build_costs[ball.ball_id] = cmm_cache.last_build_seconds
                share = replace(share, balls=tuple(prepared))
            fed.append(share)
        metrics.record_cache("cmm", cmm_cache.stats.delta(before))
        return fed

    # ------------------------------------------------------------------
    def _account_pm_sizes(self, message: EncryptedQueryMessage,
                          pms: PruningMessages, sizes: MessageSizes) -> None:
        ct_bytes = self.user.keyring.cgbe.ciphertext_bytes()
        total = 0
        for outcome in pms.bf.values():
            total += len(outcome.c_sgx) if outcome.c_sgx else 1
        for batch in (pms.twiglet, pms.path, pms.neighbor):
            for result in batch.values():
                total += result.ciphertext_count() * ct_bytes
        sizes.add("pruning_messages", total)

    def _verdict_bytes(self, result: EvaluationResult) -> int:
        ct_bytes = self.user.keyring.cgbe.ciphertext_bytes()
        verdict = result.verdict
        if hasattr(verdict, "per_vertex"):
            count = sum(r.ciphertext_count() for r in verdict.per_vertex)
            count += verdict.center.ciphertext_count()
        else:
            count = verdict.ciphertext_count()
        return max(count, 1) * ct_bytes
