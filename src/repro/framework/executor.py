"""Player-share evaluation for the SP side.

The paper's k Player servers each evaluate the balls of one Dealer-given
sequence ("evaluations can be readily parallelized", Sec. 4.3).  Here the
k Players are a *logical* partition: :func:`partition_shares` turns the
sequences into disjoint shares, and :class:`BallExecutor` evaluates them
in the engine's process, in share order.  Process parallelism comes from
the sharded gateway only (:mod:`repro.framework.gateway`), whose shards
are the worker processes and whose recovery stack (death detection,
eviction, re-placement) is the only one.  An in-engine process pool was
measured slower than this loop on every pool of the benchmark workloads
(EXPERIMENTS.md, "One process-parallel mechanism").

Per-ball evaluation is a pure function of ``(message, ball)`` (all CGBE
operations the Players perform are deterministic given their ciphertext
inputs), and shares are merged in sequence order with
first-evaluation-wins per ball id.  Every share carries a stable key (its
protocol coordinate) that the run journal checkpoints under, so a resumed
run splices journaled shares back in and evaluates only the rest.

Obliviousness is unaffected: the executor schedules *shares*, which are
derived from the Dealer's sequences only -- never from ciphertext values,
verdicts, or any other query-dependent signal -- and every ball in a share
is evaluated unconditionally.  See DESIGN.md ("Evaluation").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.bf_pruning import BFConfig
from repro.core.enumeration import PreparedBall
from repro.crypto import ops as crypto_ops
from repro.crypto.kernels import MultiExpRegistry
from repro.framework.faults import ChaosPolicy, FaultEvent, FaultInjector
from repro.framework.messages import (
    EncryptedQueryMessage,
    EvaluationResult,
    PruningMessages,
)
from repro.framework.metrics import CacheStats, PhaseTimings
from repro.framework.roles import compute_pms_kernel, evaluate_ball_kernel
from repro.observability.spans import NULL_TRACER, player_role
from repro.graph.ball import Ball
from repro.tee.enclave import Enclave


@dataclass(frozen=True)
class EvaluationShare:
    """One Player's slice of the evaluation work: the balls that first
    appear in its Dealer-given sequence -- as plain balls, whose mask
    streams the evaluation records itself, or as the recorded streams a
    ``CMMCache`` put in their place (``cached``)."""

    player: int
    balls: tuple[Ball | PreparedBall, ...]
    cached: bool = False


def share_key(index: int, share: EvaluationShare) -> str:
    """The stable protocol coordinate of one evaluation share -- the same
    string keys the chaos schedule, the fault report, and the run
    journal's checkpoint records.  A cache-fed share is spelled
    ``verify:`` and every other one ``eval:``; journals and chaos
    schedules written before the two were one evaluation path hold both
    spellings, so both stay."""
    return f"{'verify' if share.cached else 'eval'}:{index}:p{share.player}"


@dataclass
class ShareOutcome:
    """What one Player share's evaluation reports back."""

    player: int
    wall_seconds: float
    results: list[EvaluationResult] = field(default_factory=list)
    #: Per-cache statistics observed during the share (``"pad"``: the
    #: kernels' chunk-product memos), merged into ``RunMetrics.caches`` by
    #: the engine.
    caches: dict[str, CacheStats] = field(default_factory=dict)
    #: Crypto op counts observed during the share (modmul/modexp/table
    #: builds per phase), merged into ``RunMetrics.ops`` by the engine.
    #: ``None`` on outcomes replayed from pre-accounting journals.
    ops: crypto_ops.OpCounter | None = None


@dataclass
class PmShareOutcome:
    """What one Player's pruning-message share reports back."""

    player: int
    wall_seconds: float
    pms: PruningMessages
    pm_costs: dict[int, float]
    timings: PhaseTimings
    #: Fault events observed inside the kernel (enclave/channel recovery),
    #: merged into the run's fault report by the engine.
    faults: list[FaultEvent] = field(default_factory=list)
    #: Share-side crypto op counts (see :class:`ShareOutcome.ops`).
    ops: crypto_ops.OpCounter | None = None


def _evaluate_share(message: EncryptedQueryMessage,
                    share: EvaluationShare,
                    enumeration_limit: int,
                    cmm_bound_bypass: int) -> ShareOutcome:
    started = time.perf_counter()
    counter = crypto_ops.OpCounter()
    # One multi-exp registry per share: the Straus tables (and their
    # pattern memos) are shared across every ball of the share.
    registry = MultiExpRegistry()
    role = f"player:{share.player}"
    with crypto_ops.counting(counter, "evaluation", role):
        results = [
            evaluate_ball_kernel(message, ball,
                                 enumeration_limit=enumeration_limit,
                                 cmm_bound_bypass=cmm_bound_bypass,
                                 player_id=share.player,
                                 multiexp=registry)
            for ball in share.balls
        ]
    # What saves the kernels a fold is the registry's per-(chunk, mask)
    # product memo: its hits and misses are the ``pad`` counters.
    memo = CacheStats(hits=registry.memo_hits(),
                      misses=registry.memo_misses())
    return ShareOutcome(player=share.player,
                        wall_seconds=time.perf_counter() - started,
                        results=results, caches={"pad": memo}, ops=counter)


# ledger pin: ``benchmarks/ledger/spans.py`` WRAP_TABLE resolves this by hard
# lookup; delete with its row at the re-pin (ROADMAP 1(a)).
verify_prepared_kernel = evaluate_ball_kernel


def _compute_pm_share(enclave: Enclave,
                      message: EncryptedQueryMessage,
                      player: int,
                      balls: tuple[Ball, ...],
                      bf_config: BFConfig,
                      twiglet_h: int,
                      chaos: ChaosPolicy | None = None,
                      ) -> PmShareOutcome:
    started = time.perf_counter()
    counter = crypto_ops.OpCounter()
    with crypto_ops.counting(counter, "pm_computation",
                             f"player:{player}"):
        pms, pm_costs, timings, fault_events = compute_pms_kernel(
            enclave, message, list(balls),
            bf_config=bf_config, twiglet_h=twiglet_h,
            chaos=chaos, player_id=player)
    return PmShareOutcome(player=player,
                          wall_seconds=time.perf_counter() - started,
                          pms=pms, pm_costs=pm_costs, timings=timings,
                          faults=fault_events, ops=counter)


class BallExecutor:
    """Evaluates the Players' shares in-process, in share order.

    The k Players are a logical partition: the Dealer's sequences fix
    which balls form each share, and the shares run one after another in
    the engine's process.  ``install_faults`` binds the current run's
    injector (the inert null injector by default), whose policy travels
    into the PM kernel so enclave and channel faults fire where the
    enclave runs.
    """

    def __init__(self) -> None:
        self.faults = FaultInjector()
        self.tracer = NULL_TRACER

    def install_faults(self, injector: FaultInjector) -> None:
        """Bind the fault injector/report for the next run(s)."""
        self.faults = injector

    def install_tracer(self, tracer) -> None:
        """Bind the run's span tracer (same lifecycle as the injector);
        the default :data:`NULL_TRACER` keeps untraced dispatch free of
        span allocations."""
        self.tracer = tracer

    def _trace_shares(self, name: str, keys: list[str], outcomes: list,
                      completed: dict | None) -> None:
        """One ``player:<k>``-scope span per share outcome, with the
        share's measured wall-clock as the duration and only
        access-pattern attributes: the public share coordinate, ball/
        CGBE-op counts and whether the outcome was replayed from the
        journal.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        for key, outcome in zip(keys, outcomes):
            attrs: dict[str, object] = {
                "share_key": key,
                "replayed": bool(completed) and key in completed,
            }
            if isinstance(outcome, ShareOutcome):
                attrs["balls"] = len(outcome.results)
                attrs["cmms"] = sum(r.cmms for r in outcome.results)
                attrs["bypassed"] = sum(1 for r in outcome.results
                                        if r.bypassed)
                pad = outcome.caches.get("pad")
                if pad is not None:
                    attrs["hits"] = pad.hits
                    attrs["misses"] = pad.misses
            else:  # PmShareOutcome
                attrs["balls"] = len(outcome.pm_costs)
            # getattr: journaled outcomes from pre-accounting runs lack
            # the ops field entirely.
            counter = getattr(outcome, "ops", None)
            if counter is not None:
                totals = counter.totals()
                attrs["modmuls"] = totals.modmul
                attrs["modexps"] = totals.modexp
                attrs["table_builds"] = totals.table_build
            tracer.event(name, player_role(outcome.player),
                         duration_s=outcome.wall_seconds, **attrs)

    # -- public API ----------------------------------------------------
    def evaluate_shares(self, message: EncryptedQueryMessage,
                        shares: list[EvaluationShare],
                        *, enumeration_limit: int,
                        cmm_bound_bypass: int,
                        completed: dict[str, ShareOutcome] | None = None,
                        on_result=None) -> list[ShareOutcome]:
        """Evaluate every share; outcomes come back in share order.

        ``completed`` maps share keys to already-known outcomes (a resumed
        run's journaled checkpoints): those shares are not evaluated,
        their outcomes are spliced back in place.  ``on_result(key,
        outcome)`` fires as each *newly computed* share finishes -- the
        journal's checkpoint hook.
        """
        keys = [share_key(i, share) for i, share in enumerate(shares)]
        outcomes = []
        for key, share in zip(keys, shares):
            if completed and key in completed:
                outcomes.append(completed[key])
                continue
            outcome = _evaluate_share(message, share, enumeration_limit,
                                      cmm_bound_bypass)
            if on_result is not None:
                on_result(key, outcome)
            outcomes.append(outcome)
        self._trace_shares("evaluation_share", keys, outcomes, completed)
        return outcomes

    # ledger pin: ``benchmarks/ledger/spans.py`` WRAP_TABLE resolves this by
    # hard lookup; delete with its row at the re-pin (ROADMAP 1(a)).
    verify_shares = evaluate_shares

    def compute_pm_shares(self, message: EncryptedQueryMessage,
                          shares: list[tuple[int, Enclave, tuple[Ball, ...]]],
                          *, bf_config: BFConfig,
                          twiglet_h: int,
                          ) -> list[PmShareOutcome]:
        """Compute every player's PM share; outcomes in share order.

        The active chaos policy travels into the kernel, and the fault
        events it records there are merged into the run's report.
        """
        chaos = self.faults.policy if self.faults.active else None
        outcomes = [
            _compute_pm_share(enclave, message, player, balls, bf_config,
                              twiglet_h, chaos)
            for player, enclave, balls in shares
        ]
        for outcome in outcomes:
            if outcome.faults:
                self.faults.report.extend(outcome.faults)
                outcome.faults = []
        self._trace_shares("pm_share",
                           [f"pm:p{player}" for player, _, _ in shares],
                           outcomes, None)
        return outcomes


def partition_shares(sequences, by_id: dict[int, Ball], num_players: int,
                     cached: bool = False) -> list[EvaluationShare]:
    """Deduplicate the Dealer's sequences into disjoint evaluation shares.

    Each unique ball id is assigned to the first sequence that mentions it
    (first-evaluation-wins; SSG's dummy duplicates are evaluated once, as
    in the serial engine).  The partition depends only on the sequences --
    public scheduling state -- never on ball contents or verdicts.
    ``cached`` marks every share as fed from a ``CMMCache``.
    """
    assigned: set[int] = set()
    shares: list[EvaluationShare] = []
    for seq in sequences:
        balls: list[Ball] = []
        for ball_id in seq.sequence:
            if ball_id in assigned:
                continue
            assigned.add(ball_id)
            balls.append(by_id[ball_id])
        shares.append(EvaluationShare(player=seq.player % max(num_players, 1),
                                      balls=tuple(balls), cached=cached))
    return shares


__all__ = [
    "BallExecutor",
    "EvaluationShare",
    "PmShareOutcome",
    "ShareOutcome",
    "partition_shares",
    "share_key",
]
