"""Parallel ball-evaluation backends for the SP side.

The paper's scalability argument is that the k Player servers evaluate
their sequences concurrently ("evaluations can be readily parallelized",
Sec. 4.3).  The engines express that through one abstraction:

* :class:`SerialExecutor` runs every player share in-process, in order --
  deterministic, debuggable, and the right default on one core;
* :class:`ProcessExecutor` maps player shares onto a
  :class:`concurrent.futures.ProcessPoolExecutor`, one task per Player
  sequence, so the pure-Python big-integer arithmetic of Alg. 2 escapes
  the GIL entirely.

Both backends produce *identical* :class:`QueryResult` contents: per-ball
evaluation is a pure function of ``(message, ball)`` (all CGBE operations
the Players perform are deterministic given their ciphertext inputs), the
work partition is fixed by the Dealer's sequences before any backend is
consulted, and shares are merged in sequence order with
first-evaluation-wins per ball id.  The only things that differ are the
measured wall-clocks.

Fault tolerance: every call carries a stable key (its protocol
coordinate), so a share lost to a crashed or hung worker can be
re-dispatched -- and only the *lost* shares are re-run.  The process
backend survives ``BrokenProcessPool`` (worker death, injected via
``os._exit`` under chaos) and per-share deadlines by respawning the pool
with exponential backoff; because share evaluation is pure, the merged
results are value-identical to a fault-free serial run under any injected
schedule.  Fault decisions come from the installed
:class:`~repro.framework.faults.FaultInjector` (see ``PriloConfig.chaos``)
and every injection/detection/retry is recorded in its report.

Obliviousness is unaffected: the executor schedules *shares*, which are
derived from the Dealer's sequences only -- never from ciphertext values,
verdicts, or any other query-dependent signal -- and every ball in a share
is evaluated unconditionally.  Chaos decisions, likewise, hash public
coordinates only.  See DESIGN.md ("Evaluation", "Fault model and
recovery").

Worker payloads are ``(message, share)`` rather than whole
:class:`~repro.framework.roles.Player` objects: players hold the full ball
index, which must never be re-pickled per task.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.core.bf_pruning import BFConfig
from repro.core.enumeration import PreparedBall
from repro.crypto import ops as crypto_ops
from repro.crypto.kernels import MultiExpRegistry
from repro.framework.faults import (
    ChaosPolicy,
    FaultAction,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultRecoveryExhausted,
    InjectedFault,
    RecoveryPolicy,
)
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

#: Registry of backend names accepted by ``PriloConfig.executor``.
EXECUTOR_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class EvaluationShare:
    """One worker's slice of the evaluation work: the balls that first
    appear in one Player's Dealer-given sequence -- as plain balls, whose
    mask streams the worker records itself, or as the recorded streams a
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
    """What one worker reports back for its evaluation share."""

    player: int
    wall_seconds: float
    results: list[EvaluationResult] = field(default_factory=list)
    #: Per-cache statistics observed inside the worker (``"pad"``: the
    #: kernels' chunk-product memos), merged into ``RunMetrics.caches`` by
    #: the engine.
    caches: dict[str, CacheStats] = field(default_factory=dict)
    #: Crypto op counts observed inside the worker (modmul/modexp/table
    #: builds per phase), merged into ``RunMetrics.ops`` by the engine.
    #: ``None`` on outcomes replayed from pre-accounting journals.
    ops: crypto_ops.OpCounter | None = None


@dataclass
class PmShareOutcome:
    """What one worker reports back for its pruning-message share."""

    player: int
    wall_seconds: float
    pms: PruningMessages
    pm_costs: dict[int, float]
    timings: PhaseTimings
    #: Fault events observed inside the kernel (enclave/channel recovery),
    #: merged into the run's fault report by the engine.
    faults: list[FaultEvent] = field(default_factory=list)
    #: Worker-side crypto op counts (see :class:`ShareOutcome.ops`).
    ops: crypto_ops.OpCounter | None = None


# ----------------------------------------------------------------------
# module-level worker entry points (must be picklable by reference)
# ----------------------------------------------------------------------
def _evaluate_share(message: EncryptedQueryMessage,
                    share: EvaluationShare,
                    enumeration_limit: int,
                    cmm_bound_bypass: int) -> ShareOutcome:
    started = time.perf_counter()
    counter = crypto_ops.OpCounter()
    # One multi-exp registry per share: the Straus tables (and their
    # pattern memos) are shared across every ball this worker evaluates.
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
                      twiglet_features: dict[int, frozenset] | None,
                      chaos: ChaosPolicy | None = None,
                      ) -> PmShareOutcome:
    started = time.perf_counter()
    counter = crypto_ops.OpCounter()
    with crypto_ops.counting(counter, "pm_computation",
                             f"player:{player}"):
        pms, pm_costs, timings, fault_events = compute_pms_kernel(
            enclave, message, list(balls),
            bf_config=bf_config, twiglet_h=twiglet_h,
            twiglet_features=twiglet_features,
            chaos=chaos, player_id=player)
    return PmShareOutcome(player=player,
                          wall_seconds=time.perf_counter() - started,
                          pms=pms, pm_costs=pm_costs, timings=timings,
                          faults=fault_events, ops=counter)


def _watch_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit when the spawning engine dies.

    A ``kill -9`` of the engine process (the crash-recovery model of
    DESIGN.md section 9) must not leak idle pool workers -- they would
    otherwise block forever on the call queue.  A daemon thread polls the
    parent pid and hard-exits the worker once it is reparented; the poll
    touches no query state, so obliviousness is unaffected.
    """
    import threading

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch, daemon=True,
                     name="parent-watchdog").start()


def _chaos_call(policy: ChaosPolicy | None, key: str, attempt: int,
                fn, *args):
    """Worker-side chaos shim: fail as the schedule dictates, then run the
    real kernel.  A worker crash is a *real* ``os._exit`` (the parent sees
    a genuine ``BrokenProcessPool``, not a simulated exception); a hang is
    a real sleep past the deadline.  The parent records the injection event
    at submit time by re-evaluating the same pure decision."""
    if policy is not None:
        if policy.decides(FaultKind.WORKER_CRASH, key, attempt):
            os._exit(66)
        if policy.decides(FaultKind.SHARE_TIMEOUT, key, attempt):
            time.sleep(policy.timeout_sleep_seconds)
            raise InjectedFault(
                FaultKind.SHARE_TIMEOUT,
                f"injected hang on {key} (attempt {attempt})")
    return fn(*args)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class BallExecutor:
    """Maps Player shares onto compute resources.

    Subclasses implement :meth:`_run_all` over ``(key, fn, args)`` calls
    and must return outcomes in submission order -- merging stays
    deterministic no matter how the backend schedules (or re-dispatches)
    the work.  ``install_faults`` binds the current run's injector; the
    default is the inert null injector, so the recovery machinery is
    always armed for *real* faults even with chaos off.
    """

    backend = "abstract"

    def __init__(self, workers: int = 1,
                 recovery: RecoveryPolicy | None = None) -> None:
        if workers < 1:
            raise ValueError("executor needs at least one worker")
        self.workers = workers
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
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

    def _trace_shares(self, name: str, calls: list, outcomes: list,
                      completed: dict | None) -> None:
        """One ``player:<k>``-scope span per harvested share outcome.

        Emitted in the parent (never inside workers), with the measured
        worker wall-clock as the duration and only access-pattern
        attributes: the public share coordinate, ball/CGBE-op counts and
        whether the outcome was replayed from the journal.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        for (key, _fn, _args), outcome in zip(calls, outcomes):
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
        run's journaled checkpoints): those shares are never dispatched,
        their outcomes are spliced back in place.  ``on_result(key,
        outcome)`` fires in the parent as each *newly computed* share
        outcome is harvested -- the journal's checkpoint hook -- without
        ever blocking the worker pool.
        """
        calls = [
            (share_key(i, share), _evaluate_share,
             (message, share, enumeration_limit, cmm_bound_bypass))
            for i, share in enumerate(shares)
        ]
        outcomes = self._run_with_completed(calls, completed, on_result)
        self._trace_shares("evaluation_share", calls, outcomes, completed)
        return outcomes

    # ledger pin: ``benchmarks/ledger/spans.py`` WRAP_TABLE resolves this by
    # hard lookup; delete with its row at the re-pin (ROADMAP 1(a)).
    verify_shares = evaluate_shares

    def _run_with_completed(self, calls, completed, on_result) -> list:
        """Dispatch only the calls whose key has no known outcome, then
        splice the known outcomes back into call order."""
        if not completed:
            return self._run_all(calls, on_result=on_result)
        pending = [(key, fn, args) for key, fn, args in calls
                   if key not in completed]
        fresh = iter(self._run_all(pending, on_result=on_result))
        return [completed[key] if key in completed else next(fresh)
                for key, _fn, _args in calls]

    def compute_pm_shares(self, message: EncryptedQueryMessage,
                          shares: list[tuple[int, Enclave, tuple[Ball, ...]]],
                          *, bf_config: BFConfig,
                          twiglet_h: int,
                          twiglet_features: dict[int, frozenset] | None = None,
                          ) -> list[PmShareOutcome]:
        """Compute every player's PM share; outcomes in share order.

        ``twiglet_features`` (artifact-store output) is sliced per share
        so process workers only pickle the features of their own balls.
        The active chaos policy travels into the kernel so enclave/channel
        faults fire inside the worker, where the enclave actually runs.
        """
        chaos = self.faults.policy if self.faults.active else None
        calls = []
        for player, enclave, balls in shares:
            subset = None
            if twiglet_features is not None:
                subset = {ball.ball_id: twiglet_features[ball.ball_id]
                          for ball in balls
                          if ball.ball_id in twiglet_features}
            calls.append(
                (f"pm:p{player}", _compute_pm_share,
                 (enclave, message, player, balls, bf_config, twiglet_h,
                  subset, chaos)))
        outcomes = self._run_all(calls)
        for outcome in outcomes:
            if outcome.faults:
                self.faults.report.extend(outcome.faults)
                outcome.faults = []
        self._trace_shares("pm_share", calls, outcomes, None)
        return outcomes

    # -- backend hook --------------------------------------------------
    def _run_all(self, calls: list[tuple[str, object, tuple]],
                 on_result=None) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "BallExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(BallExecutor):
    """In-process, in-order execution -- the determinism/debug baseline.

    Under chaos, crash/hang injections surface as in-process
    :class:`InjectedFault` stand-ins and go through the same
    detect/backoff/retry loop as the process backend, so the fault
    *schedule* and the recovery decisions are backend-independent.
    """

    backend = "serial"

    def __init__(self, recovery: RecoveryPolicy | None = None) -> None:
        super().__init__(workers=1, recovery=recovery)

    def _run_all(self, calls: list[tuple[str, object, tuple]],
                 on_result=None) -> list:
        results = []
        for key, fn, args in calls:
            if not self.faults.active:
                result = fn(*args)
            else:
                result = self._run_one(key, fn, args)
            if on_result is not None:
                on_result(key, result)
            results.append(result)
        return results

    def _run_one(self, key: str, fn, args: tuple):
        injector = self.faults
        attempt = 0
        last_kind: str | None = None
        while True:
            try:
                if injector.should(FaultKind.WORKER_CRASH, key,
                                   attempt=attempt,
                                   detail="worker crash (serial stand-in)"):
                    raise InjectedFault(
                        FaultKind.WORKER_CRASH,
                        f"injected worker crash on {key}")
                if injector.should(FaultKind.SHARE_TIMEOUT, key,
                                   attempt=attempt,
                                   detail="share deadline (serial stand-in)"):
                    raise InjectedFault(
                        FaultKind.SHARE_TIMEOUT,
                        f"injected share timeout on {key}")
                result = fn(*args)
            except InjectedFault as fault:
                injector.record(fault.kind, key, FaultAction.DETECTED,
                                detail=str(fault), attempt=attempt)
                if attempt >= self.recovery.max_retries:
                    raise FaultRecoveryExhausted(
                        f"share {key} still failing after "
                        f"{attempt + 1} attempts "
                        f"(max_retries={self.recovery.max_retries})"
                    ) from fault
                time.sleep(self.recovery.backoff_for(attempt))
                injector.record(fault.kind, key, FaultAction.RETRIED,
                                detail="re-running share in-process",
                                attempt=attempt)
                last_kind = fault.kind
                attempt += 1
                continue
            if last_kind is not None:
                injector.record(last_kind, key, FaultAction.RECOVERED,
                                detail=f"share succeeded on attempt "
                                       f"{attempt}", attempt=attempt)
            return result


class ProcessExecutor(BallExecutor):
    """Player shares on a process pool (one task per share).

    The pool is created lazily on first use and reused across queries, so
    the fork/spawn cost is paid once per engine, not once per run.  Results
    are gathered in submission order, which keeps merging bit-compatible
    with :class:`SerialExecutor`.

    The dispatch loop is *always* resilient (chaos merely makes failures
    likely): a dead worker breaks the whole pool, so the loop harvests
    whatever completed, discards the broken pool, respawns it after
    exponential backoff, and re-dispatches only the shares that never
    returned.  ``RecoveryPolicy.share_timeout`` adds a per-share deadline
    for hung workers.  Because every share is a pure function of its
    arguments, a re-dispatched share returns the same value it would have
    the first time.
    """

    backend = "process"

    def __init__(self, workers: int | None = None,
                 recovery: RecoveryPolicy | None = None) -> None:
        if workers is None:
            workers = max(os.cpu_count() or 1, 1)
        super().__init__(workers=workers, recovery=recovery)
        self._pool: ProcessPoolExecutor | None = None
        #: Pool respawns over this executor's lifetime (observable in
        #: tests and the fault report's detail strings).
        self.respawns = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # fork (where available) shares the already-imported modules
            # and the RFC 3526 constants with workers at no pickling cost.
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=context,
                                             initializer=_watch_parent,
                                             initargs=(os.getpid(),))
        return self._pool

    def _reset_pool(self) -> None:
        """Discard a broken/hung pool; the next dispatch respawns it.

        A hung worker never returns on its own, so the abandoned pool's
        workers are killed (SIGKILL: a worker forked under ``serve`` has
        inherited its SIGTERM drain handler and would survive
        ``terminate``); the pool's manager thread then sees them dead,
        reaps them and exits, and ``shutdown(wait=True)`` joins it --
        nothing of the old pool is alive when this returns.
        """
        if self._pool is not None:
            for worker in list((self._pool._processes or {}).values()):
                worker.kill()
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self.respawns += 1

    def _run_all(self, calls: list[tuple[str, object, tuple]],
                 on_result=None) -> list:
        try:
            return self._run_rounds(calls, on_result)
        except BaseException:
            # A run abandoned mid-round (``on_result`` raised: the deadline
            # hook) leaves shares queued and running in the pool; the next
            # fan-out must not wait behind work nobody will read.
            self._reset_pool()
            raise

    def _run_rounds(self, calls, on_result) -> list:
        injector = self.faults
        policy = injector.policy if injector.active else None
        recovery = self.recovery
        results: list = [None] * len(calls)
        pending = list(range(len(calls)))
        attempts = [0] * len(calls)
        incident = 0
        while pending:
            pool = self._ensure_pool()
            futures: dict[int, Future] = {}
            for i in pending:
                key, fn, args = calls[i]
                if policy is not None:
                    # The worker decides the same pure coin flips; record
                    # the injection here because a killed child cannot.
                    if policy.decides(FaultKind.WORKER_CRASH, key,
                                      attempts[i]):
                        injector.record(FaultKind.WORKER_CRASH, key,
                                        FaultAction.INJECTED,
                                        detail="worker os._exit(66)",
                                        attempt=attempts[i])
                    elif policy.decides(FaultKind.SHARE_TIMEOUT, key,
                                        attempts[i]):
                        injector.record(FaultKind.SHARE_TIMEOUT, key,
                                        FaultAction.INJECTED,
                                        detail="worker hang injected",
                                        attempt=attempts[i])
                try:
                    futures[i] = pool.submit(_chaos_call, policy, key,
                                             attempts[i], fn, *args)
                except BrokenExecutor as exc:
                    # A worker that died while this round was still being
                    # submitted has already broken the pool: harvest the
                    # refusal below exactly like a share lost in flight.
                    futures[i] = Future()
                    futures[i].set_exception(exc)
            failed: dict[int, str] = {}
            pool_broken = False
            pool_hung = False
            for i in pending:
                key = calls[i][0]
                try:
                    results[i] = futures[i].result(
                        timeout=recovery.share_timeout)
                    if attempts[i] > 0:
                        injector.record(
                            FaultKind.WORKER_CRASH, key,
                            FaultAction.RECOVERED,
                            detail=f"share recovered on attempt "
                                   f"{attempts[i]}",
                            attempt=attempts[i])
                    if on_result is not None:
                        on_result(key, results[i])
                except InjectedFault as fault:
                    failed[i] = fault.kind
                    injector.record(fault.kind, key, FaultAction.DETECTED,
                                    detail=str(fault), attempt=attempts[i])
                except BrokenExecutor as exc:
                    # One dead worker breaks the whole pool; innocent
                    # still-pending shares land here too and are simply
                    # re-dispatched on the fresh pool.
                    pool_broken = True
                    failed[i] = FaultKind.WORKER_CRASH
                    injector.record(FaultKind.WORKER_CRASH, key,
                                    FaultAction.DETECTED,
                                    detail=type(exc).__name__,
                                    attempt=attempts[i])
                except FutureTimeoutError:
                    pool_hung = True
                    failed[i] = FaultKind.SHARE_TIMEOUT
                    injector.record(
                        FaultKind.SHARE_TIMEOUT, key, FaultAction.DETECTED,
                        detail=f"no result within {recovery.share_timeout}s",
                        attempt=attempts[i])
            if pool_broken or pool_hung:
                # Before the exhaustion check: a run that gives up must not
                # leave the dead or hung pool behind either.
                self._reset_pool()
            still_pending: list[int] = []
            for i, kind in failed.items():
                attempts[i] += 1
                if attempts[i] > recovery.max_retries:
                    raise FaultRecoveryExhausted(
                        f"share {calls[i][0]} still failing after "
                        f"{attempts[i]} attempts "
                        f"(max_retries={recovery.max_retries})")
                still_pending.append(i)
            pending = still_pending
            if pending:
                delay = recovery.backoff_for(incident)
                incident += 1
                if delay > 0:
                    time.sleep(delay)
                for i in pending:
                    injector.record(
                        failed[i], calls[i][0], FaultAction.RETRIED,
                        detail=f"re-dispatch (pool respawn #{self.respawns}, "
                               f"backoff {delay:.3f}s)",
                        attempt=attempts[i] - 1)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def create_executor(backend: str, parallelism: int,
                    recovery: RecoveryPolicy | None = None) -> BallExecutor:
    """Build the configured backend (``PriloConfig.executor``)."""
    if backend == "serial":
        return SerialExecutor(recovery=recovery)
    if backend == "process":
        return ProcessExecutor(workers=parallelism, recovery=recovery)
    raise ValueError(f"unknown executor backend {backend!r}; "
                     f"choose one of {EXECUTOR_BACKENDS}")


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
    "EXECUTOR_BACKENDS",
    "BallExecutor",
    "EvaluationShare",
    "PmShareOutcome",
    "ProcessExecutor",
    "SerialExecutor",
    "ShareOutcome",
    "create_executor",
    "partition_shares",
    "share_key",
]
