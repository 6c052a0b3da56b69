"""Measurement helpers for the experiments.

* :class:`Stopwatch` -- a tiny accumulating timer used around each protocol
  phase.
* :class:`PhaseTimings` -- the per-phase wall-clock record every engine run
  returns (preprocessing, PM computation, decryption, evaluation, matching).
* :class:`ConfusionCounts` -- TP/FP/TN/FN bookkeeping for pruning methods;
  ``ppcr`` is the paper's *predicted positive condition rate*
  ``(TP + FP) / (TP + TN + FP + FN)`` (Sec. 6.3), the x-axis of Figs. 16-18.
* :class:`MessageSizes` -- byte counters for the EXP-1 message-size report.
* :class:`~repro.cache.CacheStats` -- re-exported from :mod:`repro.cache`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cache import CacheStats
from repro.crypto.ops import OpCounter
from repro.framework.faults import FaultReport


class StopwatchError(RuntimeError):
    """A :class:`Stopwatch` exited more times than it was entered."""


class Stopwatch:
    """Accumulating wall-clock timer: ``with watch: ...`` adds to total.

    Re-entrancy-safe: nested/overlapping ``with`` blocks on the same
    watch (streaming verification re-entering a phase timer) count the
    *outermost* interval once instead of silently clobbering the start
    stamp and under-counting.  An ``__exit__`` without a matching
    ``__enter__`` raises :class:`StopwatchError` -- unbalanced use is a
    caller bug, never a measurement to swallow.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self._started: float | None = None
        self._depth = 0

    def __enter__(self) -> "Stopwatch":
        if self._depth == 0:
            self._started = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._depth == 0 or self._started is None:
            raise StopwatchError(
                "Stopwatch.__exit__ without a matching __enter__")
        self._depth -= 1
        if self._depth == 0:
            self.total += time.perf_counter() - self._started
            self._started = None


@dataclass
class PhaseTimings:
    """Wall-clock seconds per protocol phase of one query run."""

    user_preprocessing: float = 0.0
    pm_computation: float = 0.0       # player-side BF + twiglet (sum)
    pm_bf: float = 0.0
    pm_twiglet: float = 0.0
    user_pm_decryption: float = 0.0
    sequence_generation: float = 0.0
    evaluation: float = 0.0           # Alg. 1 + Alg. 2 over all balls (sum)
    user_result_decryption: float = 0.0
    user_matching: float = 0.0
    # Parts of ``user_matching``; what is left of it is the Dealer fetch.
    user_ball_decrypt: float = 0.0
    user_ball_decode: float = 0.0
    user_ball_match: float = 0.0

    def total(self) -> float:
        return (self.user_preprocessing + self.pm_computation
                + self.user_pm_decryption + self.sequence_generation
                + self.evaluation + self.user_result_decryption
                + self.user_matching)


@dataclass
class ConfusionCounts:
    """Pruning-quality bookkeeping relative to ground truth.

    *Positive* means "the pruning kept the ball"; *true* means "the ball
    really contains a match".  Sound pruning has fn == 0 by construction
    (asserted throughout the tests).
    """

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def record(self, predicted_positive: bool, actually_positive: bool) -> None:
        if predicted_positive and actually_positive:
            self.tp += 1
        elif predicted_positive:
            self.fp += 1
        elif actually_positive:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def ppcr(self) -> float:
        """Predicted positive condition rate (== the paper's theta)."""
        if self.total == 0:
            return 0.0
        return (self.tp + self.fp) / self.total

    @property
    def pruned(self) -> int:
        """Balls the method discarded."""
        return self.tn + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(tp=self.tp + other.tp, fp=self.fp + other.fp,
                               tn=self.tn + other.tn, fn=self.fn + other.fn)


@dataclass
class JournalCounters:
    """Write-ahead journal and admission-control counters of one run.

    ``checkpoints_written`` counts durable records this run appended;
    ``records_replayed``/``shares_skipped`` count what a resume reused
    instead of recomputing; ``replayed_fault_events`` counts pre-crash
    fault events merged into this run's report (each journaled event is
    replayed exactly once); ``tampered_records`` counts journal records
    that failed their keyed digest and were re-evaluated instead;
    ``pm_replays`` counts pruning-message records a resume reused (each
    gated on ``reattestations`` fresh enclave attestations -- journaled
    BF verdicts are never trusted by a new process without one).
    """

    checkpoints_written: int = 0
    records_replayed: int = 0
    shares_skipped: int = 0
    shares_evaluated: int = 0
    tampered_records: int = 0
    replayed_fault_events: int = 0
    deadline_hits: int = 0
    pm_replays: int = 0
    reattestations: int = 0

    def merge(self, other: "JournalCounters") -> None:
        self.checkpoints_written += other.checkpoints_written
        self.records_replayed += other.records_replayed
        self.shares_skipped += other.shares_skipped
        self.shares_evaluated += other.shares_evaluated
        self.tampered_records += other.tampered_records
        self.replayed_fault_events += other.replayed_fault_events
        self.deadline_hits += other.deadline_hits
        self.pm_replays += other.pm_replays
        self.reattestations += other.reattestations

    def __bool__(self) -> bool:
        return any((self.checkpoints_written, self.records_replayed,
                    self.shares_skipped, self.shares_evaluated,
                    self.tampered_records, self.replayed_fault_events,
                    self.deadline_hits, self.pm_replays,
                    self.reattestations))

    def as_dict(self) -> dict:
        return {
            "checkpoints_written": self.checkpoints_written,
            "records_replayed": self.records_replayed,
            "shares_skipped": self.shares_skipped,
            "shares_evaluated": self.shares_evaluated,
            "tampered_records": self.tampered_records,
            "replayed_fault_events": self.replayed_fault_events,
            "deadline_hits": self.deadline_hits,
            "pm_replays": self.pm_replays,
            "reattestations": self.reattestations,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JournalCounters":
        """Rebuild from :meth:`as_dict` output (wire verdicts)."""
        fields = ("checkpoints_written", "records_replayed",
                  "shares_skipped", "shares_evaluated", "tampered_records",
                  "replayed_fault_events", "deadline_hits", "pm_replays",
                  "reattestations")
        return cls(**{name: int(payload.get(name, 0)) for name in fields})

    def summary_line(self) -> str:
        return (f"checkpoints={self.checkpoints_written} "
                f"replayed={self.records_replayed} "
                f"skipped={self.shares_skipped} "
                f"evaluated={self.shares_evaluated} "
                f"tampered={self.tampered_records} "
                f"pm_replays={self.pm_replays} "
                f"deadline_hits={self.deadline_hits}")


@dataclass
class MessageSizes:
    """Byte counters for EXP-1 (Sec. 6.2)."""

    encrypted_matrix: int = 0
    twiglet_tables: int = 0
    bf_encodings: int = 0
    pruning_messages: int = 0
    ciphertext_results: int = 0
    retrieved_balls: int = 0

    def user_to_sp(self) -> int:
        return self.encrypted_matrix + self.twiglet_tables + self.bf_encodings

    def sp_to_user(self) -> int:
        return (self.pruning_messages + self.ciphertext_results
                + self.retrieved_balls)

    def add(self, field_name: str, nbytes: int) -> None:
        setattr(self, field_name, getattr(self, field_name) + nbytes)

    def as_dict(self) -> dict:
        return dict(vars(self))


#: Serving-layer name for the per-run byte counters: trace spans and the
#: metrics exporters speak of "communication volume" (the EXP-1 framing),
#: the engine internals of "message sizes".  Same class.
CommunicationVolume = MessageSizes


#: Separator between a cache's base name and its shard qualifier.  Cache
#: labels never contain ``@`` (they are short fixed identifiers), so the
#: split in :func:`base_cache_name` is unambiguous.
_SHARD_SCOPE_SEP = "@shard"


def scoped_cache_name(name: str, shard: int | str) -> str:
    """``"cmm", 0 -> "cmm@shard0"`` -- the gateway's per-shard cache key."""
    return f"{name}{_SHARD_SCOPE_SEP}{shard}"


def base_cache_name(name: str) -> str:
    """Strip a shard qualifier (identity for unqualified names)."""
    return name.split(_SHARD_SCOPE_SEP, 1)[0]


@dataclass
class RunMetrics:
    """Everything a single engine run measured.

    ``timings.evaluation`` is the *sum* of per-ball costs; the
    ``per_worker_*`` fields record each Player share's measured
    wall-clock for the evaluation and PM phases.
    """

    timings: PhaseTimings = field(default_factory=PhaseTimings)
    sizes: MessageSizes = field(default_factory=MessageSizes)
    candidate_balls: int = 0
    positives_after_pruning: int = 0
    bypassed_balls: int = 0
    cmms_enumerated: int = 0
    per_ball_eval_cost: dict[int, float] = field(default_factory=dict)
    per_ball_pm_cost: dict[int, float] = field(default_factory=dict)
    per_worker_eval_wall: dict[int, float] = field(default_factory=dict)
    per_worker_pm_wall: dict[int, float] = field(default_factory=dict)
    #: Per-cache counter deltas recorded during this run, keyed by cache
    #: name: ``"cmm"`` for the batch server's signature cache, ``"pad"``
    #: for the kernels' ``(chunk, mask)`` product lookups, ``"decrypt"``
    #: for the user's CGBE unblinding memo across PM and result
    #: decryption, ``"ball_slice"`` for the user's memo of decoded
    #: retrieved balls.  A gateway qualifies them per shard
    #: (``decrypt@shard0``, :meth:`record_shard_caches`).
    caches: dict[str, CacheStats] = field(default_factory=dict)
    #: Every fault injected, detected, retried, recovered or degraded-past
    #: during this run (chaos-injected and genuine alike).  On a resumed
    #: run this *includes* the journaled pre-crash events, replayed
    #: exactly once -- see :class:`JournalCounters`.
    faults: FaultReport = field(default_factory=FaultReport)
    #: Write-ahead journal / crash-resume counters (all zero when the run
    #: is not journal-backed).
    journal: JournalCounters = field(default_factory=JournalCounters)
    #: Crypto op counts (modmul / modexp / window-table builds) bucketed
    #: by ``(phase, role)`` -- the worker-side counters merged with the
    #: user-side phases, so benchmark deltas are attributable op-by-op.
    ops: OpCounter = field(default_factory=OpCounter)

    def record_cache(self, name: str, stats: CacheStats) -> None:
        """Merge one cache's counters into this run's record."""
        existing = self.caches.get(name)
        if existing is None:
            self.caches[name] = stats.snapshot()
        else:
            existing.merge(stats)

    def record_shard_caches(self, shard: int | str,
                            caches: dict[str, CacheStats]) -> None:
        """Record one shard's cache counters under shard-qualified keys.

        Two shards legitimately run caches with the *same* label ("cmm",
        "pad", "decrypt"); merging them under the bare name would sum
        counters but silently ``max`` the fill state (entries/weight/
        capacity) across unrelated caches -- per-shard fill would be
        unrecoverable.  Qualifying the key (``cmm@shard0``) keeps each
        shard's counters intact; :meth:`cache_totals` re-aggregates by
        base name when only fleet-wide sums matter.
        """
        for name, stats in caches.items():
            self.record_cache(scoped_cache_name(name, shard), stats)

    def cache_totals(self) -> dict[str, CacheStats]:
        """Caches aggregated by base name (shard qualifiers stripped) --
        counter fields are exact fleet-wide sums; fill-state fields are
        per-shard maxima, not sums, by :meth:`CacheStats.merge`."""
        totals: dict[str, CacheStats] = {}
        for name, stats in self.caches.items():
            base = base_cache_name(name)
            existing = totals.get(base)
            if existing is None:
                totals[base] = stats.snapshot()
            else:
                existing.merge(stats)
        return totals

    @property
    def eval_wall_seconds(self) -> float:
        """Real elapsed seconds of evaluation: the Players' shares run one
        after another, so their walls add up."""
        return sum(self.per_worker_eval_wall.values())
