"""Seeded fault injection and the fault log of the online path.

The paper's deployment (a semi-honest SP running k Player servers, an SGX
enclave per Player, a Dealer holding outsourced artifacts) is exactly the
setting where partial failure is the norm: serving processes die, enclaves
fail attestation or run out of EPC, sealed payloads are corrupted in
transit, and on-disk artifact packs rot or are tampered with.  This module
supplies what every recovery site shares:

* :class:`ChaosPolicy` -- a *deterministic, seeded* fault schedule.  Every
  injection decision is a pure function of ``(seed, kind, key, attempt)``
  (a SHA-256 coin flip), so the same policy replays the same fault
  schedule in any process, in any order -- which is what
  makes "answers are byte-identical to a fault-free run under any
  injected schedule" a testable statement rather than a hope.

Recovery itself has one behaviour, no switches: an enclave down degrades
to twiglet-only pruning, a dropped Player's balls are re-planned onto the
survivors, a pack serving corrupt data is quarantined and recomputed
around, and a store found stale at setup is refused (``StoreStale``).

:class:`FaultInjector` binds a policy to a :class:`FaultReport` event log;
the engine threads one injector per run through the PM kernel, the roles,
the TEE channel, and the artifact store, and surfaces the resulting events
as ``RunMetrics.faults``.  Worker processes are the sharded gateway's
alone; a dead shard is its failure mode, handled by the gateway's own
death detection and re-placement (:mod:`repro.framework.gateway`).

Soundness of degradation: every pruning message only ever *discards*
provably spurious balls (Props. 3-6), so skipping a pruning method keeps
strictly more candidates and the final match set is unchanged.  Likewise
re-planning a dropped Player's balls onto survivors changes scheduling
only -- per-ball evaluation is a pure function of ``(message, ball)``.
See DESIGN.md ("Fault model and recovery").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


class FaultKind:
    """The injectable (and detectable) fault classes of the pipeline."""

    #: An enclave's attestation report fails verification.
    ENCLAVE_ATTESTATION = "enclave_attestation"
    #: An enclave ECALL aborts (EPC exhaustion / enclave crash).
    ENCLAVE_MEMORY = "enclave_memory"
    #: A sealed user->enclave payload is corrupted in transit.
    CHANNEL_CORRUPTION = "channel_corruption"
    #: An artifact-store pack byte is flipped (tamper / bit rot).
    STORE_TAMPER = "store_tamper"
    #: A Player server disappears between sequencing and evaluation.
    PLAYER_DROPOUT = "player_dropout"
    #: The whole serving process dies uncleanly (``SIGKILL``), exactly as
    #: an OOM kill or host restart would -- exercised by the crash-resume
    #: harness at journal checkpoint boundaries.  Opt-in only: it is
    #: *not* part of :data:`INJECTABLE_KINDS`, so a plain
    #: ``ChaosPolicy(fault_rate=...)`` never kills the process.
    KILL_PROCESS = "kill_process"
    #: Detection-only label: a journal record failed its keyed digest on
    #: replay (never injected -- tampering comes from the disk bytes).
    JOURNAL_TAMPER = "journal_tamper"
    #: A malicious SP shard fabricates or mutates its answer slice
    #: (extra matches, altered verified set) without holding the owner's
    #: verification key.  Injected only at the shard boundary by a
    #: *rogue* policy (see :mod:`repro.framework.shard`); caught by the
    #: merge-time certificate verifier.
    FORGE_RESULT = "forge_result"
    #: A lazy SP shard silently omits a candidate ball from its slice
    #: (skipped evaluation sold as a complete answer).  Caught by the
    #: completeness check against the committed candidate catalog.
    DROP_BALL = "drop_ball"
    #: A malicious SP shard replays a previously valid verdict for a
    #: different query/membership.  Caught because certificates bind the
    #: query id and the membership under which the slice was computed.
    REPLAY_STALE = "replay_stale"


#: The malicious-SP tier: never part of :data:`INJECTABLE_KINDS` (a
#: plain ``ChaosPolicy(fault_rate=...)`` stays semi-honest, mirroring
#: the ``KILL_PROCESS`` opt-in) -- these kinds only act when named in a
#: rogue-shard policy, and they model an adversary *without* the
#: owner-derived verification key.
MALICIOUS_KINDS = (
    FaultKind.FORGE_RESULT,
    FaultKind.DROP_BALL,
    FaultKind.REPLAY_STALE,
)


#: Every kind :class:`ChaosPolicy` injects by default (``JOURNAL_TAMPER``
#: is detection-only; ``KILL_PROCESS`` must be requested explicitly
#: because only journal-backed runs survive it).
INJECTABLE_KINDS = (
    FaultKind.ENCLAVE_ATTESTATION,
    FaultKind.ENCLAVE_MEMORY,
    FaultKind.CHANNEL_CORRUPTION,
    FaultKind.STORE_TAMPER,
    FaultKind.PLAYER_DROPOUT,
)

#: Kinds accepted by ``ChaosPolicy.kinds`` (the defaults plus the opt-in
#: process kill and the opt-in malicious-SP tier).
VALID_KINDS = INJECTABLE_KINDS + (FaultKind.KILL_PROCESS,) + MALICIOUS_KINDS


class FaultAction:
    """What a :class:`FaultEvent` records about one fault's lifecycle."""

    INJECTED = "injected"
    DETECTED = "detected"
    RETRIED = "retried"
    RECOVERED = "recovered"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic, seeded fault-injection schedule.

    ``decides(kind, key, attempt)`` is a pure function: a SHA-256 hash of
    ``(seed, kind, key, attempt)`` compared against ``fault_rate``.  Keys
    are stable protocol coordinates ("enclave 1", "store ball 17"), so the
    schedule is identical in any process and in any order.

    ``faulted_attempts`` bounds how many retries of the same key keep
    faulting: with the default 1 only the first attempt can fail, so any
    recovery loop with at least one retry (ECALLs, sealed-payload
    re-requests, store re-fetches) converges.
    """

    seed: int = 0
    fault_rate: float = 0.0
    kinds: tuple[str, ...] = INJECTABLE_KINDS
    faulted_attempts: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(
                f"ChaosPolicy.seed must be an int (the fault schedule is "
                f"derived from it); got {self.seed!r}")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"ChaosPolicy.fault_rate must be in [0, 1] (a per-decision "
                f"probability); got {self.fault_rate!r}")
        unknown = set(self.kinds) - set(VALID_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kinds {sorted(unknown)}; choose from "
                f"{list(VALID_KINDS)}")
        if self.faulted_attempts < 1:
            raise ValueError("faulted_attempts must be >= 1")

    @classmethod
    def disabled(cls) -> "ChaosPolicy":
        """The null schedule (never injects)."""
        return cls(fault_rate=0.0)

    @property
    def active(self) -> bool:
        return self.fault_rate > 0.0 and bool(self.kinds)

    def decides(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Whether to inject ``kind`` at protocol coordinate ``key`` on
        retry number ``attempt`` -- deterministic, order-independent."""
        if kind not in self.kinds or self.fault_rate <= 0.0:
            return False
        if attempt >= self.faulted_attempts:
            return False
        digest = hashlib.sha256(
            f"chaos:{self.seed}:{kind}:{key}:{attempt}"
            .encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") < self.fault_rate * 2 ** 64


@dataclass
class FaultEvent:
    """One injected/detected/recovered fault or degradation decision."""

    kind: str
    key: str
    action: str
    detail: str = ""
    attempt: int = 0

    def as_dict(self) -> dict:
        return {"kind": self.kind, "key": self.key, "action": self.action,
                "detail": self.detail, "attempt": self.attempt}


@dataclass
class FaultReport:
    """Every fault event of one run, with the counters benchmarks and the
    CLI summary print (``RunMetrics.faults``)."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(self, kind: str, key: str, action: str, detail: str = "",
               attempt: int = 0) -> None:
        self.events.append(FaultEvent(kind=kind, key=key, action=action,
                                      detail=detail, attempt=attempt))

    def extend(self, events: list[FaultEvent]) -> None:
        self.events.extend(events)

    def count(self, action: str) -> int:
        return sum(1 for e in self.events if e.action == action)

    @property
    def injected(self) -> int:
        return self.count(FaultAction.INJECTED)

    @property
    def detected(self) -> int:
        return self.count(FaultAction.DETECTED)

    @property
    def retries(self) -> int:
        return self.count(FaultAction.RETRIED)

    @property
    def recovered(self) -> int:
        return self.count(FaultAction.RECOVERED)

    @property
    def degraded(self) -> int:
        return self.count(FaultAction.DEGRADED)

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def __bool__(self) -> bool:
        return bool(self.events)

    def as_dict(self) -> dict:
        return {
            "injected": self.injected,
            "detected": self.detected,
            "retries": self.retries,
            "recovered": self.recovered,
            "degraded": self.degraded,
            "by_kind": self.by_kind(),
            "events": [e.as_dict() for e in self.events],
        }

    def summary_line(self) -> str:
        return (f"injected={self.injected} detected={self.detected} "
                f"retries={self.retries} recovered={self.recovered} "
                f"degraded={self.degraded}")


class FaultInjector:
    """A :class:`ChaosPolicy` bound to an event log.

    The engine builds one injector per run (recording straight into that
    run's ``RunMetrics.faults``) and threads it through every recovery
    site.  A ``None`` policy yields the free null injector -- recovery
    sites stay installed but never inject, so *real* faults (a genuinely
    aborted ECALL, a genuinely tampered pack) flow through the same
    detect/retry/degrade paths chaos exercises.
    """

    def __init__(self, policy: ChaosPolicy | None = None,
                 report: FaultReport | None = None) -> None:
        self.policy = policy if policy is not None else ChaosPolicy.disabled()
        self.report = report if report is not None else FaultReport()

    @property
    def active(self) -> bool:
        return self.policy.active

    def should(self, kind: str, key: str, attempt: int = 0,
               detail: str = "") -> bool:
        """Decide-and-log: True means the caller must now fail as
        ``kind`` would (the injection event is already recorded)."""
        if not self.policy.decides(kind, key, attempt):
            return False
        self.record(kind, key, FaultAction.INJECTED, detail=detail,
                    attempt=attempt)
        return True

    def record(self, kind: str, key: str, action: str, detail: str = "",
               attempt: int = 0) -> None:
        self.report.record(kind, key, action, detail=detail, attempt=attempt)

    def corrupt(self, kind: str, key: str, blob: bytes,
                attempt: int = 0) -> bytes:
        """Return ``blob`` with one byte flipped when the schedule says to
        tamper with this coordinate; the pristine blob otherwise."""
        if not blob or not self.should(kind, key, attempt=attempt,
                                       detail=f"flipped byte in {len(blob)}B "
                                              f"payload"):
            return blob
        tampered = bytearray(blob)
        tampered[len(tampered) // 2] ^= 0xFF
        return bytes(tampered)


__all__ = [
    "ChaosPolicy",
    "FaultAction",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultReport",
    "INJECTABLE_KINDS",
    "MALICIOUS_KINDS",
    "VALID_KINDS",
]
