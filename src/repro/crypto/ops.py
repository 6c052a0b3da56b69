"""First-class crypto op accounting (modmul / modexp / table builds).

Wall-clock benchmarks say *that* a change was faster; op counts say *why*.
Every big-integer modular multiplication, modular exponentiation and
window-table-entry build in the CGBE hot path reports into the process's
*active bucket*, installed per phase and role via :func:`counting`.  The
counts are exact (not sampled), deterministic for a fixed workload, and
cheap to collect: one ``is None`` check plus an integer increment per op.

Design notes:

* This module is dependency-free on purpose.  ``repro.crypto.cgbe`` calls
  the ``record_*`` hooks, and ``repro.framework.metrics`` embeds
  :class:`OpCounter` in ``RunMetrics`` -- importing either from here would
  cycle.
* The active bucket is a module global, not a thread-local: crypto runs
  single-threaded per process (shares run inline in the engine, gateway
  shards are processes of their own), so a global is both correct and
  the cheapest thing that can work.  Each share counts into a local
  :class:`OpCounter` shipped back inside its outcome, and shards ship
  theirs inside their verdicts -- the global never crosses a process
  boundary.
* ``table_build`` counts window-table *entry* constructions.  A
  multi-bit entry build is one modular multiplication and is **also**
  counted in ``modmul``; a single-bit entry is its base value and costs
  none.  ``table_build`` attributes where modmuls went, it is not a
  disjoint op class.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class OpCounts:
    """Exact big-integer op tallies for one (phase, role) bucket."""

    modmul: int = 0
    modexp: int = 0
    table_build: int = 0

    def merge(self, other: "OpCounts") -> None:
        self.modmul += other.modmul
        self.modexp += other.modexp
        self.table_build += other.table_build

    @property
    def total(self) -> int:
        """Modmuls plus modexps (table builds are not a separate op)."""
        return self.modmul + self.modexp

    def as_dict(self) -> dict[str, int]:
        return {"modmul": self.modmul, "modexp": self.modexp,
                "table_build": self.table_build}

    @classmethod
    def from_dict(cls, payload: dict) -> "OpCounts":
        return cls(modmul=int(payload.get("modmul", 0)),
                   modexp=int(payload.get("modexp", 0)),
                   table_build=int(payload.get("table_build", 0)))


class OpCounter:
    """Op counts keyed by ``(phase, role)``.

    Phases follow :class:`repro.framework.metrics.PhaseTimings` names
    (``evaluation``, ``pm_computation``, ``user_preprocessing``, ...);
    roles follow the span vocabulary (``user``, ``player:<k>``).
    """

    def __init__(self) -> None:
        self.buckets: dict[tuple[str, str], OpCounts] = {}

    def bucket(self, phase: str, role: str) -> OpCounts:
        key = (phase, role)
        counts = self.buckets.get(key)
        if counts is None:
            counts = OpCounts()
            self.buckets[key] = counts
        return counts

    def merge(self, other: "OpCounter | None") -> None:
        if other is None:
            return
        for (phase, role), counts in other.buckets.items():
            self.bucket(phase, role).merge(counts)

    def merge_scoped(self, other: "OpCounter | None", *,
                     scope: str) -> None:
        """Merge with every role suffixed ``@<scope>``.

        The sharded gateway folds N per-shard counters into one report;
        without the suffix, ``player:1`` buckets from different shards
        would collapse and per-shard attribution would be gone.  Totals
        are unchanged by scoping (scoped keys stay disjoint per shard and
        :meth:`from_dict` round-trips them: the ``"phase/role"`` key
        splits on the *first* slash, so a suffixed role survives)."""
        if other is None:
            return
        for (phase, role), counts in other.buckets.items():
            self.bucket(phase, f"{role}@{scope}").merge(counts)

    def totals(self) -> OpCounts:
        out = OpCounts()
        for counts in self.buckets.values():
            out.merge(counts)
        return out

    def phase_totals(self) -> dict[str, OpCounts]:
        out: dict[str, OpCounts] = {}
        for (phase, _role), counts in sorted(self.buckets.items()):
            merged = out.setdefault(phase, OpCounts())
            merged.merge(counts)
        return out

    def as_dict(self) -> dict[str, dict[str, int]]:
        """``{"phase/role": {"modmul": ..., ...}}`` sorted for stable JSON."""
        return {f"{phase}/{role}": counts.as_dict()
                for (phase, role), counts in sorted(self.buckets.items())}

    @classmethod
    def from_dict(cls, payload: dict) -> "OpCounter":
        counter = cls()
        for key, counts in payload.items():
            phase, _, role = key.partition("/")
            counter.bucket(phase, role).merge(OpCounts.from_dict(counts))
        return counter

    def __bool__(self) -> bool:
        return any(counts.total or counts.table_build
                   for counts in self.buckets.values())


#: The bucket ops currently record into (None = counting disabled, which
#: is the default -- uncounted paths pay only the None check).
_ACTIVE: OpCounts | None = None


def record_modmul(n: int = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.modmul += n


def record_modexp(n: int = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.modexp += n


def record_table_build(n: int = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.table_build += n


@contextmanager
def counting(counter: OpCounter, phase: str, role: str) -> Iterator[OpCounts]:
    """Install ``counter``'s ``(phase, role)`` bucket as the active one.

    Nested scopes restore the outer bucket on exit, so a user-phase scope
    in the parent does not swallow worker-side counts and vice versa.
    """
    global _ACTIVE
    previous = _ACTIVE
    bucket = counter.bucket(phase, role)
    _ACTIVE = bucket
    try:
        yield bucket
    finally:
        _ACTIVE = previous


__all__ = [
    "OpCounter",
    "OpCounts",
    "counting",
    "record_modexp",
    "record_modmul",
    "record_table_build",
]
