"""The one bounded cache, :class:`LRU`, and the :class:`CacheStats` every
cache reports through (``RunMetrics.caches``, gateway verdicts, benchmark
JSON).  A leaf module: the crypto layer uses it without loading the
framework."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Callable, Generic, Hashable, Iterator, TypeVar

V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one bounded cache.
    ``entries``/``weight``/``capacity`` describe the cache's current fill
    at snapshot time; the counters accumulate."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    weight: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another snapshot's counters (fill state: take max)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.entries = max(self.entries, other.entries)
        self.weight = max(self.weight, other.weight)
        self.capacity = max(self.capacity, other.capacity)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since the ``since`` snapshot (fill state
        reports the current values)."""
        return replace(self, hits=self.hits - since.hits,
                       misses=self.misses - since.misses,
                       evictions=self.evictions - since.evictions)

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def as_dict(self) -> dict:
        return {**vars(self), "hit_rate": round(self.hit_rate, 6)}

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheStats":
        """Rebuild from :meth:`as_dict` output (``hit_rate`` is derived
        and ignored) -- the gateway reconstitutes per-shard counters from
        wire verdicts through this."""
        return cls(**{f.name: int(payload.get(f.name, 0))
                      for f in fields(cls)})


def _one(_value) -> int:
    return 1


class LRU(Generic[V]):
    """A weighted least-recently-used map under a positive-int bound.

    A value weighs ``weigh(value)`` (default 1: the bound counts entries).
    Past the bound, least recently used entries go first -- never the one
    just inserted, so a value heavier than the bound is kept alone.
    ``None`` is not storable: :meth:`get` returns it for a miss.
    ``stats`` (fresh unless given) counts each :meth:`get` as a hit or a
    miss and each entry dropped, by the bound or by :meth:`pop`, as an
    eviction.  Iteration yields a snapshot of the keys, least recent
    first.
    """

    def __init__(self, max_weight: int, weigh: Callable[[V], int] = _one,
                 stats: CacheStats | None = None) -> None:
        if (isinstance(max_weight, bool) or not isinstance(max_weight, int)
                or max_weight < 1):
            raise ValueError(f"cache weight bound must be a positive int, "
                             f"got {max_weight!r}")
        self.max_weight = max_weight
        self.weigh = weigh
        self.stats = stats if stats is not None else CacheStats()
        self.stats.capacity = max_weight
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self._weight = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(list(self._entries))

    @property
    def weight(self) -> int:
        return self._weight

    def values(self) -> list[V]:
        """The values, least recent first (not a lookup: counts nothing)."""
        return list(self._entries.values())

    def get(self, key: Hashable) -> V | None:
        """The value under ``key`` (now the most recently used), or None."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Insert or replace as the most recently used, then evict."""
        entries, weigh, stats = self._entries, self.weigh, self.stats
        old = entries.pop(key, None)
        weight = self._weight + weigh(value)
        if old is not None:
            weight -= weigh(old)
        entries[key] = value
        while weight > self.max_weight and len(entries) > 1:
            weight -= weigh(entries.popitem(last=False)[1])
            stats.evictions += 1
        self._weight = stats.weight = weight
        stats.entries = len(entries)

    def pop(self, key: Hashable) -> V | None:
        """Drop ``key`` (counted as an eviction); its value, or None."""
        value = self._entries.pop(key, None)
        if value is not None:
            stats = self.stats
            stats.evictions += 1
            self._weight = stats.weight = self._weight - self.weigh(value)
            stats.entries = len(self._entries)
        return value
