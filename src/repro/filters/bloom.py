"""Bloom filters (Sec. 4.1.2).

The BF pruning technique builds one bloom filter per candidate ball over the
canonical encodings of the ball center's 2-label binary trees, transmits it
into the enclave, and tests the query's encodings against it.  The paper
sizes filters by Eq. 1: ``m = -n ln p / (ln 2)^2`` with the hash count
``m/n * ln 2``; both formulas are implemented here and exercised by the
experiments (default setting: n = 10K trees, p = 0.3 -> m = 25K bits,
"smaller than 4KB", Sec. 5).
"""

from __future__ import annotations

import hashlib
import math

#: Upper bound on the hash count.  The optimal k is ``log2(1/p)``, so 64
#: already means p = 2^-64; a serialized filter claiming more is hostile
#: (its k drives the probe loop inside the enclave's ECALL).
MAX_HASHES = 64

_HEADER_BYTES = 20
_LOW_128 = (1 << 128) - 1


def required_bits(num_items: int, false_positive_rate: float) -> int:
    """Eq. 1: the bit count achieving ``false_positive_rate`` for
    ``num_items`` insertions with the optimal hash count."""
    if num_items < 1:
        raise ValueError("num_items must be positive")
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must be in (0, 1)")
    return max(1, math.ceil(-num_items * math.log(false_positive_rate)
                            / (math.log(2) ** 2)))


def optimal_num_hashes(num_bits: int, num_items: int) -> int:
    """``m/n * ln 2``, clamped to at least one hash."""
    if num_bits < 1 or num_items < 1:
        raise ValueError("num_bits and num_items must be positive")
    return max(1, round(num_bits / num_items * math.log(2)))


class BloomFilter:
    """A classic bloom filter over non-negative integer items.

    Double hashing: ``h_i(x) = h1(x) + i * h2(x) mod m`` with h1/h2 derived
    from one SHA-256 digest, so membership is deterministic across processes
    (the filter is built outside the enclave and tested inside it).
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        if not 1 <= num_hashes <= MAX_HASHES:
            raise ValueError(f"num_hashes must be in 1..{MAX_HASHES}")
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0

    @classmethod
    def for_capacity(cls, num_items: int,
                     false_positive_rate: float) -> "BloomFilter":
        """Size by Eq. 1 for the expected insertion count."""
        m = required_bits(num_items, false_positive_rate)
        return cls(m, optimal_num_hashes(m, num_items))

    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def count(self) -> int:
        """Number of (not necessarily distinct) insertions."""
        return self._count

    def size_bytes(self) -> int:
        return len(self._bits)

    def _positions(self, item: int) -> list[int]:
        if item < 0:
            raise ValueError("items must be non-negative integers")
        digest = hashlib.sha256(item.to_bytes((item.bit_length() + 8) // 8,
                                              "big")).digest()
        h1 = int.from_bytes(digest[:16], "big")
        h2 = int.from_bytes(digest[16:], "big") | 1
        return [(h1 + i * h2) % self._num_bits
                for i in range(self._num_hashes)]

    def add(self, item: int) -> None:
        for pos in self._positions(item):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self._count += 1

    def update(self, items) -> None:
        """Insert every item: the bytes and ``count`` of repeated
        :meth:`add`, in one pass without per-item calls.  All items are
        checked first, so a negative one raises before any bit is set."""
        items = list(items)
        if any(item < 0 for item in items):
            raise ValueError("items must be non-negative integers")
        bits = self._bits
        num_bits = self._num_bits
        rounds = range(self._num_hashes)
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        for item in items:
            digest = from_bytes(sha256(item.to_bytes(
                (item.bit_length() + 8) // 8, "big")).digest(), "big")
            # (h1 + i * h2) mod m, stepped: same positions as _positions.
            pos = (digest >> 128) % num_bits
            step = ((digest & _LOW_128) | 1) % num_bits
            for _ in rounds:
                bits[pos >> 3] |= 1 << (pos & 7)
                pos += step
                if pos >= num_bits:
                    pos -= num_bits
        self._count += len(items)

    def __contains__(self, item: int) -> bool:
        """Probes all k positions whatever they hold: the number of bit
        reads does not depend on which probe missed.  The enclave does not
        call this per encoding; it tests one :meth:`positions_word` OR per
        query vertex against :meth:`as_int` (Prop. 7 holds there too)."""
        hit = 1
        for pos in self._positions(item):
            hit &= self._bits[pos >> 3] >> (pos & 7)
        return bool(hit)

    def positions_word(self, item: int) -> int:
        """The item's k probe positions under this filter's ``(m, k)`` as
        one int, bit ``pos`` per position: ``item in self`` exactly when
        ``self.as_int() & word == word``."""
        word = 0
        for pos in self._positions(item):
            word |= 1 << pos
        return word

    def as_int(self) -> int:
        """The bit array as one int, bit ``pos`` = filter position ``pos``."""
        return int.from_bytes(self._bits, "little")

    def expected_false_positive_rate(self) -> float:
        """``(1 - e^(-kn/m))^k`` for the current fill."""
        if self._count == 0:
            return 0.0
        k, n, m = self._num_hashes, self._count, self._num_bits
        return (1.0 - math.exp(-k * n / m)) ** k

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Wire format: header (m, k, count) + bit array; what crosses the
        enclave boundary and is metered by the EPC accounting."""
        header = (self._num_bits.to_bytes(8, "big")
                  + self._num_hashes.to_bytes(4, "big")
                  + self._count.to_bytes(8, "big"))
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        """Parse an untrusted blob (the enclave's ECALL input): the header
        is checked against the blob's own length before anything is sized
        from it, so every malformed blob is a ``ValueError``."""
        if len(blob) < _HEADER_BYTES:
            raise ValueError("truncated bloom filter blob")
        num_bits = int.from_bytes(blob[:8], "big")
        num_hashes = int.from_bytes(blob[8:12], "big")
        count = int.from_bytes(blob[12:20], "big")
        if (num_bits + 7) // 8 != len(blob) - _HEADER_BYTES:
            raise ValueError("bloom filter body length mismatch")
        filt = cls(num_bits, num_hashes)
        filt._bits = bytearray(blob[_HEADER_BYTES:])
        filt._count = count
        return filt
