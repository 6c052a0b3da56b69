"""Cyclic group based encryption (CGBE) of Fan et al. [17].

CGBE (Sec. 2.2) is a CPA-secure symmetric scheme with the two homomorphic
properties Prilo relies on::

    D(E(m1) + E(m2)) = m1*r1 + m2*r2
    D(E(m1) * E(m2)) = m1*m2 * r1*r2

where the ``r_i`` are fresh random blinding factors.  A ciphertext is
``E(m) = m * r * g^x  (mod P)`` for a public prime ``P``, a public group
element ``g``, and the private exponent ``x``.  Products of ``n``
ciphertexts carry ``g^(n*x)``; decryption strips that factor, leaving the
blinded plaintext.  Prilo never needs exact plaintexts -- it only tests
whether the blinded value is a multiple of the public encoding prime ``q``
(a "matching violation" marker), which blinding preserves.

Two operational constraints, both first-class here:

* **Equal powers for addition.**  Summed ciphertexts must carry the same
  ``g^(n*x)`` factor.  :class:`CGBECiphertext` tracks ``power`` and
  :meth:`CGBE.add` enforces it; the framework keeps powers aligned by
  multiplying encryptions of 1 where the paper's pseudocode skips positions
  (see DESIGN.md, "CGBE power tracking").
* **No overflow.**  Results are only meaningful while the true integer value
  stays below ``P`` ("CGBE requires m1+m2 and m1*m2 are smaller than a large
  public prime p, or there are overflow errors", Sec. 2.2).
  :class:`AggregationBudget` computes safe multiplication/addition counts and
  ciphertexts carry a conservative bit-size bound so violations raise
  :class:`OverflowError_` instead of silently corrupting results.

Parameters follow Sec. 6.1: 32-bit ``q`` and ``r``, a 4096-bit public value.
Tests use smaller moduli; the 2048/3072/4096-bit moduli are the RFC 3526
MODP primes so no expensive prime generation happens at import time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import cached_property

from repro.cache import LRU, CacheStats
from repro.crypto import ops
from repro.crypto.montgomery import domain_for
from repro.crypto.prng import random_bits, seeded_rng

# RFC 3526 MODP group primes (2048 / 3072 / 4096 bits).  These are safe
# primes p = 2q'+1; any quadratic residue generates the order-q' subgroup.
_RFC3526_PRIMES: dict[int, int] = {
    2048: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16),
    3072: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
        "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
        "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
        "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
        "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
        16),
    4096: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
        "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
        "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
        "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
        "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A92108011A723C12A787E6D7"
        "88719A10BDBA5B2699C327186AF4E23C1A946834B6150BDA2583E9CA2AD44CE8"
        "DBBBC2DB04DE8EF92E8EFC141FBECAA6287C59474E6BC05D99B2964FA090C3A2"
        "233BA186515BE7ED1F612970CEE2D7AFB81BDD762170481CD0069127D5B05AA9"
        "93B4EA988D8FDDC186FFB7DC90A6C08F4DF435C934063199FFFFFFFFFFFFFFFF",
        16),
}


class OverflowError_(ArithmeticError):
    """A homomorphic operation would exceed the modulus capacity.

    Named with a trailing underscore to avoid shadowing the builtin while
    staying recognizable; exported as ``repro.crypto.OverflowError_``.
    """


class FixedBaseExp:
    """Windowed fixed-base modular exponentiation with a bounded memo.

    For a fixed ``base`` and ``modulus`` the table holds
    ``base^(j * 2^(window*i))`` per window row ``i`` and digit ``j``; an
    exponentiation then multiplies one table entry per non-zero base-
    ``2^window`` digit of the exponent -- no squarings at all once the rows
    exist.  Rows and row entries are filled lazily, so small exponents (the
    ``power`` values of decrypt's unblinding, typically < 100) touch only
    the bottom row or two, while a full-width private exponent builds the
    table once and every later exponentiation on the same base runs at
    ~``bits/window`` multiplications.

    An LRU memo of ``max_memo`` results (:attr:`memo`, counting into the
    optional ``stats``) short-circuits repeated exponents entirely -- the
    dominant case on the user side, where thousands of per-query decrypts
    share a handful of distinct ciphertext powers.
    """

    def __init__(self, base: int, modulus: int, window: int = 4,
                 max_memo: int = 1024,
                 stats: CacheStats | None = None) -> None:
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 1 <= window <= 8:
            raise ValueError("window must be in 1..8")
        if max_memo < 1:
            raise ValueError("max_memo must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        # _rows[i][j] = base^((j+1) * 2^(window*i)); filled lazily.
        self._rows: list[list[int]] = [[self.base]]
        self.memo: LRU[int] = LRU(max_memo, stats=stats)

    def _mul(self, a: int, b: int) -> int:
        ops.record_modmul()
        return (a * b) % self.modulus

    def _entry(self, row: int, digit: int) -> int:
        """``base^(digit * 2^(window*row))``, extending the table as needed."""
        while len(self._rows) <= row:
            # The next row's base is the previous row's base squared
            # ``window`` times.
            value = self._rows[-1][0]
            for _ in range(self.window):
                value = self._mul(value, value)
            self._rows.append([value])
        entries = self._rows[row]
        while len(entries) < digit:
            entries.append(self._mul(entries[-1], entries[0]))
            ops.record_table_build()
        return entries[digit - 1]

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` -- identical to ``pow()``."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0:
            return 1 % self.modulus
        cached = self.memo.get(exponent)
        if cached is not None:
            return cached
        mask = (1 << self.window) - 1
        result: int | None = None
        row = 0
        remaining = exponent
        while remaining:
            digit = remaining & mask
            if digit:
                entry = self._entry(row, digit)
                result = entry if result is None else \
                    self._mul(result, entry)
            remaining >>= self.window
            row += 1
        assert result is not None
        self.memo.put(exponent, result)
        return result


#: Shared fixed-base tables keyed by ``(base, modulus)`` so repeated CGBE
#: instantiations over the same group (store builds, batch servers, and
#: benchmark loops construct several same-seed engines per process) reuse
#: one table for the ``g^x`` computation instead of re-exponentiating.
FIXED_BASE_TABLES: LRU[FixedBaseExp] = LRU(16)


def shared_fixed_base(base: int, modulus: int) -> FixedBaseExp:
    """The process-wide :class:`FixedBaseExp` for ``(base, modulus)``."""
    key = (base, modulus)
    table = FIXED_BASE_TABLES.get(key)
    if table is None:
        table = FixedBaseExp(base, modulus)
        FIXED_BASE_TABLES.put(key, table)
    return table


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 3:
        raise ValueError("bits must be >= 3")
    while True:
        candidate = random_bits(rng, bits) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class AggregationBudget:
    """Safe homomorphic-operation counts for a given parameter set.

    Every multiplied ciphertext contributes at most ``q_bits + r_bits`` bits
    to the true integer value; a sum of ``terms`` products adds
    ``ceil(log2 terms)`` bits.  The budget answers "how many factors may a
    product have if I am going to sum ``terms`` of them?".
    """

    modulus_bits: int
    q_bits: int
    r_bits: int

    @property
    def bits_per_factor(self) -> int:
        return self.q_bits + self.r_bits

    def max_factors(self, terms: int = 1) -> int:
        """Largest safe product length when ``terms`` products are summed."""
        if terms < 1:
            raise ValueError("terms must be positive")
        headroom = self.modulus_bits - 1 - max(terms - 1, 0).bit_length()
        return max(headroom // self.bits_per_factor, 0)

    def max_terms(self, factors: int) -> int:
        """Largest safe sum length over products of ``factors`` factors."""
        if factors < 1:
            raise ValueError("factors must be positive")
        headroom = self.modulus_bits - 1 - factors * self.bits_per_factor
        if headroom < 0:
            return 0
        return min(1 << headroom, 1 << 62)


@dataclass(frozen=True)
class CGBEPublicParams:
    """Public CGBE parameters: modulus ``P``, group element ``g``, encoding
    prime ``q`` and the blinding size ``r_bits``."""

    modulus: int
    generator: int
    q: int
    q_bits: int
    r_bits: int

    # Computed once per object (every encrypt() reads them).  They live
    # beside the fields, so equality and hash ignore them, and
    # __getstate__ keeps them out of a pickle.
    @cached_property
    def modulus_bits(self) -> int:
        return self.modulus.bit_length()

    @cached_property
    def budget(self) -> AggregationBudget:
        return AggregationBudget(self.modulus_bits, self.q_bits, self.r_bits)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CGBECiphertext:
    """A CGBE ciphertext.

    ``power`` counts the multiplied ciphertexts (the exponent of ``g^x``),
    ``value_bits`` conservatively bounds the true (un-reduced) integer value
    so overflow is detected eagerly.
    """

    value: int
    power: int
    value_bits: int

    def __add__(self, other: "CGBECiphertext") -> "CGBECiphertext":
        raise TypeError("use CGBE.add(); ciphertext addition needs the "
                        "public modulus")


class CGBE:
    """The CGBE scheme: key generation, encryption, homomorphic ops.

    This object holds both the public parameters and the private exponent;
    :meth:`public_params` exposes the SP-visible part.  The SP performs
    homomorphic operations through the static :meth:`multiply` / :meth:`add`
    given only the public parameters.
    """

    def __init__(self, params: CGBEPublicParams, private_exponent: int,
                 seed: int | None = None) -> None:
        if not 1 < params.generator < params.modulus - 1:
            raise ValueError("generator out of range")
        if not 1 < private_exponent < params.modulus - 1:
            raise ValueError("private exponent out of range")
        self._params = params
        self._x = private_exponent
        # g^x via the process-shared fixed-base table: the one modular
        # exponentiation of setup, reused by every encrypt() afterwards and
        # amortized across engine instantiations over the same group.
        self._gx = shared_fixed_base(
            params.generator, params.modulus).pow(private_exponent)
        self._gx_inv = pow(self._gx, -1, params.modulus)
        # Decrypt unblinds with (g^x)^-power; ciphertext powers repeat
        # heavily (every chunk of a plan carries the same factor count), so
        # a memoized fixed-base table turns the per-ciphertext pow() into a
        # dict lookup.
        self.decrypt_stats = CacheStats()
        self._unblind = FixedBaseExp(self._gx_inv, params.modulus,
                                     max_memo=256,
                                     stats=self.decrypt_stats)
        self._rng = seeded_rng("cgbe-blinding", seed)

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, modulus_bits: int = 2048, q_bits: int = 32,
                 r_bits: int = 32, seed: int | None = None) -> "CGBE":
        """Generate a full CGBE instance.

        For 2048/3072/4096 bits the fixed RFC 3526 primes are used; other
        sizes generate a fresh probable prime (intended for tests, where
        small moduli keep the arithmetic fast).
        """
        if q_bits > 63:  # the q-test reduces by q as one machine word
            raise ValueError(f"q_bits={q_bits} > 63")
        rng = seeded_rng("cgbe-keygen", seed)
        if modulus_bits in _RFC3526_PRIMES:
            modulus = _RFC3526_PRIMES[modulus_bits]
        else:
            modulus = generate_prime(modulus_bits, rng)
        if modulus.bit_length() <= q_bits + r_bits:
            raise ValueError("modulus must exceed q_bits + r_bits; no "
                             "homomorphic operation would be safe")
        generator = pow(rng.randrange(2, modulus - 1), 2, modulus)
        if generator in (0, 1):
            generator = 4
        q = generate_prime(q_bits, rng)
        x = rng.randrange(2, modulus - 1)
        params = CGBEPublicParams(modulus=modulus, generator=generator,
                                  q=q, q_bits=q_bits, r_bits=r_bits)
        return cls(params, x, seed=seed)

    # ------------------------------------------------------------------
    @property
    def params(self) -> CGBEPublicParams:
        return self._params

    def public_params(self) -> CGBEPublicParams:
        """What the service provider is allowed to see."""
        return self._params

    # ------------------------------------------------------------------
    # encryption / decryption (user side)
    # ------------------------------------------------------------------
    def encrypt(self, message: int) -> CGBECiphertext:
        """``E(m) = m * r * g^x mod P`` with a fresh ``r_bits``-bit blind."""
        if message <= 0:
            raise ValueError("CGBE messages must be positive integers "
                             "(the framework encodes with 1 and q)")
        if message.bit_length() > self._params.q_bits:
            raise ValueError(f"message too large: {message.bit_length()} bits "
                             f"> q_bits={self._params.q_bits}")
        r = random_bits(self._rng, self._params.r_bits)
        ops.record_modmul()
        value = (message * r * self._gx) % self._params.modulus
        return CGBECiphertext(value=value, power=1,
                              value_bits=self._params.budget.bits_per_factor)

    def encrypt_one(self) -> CGBECiphertext:
        """A fresh encryption of 1 (the ``c_1`` of Alg. 5 line 8)."""
        return self.encrypt(1)

    def encrypt_q(self) -> CGBECiphertext:
        """A fresh encryption of the violation marker prime ``q``."""
        return self.encrypt(self._params.q)

    def decrypt(self, ciphertext: CGBECiphertext) -> int:
        """Strip ``g^(x*power)``; returns the blinded plaintext.

        The result equals the true integer (product/sum of ``m_i * r_i``)
        exactly when no overflow occurred, which the value_bits tracking
        guarantees for ciphertexts produced through this class.
        """
        unblind = self._unblind.pow(ciphertext.power)
        ops.record_modmul()
        return (ciphertext.value * unblind) % self._params.modulus

    def has_factor_q(self, ciphertext: CGBECiphertext) -> bool:
        """The user's violation test: is the decryption a multiple of q?

        ``c`` times ``u = (g^x)^-power`` held as ``u * R`` comes out of
        one Montgomery product plain, and only its residue mod ``q`` is
        read (:mod:`repro.crypto.montgomery`).

        False positives occur with probability ~1/q per random blind
        (negligible at 32-bit q); false negatives cannot occur absent
        overflow.
        """
        unblind = self._unblind.pow(ciphertext.power)
        ops.record_modmul()
        domain, handles = self._q_test
        handle = handles.get(ciphertext.power)
        if handle is None:
            modulus = self._params.modulus
            handle = domain.enter(unblind * domain.r_power(1) % modulus)
            handles.put(ciphertext.power, handle)
        return domain.residue(ciphertext.value, handle, self._params.q) == 0

    @cached_property
    def _q_test(self) -> tuple:
        """The q-test's domain and ``u * R`` per power; local to the
        process, so a pickle leaves it out."""
        return domain_for(self._params.modulus), LRU(256)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_q_test", None)
        return state

    # ------------------------------------------------------------------
    # homomorphic operations (service provider side; public params only)
    # ------------------------------------------------------------------
    @staticmethod
    def multiply(params: CGBEPublicParams, c1: CGBECiphertext,
                 c2: CGBECiphertext) -> CGBECiphertext:
        """``E(m1) * E(m2)``: plaintexts (and blinds) multiply."""
        bits = c1.value_bits + c2.value_bits
        if bits >= params.modulus_bits:
            raise OverflowError_(
                f"product would need {bits} bits but the modulus has "
                f"{params.modulus_bits}; split the aggregation "
                f"(AggregationBudget.max_factors)")
        ops.record_modmul()
        return CGBECiphertext(value=(c1.value * c2.value) % params.modulus,
                              power=c1.power + c2.power,
                              value_bits=bits)

    @staticmethod
    def add(params: CGBEPublicParams, c1: CGBECiphertext,
            c2: CGBECiphertext) -> CGBECiphertext:
        """``E(m1) + E(m2)``: requires equal ``g^x`` powers."""
        if c1.power != c2.power:
            raise ValueError(
                f"cannot add ciphertexts of powers {c1.power} != {c2.power}; "
                f"pad with encryptions of 1 to align (see DESIGN.md)")
        bits = max(c1.value_bits, c2.value_bits) + 1
        if bits >= params.modulus_bits:
            raise OverflowError_(
                f"sum would need {bits} bits but the modulus has "
                f"{params.modulus_bits}; emit partial sums "
                f"(AggregationBudget.max_terms)")
        return CGBECiphertext(value=(c1.value + c2.value) % params.modulus,
                              power=c1.power,
                              value_bits=bits)

    @staticmethod
    def power(params: CGBEPublicParams, ciphertext: CGBECiphertext,
              exponent: int) -> CGBECiphertext:
        """``E(m)^k = E(m^k * r^k)`` via one modular exponentiation.

        Identical to multiplying the same ciphertext ``k`` times (value,
        power, and bit bound alike) at O(log k) cost -- the workhorse
        behind folding repeated ``c_one`` padding factors.
        """
        if exponent < 1:
            raise ValueError("exponent must be positive")
        bits = ciphertext.value_bits * exponent
        if bits >= params.modulus_bits:
            raise OverflowError_(
                f"power would need {bits} bits but the modulus has "
                f"{params.modulus_bits}")
        ops.record_modexp()
        return CGBECiphertext(
            value=pow(ciphertext.value, exponent, params.modulus),
            power=ciphertext.power * exponent,
            value_bits=bits)

    @staticmethod
    def product(params: CGBEPublicParams,
                ciphertexts: list[CGBECiphertext]) -> CGBECiphertext:
        """Fold :meth:`multiply` over a non-empty list.

        Repeats of *equal* ciphertexts (same value/power/bit bound --
        object identity is irrelevant) collapse into one :meth:`power`
        call; verification products are typically half ``c_one``
        repeats, making this a ~2x saving at identical results.  Equality
        grouping matters beyond the common shared-object case: padding
        re-encrypted after a store quarantine, or ciphertexts rebuilt
        from a journal, are distinct allocations that must still fold.
        """
        if not ciphertexts:
            raise ValueError("empty product")
        # Group repeats of equal ciphertexts (order is irrelevant to a
        # product) and exponentiate each distinct ciphertext once.
        counts: dict[CGBECiphertext, int] = {}
        for c in ciphertexts:
            counts[c] = counts.get(c, 0) + 1
        terms: list[CGBECiphertext] = []
        for term, count in counts.items():
            if count > 1:
                term = CGBE.power(params, term, count)
            terms.append(term)
        acc: CGBECiphertext | None = None
        for term in terms:
            acc = term if acc is None else CGBE.multiply(params, acc, term)
        assert acc is not None
        return acc

    @staticmethod
    def sum_(params: CGBEPublicParams,
             ciphertexts: list[CGBECiphertext]) -> CGBECiphertext:
        """Sum a non-empty list of equal-power terms.

        Reduction is balanced (pairwise tree) so the tracked bit bound grows
        by ``ceil(log2 n)`` rather than ``n`` -- the true worst case for a
        sum of ``n`` bounded terms.
        """
        if not ciphertexts:
            raise ValueError("empty sum")
        level = list(ciphertexts)
        while len(level) > 1:
            paired = [CGBE.add(params, level[i], level[i + 1])
                      for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        return level[0]

    # ------------------------------------------------------------------
    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext (for message-size accounting)."""
        return (self._params.modulus_bits + 7) // 8 + 8
