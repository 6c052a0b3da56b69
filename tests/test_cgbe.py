"""Unit and property tests for CGBE (Sec. 2.2)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cgbe import (
    CGBE,
    AggregationBudget,
    CGBECiphertext,
    OverflowError_,
    generate_prime,
    _is_probable_prime,
)
from repro.crypto.prng import seeded_rng


@pytest.fixture(scope="module")
def scheme():
    return CGBE.generate(modulus_bits=512, q_bits=16, r_bits=16, seed=1)


class TestPrimes:
    def test_known_primes(self):
        rng = seeded_rng("t")
        for p in (2, 3, 5, 97, 65537):
            assert _is_probable_prime(p, rng)
        for c in (1, 4, 91, 65536):
            assert not _is_probable_prime(c, rng)

    def test_generate_prime_bits(self):
        rng = seeded_rng("t2")
        p = generate_prime(20, rng)
        assert p.bit_length() == 20
        assert _is_probable_prime(p, rng)


class TestKeygen:
    def test_rfc3526_modulus_used_for_2048(self):
        scheme = CGBE.generate(modulus_bits=2048, seed=0)
        assert scheme.params.modulus_bits == 2048

    def test_q_is_prime_of_requested_size(self, scheme):
        assert scheme.params.q.bit_length() == 16

    def test_modulus_must_exceed_factor_size(self):
        with pytest.raises(ValueError, match="exceed"):
            CGBE.generate(modulus_bits=24, q_bits=16, r_bits=16, seed=0)

    def test_deterministic_given_seed(self):
        a = CGBE.generate(modulus_bits=256, seed=5)
        b = CGBE.generate(modulus_bits=256, seed=5)
        assert a.params == b.params


class TestHomomorphism:
    def test_multiply_preserves_q_factor(self, scheme):
        p = scheme.params
        c = CGBE.multiply(p, scheme.encrypt(1), scheme.encrypt_q())
        assert scheme.has_factor_q(c)

    def test_multiply_of_ones_has_no_q(self, scheme):
        p = scheme.params
        c = CGBE.multiply(p, scheme.encrypt_one(), scheme.encrypt_one())
        assert not scheme.has_factor_q(c)

    def test_decrypt_product_is_blinded_product(self, scheme):
        """D(E(m1) * E(m2)) = m1*m2*r1*r2: divisible by m1*m2."""
        p = scheme.params
        c = CGBE.multiply(p, scheme.encrypt(6), scheme.encrypt(35))
        assert scheme.decrypt(c) % (6 * 35) == 0

    def test_add_requires_equal_powers(self, scheme):
        p = scheme.params
        c1 = scheme.encrypt(1)
        c2 = CGBE.multiply(p, scheme.encrypt(1), scheme.encrypt(1))
        with pytest.raises(ValueError, match="powers"):
            CGBE.add(p, c1, c2)

    def test_sum_all_violations_keeps_q(self, scheme):
        p = scheme.params
        terms = [CGBE.multiply(p, scheme.encrypt_q(), scheme.encrypt(1))
                 for _ in range(8)]
        assert scheme.has_factor_q(CGBE.sum_(p, terms))

    def test_sum_with_one_valid_term_drops_q(self, scheme):
        p = scheme.params
        terms = [CGBE.multiply(p, scheme.encrypt_q(), scheme.encrypt(1))
                 for _ in range(7)]
        terms.append(CGBE.multiply(p, scheme.encrypt(1), scheme.encrypt(1)))
        assert not scheme.has_factor_q(CGBE.sum_(p, terms))

    def test_empty_aggregations_rejected(self, scheme):
        with pytest.raises(ValueError):
            CGBE.product(scheme.params, [])
        with pytest.raises(ValueError):
            CGBE.sum_(scheme.params, [])

    def test_power_equals_repeated_multiply(self, scheme):
        p = scheme.params
        c = scheme.encrypt(3)
        repeated = c
        for _ in range(4):
            repeated = CGBE.multiply(p, repeated, c)
        powered = CGBE.power(p, c, 5)
        assert powered.value == repeated.value
        assert powered.power == repeated.power
        assert powered.value_bits == repeated.value_bits

    def test_power_validation(self, scheme):
        with pytest.raises(ValueError):
            CGBE.power(scheme.params, scheme.encrypt(1), 0)
        with pytest.raises(OverflowError_):
            CGBE.power(scheme.params, scheme.encrypt(1), 10 ** 6)

    def test_product_groups_identical_objects(self, scheme):
        """Order-insensitive grouping: shuffled repeats give the same
        ciphertext value as sequential multiplication."""
        p = scheme.params
        c_one = scheme.encrypt_one()
        c_q = scheme.encrypt_q()
        factors = [c_one, c_q, c_one, c_one, c_q, c_one]
        grouped = CGBE.product(p, factors)
        sequential = factors[0]
        for c in factors[1:]:
            sequential = CGBE.multiply(p, sequential, c)
        assert grouped.value == sequential.value
        assert grouped.power == sequential.power


class TestOverflowBudget:
    def test_product_overflow_detected(self):
        scheme = CGBE.generate(modulus_bits=128, q_bits=16, r_bits=16,
                               seed=2)
        p = scheme.params
        acc = scheme.encrypt(1)
        with pytest.raises(OverflowError_):
            for _ in range(10):
                acc = CGBE.multiply(p, acc, scheme.encrypt(1))

    def test_budget_max_factors(self):
        budget = AggregationBudget(modulus_bits=1024, q_bits=32, r_bits=32)
        assert budget.bits_per_factor == 64
        assert budget.max_factors() == (1024 - 1) // 64
        # Reserving room for 2^10 summed terms costs 10 bits.
        assert budget.max_factors(terms=1024) == (1024 - 1 - 10) // 64

    def test_budget_max_terms(self):
        budget = AggregationBudget(modulus_bits=256, q_bits=32, r_bits=32)
        # 255 - 192 = 63 bits of headroom, clamped to the 2^62 safety cap.
        assert budget.max_terms(3) == 1 << 62
        assert budget.max_terms(4) == 0

    def test_budget_validation(self):
        budget = AggregationBudget(256, 32, 32)
        with pytest.raises(ValueError):
            budget.max_factors(terms=0)
        with pytest.raises(ValueError):
            budget.max_terms(0)

    def test_tree_sum_within_budget(self, scheme):
        """Balanced summation: 1000 terms cost ~10 bits, not 1000."""
        p = scheme.params
        terms = [scheme.encrypt(1) for _ in range(1000)]
        total = CGBE.sum_(p, terms)
        assert total.value_bits <= 32 + 11


class TestOverflowExactBoundary:
    """The overflow checks are ``>=``, so the edge cases are exact:
    a tracked bound one bit under ``modulus_bits`` is the last legal
    state, ``modulus_bits`` itself must raise."""

    @staticmethod
    def _fake(scheme, value_bits, power=1, value=3):
        return CGBECiphertext(value=value, power=power,
                              value_bits=value_bits)

    def test_product_at_boundary_minus_one_succeeds(self, scheme):
        p = scheme.params
        a = self._fake(scheme, p.modulus_bits - 3)
        b = self._fake(scheme, 2)
        assert CGBE.multiply(p, a, b).value_bits == p.modulus_bits - 1
        assert CGBE.product(p, [a, b]).value_bits == p.modulus_bits - 1

    def test_product_at_exact_boundary_raises(self, scheme):
        p = scheme.params
        a = self._fake(scheme, p.modulus_bits - 2)
        b = self._fake(scheme, 2, value=5)
        with pytest.raises(OverflowError_,
                           match=f"{p.modulus_bits} bits but the modulus"):
            CGBE.multiply(p, a, b)
        with pytest.raises(OverflowError_, match="split the aggregation"):
            CGBE.product(p, [a, b])

    def test_sum_at_boundary_minus_one_succeeds(self, scheme):
        p = scheme.params
        a = self._fake(scheme, p.modulus_bits - 2)
        b = self._fake(scheme, p.modulus_bits - 2, value=5)
        total = CGBE.sum_(p, [a, b])
        assert total.value_bits == p.modulus_bits - 1

    def test_sum_at_exact_boundary_raises(self, scheme):
        p = scheme.params
        a = self._fake(scheme, p.modulus_bits - 1)
        b = self._fake(scheme, p.modulus_bits - 1, value=5)
        with pytest.raises(OverflowError_, match="emit partial sums"):
            CGBE.sum_(p, [a, b])

    def test_power_at_exact_boundary(self, scheme):
        p = scheme.params
        base = self._fake(scheme, (p.modulus_bits - 1) // 3)
        assert CGBE.power(p, base, 3).value_bits < p.modulus_bits
        over = self._fake(scheme, (p.modulus_bits + 2) // 3)
        if over.value_bits * 3 >= p.modulus_bits:
            with pytest.raises(OverflowError_, match="power would need"):
                CGBE.power(p, over, 3)


class TestEncryptValidation:
    def test_non_positive_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.encrypt(0)
        with pytest.raises(ValueError):
            scheme.encrypt(-3)

    def test_oversized_message_rejected(self, scheme):
        with pytest.raises(ValueError, match="too large"):
            scheme.encrypt(1 << 20)

    def test_ciphertext_add_operator_disabled(self, scheme):
        with pytest.raises(TypeError):
            scheme.encrypt(1) + scheme.encrypt(1)

    def test_ciphertext_bytes(self, scheme):
        assert scheme.ciphertext_bytes() == 512 // 8 + 8


@functools.cache
def _property_scheme(seed: int) -> CGBE:
    """One 1024-bit scheme per property, not one prime search per example:
    the properties hold for any blinding randomness, so examples may share
    the instance (and its advancing random stream)."""
    return CGBE.generate(modulus_bits=1024, q_bits=16, r_bits=16, seed=seed)


class TestProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_product_q_detection_matches_plaintext(self, flags):
        """Property: factor-q test == 'any violating factor present'."""
        scheme = _property_scheme(9)
        p = scheme.params
        factors = [scheme.encrypt_q() if flag else scheme.encrypt(1)
                   for flag in flags]
        product = CGBE.product(p, factors)
        assert scheme.has_factor_q(product) == any(flags)

    @given(st.lists(st.lists(st.booleans(), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sum_q_detection_matches_all_items_violating(self, rows):
        """Property: the per-ball sum keeps factor q iff every item has it
        (the exact soundness condition of Alg. 3 line 7)."""
        scheme = _property_scheme(10)
        p = scheme.params
        items = []
        for row in rows:
            factors = [scheme.encrypt_q() if f else scheme.encrypt(1)
                       for f in row]
            items.append(CGBE.product(p, factors))
        total = CGBE.sum_(p, items)
        assert scheme.has_factor_q(total) == all(any(r) for r in rows)


class TestFixedBaseExp:
    def test_matches_builtin_pow(self):
        from repro.crypto.cgbe import FixedBaseExp

        modulus = generate_prime(64, seeded_rng(b"fbe", 1))
        table = FixedBaseExp(12345, modulus)
        for exponent in (0, 1, 2, 3, 15, 16, 17, 255, 256, 1 << 40,
                         (1 << 64) - 1, modulus - 2):
            assert table.pow(exponent) == pow(12345, exponent, modulus)

    @given(st.integers(min_value=0, max_value=1 << 128))
    @settings(max_examples=100, deadline=None)
    def test_pow_identity_property(self, exponent):
        from repro.crypto.cgbe import FixedBaseExp

        table = FixedBaseExp(987654321, (1 << 61) - 1)
        assert table.pow(exponent) == pow(987654321, exponent, (1 << 61) - 1)

    def test_memo_eviction_bounded(self):
        from repro.crypto.cgbe import FixedBaseExp
        from repro.framework.metrics import CacheStats

        stats = CacheStats()
        table = FixedBaseExp(3, 1_000_003, max_memo=8, stats=stats)
        for exponent in range(1, 33):
            table.pow(exponent)
        assert len(table.memo) <= 8
        assert stats.evictions == 32 - 8
        assert stats.misses == 32
        # Evicted exponents still compute correctly (off the table).
        assert table.pow(1) == 3

    def test_validation(self):
        from repro.crypto.cgbe import FixedBaseExp

        with pytest.raises(ValueError, match="modulus"):
            FixedBaseExp(2, 1)
        with pytest.raises(ValueError, match="window"):
            FixedBaseExp(2, 17, window=0)
        with pytest.raises(ValueError, match="max_memo"):
            FixedBaseExp(2, 17, max_memo=0)
        with pytest.raises(ValueError, match="exponent"):
            FixedBaseExp(2, 17).pow(-1)

    def test_shared_table_reused_across_instances(self):
        from repro.crypto.cgbe import FIXED_BASE_TABLES, shared_fixed_base

        a = shared_fixed_base(7, 1_000_003)
        b = shared_fixed_base(7, 1_000_003)
        assert a is b
        assert len(FIXED_BASE_TABLES) <= 16

    def test_decrypt_uses_unblind_table(self, scheme):
        """decrypt() runs through the memoized unblinding table -- values
        must match the naive ``c * (g^-x)^power`` formula and the memo
        must see traffic."""
        p = scheme.params
        before = scheme.decrypt_stats.snapshot()
        for m in (1, 2, 7):
            c = scheme.encrypt(m)
            naive = (c.value * pow(scheme._gx_inv, c.power, p.modulus)
                     ) % p.modulus
            assert scheme.decrypt(c) == naive
            assert scheme.decrypt(c) % m == 0  # blinded plaintext m * r
        delta = scheme.decrypt_stats.delta(before)
        assert delta.lookups >= 3
