"""The kernel's arithmetic domains: libcrypto's Montgomery form computes
exactly what plain ints compute.

* ``MaskedProductTable`` on the libcrypto domain, on the Python domain and
  ``aggregation.chunked_product`` agree on value, ``power``,
  ``value_bits`` and the ``OverflowError_`` refusal, for random plans,
  windows and masks under the RFC 3526 2048- and 4096-bit primes and a
  ``generate_prime`` modulus.
* The implied-exponent contract: a product of ``k`` entered values is
  brought home by ``R^k``; a table's every pad count, at a modulus whose
  width is no multiple of 64, equals the fold.
* The user's q-test: ``has_factor_q`` equals ``decrypt % q == 0`` on
  both domains.
* Selection: a failed load or an even modulus gives the Python domain,
  with the same values; this host's kernel and user compute on libcrypto.
* Handles: entered lazily, freed when their table is dropped, and every
  failed libcrypto call raises.
"""

import contextlib
import copy
import gc
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import ChunkPlan, chunked_product
from repro.crypto import montgomery
from repro.crypto.cgbe import (
    CGBE,
    CGBECiphertext,
    CGBEPublicParams,
    OverflowError_,
)
from repro.crypto.kernels import MaskedProductTable

HAVE_LIBCRYPTO = montgomery.libcrypto() is not None


@pytest.fixture(scope="module")
def schemes(cgbe):
    """The RFC 3526 2048- and 4096-bit primes and the tier-1 1024-bit
    ``generate_prime`` modulus, each with fresh encryptions to draw
    bases and pads from."""
    out = []
    for scheme in (CGBE.generate(modulus_bits=2048, seed=3),
                   CGBE.generate(modulus_bits=4096, seed=3), cgbe):
        out.append((scheme.params,
                    [scheme.encrypt(m) for m in range(2, 14)]))
    return out


def python_domain():
    """Patch the loader to fail, as on a host without libcrypto."""
    return mock.patch.object(montgomery, "libcrypto", lambda: None)


def chunks_or_refusal(fold):
    try:
        return fold()
    except OverflowError_ as exc:
        return "refused", str(exc)


class TestValueIdentity:
    @given(data=st.data(), which=st.integers(0, 2),
           window=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_domains_and_oracle_agree(self, schemes, data, which, window):
        params, pool = schemes[which]
        bpf = params.budget.bits_per_factor
        # The first chunk size that does not fit the modulus is drawn
        # too, so the refusal is part of the comparison.
        overflowing = -(-params.modulus_bits // bpf)
        chunk_factors = data.draw(st.one_of(
            st.integers(1, 10), st.just(overflowing)))
        factors = data.draw(st.integers(1, 2 * chunk_factors))
        chunks = -(-factors // chunk_factors)
        plan = ChunkPlan(factors=factors, chunk_factors=chunk_factors,
                         chunks_per_item=chunks, summable=chunks == 1)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 2),
                                   min_size=factors, max_size=factors))
        bases = [pool[i] for i in picks]
        pad = pool[-1]
        native = MaskedProductTable(params, bases, pad, plan, window=window)
        with python_domain():
            python = MaskedProductTable(params, bases, pad, plan,
                                        window=window)
        assert native._domain.name == montgomery.arithmetic()
        assert python._domain.name == "python"
        masks = data.draw(st.lists(st.integers(0, (1 << factors) - 1),
                                   min_size=1, max_size=6))
        for mask in masks + masks[:2]:
            got = chunks_or_refusal(lambda: native.chunk_ciphertexts(mask))
            assert chunks_or_refusal(
                lambda: python.chunk_ciphertexts(mask)) == got
            oracle = chunks_or_refusal(lambda: chunked_product(
                params, [pad if mask >> p & 1 else bases[p]
                         for p in range(factors)], pad, plan))
            if isinstance(got, tuple):
                # The fold words its refusal after whichever operation
                # crosses first (a power for an all-pad chunk).
                assert isinstance(oracle, tuple)
            else:
                assert got == oracle

    @pytest.mark.skipif(not HAVE_LIBCRYPTO, reason="libcrypto not loadable")
    @given(which=st.integers(0, 2), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_primitives_match_python_ints(self, schemes, which, seed):
        modulus = schemes[which][0].modulus
        rng = random.Random(seed)
        a, b = rng.randrange(modulus), rng.randrange(modulus)
        exponent = rng.randrange(1, 80)
        domain = montgomery.domain_for(modulus)
        assert domain.name == "libcrypto"
        x, y = domain.enter(a), domain.enter(b)
        assert domain.leave(x) == a

        def home(value, k):  # a product of k entered values carries R^(1-k)
            return domain.leave(domain.mul(
                value, domain.enter(domain.r_power(k))))

        assert home(domain.mul(x, y), 2) == a * b % modulus
        assert home(domain.pow(x, exponent), exponent) == \
            pow(a, exponent, modulus)


@pytest.fixture(scope="module")
def small_q():
    """6-bit q and 7-bit r, so a product of 80 ciphertexts fits: under
    the 2048-bit RFC 3526 prime and under a 1100-bit ``generate_prime``
    modulus, whose width is no multiple of 64."""
    return {bits: CGBE.generate(modulus_bits=bits, q_bits=6, r_bits=7,
                                seed=3) for bits in (2048, 1100)}


class TestImpliedExponent:
    @pytest.mark.parametrize("patched", [False, True],
                             ids=["native", "python"])
    def test_every_pad_count_equals_the_fold(self, small_q, patched):
        scheme = small_q[1100]
        params = scheme.params
        assert params.modulus_bits % 64
        bases = [scheme.encrypt(m) for m in range(2, 12)]
        pad = scheme.encrypt_one()
        # One full chunk of 7 and one of 3 bases plus 4 tail pads.
        plan = ChunkPlan(factors=10, chunk_factors=7, chunks_per_item=2,
                         summable=False)
        with python_domain() if patched else contextlib.nullcontext():
            table = MaskedProductTable(params, bases, pad, plan)
        assert table._domain.name == (
            "python" if patched else montgomery.arithmetic())
        rng = random.Random(11)
        for ones in range(plan.chunk_factors + 1):  # pads in chunk 0
            for _ in range(2):
                pads = rng.sample(range(7), ones) + rng.sample(
                    range(7, 10), rng.randint(0, 3))
                mask = sum(1 << p for p in pads)
                assert table.chunk_ciphertexts(mask) == chunked_product(
                    params, [pad if mask >> p & 1 else bases[p]
                             for p in range(plan.factors)], pad, plan)
        assert set(table._homes) >= set(range(plan.chunk_factors + 1))


class TestQTest:
    @pytest.mark.parametrize("patched", [False, True],
                             ids=["native", "python"])
    @pytest.mark.parametrize("bits", [2048, 1100])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_has_factor_q_is_decrypt_mod_q(self, small_q, bits, patched,
                                           data):
        with python_domain() if patched else contextlib.nullcontext():
            scheme = copy.copy(small_q[bits])  # a q-test domain of its own
            assert scheme._q_test[0].name == (
                "python" if patched else montgomery.arithmetic())
        params, q = scheme.params, scheme.params.q
        power = data.draw(st.integers(1, 80), label="power")
        terms = data.draw(st.integers(1, 3), label="terms")
        items = []
        for _ in range(terms):
            messages = data.draw(st.lists(st.sampled_from([1, q]),
                                          min_size=power, max_size=power))
            items.append((q in messages, CGBE.product(
                params, [scheme.encrypt(m) for m in messages])))
        fresh = [scheme.encrypt_one(), scheme.encrypt_q()]
        total = CGBE.sum_(params, [c for _, c in items])
        cases = [(False, fresh[0]), (True, fresh[1]), *items,
                 (all(has_q for has_q, _ in items), total)]
        for has_q, c in cases:
            got = scheme.has_factor_q(c)
            assert got == (scheme.decrypt(c) % q == 0)
            assert got or not has_q  # no overflow: a q factor shows

    def test_q_must_fit_a_word(self):
        with pytest.raises(ValueError, match="q_bits=64"):
            CGBE.generate(modulus_bits=1024, q_bits=64, r_bits=24, seed=1)


class TestSelection:
    def test_failed_load_selects_python(self, schemes):
        params, pool = schemes[2]
        plan = ChunkPlan(factors=6, chunk_factors=6, chunks_per_item=1,
                         summable=True)
        native = MaskedProductTable(params, pool[:6], pool[-1], plan)
        with python_domain():
            assert montgomery.arithmetic() == "python"
            assert montgomery.domain_for(params.modulus).name == "python"
            python = MaskedProductTable(params, pool[:6], pool[-1], plan)
        assert python._domain.name == "python"
        for mask in range(1 << 6):
            assert python.chunk_ciphertexts(mask) == \
                native.chunk_ciphertexts(mask)

    def test_this_host_computes_on_libcrypto(self, schemes, cgbe):
        """The CI gate: the fallback is covered above with the loader
        patched to fail, so the suite must not pass on it alone."""
        assert montgomery.arithmetic() == "libcrypto"
        params, pool = schemes[0]
        plan = ChunkPlan(factors=2, chunk_factors=2, chunks_per_item=1,
                         summable=True)
        table = MaskedProductTable(params, pool[:2], pool[-1], plan)
        assert isinstance(table._domain, montgomery.LibcryptoDomain)
        assert isinstance(copy.copy(cgbe)._q_test[0],
                          montgomery.LibcryptoDomain)

    def test_unloadable_library_is_none(self, monkeypatch):
        monkeypatch.setattr(montgomery, "_SONAMES", ("libnot-there.so.0",))
        montgomery.libcrypto.cache_clear()
        try:
            assert montgomery.libcrypto() is None
            assert montgomery.arithmetic() == "python"
        finally:
            montgomery.libcrypto.cache_clear()

    def test_even_modulus_selects_python(self, cgbe):
        # A made-up even modulus: Montgomery form cannot serve it, the
        # Python domain does, and the products still equal the fold.
        real = cgbe.params
        params = CGBEPublicParams(modulus=real.modulus + 1,
                                  generator=real.generator, q=real.q,
                                  q_bits=real.q_bits, r_bits=real.r_bits)
        assert montgomery.domain_for(params.modulus).name == "python"
        bpf = params.budget.bits_per_factor
        rng = random.Random(5)
        bases = [CGBECiphertext(value=rng.randrange(params.modulus),
                                power=1, value_bits=bpf) for _ in range(7)]
        plan = ChunkPlan(factors=6, chunk_factors=4, chunks_per_item=2,
                         summable=False)
        table = MaskedProductTable(params, bases[:6], bases[6], plan)
        assert table._domain.name == "python"
        for mask in range(1 << 6):
            assert table.chunk_ciphertexts(mask) == chunked_product(
                params, [bases[6] if mask >> p & 1 else bases[p]
                         for p in range(6)], bases[6], plan)
        with pytest.raises(ValueError, match="odd modulus"):
            montgomery.LibcryptoDomain(None, params.modulus)


@pytest.mark.skipif(not HAVE_LIBCRYPTO, reason="libcrypto not loadable")
class TestHandles:
    @staticmethod
    def table(schemes):
        params, pool = schemes[0]
        plan = ChunkPlan(factors=8, chunk_factors=8, chunks_per_item=1,
                         summable=True)
        return MaskedProductTable(params, pool[:8], pool[-1], plan)

    def test_entry_is_lazy(self, schemes):
        table = self.table(schemes)
        # Construction makes no libcrypto call: the domain opens when a
        # product first needs a factor.
        assert table._domain._mont is None
        assert table._entered == [None] * 8
        assert table._pad is None and not table._homes
        table.chunk_ciphertexts(0b11111111)  # all pad: c_one^8, no base
        assert table._domain._mont is not None
        assert table._entered == [None] * 8
        assert table._pad is not None and set(table._homes) == {0, 8}
        pad = table._pad
        table.chunk_ciphertexts(0b11111100)  # bases 0 and 1, c_one^6
        assert [v is not None for v in table._entered] == \
            [True, True] + [False] * 6
        # One pad handle; its powers live only inside the homes.
        assert table._pad == pad and set(table._homes) == {0, 6, 8}

    def test_a_lone_pad_is_never_entered(self, schemes):
        params, pool = schemes[0]
        plan = ChunkPlan(factors=1, chunk_factors=1, chunks_per_item=1,
                         summable=True)
        table = MaskedProductTable(params, pool[:1], pool[-1], plan)
        [chunk] = table.chunk_ciphertexts(1)
        assert chunk.value == pool[-1].value
        assert table._domain._mont is None and table._pad is None
        assert not table._homes

    def test_handles_freed_with_the_table(self, schemes):
        table = self.table(schemes)
        table.chunk_ciphertexts(0b10101010)
        release = table._domain._finalizer
        assert release.alive
        del table
        gc.collect()
        assert not release.alive

    def test_a_dropped_arena_serves_the_next_table(self, schemes):
        table = self.table(schemes)
        table.chunk_ciphertexts(0b10101010)
        arena = table._domain._arena
        del table
        gc.collect()
        assert arena in montgomery._spare_arenas
        table = self.table(schemes)
        table.chunk_ciphertexts(0b01010101)
        assert table._domain._arena == arena
        assert arena not in montgomery._spare_arenas

    def test_failed_call_raises(self, schemes):
        domain = self.table(schemes)._domain
        x = domain.enter(5)
        domain._mont_mul = lambda *args: 0
        with pytest.raises(montgomery.LibcryptoError,
                           match="BN_mod_mul_montgomery"):
            domain.mul(x, x)
