"""Differential and property tests for the batched crypto kernels.

Every kernel must be *value-identical* to the naive path it replaces:
same ciphertext values, same ``power`` / ``value_bits`` bookkeeping, same
overflow behavior, same final answers.  These tests pin that contract --
per kernel against its reference fold, and end to end across all three
semantics with pruning on and off.
"""

from dataclasses import replace
from functools import reduce

import pytest

from repro.core.aggregation import ChunkPlan, chunked_product
from repro.core.encoding import encrypt_query_matrix
from repro.core.enumeration import enumerate_cmms, iter_projected_masks
from repro.core.verification import (
    verification_multiexp,
    verification_plan,
    verify_ciphertext,
)
from repro.crypto import ops as crypto_ops
from repro.crypto.cgbe import CGBE, CGBECiphertext, OverflowError_
from repro.crypto.kernels import (
    DEFAULT_KERNELS,
    NAIVE_KERNELS,
    KernelConfig,
    MaskedProductTable,
    MontgomeryContext,
    MultiExpRegistry,
    iter_bits,
    kernel_scope,
    mask_of_pattern,
    montgomery_context,
    offdiagonal_bases,
    pack_row,
    pack_rows,
    pattern_of_mask,
)
from repro.framework.prilo import Prilo
from repro.framework.prilo_star import PriloStar
from repro.graph.query import Semantics
from repro.semantics.ssim import (
    maximal_dual_simulation,
    reference_dual_simulation,
)


class TestKernelConfig:
    def test_defaults_and_naive(self):
        assert DEFAULT_KERNELS.multiexp and not DEFAULT_KERNELS.montgomery
        assert NAIVE_KERNELS == KernelConfig.naive()
        assert not NAIVE_KERNELS.multiexp

    def test_labels(self):
        assert DEFAULT_KERNELS.label == "batched"
        assert NAIVE_KERNELS.label == "naive"
        assert KernelConfig(montgomery=True).label == "batched+mont"

    def test_window_bounds(self):
        with pytest.raises(ValueError, match="window"):
            KernelConfig(window=0)
        with pytest.raises(ValueError, match="window"):
            KernelConfig(window=9)

    def test_dict_round_trip(self):
        config = KernelConfig(multiexp=False, montgomery=True, window=3)
        assert KernelConfig.from_dict(config.as_dict()) == config


class TestMontgomery:
    MODULUS = 0xF123_4567_89AB_CDEF_F123_4567_89AB_CDE1  # odd

    def test_round_trip(self):
        ctx = MontgomeryContext(self.MODULUS)
        for a in (0, 1, 2, self.MODULUS - 1, 0xDEADBEEF):
            assert ctx.from_mont(ctx.to_mont(a)) == a % self.MODULUS

    def test_mul_matches_plain(self):
        ctx = MontgomeryContext(self.MODULUS)
        a, b = 0x1234_5678_9ABC, self.MODULUS - 12345
        got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)))
        assert got == (a * b) % self.MODULUS

    def test_fold_matches_reduce(self):
        ctx = MontgomeryContext(self.MODULUS)
        values = [3, 5, 7, 0xFFFF_FFFF, self.MODULUS - 2, 11]
        expected = reduce(lambda x, y: (x * y) % self.MODULUS, values, 1)
        assert ctx.fold(values) == expected

    def test_fold_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            MontgomeryContext(self.MODULUS).fold([])

    def test_even_or_tiny_modulus_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            MontgomeryContext(10)
        with pytest.raises(ValueError, match="odd"):
            MontgomeryContext(1)

    def test_context_cache_shares_instances(self):
        assert montgomery_context(self.MODULUS) is \
            montgomery_context(self.MODULUS)

    def test_fold_counts_modmuls(self):
        counter = crypto_ops.OpCounter()
        with crypto_ops.counting(counter, "evaluation", "user") as bucket:
            montgomery_context(self.MODULUS).fold([3, 5, 7])
        # 3 conversions in + 3 chain muls + 1 conversion out.
        assert bucket.modmul == 7


def _kernel_variants():
    return [
        KernelConfig(window=1),
        KernelConfig(window=3),
        KernelConfig(window=4),
        KernelConfig(window=4, montgomery=True),
        KernelConfig(window=6, montgomery=True),
    ]


class TestMaskedProductTable:
    """Differential: table results == chunked_product on the same mask."""

    @pytest.fixture(scope="class")
    def setup(self, fig3, fig3_ball, cgbe):
        query, _ = fig3
        enc = encrypt_query_matrix(cgbe, query)
        plan = verification_plan(cgbe.params, query)
        c_one = cgbe.encrypt_one()
        cmms = enumerate_cmms(query, fig3_ball).cmms
        return query, enc, plan, c_one, cmms

    @pytest.mark.parametrize("config", _kernel_variants(),
                             ids=lambda c: f"w{c.window}-{c.label}")
    def test_matches_naive_verification(self, setup, fig3_ball, cgbe,
                                        config):
        query, enc, plan, c_one, cmms = setup
        table = verification_multiexp(cgbe.params, enc, c_one, plan, config)
        for cmm in cmms:
            naive = verify_ciphertext(cgbe.params, enc, c_one, fig3_ball,
                                      cmm, plan)
            mask = mask_of_pattern(cmm.project(fig3_ball.graph))
            batched = table.chunk_ciphertexts(mask)
            assert [c.value for c in batched] == [c.value for c in naive]
            assert [c.power for c in batched] == [c.power for c in naive]
            assert [c.value_bits for c in batched] == \
                [c.value_bits for c in naive]

    def test_fused_masks_equal_mask_of_pattern(self, setup, fig3_ball):
        query, _enc, _plan, _c_one, cmms = setup
        masks = list(iter_projected_masks(query, fig3_ball))
        assert masks == [mask_of_pattern(cmm.project(fig3_ball.graph))
                         for cmm in cmms]
        assert [pattern_of_mask(mask, query.size) for mask in masks] == \
            [tuple(map(tuple, cmm.project(fig3_ball.graph).tolist()))
             for cmm in cmms]

    def test_memo_hits_on_repeated_masks(self, setup, cgbe):
        _query, enc, plan, c_one, _cmms = setup
        table = verification_multiexp(cgbe.params, enc, c_one, plan)
        mask = (1 << 5) | (1 << 11)
        first = table.chunk_ciphertexts(mask)
        misses = table.misses
        counter = crypto_ops.OpCounter()
        with crypto_ops.counting(counter, "evaluation", "user") as bucket:
            second = table.chunk_ciphertexts(mask)
        assert [c.value for c in first] == [c.value for c in second]
        assert table.hits >= 1 and table.misses == misses
        assert bucket.modmul == 0  # memo lookup, no arithmetic

    def test_table_build_is_modmul_subset(self, setup, cgbe):
        _query, enc, plan, c_one, cmms = setup
        table = verification_multiexp(cgbe.params, enc, c_one, plan)
        counter = crypto_ops.OpCounter()
        with crypto_ops.counting(counter, "evaluation", "user") as bucket:
            for i in range(len(cmms)):
                table.chunk_ciphertexts(1 << (i % plan.factors))
        assert bucket.table_build <= bucket.modmul
        assert bucket.table_build == table.table_entries

    def test_batched_uses_fewer_modmuls_than_naive(self, setup, fig3_ball,
                                                   cgbe):
        query, enc, plan, c_one, cmms = setup
        naive_counter = crypto_ops.OpCounter()
        with crypto_ops.counting(naive_counter, "evaluation", "user"):
            for cmm in cmms:
                verify_ciphertext(cgbe.params, enc, c_one, fig3_ball, cmm,
                                  plan)
        table = verification_multiexp(cgbe.params, enc, c_one, plan)
        batched_counter = crypto_ops.OpCounter()
        with crypto_ops.counting(batched_counter, "evaluation", "user"):
            for cmm in cmms:
                table.chunk_ciphertexts(
                    mask_of_pattern(cmm.project(fig3_ball.graph)))
        naive = naive_counter.totals()
        batched = batched_counter.totals()
        assert 0 < batched.modmul <= naive.modmul

    def test_overflow_matches_naive_message(self, cgbe):
        # A hand-built plan whose chunk does not fit the modulus: both
        # paths must refuse with multiply's exact message.
        params = cgbe.params
        bpf = params.budget.bits_per_factor
        factors = params.modulus_bits // bpf + 1  # crosses the boundary
        plan = ChunkPlan(factors=factors, chunk_factors=factors,
                         chunks_per_item=1, summable=True)
        c_one = cgbe.encrypt_one()
        bases = [cgbe.encrypt_one() for _ in range(factors)]
        table = MaskedProductTable(params, bases, c_one, plan)
        with pytest.raises(OverflowError_, match="split the aggregation"):
            table.chunk_ciphertexts(0)
        with pytest.raises(OverflowError_, match="split the aggregation"):
            chunked_product(params, bases, c_one, plan)

    def test_rejects_non_fresh_bases(self, cgbe):
        params = cgbe.params
        c_one = cgbe.encrypt_one()
        stale = CGBE.multiply(params, c_one, cgbe.encrypt_one())
        plan = ChunkPlan(factors=1, chunk_factors=1, chunks_per_item=1,
                         summable=True)
        with pytest.raises(ValueError, match="fresh single encryptions"):
            MaskedProductTable(params, [stale], c_one, plan)

    def test_rejects_base_count_mismatch(self, cgbe):
        plan = ChunkPlan(factors=4, chunk_factors=4, chunks_per_item=1,
                         summable=True)
        c_one = cgbe.encrypt_one()
        with pytest.raises(ValueError, match="plan lays"):
            MaskedProductTable(cgbe.params, [c_one], c_one, plan)

    def test_registry_builds_once_per_key(self, cgbe, fig3):
        query, _ = fig3
        enc = encrypt_query_matrix(cgbe, query)
        plan = verification_plan(cgbe.params, query)
        c_one = cgbe.encrypt_one()
        registry = MultiExpRegistry()
        builds = []

        def build():
            builds.append(1)
            return verification_multiexp(cgbe.params, enc, c_one, plan)

        first = registry.table(("verify",), build)
        second = registry.table(("verify",), build)
        assert first is second and len(builds) == 1
        assert registry.enabled


class TestKernelScope:
    def test_scope_installs_and_restores(self, cgbe):
        from repro.crypto import cgbe as cgbe_module

        config = KernelConfig(montgomery=True)
        assert cgbe_module._MONT is None
        with kernel_scope(config, cgbe.params):
            assert cgbe_module._MONT is \
                montgomery_context(cgbe.params.modulus)
            with kernel_scope(NAIVE_KERNELS, cgbe.params):
                # naive scope must not clobber an installed context
                assert cgbe_module._MONT is not None
        assert cgbe_module._MONT is None

    def test_product_identical_under_montgomery(self, cgbe):
        params = cgbe.params
        factors = [cgbe.encrypt(3), cgbe.encrypt(5), cgbe.encrypt(7),
                   cgbe.encrypt_one()]
        plain = CGBE.product(params, factors)
        with kernel_scope(KernelConfig(montgomery=True), params):
            mont = CGBE.product(params, factors)
        assert (mont.value, mont.power, mont.value_bits) == \
            (plain.value, plain.power, plain.value_bits)

    def test_product_overflow_identical_under_montgomery(self, cgbe):
        params = cgbe.params
        bpf = params.budget.bits_per_factor
        count = params.modulus_bits // bpf + 1
        factors = [cgbe.encrypt(2) for _ in range(count)]
        with pytest.raises(OverflowError_, match="split the aggregation"):
            CGBE.product(params, factors)
        with kernel_scope(KernelConfig(montgomery=True), params):
            with pytest.raises(OverflowError_,
                               match="split the aggregation"):
                CGBE.product(params, factors)


class TestProductEqualityDedupe:
    """Satellite regression: CGBE.product must collapse repeats of *equal*
    ciphertexts, not just the same object -- e.g. ``c_one`` padding
    re-encrypted after a store quarantine arrives as distinct allocations
    of the same (value, power, bits) triple."""

    def test_distinct_allocations_fold_to_one_modexp(self, cgbe):
        params = cgbe.params
        original = cgbe.encrypt_one()
        copies = [CGBECiphertext(value=original.value, power=original.power,
                                 value_bits=original.value_bits)
                  for _ in range(5)]
        assert len({id(c) for c in copies}) == 5
        counter = crypto_ops.OpCounter()
        with crypto_ops.counting(counter, "evaluation", "user") as bucket:
            folded = CGBE.product(params, copies)
        # One power call for the single equality group, zero multiplies.
        assert bucket.modexp == 1 and bucket.modmul == 0
        sequential = copies[0]
        for c in copies[1:]:
            sequential = CGBE.multiply(params, sequential, c)
        assert folded.value == sequential.value
        assert folded.power == sequential.power == 5


class TestPackedBitsets:
    def test_pack_row_and_iter_bits(self):
        row = [0, 1, 1, 0, 1]
        mask = pack_row(row)
        assert mask == 0b10110
        assert list(iter_bits(mask)) == [1, 2, 4]
        assert list(iter_bits(0)) == []

    def test_pack_rows_matches_pack_row(self):
        rows = [[0, 1, 0], [1, 1, 1], [0, 0, 0]]
        assert pack_rows(rows) == tuple(pack_row(r) for r in rows)

    def test_pack_rows_wide_numpy_path(self):
        # 300-wide rows take the packbits fast path when numpy exists;
        # the result must be identical to the pure-Python packing.
        rows = [[(i * 7 + j) % 3 == 0 for j in range(300)]
                for i in range(4)]
        rows = [[int(v) for v in row] for row in rows]
        assert pack_rows(rows) == tuple(pack_row(r) for r in rows)

    def test_dual_simulation_matches_reference(self, fig3, fig3_ball,
                                               dataset):
        query, graph = fig3
        for g in (graph, fig3_ball.graph):
            assert maximal_dual_simulation(query, g) == \
                reference_dual_simulation(query, g)
        ssim_query = dataset.random_queries(
            1, size=4, diameter=2, semantics=Semantics.SSIM, seed=5)[0]
        g = dataset.graph_for(Semantics.SSIM)
        assert maximal_dual_simulation(ssim_query, g) == \
            reference_dual_simulation(ssim_query, g)


@pytest.mark.parametrize("semantics", [Semantics.HOM, Semantics.SUB_ISO,
                                       Semantics.SSIM])
@pytest.mark.parametrize("engine_cls", [Prilo, PriloStar],
                         ids=["pruning-off", "pruning-on"])
class TestEndToEndKernelEquivalence:
    """The whole pipeline, naive vs batched kernels: identical answers,
    never more modmuls."""

    def test_same_answers_and_fewer_ops(self, dataset, test_config,
                                        engine_cls, semantics):
        graph = dataset.graph_for(semantics)
        query = dataset.random_queries(1, size=4, diameter=2,
                                       semantics=semantics, seed=5)[0]
        naive_cfg = replace(test_config, kernels=NAIVE_KERNELS)
        batched_cfg = replace(test_config, kernels=DEFAULT_KERNELS)
        naive = engine_cls.setup(graph, naive_cfg).run(query)
        batched = engine_cls.setup(graph, batched_cfg).run(query)
        assert batched.match_ball_ids == naive.match_ball_ids
        assert batched.verified_ids == naive.verified_ids
        assert batched.num_matches == naive.num_matches
        naive_ops = naive.metrics.ops.totals()
        batched_ops = batched.metrics.ops.totals()
        assert naive_ops.modmul > 0 and batched_ops.modmul > 0
        assert batched_ops.modmul <= naive_ops.modmul

    def test_ops_bucketed_by_phase_and_role(self, dataset, test_config,
                                            engine_cls, semantics):
        graph = dataset.graph_for(semantics)
        query = dataset.random_queries(1, size=4, diameter=2,
                                       semantics=semantics, seed=5)[0]
        result = engine_cls.setup(graph, test_config).run(query)
        buckets = result.metrics.ops.buckets
        phases = {phase for phase, _role in buckets}
        roles = {role for _phase, role in buckets}
        assert "evaluation" in phases
        assert "user_preprocessing" in phases
        assert any(role.startswith("player:") for role in roles)
        assert "user" in roles
        # round-trips through the JSON shape
        rebuilt = crypto_ops.OpCounter.from_dict(result.metrics.ops.as_dict())
        assert rebuilt.as_dict() == result.metrics.ops.as_dict()


class TestMontgomeryEndToEnd:
    def test_montgomery_run_identical(self, dataset, test_config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=6)[0]
        base = Prilo.setup(dataset.graph, test_config).run(query)
        mont_cfg = replace(test_config,
                           kernels=KernelConfig(montgomery=True))
        mont = Prilo.setup(dataset.graph, mont_cfg).run(query)
        assert mont.match_ball_ids == base.match_ball_ids
        assert mont.num_matches == base.num_matches
