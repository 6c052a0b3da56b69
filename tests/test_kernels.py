"""Differential and property tests for the batched crypto kernels.

Every kernel must be *value-identical* to the paper-literal fold kept in
``repro.core`` as the oracle: same ciphertext values, same ``power`` /
``value_bits`` bookkeeping, same overflow behavior, same final answers.
These tests pin that contract -- per kernel against the oracle, and end to
end across all three semantics with pruning on and off
(``tests/test_oracle.py`` holds the per-ball exactness matrix).
"""

import pytest

from repro.core.aggregation import (
    ChunkPlan,
    chunked_product,
    decide_positive,
)
from repro.core.encoding import encrypt_query_matrix
from repro.core.enumeration import enumerate_cmms, iter_projected_masks
from repro.core.ssim_verification import decide_ssim_ball
from repro.core.verification import (
    verification_multiexp,
    verification_plan,
    verify_ciphertext,
)
from repro.crypto import montgomery
from repro.crypto import ops as crypto_ops
from repro.crypto.cgbe import CGBE, CGBECiphertext, OverflowError_
from repro.crypto.kernels import (
    MaskedProductTable,
    MultiExpRegistry,
    mask_of_pattern,
    offdiagonal_bases,
    pattern_of_mask,
)
from repro.framework.prilo import Prilo
from repro.framework.prilo_star import PriloStar
from repro.graph.query import Semantics
from repro.semantics.ssim import maximal_dual_simulation
from tests.oracle import (
    message_of,
    oracle_evaluate_ball,
    reference_dual_simulation,
)


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

    @pytest.mark.parametrize("window", [1, 3, 4, 6],
                             ids=lambda w: f"w{w}-batched")
    def test_matches_naive_verification(self, setup, fig3_ball, cgbe,
                                        window):
        query, enc, plan, c_one, cmms = setup
        table = MaskedProductTable(cgbe.params, offdiagonal_bases(enc),
                                   c_one, plan, window=window)
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
        # table_build counts entries; of those, each multi-bit entry is
        # one modmul and a single-bit entry (its base value) is none.
        assert bucket.table_build == table.table_entries
        multi_bit = sum(1 for entries in table._tables
                        for sub in entries if sub & (sub - 1))
        assert 0 < multi_bit < bucket.table_build
        assert multi_bit <= bucket.modmul

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
        # Exact counters are a function of the 18 masks alone and repeat
        # bit for bit (a wall-clock ratio never could): 3.54x fewer modmuls.
        # Re-recorded from 117 when a chunk miss became a product-tree
        # walk (node memo: 117 -> 91) and a single-bit window entry became
        # its base value instead of a multiplication by 1 (7 entries:
        # 91 -> 84); the 27 table entries and 5 pad powers did not move.
        assert (naive.modmul, naive.modexp, naive.table_build) == \
            (297, 18, 0)
        assert (batched.modmul, batched.modexp, batched.table_build) == \
            (84, 5, 27)

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

    def test_window_bounds(self, cgbe):
        plan = ChunkPlan(factors=1, chunk_factors=1, chunks_per_item=1,
                         summable=True)
        c_one = cgbe.encrypt_one()
        for window in (0, 9):
            with pytest.raises(ValueError, match="window"):
                MaskedProductTable(cgbe.params, [c_one], c_one, plan,
                                   window=window)


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


class TestDualSimulation:
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
    """The whole pipeline against the paper-literal fold over the balls
    it evaluated: identical answers, never more modmuls."""

    def test_same_answers_and_fewer_ops(self, dataset, test_config,
                                        engine_cls, semantics):
        graph = dataset.graph_for(semantics)
        query = dataset.random_queries(1, size=4, diameter=2,
                                       semantics=semantics, seed=5)[0]
        engine = engine_cls.setup(graph, test_config)
        result = engine.run(query)
        scheme = engine.user.keyring.cgbe
        message = message_of(scheme, query)
        counter = crypto_ops.OpCounter()
        with crypto_ops.counting(counter, "evaluation", "oracle"):
            verdicts = [
                oracle_evaluate_ball(
                    message, engine.index.ball_by_id(ball_id),
                    enumeration_limit=test_config.enumeration_limit,
                    cmm_bound_bypass=test_config.cmm_bound_bypass)
                for ball_id in sorted(result.metrics.per_ball_eval_cost)]
        decide = (decide_ssim_ball if semantics is Semantics.SSIM
                  else decide_positive)
        positives = {v.ball_id for v in verdicts if decide(scheme, v)}
        assert verdicts
        assert positives & result.pm_positive_ids == result.verified_ids
        evaluation = result.metrics.ops.phase_totals()["evaluation"]
        assert 0 < evaluation.modmul <= counter.totals().modmul

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


@pytest.fixture
def python_domain(monkeypatch):
    """Every table built under this fixture computes on plain ints, as on
    a host where libcrypto cannot be loaded."""
    monkeypatch.setattr(montgomery, "libcrypto", lambda: None)


@pytest.mark.usefixtures("python_domain")
class TestMaskedProductTablePythonDomain(TestMaskedProductTable):
    """The same cases with libcrypto patched away, so both arithmetic
    domains stay covered on a host that has libcrypto."""


@pytest.mark.usefixtures("python_domain")
class TestEndToEndKernelEquivalencePythonDomain(
        TestEndToEndKernelEquivalence):
    """The whole pipeline again, with libcrypto patched away."""
