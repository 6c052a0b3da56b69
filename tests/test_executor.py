"""Backend-equivalence tests for the parallel ball-evaluation engine.

The contract under test: the executor backend is a pure scheduling choice.
Serial and process-pool runs of the same configured engine must produce
byte-identical answer fields (``matches``, ``verified_ids``,
``pm_positive_ids``) -- the per-ball work is deterministic given the
ciphertext inputs, and merging is first-evaluation-wins in sequence order
regardless of which worker finished first.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.aggregation import ChunkPlan, chunked_product
from repro.core.bf_pruning import BFConfig
from repro.core.enumeration import iter_cmms, prepare_ball
from repro.core.verification import (
    verification_plan,
    verify_ball,
    verify_ball_streaming,
)
from repro.crypto.cgbe import CGBE
from repro.crypto.kernels import MaskedProductTable
from repro.framework.executor import (
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.graph.generators import fig3_graph, fig3_query
from repro.graph.query import Semantics


@pytest.fixture(scope="module")
def config():
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=16,
                       r_bits=16, radii=(1, 2, 3), seed=3,
                       bf=BFConfig(eta=16, expected_trees=200))


def run_pair(graph, query, config, *, pruning):
    """Run the same query under both backends; return (serial, process)."""
    cls = PriloStar if pruning else Prilo
    serial = cls.setup(graph, replace(config, executor="serial"))
    with cls.setup(graph, replace(config, executor="process",
                                  parallelism=2)) as parallel:
        return serial.run(query), parallel.run(query)


class TestBackendEquivalence:
    @pytest.mark.parametrize("pruning", [False, True],
                             ids=["plain", "bf+twiglet"])
    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    def test_identical_answers(self, dataset, config, semantics, pruning):
        graph = dataset.graph_for(semantics)
        query = dataset.random_queries(1, size=4, diameter=2,
                                       semantics=semantics, seed=5)[0]
        serial, parallel = run_pair(graph, query, config, pruning=pruning)
        assert serial.matches == parallel.matches
        assert serial.verified_ids == parallel.verified_ids
        assert serial.pm_positive_ids == parallel.pm_positive_ids
        assert serial.candidate_ids == parallel.candidate_ids
        assert serial.metrics.cmms_enumerated == \
            parallel.metrics.cmms_enumerated
        assert serial.metrics.bypassed_balls == \
            parallel.metrics.bypassed_balls

    def test_fig3_match_identical(self, config):
        serial, parallel = run_pair(fig3_graph(), fig3_query(), config,
                                    pruning=False)
        assert serial.num_matches == parallel.num_matches == 1
        (a,) = [m for ms in serial.matches.values() for m in ms]
        (b,) = [m for ms in parallel.matches.values() for m in ms]
        assert set(a.vertices()) == set(b.vertices())
        assert set(a.edges()) == set(b.edges())


class TestExecutorMetrics:
    def test_process_run_records_per_worker_wall(self, dataset, config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=6)[0]
        with PriloStar.setup(
                dataset.graph,
                replace(config, executor="process",
                        parallelism=2)) as engine:
            result = engine.run(query)
        metrics = result.metrics
        assert metrics.executor_backend == "process"
        assert metrics.workers == 2
        assert metrics.per_worker_eval_wall
        assert all(w > 0 for w in metrics.per_worker_eval_wall.values())
        assert metrics.per_worker_pm_wall
        assert metrics.eval_wall_seconds == \
            max(metrics.per_worker_eval_wall.values())
        # The comparability invariant: evaluation stays the per-ball sum.
        assert metrics.timings.evaluation == pytest.approx(
            sum(metrics.per_ball_eval_cost.values()))

    def test_serial_run_records_backend(self, dataset, config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=6)[0]
        result = Prilo.setup(dataset.graph, config).run(query)
        metrics = result.metrics
        assert metrics.executor_backend == "serial"
        assert metrics.workers == 1
        assert metrics.eval_wall_seconds == pytest.approx(
            sum(metrics.per_worker_eval_wall.values()))


class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            PriloConfig(executor="threads")

    def test_nonpositive_parallelism_rejected(self):
        with pytest.raises(ValueError, match="parallelism"):
            PriloConfig(parallelism=0)

    def test_factory_matches_config_names(self):
        assert isinstance(create_executor("serial", 1), SerialExecutor)
        with create_executor("process", 3) as executor:
            assert isinstance(executor, ProcessExecutor)
            assert executor.workers == 3
        with pytest.raises(ValueError, match="threads"):
            create_executor("threads", 1)

    def test_close_is_idempotent(self):
        executor = create_executor("process", 2)
        executor.close()
        executor.close()


class TestPowerCacheFastPath:
    """The kernels' cached ``c_one^n`` pad powers must equal the naive
    product."""

    @pytest.fixture(scope="class")
    def scheme(self):
        return CGBE.generate(modulus_bits=512, q_bits=16, r_bits=16, seed=9)

    @staticmethod
    def table(scheme, bases, c_one):
        plan = ChunkPlan.plan(scheme.params, len(bases), expected_terms=4)
        return MaskedProductTable(scheme.params, bases, c_one, plan)

    def test_powers_match_naive_chain(self, scheme):
        params = scheme.params
        base = scheme.encrypt_one()
        naive = base
        for exponent in range(2, 12):
            naive = CGBE.multiply(params, naive, base)
            fresh = [scheme.encrypt_one() for _ in range(exponent)]
            all_pads = (1 << exponent) - 1
            [fast] = self.table(scheme, fresh, base).chunk_ciphertexts(
                all_pads)
            assert fast == naive

    def test_matches_cgbe_power(self, scheme):
        params = scheme.params
        base = scheme.encrypt_one()
        for exponent in (1, 2, 3, 5, 8, 13):
            fresh = [scheme.encrypt_one() for _ in range(exponent)]
            [fast] = self.table(scheme, fresh, base).chunk_ciphertexts(
                (1 << exponent) - 1)
            assert fast.value == CGBE.power(params, base, exponent).value

    def test_product_with_cache_identical(self, scheme):
        params = scheme.params
        c_one = scheme.encrypt_one()
        real = [scheme.encrypt(3), scheme.encrypt(5)]
        plain = CGBE.product(params, real + [c_one] * 10)
        bases = real + [scheme.encrypt_one() for _ in range(10)]
        [cached] = self.table(scheme, bases, c_one).chunk_ciphertexts(
            ((1 << 10) - 1) << 2)
        assert cached.value == plain.value
        assert cached.power == plain.power

    def test_chunked_product_with_pad_cache_identical(self, scheme):
        params = scheme.params
        c_one = scheme.encrypt_one()
        # 30 slots in two chunks of 15, the last 28 of them padding
        plan = ChunkPlan.plan(params, 30, expected_terms=4)
        assert plan.chunks_per_item == 2
        factors = [scheme.encrypt_q(), scheme.encrypt(2)]
        plain = chunked_product(params, list(factors), c_one, plan)
        bases = factors + [scheme.encrypt_one() for _ in range(28)]
        cached = MaskedProductTable(params, bases, c_one,
                                    plan).chunk_ciphertexts(
            ((1 << 28) - 1) << 2)
        assert cached == plain

    def test_overflow_still_raised(self, scheme):
        from repro.crypto.cgbe import OverflowError_

        params = scheme.params
        c_one = scheme.encrypt_one()
        plan = ChunkPlan(factors=10_000, chunk_factors=10_000,
                         chunks_per_item=1, summable=True)
        table = MaskedProductTable(params, [c_one] * 10_000, c_one, plan)
        with pytest.raises(OverflowError_):
            table.chunk_ciphertexts((1 << 10_000) - 1)


class TestStreamingVerification:
    """Verifying the recorded mask stream must agree with the two-pass
    CMM-object pipeline."""

    def test_streaming_equals_batch(self, fig3, fig3_ball, cgbe):
        query, _ = fig3
        params = cgbe.params
        matrix = _encrypted_matrix(cgbe, query)
        c_one = cgbe.encrypt_one()
        plan = verification_plan(params, query)
        cmms = list(iter_cmms(query, fig3_ball))
        batch = verify_ball(params, matrix, c_one, fig3_ball, cmms, plan)
        prepared = prepare_ball(query, fig3_ball, enumeration_limit=2_000,
                                cmm_bound_bypass=2_000)
        streamed = verify_ball_streaming(params, matrix, c_one, prepared,
                                         plan)
        assert not prepared.bypassed
        assert prepared.enumerated == len(cmms)
        assert _result_values(streamed) == _result_values(batch)

    def test_streaming_truncates_at_limit(self, fig3, fig3_ball, cgbe):
        query, _ = fig3
        params = cgbe.params
        matrix = _encrypted_matrix(cgbe, query)
        plan = verification_plan(params, query)
        total = sum(1 for _ in iter_cmms(query, fig3_ball))
        assert total > 1
        prepared = prepare_ball(query, fig3_ball,
                                enumeration_limit=total - 1,
                                cmm_bound_bypass=2_000)
        result = verify_ball_streaming(params, matrix, cgbe.encrypt_one(),
                                       prepared, plan)
        assert prepared.truncated
        assert result.bypassed
        assert prepared.enumerated == total - 1


def _result_values(result):
    """Every ciphertext value of a BallCiphertextResult, any shape."""
    if result.summed is not None:
        return [result.summed.value]
    if result.per_item is not None:
        return [c.value for chunks in result.per_item for c in chunks]
    return [result.bypassed, result.empty]


def _encrypted_matrix(cgbe, query):
    from repro.core.encoding import encrypt_query_matrix

    return encrypt_query_matrix(cgbe, query)
