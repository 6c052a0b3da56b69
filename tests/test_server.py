"""Batch serving (:mod:`repro.framework.server`).

The load-bearing property: serving a batch through
:class:`QueryBatchEngine` -- a CMM cache in front of the one evaluation
path -- is *value-identical* to running the same queries through a fresh
engine one at a time, across semantics and pruning settings.  Plus the cache contract: bounded weight, LRU eviction, shared
:class:`CacheStats` counters, and one signature function for the user's
query and the SP's label view.
"""

from dataclasses import replace

import pytest

from repro.core.bf_pruning import BFConfig
from repro.core.enumeration import prepare_ball
from repro.framework.metrics import CacheStats
from repro.framework.prilo import Prilo
from repro.framework.prilo_star import PriloStar
from repro.framework.server import (
    CMMCache,
    QueryBatchEngine,
    enumeration_signature,
)
from repro.graph.ball import extract_ball
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import QueryLabelView, Semantics


def _queries(dataset, semantics, count=3, distinct=2):
    base = dataset.random_queries(distinct, size=4, diameter=2,
                                  semantics=semantics, seed=13)
    return [base[i % distinct] for i in range(count)]


def _result_key(result):
    return (result.candidate_ids, result.pm_positive_ids,
            result.verified_ids, result.match_ball_ids,
            result.num_matches, sorted(result.matches))


def _pruning_config(test_config):
    return replace(test_config, use_twiglet=True, use_bf=True,
                   bf=BFConfig(eta=16, expected_trees=200))


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    @pytest.mark.parametrize("pruning", [False, True])
    def test_serial_backend(self, dataset, test_config, semantics, pruning):
        config = _pruning_config(test_config) if pruning else test_config
        graph = dataset.graph_for(semantics)
        queries = _queries(dataset, semantics)

        # One engine for all sequential runs: the CGBE randomness stream
        # is positional, so the batch side must consume it identically.
        engine_cls = PriloStar if pruning else Prilo
        sequential_engine = engine_cls.setup(graph, config)
        sequential = [sequential_engine.run(q) for q in queries]

        batch_engine = QueryBatchEngine(engine_cls.setup(graph, config))
        report = batch_engine.serve(queries)

        assert len(report.results) == len(queries)
        for seq, bat in zip(sequential, report.results):
            assert _result_key(seq) == _result_key(bat)

    def test_grouping_and_hits(self, dataset, test_config):
        queries = _queries(dataset, Semantics.HOM, count=4, distinct=2)
        report = QueryBatchEngine(
            Prilo.setup(dataset.graph, test_config)).serve(queries)
        assert report.distinct_signatures == 2
        assert sorted(i for g in report.signature_groups.values()
                      for i in g) == [0, 1, 2, 3]
        # Queries 2-3 re-see every ball their signature twin enumerated.
        assert report.cache_stats.hits > 0
        assert report.cache_stats.hit_rate >= 0.5
        summary = report.summary()
        assert summary["queries"] == 4
        assert summary["distinct_signatures"] == 2
        assert len(summary["latency_seconds"]) == 4

    def test_ssim_bypasses_cache(self, dataset, test_config):
        """SSIM verification is not CMM-shaped -- the engine must fall
        back to the streaming kernel and leave the cache untouched."""
        queries = _queries(dataset, Semantics.SSIM, count=2, distinct=1)
        engine = Prilo.setup(dataset.graph_for(Semantics.SSIM), test_config)
        report = QueryBatchEngine(engine).serve(queries)
        assert report.cache_stats.lookups == 0
        assert report.cache_stats.entries == 0


class TestCMMCache:
    def _view_and_balls(self, dataset, count=4):
        from repro.graph.ball import BallIndex
        from repro.workloads.datasets import tiny_dataset

        # A fresh dataset instance pins the query to the first draw of a
        # fresh QGen stream: the shared session fixture's streams are
        # stateful, so going through it would make this cache-weight
        # test depend on how many queries *earlier test files* drew.
        query = tiny_dataset(seed=2).random_queries(
            1, size=4, diameter=2, seed=13)[0]
        view = QueryLabelView(
            labels=tuple(query.label(u) for u in query.vertex_order),
            diameter=query.diameter, semantics=query.semantics)
        index = BallIndex(dataset.graph, (2,))
        balls = []
        for center in dataset.graph.vertices():
            ball = index.ball(center, 2)
            prepared = prepare_ball(view, ball, enumeration_limit=2000,
                                    cmm_bound_bypass=2000)
            if prepared.enumerated > 0:
                balls.append(ball)
            if len(balls) == count:
                break
        assert len(balls) == count, "tiny dataset should offer enough balls"
        return view, balls

    def test_weight_bound_and_eviction(self, dataset):
        view, balls = self._view_and_balls(dataset)
        weights = [prepare_ball(view, b, enumeration_limit=2000,
                                cmm_bound_bypass=2000).weight for b in balls]
        cache = CMMCache(max_weight=max(weights[:2]) + min(weights[:2]))
        for ball in balls:
            cache.prepare(view, ball, enumeration_limit=2000,
                          cmm_bound_bypass=2000)
            assert cache.weight <= cache.max_weight or len(cache) == 1
        assert cache.stats.evictions > 0
        assert cache.stats.misses == len(balls)
        assert cache.stats.entries == len(cache)
        assert cache.stats.weight == cache.weight
        assert cache.stats.capacity == cache.max_weight

    def test_lru_order(self, dataset):
        view, balls = self._view_and_balls(dataset, count=3)
        a, b, c = balls
        kwargs = dict(enumeration_limit=2000, cmm_bound_bypass=2000)
        wa, wb = (prepare_ball(view, x, **kwargs).weight for x in (a, b))
        cache = CMMCache(max_weight=wa + wb)
        cache.prepare(view, a, **kwargs)
        cache.prepare(view, b, **kwargs)
        cache.prepare(view, a, **kwargs)          # refresh a
        cache.prepare(view, c, **kwargs)          # evicts b, not a
        before = cache.stats.snapshot()
        cache.prepare(view, a, **kwargs)
        assert cache.stats.delta(before).hits == 1
        before = cache.stats.snapshot()
        cache.prepare(view, b, **kwargs)
        assert cache.stats.delta(before).misses == 1

    def test_build_seconds_zero_on_hit(self, dataset):
        view, balls = self._view_and_balls(dataset, count=1)
        cache = CMMCache()
        kwargs = dict(enumeration_limit=2000, cmm_bound_bypass=2000)
        cache.prepare(view, balls[0], **kwargs)
        assert cache.last_build_seconds > 0
        cache.prepare(view, balls[0], **kwargs)
        assert cache.last_build_seconds == 0.0

    def test_twin_heavy_ball_weighs_its_masks(self):
        """A star's leaves are false twins: its n^2 CMMs all project to one
        mask, and the cache charges the two ints it keeps.  Two stars fit
        a bound far below their CMM count; a third evicts one."""
        view = QueryLabelView(labels=("a", "b", "b"), diameter=2,
                              semantics=Semantics.HOM)
        kwargs = dict(enumeration_limit=2000, cmm_bound_bypass=2000)
        cache = CMMCache(max_weight=4)
        for leaves in (6, 7, 8):
            star = extract_ball(LabeledGraph.from_edges(
                {0: "a", **dict.fromkeys(range(1, leaves + 1), "b")},
                [(0, i) for i in range(1, leaves + 1)]), 0, 1,
                ball_id=leaves)
            prepared = cache.prepare(view, star, **kwargs)
            assert (prepared.enumerated, len(prepared.masks),
                    prepared.weight) == (leaves ** 2, 1, 2)
        assert (len(cache), cache.weight, cache.stats.evictions) == (2, 4, 1)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="weight"):
            CMMCache(max_weight=0)

    def test_shared_stats_instance(self, dataset):
        view, balls = self._view_and_balls(dataset, count=1)
        shared = CacheStats()
        cache = CMMCache(stats=shared)
        cache.prepare(view, balls[0], enumeration_limit=2000,
                      cmm_bound_bypass=2000)
        assert shared.misses == 1


class TestSignatures:
    def test_user_and_sp_signatures_agree(self, dataset, test_config):
        """The cache key the engine builds from the SP-side message must
        equal the grouping key the server builds from the query."""
        query = dataset.random_queries(1, size=4, diameter=2, seed=13)[0]
        engine = Prilo.setup(dataset.graph, test_config)
        batch = QueryBatchEngine(engine)
        batch.serve([query])
        expected = enumeration_signature(
            query, enumeration_limit=test_config.enumeration_limit,
            cmm_bound_bypass=test_config.cmm_bound_bypass)
        signatures = {sig for _, sig in batch.cache}
        assert signatures == {expected}

    def test_signature_same_for_query_and_view(self, dataset):
        """One function keys the cache (from the SP's label view) and
        groups the batch (from the user's query)."""
        bounds = dict(enumeration_limit=2000, cmm_bound_bypass=2000)
        for semantics in Semantics:
            query = dataset.random_queries(1, size=4, diameter=2,
                                           semantics=semantics, seed=13)[0]
            assert enumeration_signature(QueryLabelView.of(query),
                                         **bounds) \
                == enumeration_signature(query, **bounds)

    def test_signature_distinguishes_bounds(self, dataset):
        query = dataset.random_queries(1, size=4, diameter=2, seed=13)[0]
        a = enumeration_signature(query, enumeration_limit=10,
                                  cmm_bound_bypass=2000)
        b = enumeration_signature(query, enumeration_limit=2000,
                                  cmm_bound_bypass=2000)
        assert a != b


class TestPreparedVerdicts:
    """prepare_ball takes the two footnote-6 decisions (bound bypass,
    truncation) and records one CMM count per distinct pattern."""

    def _view(self, dataset):
        query = dataset.random_queries(1, size=4, diameter=2, seed=13)[0]
        return QueryLabelView(
            labels=tuple(query.label(u) for u in query.vertex_order),
            diameter=query.diameter, semantics=query.semantics)

    def _some_ball(self, dataset, view):
        from repro.graph.ball import BallIndex

        index = BallIndex(dataset.graph, (2,))
        for center in dataset.graph.vertices():
            ball = index.ball(center, 2)
            prepared = prepare_ball(view, ball, enumeration_limit=2000,
                                    cmm_bound_bypass=2000)
            if prepared.enumerated > 1:
                return ball, prepared
        pytest.skip("no multi-CMM ball in the tiny dataset")

    def test_truncation(self, dataset):
        view = self._view(dataset)
        ball, full = self._some_ball(dataset, view)
        limit = full.enumerated - 1
        truncated = prepare_ball(view, ball, enumeration_limit=limit,
                                 cmm_bound_bypass=2000)
        assert truncated.truncated
        assert truncated.bypassed
        assert truncated.enumerated == limit
        assert truncated.masks == ()

    def test_bound_bypass(self, dataset):
        view = self._view(dataset)
        ball, _ = self._some_ball(dataset, view)
        bypassed = prepare_ball(view, ball, enumeration_limit=2000,
                                cmm_bound_bypass=0)
        assert bypassed.bound_bypassed
        assert bypassed.enumerated == 0

    def test_pattern_indices_cover_order(self, dataset):
        view = self._view(dataset)
        _, prepared = self._some_ball(dataset, view)
        assert sum(prepared.counts) == prepared.enumerated
        assert len(prepared.counts) == len(prepared.masks)
        assert all(count > 0 for count in prepared.counts)
        assert prepared.weight == len(prepared.masks) + len(prepared.counts)


class TestOneEvaluationPath:
    """A cache-less run and a cold batch of one are the same evaluation by
    construction -- one share type, one worker, one kernel, one verifier;
    the cache only decides *where* a ball's mask stream is recorded.  So
    everything evaluation produces is equal, not just the answer, and a
    warm cache moves nothing but its own hit counter.

    The bounds are tight enough for the 5-vertex query to hit both
    footnote-6 decisions (one bound bypass, one truncation) next to balls
    with repeated patterns; 512-bit moduli chunk its 20-factor products
    (per-item layout), 1024-bit ones sum them.
    """

    @staticmethod
    def _observe(engine, answer):
        """``answer()`` with a spy on step 7: the run's metrics plus, per
        ball, everything the Player sent back."""
        evaluated = {}
        evaluate = engine._evaluate

        def spy(*args, **kwargs):
            results = evaluate(*args, **kwargs)
            evaluated.update(results)
            return results

        engine._evaluate = spy
        metrics = answer().metrics
        per_ball = {
            ball_id: (
                None if result.verdict.summed is None
                else result.verdict.summed.value,
                None if result.verdict.per_item is None
                else [[c.value for c in chunks]
                      for chunks in result.verdict.per_item],
                result.cmms, result.bypassed, result.player,
                engine._verdict_bytes(result))
            for ball_id, result in evaluated.items()}
        run = (metrics.cmms_enumerated, metrics.bypassed_balls,
               metrics.sizes.ciphertext_results,
               {key: counts for key, counts in metrics.ops.as_dict().items()
                if key.startswith("evaluation/")},
               metrics.caches["pad"].as_dict())
        return per_ball, run, metrics.caches.get("cmm")

    @pytest.mark.parametrize("modulus_bits", [512, 1024],
                             ids=["chunked", "summable"])
    @pytest.mark.parametrize("semantics", [Semantics.HOM, Semantics.SUB_ISO],
                             ids=lambda s: s.value)
    def test_solo_run_is_cold_batch_of_one(self, dataset, test_config,
                                           semantics, modulus_bits):
        config = replace(test_config, modulus_bits=modulus_bits,
                         enumeration_limit=10, cmm_bound_bypass=40)
        query = dataset.random_queries(1, size=5, diameter=2,
                                       semantics=semantics, seed=2)[0]
        cache = CMMCache()
        observed = []
        for serve in (lambda engine: engine.run(query),
                      lambda engine: QueryBatchEngine(
                          engine, cache=cache).serve([query]).results[0],
                      lambda engine: QueryBatchEngine(
                          engine, cache=cache).serve([query]).results[0]):
            # A fresh engine each time: same seed, same CGBE randomness.
            with Prilo.setup(dataset.graph, config) as engine:
                observed.append(self._observe(engine,
                                              lambda: serve(engine)))
        (solo_balls, solo_run, no_cache), (cold_balls, cold_run, cold), \
            (warm_balls, warm_run, warm) = observed

        cmms = [ball[2] for ball in solo_balls.values()]
        bypassed = [ball[3] for ball in solo_balls.values()]
        assert sum(bypassed) >= 2 and 0 in cmms and 10 in cmms
        assert any(count > 1 and not skipped
                   for count, skipped in zip(cmms, bypassed))

        assert solo_balls == cold_balls == warm_balls
        assert solo_run == cold_run == warm_run
        assert no_cache is None
        assert (cold.hits, cold.misses) == (0, len(solo_balls))
        assert (warm.hits, warm.misses) == (len(solo_balls), 0)
