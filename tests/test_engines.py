"""End-to-end integration tests for Prilo and Prilo* (Alg. 3, Sec. 4).

The master correctness property, checked per semantics: the set of balls
from which the engine reports matches equals the ground-truth set computed
by the plaintext matchers -- the whole privacy machinery must change
*nothing* about the answers.
"""

import pytest

from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.graph.generators import fig3_graph, fig3_query
from repro.graph.query import Semantics
from repro.workloads.experiments import ground_truth_positive_ids


@pytest.fixture(scope="module")
def config():
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=16,
                       r_bits=16, radii=(1, 2, 3), seed=3,
                       bf=__import__("repro.core.bf_pruning",
                                     fromlist=["BFConfig"]).BFConfig(
                           eta=16, expected_trees=200))


class TestFig3EndToEnd:
    def test_prilo_finds_the_match(self, config):
        engine = Prilo.setup(fig3_graph(), config)
        result = engine.run(fig3_query())
        assert result.num_matches == 1
        (found,) = [m for ms in result.matches.values() for m in ms]
        assert set(found.vertices()) == {"v2", "v3", "v5", "v6"}
        assert result.sequence_mode == "rsg"
        assert result.pm_per_method == {}

    def test_prilo_star_same_answers_with_pruning(self, config):
        star = PriloStar.setup(fig3_graph(), config)
        result = star.run(fig3_query())
        assert result.num_matches == 1
        assert result.pm_per_method.keys() == {"bf", "twiglet"}
        assert len(result.pm_positive_ids) < len(result.candidate_ids)

    def test_chosen_label_maximizes_candidates(self, config):
        engine = Prilo.setup(fig3_graph(), config)
        result = engine.run(fig3_query())
        assert result.chosen_label == "C"  # 3 C-vertices in G
        assert len(result.candidate_ids) == 3

    def test_min_label_strategy(self, config):
        from dataclasses import replace

        engine = Prilo.setup(fig3_graph(),
                             replace(config, label_strategy="min"))
        result = engine.run(fig3_query())
        assert len(result.candidate_ids) == 1
        assert result.num_matches == 1  # Props. 1-2: any label works


class TestAgreementAcrossSemantics:
    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    def test_match_balls_equal_ground_truth(self, dataset, config,
                                            semantics):
        graph = dataset.graph_for(semantics)
        query = dataset.random_queries(1, size=4, diameter=2,
                                       semantics=semantics, seed=5)[0]
        star = PriloStar.setup(graph, config)
        result = star.run(query)
        _, candidates = star.candidate_balls(query)
        truth = ground_truth_positive_ids(query, candidates)
        # Soundness: pruning and verification never lose a true positive.
        assert truth <= result.pm_positive_ids
        assert truth <= result.verified_ids | (
            result.verified_ids ^ result.verified_ids)  # no-op guard
        # Exactness of the final answer set.
        assert result.match_ball_ids == truth

    def test_prilo_and_prilo_star_agree(self, dataset, config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=6)[0]
        plain = Prilo.setup(dataset.graph, config).run(query)
        star = PriloStar.setup(dataset.graph, config).run(query)
        assert plain.match_ball_ids == star.match_ball_ids
        assert plain.num_matches == star.num_matches


class TestConfig:
    def test_setup_overrides(self, config):
        engine = PriloStar.setup(fig3_graph(), config, use_bf=False)
        assert engine.config.use_twiglet
        assert not engine.config.use_bf

    def test_paper_crypto_parameters(self):
        cfg = PriloConfig().paper_crypto()
        assert cfg.modulus_bits == 4096
        assert cfg.q_bits == cfg.r_bits == 32

    def test_diameter_not_indexed_raises(self, config):
        engine = Prilo.setup(fig3_graph(), config)
        query = fig3_query()
        object.__setattr__(query, "diameter", 9)
        with pytest.raises(ValueError, match="radii"):
            engine.run(query)

    def test_unknown_label_strategy(self, config):
        from dataclasses import replace

        engine = Prilo.setup(fig3_graph(),
                             replace(config, label_strategy="median"))
        with pytest.raises(ValueError, match="strategy"):
            engine.run(fig3_query())


class TestResultMetrics:
    def test_timings_and_schedule_populated(self, dataset, config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=8)[0]
        star = PriloStar.setup(dataset.graph, config)
        result = star.run(query)
        metrics = result.metrics
        assert metrics.candidate_balls == len(result.candidate_ids)
        assert metrics.timings.user_preprocessing > 0
        assert metrics.timings.pm_computation > 0
        assert len(metrics.per_ball_eval_cost) == len(result.candidate_ids)
        assert result.schedule.makespan >= result.schedule.all_positives
        assert metrics.sizes.user_to_sp() > 0

    def test_ssg_schedule_beats_rsg_for_low_ppcr(self, dataset, config):
        """On the same measured costs, SSG's time-to-all-positives is never
        worse than RSG's makespan."""
        query = dataset.random_queries(1, size=4, diameter=2, seed=9)[0]
        star = PriloStar.setup(dataset.graph, config)
        result = star.run(query)
        if result.sequence_mode == "early" and result.pm_positive_ids:
            assert result.schedule.all_positives <= result.schedule.makespan


class TestStreaming:
    def test_stream_matches_ordered_by_completion(self, dataset, config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=5)[0]
        star = PriloStar.setup(dataset.graph, config)
        result = star.run(query)
        streamed = list(result.stream_matches())
        assert len(streamed) == len(result.matches)
        times = [when for when, _, _ in streamed]
        assert times == sorted(times)
        for when, ball_id, matches in streamed:
            assert matches == result.matches[ball_id]
            assert when <= result.schedule.makespan + 1e-9

    def test_time_to_first_match(self, dataset, config):
        query = dataset.random_queries(1, size=4, diameter=2, seed=5)[0]
        result = PriloStar.setup(dataset.graph, config).run(query)
        first = result.time_to_first_match()
        if result.matches:
            assert first is not None
            assert first <= result.schedule.all_positives + 1e-9
        else:
            assert first is None


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError, match="k_players"):
            PriloConfig(k_players=0)

    def test_ssg_needs_two_players(self):
        with pytest.raises(ValueError, match="two players"):
            PriloConfig(k_players=1, use_ssg=True)

    def test_twiglet_h_range(self):
        with pytest.raises(ValueError, match="twiglet_h"):
            PriloConfig(twiglet_h=2)
        with pytest.raises(ValueError, match="twiglet_h"):
            PriloConfig(twiglet_h=6)

    def test_bounds_positive(self):
        with pytest.raises(ValueError, match="bounds"):
            PriloConfig(enumeration_limit=0)

    def test_radii_required(self):
        with pytest.raises(ValueError, match="radius"):
            PriloConfig(radii=())


class TestBaselinePruningFlags:
    def test_path_baseline_through_engine(self, dataset, config):
        from dataclasses import replace

        query = dataset.random_queries(1, size=4, diameter=2, seed=11)[0]
        engine = Prilo.setup(
            dataset.graph,
            replace(config, use_path=True, use_ssg=True))
        result = engine.run(query)
        assert set(result.pm_per_method) <= {"path"}
        _, candidates = engine.candidate_balls(query)
        truth = ground_truth_positive_ids(query, candidates)
        assert truth <= result.pm_positive_ids
        assert result.match_ball_ids == truth

    def test_neighbor_baseline_through_engine(self, dataset, config):
        from dataclasses import replace

        query = dataset.random_queries(1, size=4, diameter=2, seed=12)[0]
        engine = Prilo.setup(
            dataset.graph, replace(config, use_neighbor=True))
        result = engine.run(query)
        assert set(result.pm_per_method) <= {"neighbor"}
        _, candidates = engine.candidate_balls(query)
        truth = ground_truth_positive_ids(query, candidates)
        assert truth <= result.pm_positive_ids


class TestCustomKeyring:
    def test_injected_keyring_used(self, config):
        from repro.crypto.keys import UserKeyring

        ring = UserKeyring.generate(modulus_bits=1024, seed=77)
        engine = Prilo(fig3_graph(), config, keyring=ring)
        assert engine.user.keyring is ring
        result = engine.run(fig3_query())
        assert result.num_matches == 1


class TestArchiveBackedDealer:
    def test_engine_with_durable_dealer(self, config, tmp_path):
        """Swap the in-memory encrypted store for the on-disk pack."""
        from repro.framework.roles import Dealer
        from repro.storage import ArtifactStore

        engine = Prilo.setup(fig3_graph(), config)
        with ArtifactStore.create(tmp_path / "balls", engine.graph,
                                  config.radii, engine.owner.key) as store:
            engine.dealer = Dealer(store.encrypted_store())
            result = engine.run(fig3_query())
        assert result.num_matches == 1
