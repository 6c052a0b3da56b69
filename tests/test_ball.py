"""Unit and property tests for balls and the ball index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ball import Ball, BallIndex, extract_ball
from repro.graph.generators import fig3_graph, power_law_graph


class TestExtraction:
    def test_radius_zero_is_center_only(self):
        g = fig3_graph()
        ball = extract_ball(g, "v6", 0)
        assert ball.size == 1
        assert set(ball.graph.vertices()) == {"v6"}

    def test_fig3_radius3_covers_graph(self):
        g = fig3_graph()
        ball = extract_ball(g, "v6", 3)
        assert ball.size == 7  # every vertex is within 3 undirected hops

    def test_ball_members_within_radius(self):
        g = power_law_graph(120, 2, 8, seed=1)
        ball = extract_ball(g, 5, 2)
        distances = g.undirected_distances(5)
        for v in ball.graph.vertices():
            assert distances[v] <= 2

    def test_ball_is_induced(self):
        g = fig3_graph()
        ball = extract_ball(g, "v6", 2)
        for u in ball.graph.vertices():
            for v in ball.graph.vertices():
                assert ball.graph.has_edge(u, v) == g.has_edge(u, v)

    def test_center_must_be_member(self):
        g = fig3_graph()
        with pytest.raises(ValueError, match="center"):
            Ball(graph=g.induced_subgraph(["v1"]), center="v6", radius=1)

    def test_negative_radius_rejected(self):
        g = fig3_graph()
        with pytest.raises(ValueError, match="radius"):
            extract_ball(g, "v6", -1)

    def test_center_label(self):
        ball = extract_ball(fig3_graph(), "v6", 1)
        assert ball.center_label == "B"


class TestBallIndex:
    def test_ids_are_dense_and_stable(self):
        g = fig3_graph()
        index = BallIndex(g, (1, 2))
        assert len(index) == g.num_vertices * 2
        ids = {index.ball_id(v, r) for v in g.vertices() for r in (1, 2)}
        assert ids == set(range(len(index)))

    def test_ball_memoized(self):
        index = BallIndex(fig3_graph(), (2,))
        assert index.ball("v6", 2) is index.ball("v6", 2)

    def test_ball_by_id_roundtrip(self):
        index = BallIndex(fig3_graph(), (1, 3))
        ball = index.ball("v2", 3)
        assert index.ball_by_id(ball.ball_id) is ball

    def test_ball_by_id_does_not_scan_the_id_map(self):
        """A dict probe, not a walk over |V| x |radii| entries per call."""
        class NoScan(dict):
            def items(self):
                raise AssertionError("ball_by_id iterated the id map")
            __iter__ = keys = values = items

        index = BallIndex(fig3_graph(), (1, 3))
        explicit = BallIndex(fig3_graph(), (1, 3), ids=index.id_map())
        for idx in (index, explicit):
            idx._ids = NoScan(idx._ids)
            ball = idx.ball("v2", 3)
            assert idx.ball_by_id(ball.ball_id) is ball
            with pytest.raises(KeyError, match="unknown ball id"):
                idx.ball_by_id(10 ** 9)

    def test_ball_by_unknown_id(self):
        index = BallIndex(fig3_graph(), (1,))
        with pytest.raises(KeyError):
            index.ball_by_id(10 ** 9)

    def test_candidate_balls_prop1(self):
        """Prop. 1: only balls whose center carries the label, at d_Q."""
        g = fig3_graph()
        index = BallIndex(g, (3,))
        candidates = list(index.candidate_balls("C", 3))
        assert {b.center for b in candidates} == {"v1", "v5", "v7"}
        assert all(b.radius == 3 for b in candidates)
        assert index.candidate_count("C", 3) == 3

    def test_unknown_radius(self):
        index = BallIndex(fig3_graph(), (1,))
        with pytest.raises(KeyError):
            list(index.candidate_balls("C", 2))
        with pytest.raises(KeyError):
            index.ball("v6", 9)

    def test_materialize(self):
        index = BallIndex(fig3_graph(), (1,))
        assert index.materialize() == 7

    def test_empty_radii_rejected(self):
        with pytest.raises(ValueError):
            BallIndex(fig3_graph(), ())


class TestBallProperties:
    @given(st.integers(0, 3), st.integers(0, 119))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_radius(self, radius, center):
        g = power_law_graph(120, 2, 6, seed=3)
        small = extract_ball(g, center, radius)
        big = extract_ball(g, center, radius + 1)
        assert set(small.graph.vertices()) <= set(big.graph.vertices())

    @given(st.integers(0, 119))
    @settings(max_examples=40, deadline=None)
    def test_ball_connected(self, center):
        g = power_law_graph(120, 2, 6, seed=3)
        ball = extract_ball(g, center, 2)
        assert ball.graph.is_connected()
