"""The user's ``Sigma_Q`` slice of a retrieved ball (DESIGN.md 7, 9.1):
``ball_from_bytes(data, labels=query.alphabet)`` keeps the vertices
labeled in the query's alphabet, plus the center, and the edges among
them, and ``find_matches`` on that slice answers what it answers on the
whole ball -- for every semantics, for int-id and text-id records, and
for a center labeled outside the alphabet."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ball import Ball, extract_ball
from repro.graph.io import ball_from_bytes, ball_to_bytes, graph_to_json
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import Query, Semantics
from repro.semantics.evaluate import find_matches

#: Six graph labels, three of them per query: with the two-letter
#: ``random_world`` of ``test_pattern_dedup.py`` nearly nothing is sliced.
GRAPH_LABELS = "abcdef"
SEMANTICS = pytest.mark.parametrize("semantics", list(Semantics),
                                    ids=[s.value for s in Semantics])


def slice_world(seed: int, semantics: Semantics) -> tuple[Query, Ball]:
    """A random directed graph over six labels, a connected 4-vertex query
    over three of them, and one ball of radius ``d_Q``; its center mostly
    carries a query label, sometimes any label."""
    rng = random.Random(seed)
    size = rng.randint(10, 16)
    labels = {v: rng.choice(GRAPH_LABELS) for v in range(size)}
    edges = {(u, v) for u in range(size) for v in range(size)
             if u != v and rng.random() < 0.6}
    graph = LabeledGraph.from_edges(labels, sorted(edges))
    alphabet = rng.sample(GRAPH_LABELS, 3)
    q_labels = dict(enumerate([*alphabet, rng.choice(alphabet)]))
    q_edges = set()
    for u in range(1, 4):  # a random spanning tree keeps it connected
        parent = rng.randrange(u)
        q_edges.add((parent, u) if rng.random() < 0.5 else (u, parent))
    q_edges |= {(u, v) for u in range(4) for v in range(4)
                if u != v and rng.random() < 0.05}
    query = Query.from_edges(q_labels, sorted(q_edges), semantics=semantics)
    labeled = sorted(v for v in range(size) if labels[v] in alphabet)
    center = (rng.choice(labeled) if labeled and rng.random() < 0.8
              else rng.randrange(size))
    return query, extract_ball(graph, center, query.diameter, ball_id=seed)


def text_ids(ball: Ball) -> Ball:
    """The same ball with tuple vertex ids: a text-id (flag bit 0) record."""
    graph, name = ball.graph, (lambda v: (v, "t"))
    return Ball(graph=LabeledGraph.from_edges(
        {name(v): graph.label(v) for v in graph.vertices()},
        [(name(u), name(v)) for u, v in graph.edges()]),
        center=name(ball.center), radius=ball.radius, ball_id=ball.ball_id)


def canonical(matches) -> list[str]:
    return sorted(map(graph_to_json, matches))


def assert_slice_of(part: Ball, whole: Ball, labels) -> None:
    graph = whole.graph
    kept = {v for v in graph.vertices() if graph.label(v) in labels}
    assert part.graph == graph.induced_subgraph(kept | {whole.center})
    assert (part.center, part.radius, part.ball_id) == (
        whole.center, whole.radius, whole.ball_id)


class TestSliceMatches:
    @SEMANTICS
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_find_matches_on_the_slice_is_find_matches(self, semantics,
                                                       seed):
        query, ball = slice_world(seed, semantics)
        for data in (ball_to_bytes(ball), ball_to_bytes(text_ids(ball))):
            whole = ball_from_bytes(data)
            part = ball_from_bytes(data, labels=query.alphabet)
            assert_slice_of(part, whole, query.alphabet)
            expected = find_matches(query, whole)
            found = find_matches(query, part)
            assert canonical(found) == canonical(expected)
            assert len(found) == len(expected)
            if semantics is not Semantics.SUB_ISO:
                # Sub-iso's degree filter may prune more on the slice,
                # which can reorder its search; hom and ssim keep it.
                assert found == expected

    def test_the_worlds_do_slice_and_match(self):
        """The property above is not vacuous: nearly every world's ball
        loses vertices to the slice, and many still have matches."""
        sliced = matched = 0
        trials = [(semantics, seed) for semantics in Semantics
                  for seed in range(100)]
        for semantics, seed in trials:
            query, ball = slice_world(seed, semantics)
            part = ball_from_bytes(ball_to_bytes(ball),
                                   labels=query.alphabet)
            sliced += part.size < ball.size
            matched += bool(find_matches(query, part))
        assert sliced >= 0.9 * len(trials)
        assert matched >= 0.2 * len(trials)

    @SEMANTICS
    def test_center_labeled_outside_the_alphabet(self, semantics):
        """The center stays in the slice whatever its label, with the edges
        it has to kept vertices; no match can contain it, sliced or not."""
        graph = LabeledGraph.from_edges(
            {0: "z", 1: "a", 2: "b", 3: "c", 4: "a"},
            [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 2)])
        query = Query.from_edges({0: "a", 1: "b"}, [(0, 1)],
                                 semantics=semantics)
        ball = extract_ball(graph, 0, 2, ball_id=3)
        part = ball_from_bytes(ball_to_bytes(ball), labels=query.alphabet)
        assert sorted(part.graph.vertices()) == [0, 1, 2, 4]
        assert sorted(part.graph.edges()) == [(0, 1), (1, 2), (2, 0), (4, 2)]
        assert part.center_label == "z"
        assert find_matches(query, part) == find_matches(query, ball) == []

    def test_empty_alphabet_keeps_the_center_alone(self):
        ball = extract_ball(LabeledGraph.from_edges(
            {0: "a", 1: "b"}, [(0, 1)]), 1, 1, ball_id=9)
        part = ball_from_bytes(ball_to_bytes(ball), labels=frozenset())
        assert list(part.graph.vertices()) == [1] and part.center == 1
        assert part.graph.num_edges == 0 and part.ball_id == 9
