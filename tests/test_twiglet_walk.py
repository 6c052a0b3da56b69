"""The label-set twiglet walk, held to the vertex-by-vertex DFS.

``twiglets_from`` stops one label short of ``h`` and reads the last
labels off each vertex's usable neighbour-label set; the oracle
(``tests/oracle.py::iter_twiglets_from``) visits every vertex of every
path.  Both must give the same set on any graph, for every admitted
``h``, with and without an alphabet.  Producers that skip the checked
``Twiglet`` constructor must only ever build shapes it accepts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paths import all_path_shapes, paths_from
from repro.core.twiglets import (
    TWIGLET_HEIGHTS,
    Twiglet,
    all_twiglet_shapes,
    twiglets_from,
)
from repro.graph.ball import extract_ball
from repro.graph.io import ball_from_bytes, ball_to_bytes
from repro.graph.labeled_graph import LabeledGraph
from tests.oracle import iter_twiglets_from

#: Strings and ints, so ``repr`` order is not the labels' own order; six
#: of them, so h = 5 has forked twiglets to find.
LABELS = ["a", "b", "c", "d", 1, 10]


@st.composite
def starts(draw):
    """A random small labelled graph (half the time the decoded record of
    one of its balls, as the SP reads it from a pack) and a start."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=10,
                        unique=True))
    labels = {v: draw(st.sampled_from(LABELS)) for v in ids}
    pairs = [(u, v) for u in ids for v in ids if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=3 * len(ids))) if pairs else []
    graph = LabeledGraph.from_edges(labels, edges)
    start = draw(st.sampled_from(ids))
    if draw(st.booleans()):
        ball = ball_from_bytes(ball_to_bytes(
            extract_ball(graph, start, draw(st.integers(1, 3)))))
        return ball.graph, ball.center
    return graph, start


alphabets = st.one_of(st.none(), st.frozensets(st.sampled_from(LABELS)))


class TestWalkEqualsTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(world=starts(), h=st.sampled_from(list(TWIGLET_HEIGHTS)),
           alphabet=alphabets)
    def test_twiglets_and_paths(self, world, h, alphabet):
        graph, start = world
        oracle = set(iter_twiglets_from(graph, start, h, alphabet))
        assert twiglets_from(graph, start, h, alphabet) == oracle
        assert paths_from(graph, start, h, alphabet) == {
            t for t in oracle if t.fork is None}

    def test_no_twiglets_below_h3(self, fig3):
        _, graph = fig3
        for h in (0, 1, 2):
            assert twiglets_from(graph, "v6", h) == set()
            assert set(iter_twiglets_from(graph, "v6", h)) == set()


def _checked(twiglet):
    """``twiglet`` rebuilt through the checked constructor."""
    return Twiglet(path=twiglet.path, fork=twiglet.fork)


class TestUncheckedProducersBuildValidShapes:
    @pytest.mark.parametrize("h", list(TWIGLET_HEIGHTS))
    def test_table_shapes(self, h):
        alphabet = frozenset(LABELS)
        for start in LABELS:
            for make in (all_twiglet_shapes, all_path_shapes):
                for shape in make(start, alphabet, h):
                    assert type(shape) is Twiglet
                    assert _checked(shape) == shape

    @settings(max_examples=100, deadline=None)
    @given(world=starts(), h=st.sampled_from(list(TWIGLET_HEIGHTS)),
           alphabet=alphabets)
    def test_walk_shapes(self, world, h, alphabet):
        graph, start = world
        for twiglet in twiglets_from(graph, start, h, alphabet):
            assert type(twiglet) is Twiglet
            assert _checked(twiglet) == twiglet
