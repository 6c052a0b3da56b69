"""Tests for h-label binary trees (Def. 3, Fig. 6/7, Alg. 4, Table 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import LabelCodec
from repro.core.trees import (
    BF_TOPOLOGIES,
    Topology,
    TOPOLOGY_IX,
    TOPOLOGY_VII,
    TOPOLOGY_VIII,
    TOPOLOGY_X,
    bf_threshold_exceeded,
    canonical_tree,
    enumerate_center_tree_encodings,
    iter_center_trees,
    max_tree_count,
)
from repro.graph.ball import extract_ball
from repro.graph.generators import fig3_graph, fig3_query, social_graph
from repro.graph.io import ball_from_bytes, ball_to_bytes
from repro.graph.labeled_graph import BallGraphView, LabeledGraph


@pytest.fixture(scope="module")
def codec():
    return LabelCodec.from_alphabet({"A", "B", "C", "D"})


@pytest.fixture(scope="module")
def paper_codec():
    return LabelCodec.from_alphabet({"A", "B", "C", "D"}, paper_base=True)


class TestTopologies:
    def test_counts_and_tags_distinct(self):
        assert len({t.tag for t in BF_TOPOLOGIES}) == 4
        assert TOPOLOGY_VII.num_labels == 3
        assert TOPOLOGY_VIII.num_labels == 4
        assert TOPOLOGY_IX.num_labels == 5
        assert TOPOLOGY_X.num_labels == 6
        assert TOPOLOGY_X.symmetric
        assert not TOPOLOGY_IX.symmetric


class TestTable1:
    def test_formulas(self):
        """Table 1 closed forms at kappa = 8."""
        k = 8
        assert max_tree_count(TOPOLOGY_VII, k) == math.perm(7, 3)
        assert max_tree_count(TOPOLOGY_VIII, k) == (
            math.perm(7, 2) * math.comb(5, 2))
        assert max_tree_count(TOPOLOGY_IX, k) == (
            math.perm(7, 3) * math.comb(4, 2))
        assert max_tree_count(TOPOLOGY_X, k) == (
            math.comb(7, 2) * math.comb(5, 2) * math.comb(3, 2))

    def test_small_kappa_zero(self):
        assert max_tree_count(TOPOLOGY_X, 4) == 0

    def test_enumeration_bounded_by_table1(self, codec):
        """Property: actual distinct-tree counts never exceed Table 1."""
        g = social_graph(200, 3, 0.2, 4, seed=9)
        kappa = min(4, g.max_degree())
        for topology in BF_TOPOLOGIES:
            bound = max_tree_count(topology, kappa)
            for v in list(g.vertices())[:25]:
                encodings = {t.encode(codec)
                             for t in iter_center_trees(g, v, codec,
                                                        (topology,))}
                assert len(encodings) <= max(bound, 0) or bound == 0


class TestFig7Example:
    def test_vii_tree_at_v6(self, paper_codec):
        """Example 7 + Fig. 7: T^vii at v6 = (A, C, (D,)) encoding 77."""
        g = fig3_graph()
        trees = list(iter_center_trees(g, "v6", paper_codec,
                                       (TOPOLOGY_VII,)))
        positional = {paper_codec.encode_positions(t.position_labels())
                      for t in trees}
        assert 77 in positional

    def test_query_side_tree_exists(self, paper_codec):
        """u1 of Q roots the matching tree [B](A)(C)(D under A)."""
        q = fig3_query()
        trees = list(iter_center_trees(q.pattern, "u1", paper_codec,
                                       (TOPOLOGY_VII,)))
        positional = {paper_codec.encode_positions(t.position_labels())
                      for t in trees}
        assert 77 in positional


class TestDistinctLabels:
    def test_all_labels_distinct_in_every_tree(self, codec):
        g = social_graph(150, 3, 0.2, 4, seed=2)
        for v in list(g.vertices())[:20]:
            for tree in iter_center_trees(g, v, codec):
                labels = tree.position_labels() + (g.label(v),)
                assert len(set(labels)) == len(labels)


class TestCanonicalization:
    def test_grandchild_pairs_sorted(self, codec):
        tree = canonical_tree(TOPOLOGY_VIII, codec, "A", "B",
                              ["C", "D"], [])
        assert tree.left_grand == ("D", "C")  # descending codes

    def test_topology_x_child_order(self, codec):
        a = canonical_tree(TOPOLOGY_X, codec, "A", "B", ["C"], ["D"])
        b = canonical_tree(TOPOLOGY_X, codec, "B", "A", ["D"], ["C"])
        assert a == b

    def test_asymmetric_children_not_swapped(self, codec):
        a = canonical_tree(TOPOLOGY_VII, codec, "A", "B", ["C"], [])
        b = canonical_tree(TOPOLOGY_VII, codec, "B", "A", ["C"], [])
        assert a != b

    def test_isomorphic_subtrees_encode_identically(self):
        """Two vertex-disjoint subtrees projecting the same label tree must
        collide in encoding space (that is the whole point)."""
        # Root B with two A-children (1 and 4), each carrying {C, D}
        # grandchildren, plus a leaf E-child serving as the right child.
        labels = {0: "B", 1: "A", 2: "E", 4: "A",
                  5: "C", 6: "D", 7: "C", 8: "D"}
        edges = [(0, 1), (0, 2), (0, 4), (1, 5), (1, 6), (4, 7), (4, 8)]
        g = LabeledGraph.from_edges(labels, edges)
        codec = LabelCodec.from_alphabet({"A", "B", "C", "D", "E"})
        trees = [t for t in iter_center_trees(g, 0, codec,
                                              (TOPOLOGY_VIII,))
                 if t.left == "A" and t.right == "E"
                 and t.left_grand == ("D", "C")]
        # Both A-subtrees project the same labeled tree ...
        assert len(trees) == 2
        # ... and it encodes once.
        assert len({t.encode(codec) for t in trees}) == 1


def reference_encodings(graph, root, codec, topologies=BF_TOPOLOGIES,
                        max_trees=None):
    """The readable Alg. 4 path the kernel must agree with: one
    ``LabeledTree`` per vertex-level subtree, encoded and deduplicated."""
    encodings = set()
    for tree in iter_center_trees(graph, root, codec, topologies):
        encodings.add(tree.encode(codec))
        if max_trees is not None and len(encodings) >= max_trees:
            return encodings, True
    return encodings, False


def assert_kernel_matches_reference(graph, root, codec, topologies):
    full, _ = reference_encodings(graph, root, codec, topologies)
    assert enumerate_center_tree_encodings(
        graph, root, codec, topologies) == (full, False)
    n = len(full)
    for max_trees in (1, n - 1, n, n + 1):
        expected, expected_cut = reference_encodings(
            graph, root, codec, topologies, max_trees)
        got, cut = enumerate_center_tree_encodings(
            graph, root, codec, topologies, max_trees=max_trees)
        assert cut == expected_cut == (n > 0 and n >= max_trees)
        assert len(got) == len(expected)
        assert got <= full
        if not cut:
            assert got == full
    return full


#: "Y" and "Z" never enter a codec: labels outside Sigma_Q.
_LABELS = "ABCDEFYZ"


@st.composite
def _rooted_graphs(draw):
    """Vertex 0 with a few children, each with a few grandchildren, plus
    random extra edges (child-child, shared grandchildren, back edges):
    dense enough around the root that most draws have trees."""
    labels = {0: draw(st.sampled_from(_LABELS))}
    edges = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        child = len(labels)
        labels[child] = draw(st.sampled_from(_LABELS))
        edges.append((0, child))
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            labels[len(labels)] = draw(st.sampled_from(_LABELS))
            edges.append((child, len(labels) - 1))
    pairs = [(u, v) for u in labels for v in labels if u != v]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=8))
    alphabet = draw(st.sets(st.sampled_from("ABCDEF"), min_size=3))
    topologies = tuple(draw(st.sets(st.sampled_from(BF_TOPOLOGIES))))
    return (LabeledGraph.from_edges(labels, edges),
            LabelCodec.from_alphabet(alphabet,
                                     paper_base=draw(st.booleans())),
            topologies)


class TestKernelMatchesReference:
    """``enumerate_center_tree_encodings`` works on label-code signatures;
    ``iter_center_trees`` + ``LabeledTree.encode`` is the specification."""

    @given(_rooted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, case):
        graph, codec, topologies = case
        for root in graph.vertices():
            assert_kernel_matches_reference(graph, root, codec, topologies)

    def test_same_label_siblings_with_different_neighbourhoods(self):
        """Two A-children are two signatures, not one: each contributes
        its own grandchild labels, and the shared ones encode once."""
        labels = {0: "B", 1: "A", 2: "A", 3: "E",
                  4: "C", 5: "D", 6: "C", 7: "F"}
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                 (3, 4)]
        g = LabeledGraph.from_edges(labels, edges)
        codec = LabelCodec.from_alphabet("ABCDEF")
        full = assert_kernel_matches_reference(g, 0, codec, BF_TOPOLOGIES)
        grand = {codec.code(label) for label in "CDF"}
        vii_under_a = {e for e in full
                       if e // codec.base ** 6 == TOPOLOGY_VII.tag
                       and e % codec.base == codec.code("A")
                       and e // codec.base % codec.base == codec.code("E")}
        assert {e // codec.base ** 2 % codec.base
                for e in vii_under_a} == grand

    def test_root_label_outside_codec(self):
        labels = {0: "Z", 1: "A", 2: "B", 3: "C", 4: "Z"}
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (0, 4)]
        g = LabeledGraph.from_edges(labels, edges)
        codec = LabelCodec.from_alphabet("ABC")
        full = assert_kernel_matches_reference(g, 0, codec, BF_TOPOLOGIES)
        assert len(full) == 1  # [Z](A)(B)(C under A); the Z child is out

    def test_wider_topology_than_fig6(self):
        """Positions are not capped at the four grandchildren of Fig. 6."""
        wide = Topology("wide", 11, 3, 2)
        labels = dict(enumerate("RABCDEFG"))
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5),
                 (2, 3), (2, 6), (2, 7)]
        g = LabeledGraph.from_edges(labels, edges)
        codec = LabelCodec.from_alphabet("RABCDEFG")
        full = assert_kernel_matches_reference(g, 0, codec, (wide,))
        assert len(full) == 2

    def test_on_generated_graph(self):
        g = social_graph(150, 4, 0.3, 8, seed=6)
        full_codec = LabelCodec.from_alphabet(g.alphabet)
        partial_codec = LabelCodec.from_alphabet(sorted(g.alphabet)[:6])
        trees = 0
        for v in list(g.vertices())[:30]:
            for codec in (full_codec, partial_codec):
                trees += len(assert_kernel_matches_reference(
                    g, v, codec, BF_TOPOLOGIES))
        assert trees > 1000


class TestEnumerationControls:
    def test_max_trees_truncates(self):
        """``truncated`` iff the root has at least ``max_trees`` distinct
        trees, and then exactly ``max_trees`` of them come back."""
        g = social_graph(150, 4, 0.3, 8, seed=6)
        codec = LabelCodec.from_alphabet(g.alphabet)
        hub = max(g.vertices(), key=g.degree)
        full, truncated = enumerate_center_tree_encodings(g, hub, codec)
        assert len(full) > 2 and not truncated
        for max_trees, cut in ((1, True), (len(full) - 1, True),
                               (len(full), True), (len(full) + 1, False)):
            encodings, truncated = enumerate_center_tree_encodings(
                g, hub, codec, max_trees=max_trees)
            assert truncated is cut
            assert len(encodings) == min(max_trees, len(full))
            assert encodings <= full

    def test_labels_outside_codec_skipped(self):
        labels = {0: "B", 1: "A", 2: "Z", 3: "C", 4: "D"}
        edges = [(0, 1), (0, 2), (1, 3), (1, 4)]
        g = LabeledGraph.from_edges(labels, edges)
        codec = LabelCodec.from_alphabet({"A", "B", "C", "D"})
        for tree in iter_center_trees(g, 0, codec):
            assert "Z" not in tree.position_labels()


class TestThreshold:
    def test_fig3_center_below_threshold(self):
        g = fig3_graph()
        assert not bf_threshold_exceeded(g, "v6", threshold=5)

    def test_dense_center_exceeds_small_threshold(self):
        # A center with many 3-label neighbors.
        labels = {0: "R"}
        edges = []
        next_id = 1
        for i in range(6):
            child = next_id
            labels[child] = f"c{i}"
            next_id += 1
            edges.append((0, child))
            for j in range(3):
                leaf = next_id
                labels[leaf] = f"l{i}{j}"
                next_id += 1
                edges.append((child, leaf))
        g = LabeledGraph.from_edges(labels, edges)
        assert bf_threshold_exceeded(g, 0, threshold=2)
        assert not bf_threshold_exceeded(g, 0, threshold=10)


#: BF_t values of the per-ball test: negative (bypass all), the small
#: counts the drawn centers reach, Sec. 6.1's default and one past any.
_THRESHOLDS = (-1, 0, 1, 2, 15, 10 ** 6)


class TestHeavyNeighbors:
    """``Ball.heavy_neighbors > t`` is ``bf_threshold_exceeded`` for every
    ``t``, on extracted balls and on decoded ones."""

    @given(_rooted_graphs(), st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_count_decides_as_the_threshold_test(self, case, radius):
        graph, _, _ = case
        for ball_id, center in enumerate(graph.vertices()):
            ball = extract_ball(graph, center, radius, ball_id=ball_id)
            decoded = ball_from_bytes(ball_to_bytes(ball))
            assert isinstance(decoded.graph, BallGraphView)
            for b in (ball, decoded):
                for t in _THRESHOLDS:
                    assert (b.heavy_neighbors > t) == bf_threshold_exceeded(
                        b.graph, b.center, t)

    def test_on_generated_graph(self):
        """The hubs of a generated graph fall on both sides of the small
        ``t`` values."""
        g = social_graph(150, 4, 0.3, 8, seed=6)
        counts = set()
        for center in sorted(g.vertices(), key=g.degree)[-30:]:
            ball = extract_ball(g, center, 2)
            for b in (ball, ball_from_bytes(ball_to_bytes(ball))):
                counts.add(b.heavy_neighbors)
                for t in _THRESHOLDS:
                    assert (b.heavy_neighbors > t) == bf_threshold_exceeded(
                        b.graph, b.center, t)
        assert min(counts) <= 2 < max(counts)

    def test_memo_follows_the_graph_epoch(self):
        labels = {0: "R", 1: "A", 2: "B", 3: "C", 4: "D", 5: "E"}
        graph = LabeledGraph.from_edges(labels, [(0, 1), (1, 2), (1, 3)])
        ball = extract_ball(graph, 0, 2)
        assert ball.heavy_neighbors == 0
        ball.graph.add_vertex(4, "D")
        ball.graph.add_edge(1, 4)
        assert ball.heavy_neighbors == 1
        assert bf_threshold_exceeded(ball.graph, 0, 0)
