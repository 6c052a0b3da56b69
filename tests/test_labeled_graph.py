"""Unit tests for the LabeledGraph substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.labeled_graph import LabeledGraph


def build_path(n: int) -> LabeledGraph:
    labels = {i: f"l{i}" for i in range(n)}
    edges = [(i, i + 1) for i in range(n - 1)]
    return LabeledGraph.from_edges(labels, edges)


class TestConstruction:
    def test_add_vertex_and_edge(self):
        g = LabeledGraph()
        g.add_vertex(1, "A")
        g.add_vertex(2, "B")
        g.add_edge(1, 2)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_readd_vertex_same_label_is_noop(self):
        g = LabeledGraph()
        g.add_vertex(1, "A")
        g.add_vertex(1, "A")
        assert g.num_vertices == 1

    def test_relabel_rejected(self):
        g = LabeledGraph()
        g.add_vertex(1, "A")
        with pytest.raises(ValueError, match="relabel"):
            g.add_vertex(1, "B")

    def test_self_loop_rejected(self):
        g = LabeledGraph()
        g.add_vertex(1, "A")
        with pytest.raises(ValueError, match="self loop"):
            g.add_edge(1, 1)

    def test_edge_to_unknown_vertex(self):
        g = LabeledGraph()
        g.add_vertex(1, "A")
        with pytest.raises(KeyError):
            g.add_edge(1, 2)
        with pytest.raises(KeyError):
            g.add_edge(2, 1)

    def test_parallel_edges_collapse(self):
        g = LabeledGraph()
        g.add_vertex(1, "A")
        g.add_vertex(2, "A")
        g.add_edge(1, 2)
        g.add_edge(1, 2)
        assert g.num_edges == 1


class TestAccessors:
    def test_label_index(self):
        g = LabeledGraph.from_edges({1: "A", 2: "A", 3: "B"}, [(1, 3)])
        assert g.vertices_with_label("A") == {1, 2}
        assert g.label_frequency("A") == 2
        assert g.label_frequency("missing") == 0
        assert g.alphabet == {"A", "B"}

    def test_neighbors_union_directions(self):
        g = LabeledGraph.from_edges({1: "A", 2: "B", 3: "C"},
                                    [(1, 2), (3, 1)])
        assert g.neighbors(1) == {2, 3}
        assert g.successors(1) == {2}
        assert g.predecessors(1) == {3}
        assert g.degree(1) == 2
        assert g.out_degree(1) == 1
        assert g.in_degree(1) == 1

    def test_degree_counts_distinct_neighbors(self):
        # A reciprocal pair is one undirected neighbor.
        g = LabeledGraph.from_edges({1: "A", 2: "B"}, [(1, 2), (2, 1)])
        assert g.degree(1) == 1
        assert g.max_degree() == 1

    def test_max_degree_empty(self):
        assert LabeledGraph().max_degree() == 0


class TestMetric:
    def test_distances_are_undirected(self):
        g = LabeledGraph.from_edges({1: "A", 2: "B", 3: "C"},
                                    [(2, 1), (2, 3)])
        d = g.undirected_distances(1)
        assert d == {1: 0, 2: 1, 3: 2}

    def test_distance_cutoff(self):
        g = build_path(6)
        d = g.undirected_distances(0, cutoff=2)
        assert set(d) == {0, 1, 2}

    def test_diameter_of_path(self):
        assert build_path(5).diameter() == 4

    def test_diameter_disconnected_raises(self):
        g = LabeledGraph.from_edges({1: "A", 2: "B"}, [])
        with pytest.raises(ValueError, match="disconnected"):
            g.diameter()

    def test_is_connected(self):
        assert build_path(4).is_connected()
        g = LabeledGraph.from_edges({1: "A", 2: "B"}, [])
        assert not g.is_connected()
        assert LabeledGraph().is_connected()

    def test_eccentricity(self):
        g = build_path(5)
        assert g.eccentricity(0) == 4
        assert g.eccentricity(2) == 2


class TestSubgraphs:
    def test_induced_subgraph_keeps_ids_and_inner_edges(self):
        g = LabeledGraph.from_edges(
            {1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3), (3, 1)])
        sub = g.induced_subgraph([1, 2])
        assert set(sub.vertices()) == {1, 2}
        assert sub.has_edge(1, 2)
        assert sub.num_edges == 1
        assert sub.label(1) == "A"

    def test_induced_subgraph_unknown_vertex(self):
        g = build_path(3)
        with pytest.raises(KeyError):
            g.induced_subgraph([0, 99])

    def test_copy_equality(self):
        g = build_path(4)
        assert g.copy() == g

    def test_equality_considers_edges(self):
        a = LabeledGraph.from_edges({1: "A", 2: "B"}, [(1, 2)])
        b = LabeledGraph.from_edges({1: "A", 2: "B"}, [])
        assert a != b


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = {i: draw(st.sampled_from("ABCD")) for i in range(n)}
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]),
        max_size=30))
    return LabeledGraph.from_edges(labels, edges)


class TestProperties:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_matches_iteration(self, g):
        assert g.num_edges == len(list(g.edges()))

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_distances_symmetric(self, g):
        vertices = list(g.vertices())
        for u in vertices[:3]:
            du = g.undirected_distances(u)
            for v, dist in du.items():
                assert g.undirected_distances(v).get(u) == dist

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraph_is_subset(self, g):
        keep = [v for i, v in enumerate(sorted(g.vertices(), key=repr))
                if i % 2 == 0]
        sub = g.induced_subgraph(keep)
        for u, v in sub.edges():
            assert g.has_edge(u, v)
        assert set(sub.vertices()) == set(keep)


def build_per_element(pairs, edges) -> LabeledGraph:
    """The differential oracle for the bulk builder: one checked call per
    vertex and per edge, as every construction path once ran."""
    g = LabeledGraph()
    for v, label in pairs:
        g.add_vertex(v, label)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def outcome(build):
    try:
        return build()
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc), str(exc)


def assert_same_graph(bulk: LabeledGraph, ref: LabeledGraph) -> None:
    assert bulk == ref
    assert hash(bulk) == hash(ref)
    assert bulk.num_edges == ref.num_edges
    assert bulk.alphabet == ref.alphabet
    assert bulk.mutation_epoch == ref.mutation_epoch
    for label in ref.alphabet:
        assert bulk.vertices_with_label(label) == \
            ref.vertices_with_label(label)
    for v in ref.vertices():
        assert bulk.predecessors(v) == ref.predecessors(v)
    # Insertion order decides set iteration order, which downstream
    # enumeration walks: it must not move either.
    assert list(bulk.vertices()) == list(ref.vertices())
    assert list(bulk.edges()) == list(ref.edges())


class TestBulkBuilder:
    """``from_edges`` is the one construction path (decode, extraction,
    copy); it must be indistinguishable from add_vertex/add_edge."""

    # Small id and label pools so relabels, self loops, unknown endpoints
    # and parallel edges all occur often.
    ids = st.one_of(st.integers(-2, 6), st.sampled_from(["a", "b", (1, 2)]))

    @given(st.lists(st.tuples(ids, st.sampled_from(["A", "B", 0])),
                    max_size=10),
           st.lists(st.tuples(ids, ids), max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_element_construction(self, pairs, edges):
        bulk = outcome(lambda: LabeledGraph.from_edges(pairs, edges))
        ref = outcome(lambda: build_per_element(pairs, edges))
        if isinstance(ref, LabeledGraph):
            assert_same_graph(bulk, ref)
        else:
            assert bulk == ref  # same exception type, same message

    @given(random_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraph_and_copy(self, g, data):
        keep = data.draw(st.sets(st.sampled_from(sorted(g.vertices()))))
        ref = build_per_element(
            [(v, g.label(v)) for v in keep],
            [(u, v) for u, v in g.edges() if u in keep and v in keep])
        sub = g.induced_subgraph(keep)
        assert sub == ref and sub.num_edges == ref.num_edges
        assert sub.mutation_epoch == ref.mutation_epoch
        assert_same_graph(g.copy(), build_per_element(
            [(v, g.label(v)) for v in set(g.vertices())],
            [(u, v) for u in set(g.vertices()) for v in g.successors(u)]))

    def test_mapping_and_pairs_agree(self):
        labels = {1: "A", 2: "B", 3: "A"}
        edges = [(1, 2), (2, 3), (1, 2)]
        assert_same_graph(LabeledGraph.from_edges(labels, edges),
                          LabeledGraph.from_edges(list(labels.items()),
                                                  iter(edges)))

    @pytest.mark.parametrize("pairs, edges, error", [
        ([(1, "A"), (1, "B")], [], ValueError),            # relabel
        ([(1, "A")], [(1, 1)], ValueError),                # self loop
        ([], [(9, 9)], ValueError),          # self loop wins over unknown
        ([(1, "A")], [(1, 2)], KeyError),                  # unknown head
        ([(1, "A")], [(2, 1)], KeyError),                  # unknown tail
        ([(1, "A")], [(1, [2])], TypeError),               # unhashable
    ])
    def test_invalid_input(self, pairs, edges, error):
        with pytest.raises(error) as bulk:
            LabeledGraph.from_edges(pairs, edges)
        with pytest.raises(error) as ref:
            build_per_element(pairs, edges)
        assert str(bulk.value) == str(ref.value)
