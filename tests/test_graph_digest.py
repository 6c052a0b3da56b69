"""The graph digest -- the identity every store manifest, delta-log record
and journal fingerprint pins: its value is golden, and its per-graph memo
(keyed by ``mutation_epoch``) never outlives a mutation.
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import io as graph_io
from repro.graph.delta import random_delta
from repro.graph.generators import fig3_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.storage import graph_digest
from repro.storage import store as store_module
from repro.workloads.datasets import load_dataset


def _fresh(graph) -> str:
    """The digest by definition, with no memo involved."""
    return hashlib.sha256(
        graph_io.graph_to_json(graph).encode("utf-8")).hexdigest()


def _mixed_ids() -> LabeledGraph:
    """String, int and tuple ids/labels: ``repr`` order is not value
    order, and ``'a'`` sorts before ``9``."""
    return LabeledGraph.from_edges(
        {"b": 1, "a": "x", 10: 2, 9: (1, "y")},
        [("b", "a"), (10, 9), (9, "a"), ("a", 10)])


class TestGolden:
    """Recorded before ``graph_to_json`` shared one ``repr`` per vertex
    between its two sections: a change here marks every existing pack,
    delta log and journal stale."""

    @pytest.mark.parametrize("name, scale, digest", [
        ("slashdot", 0.1, "ab13ca55cdd16ea75a7c118c00e49d40"
                          "44f4585702eb607a2666b356070f5e4d"),
        ("dblp", 0.05, "14f31d74f2ca50ac1dac126294d45390"
                       "150b84f27cefdd634a7f0973e1fd193b"),
    ])
    def test_datasets(self, name, scale, digest):
        assert graph_digest(load_dataset(name, scale=scale).graph) == digest

    def test_fig3(self):
        assert graph_digest(fig3_graph()) == (
            "4637afb82d44baa9c4f90ab3dcd69db9"
            "6c8d381697588061fad1219bd3229208")

    def test_mixed_ids(self):
        graph = _mixed_ids()
        assert graph_io.graph_to_json(graph) == (
            '{"vertices":[["\'a\'","\'x\'"],["\'b\'","1"],["10","2"],'
            '["9","(1, \'y\')"]],"edges":[["\'a\'","10"],["\'b\'","\'a\'"],'
            '["10","9"],["9","\'a\'"]]}')
        assert graph_digest(graph) == (
            "451742456eaca5d7964a086ea54e49a3"
            "0adf021fd89ffed64752c8810c368889")


class TestMemo:
    @pytest.fixture
    def hashed(self, monkeypatch):
        """How many times the graph was serialised for a digest."""
        calls = []
        real = store_module.graph_to_json

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(store_module, "graph_to_json", counting)
        return calls

    def test_unchanged_graph_hashes_once(self, hashed):
        graph = fig3_graph()
        first = graph_digest(graph)
        assert graph_digest(graph) == first
        assert len(hashed) == 1

    def test_mutation_rehashes(self, hashed):
        graph = fig3_graph()
        before = graph_digest(graph)
        graph.add_vertex("z", "A")
        assert graph_digest(graph) != before
        assert len(hashed) == 2
        graph.remove_vertex("z")
        assert graph_digest(graph) == before
        assert len(hashed) == 3

    def test_no_op_re_add_keeps_the_memo(self, hashed):
        graph = fig3_graph()
        digest = graph_digest(graph)
        u, v = next(graph.edges())
        graph.add_vertex(u, graph.label(u))
        graph.add_edge(u, v)
        assert graph_digest(graph) == digest
        assert len(hashed) == 1

    def test_pickle_carries_the_memo(self, hashed):
        graph = fig3_graph()
        digest = graph_digest(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert graph_digest(clone) == digest
        assert len(hashed) == 1


#: One mutator step: (kind, a, b).  Ids and labels come from small
#: ranges so removals, re-adds and label clashes actually happen.
_STEPS = st.lists(st.tuples(
    st.sampled_from(["add_vertex", "add_edge", "remove_edge",
                     "remove_vertex", "delta", "copy", "pickle",
                     "re_add"]),
    st.integers(0, 7), st.integers(0, 7)), max_size=25)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS, checks=st.lists(st.booleans(), min_size=25,
                                     max_size=25))
def test_memo_always_equals_a_fresh_digest(steps, checks):
    """Whatever mutator sequence runs -- and whether or not the digest
    was read in between -- the memoised digest is the digest."""
    graph = LabeledGraph.from_edges({0: "a", 1: "b", 2: "a"},
                                    [(0, 1), (1, 2)])
    for (kind, a, b), check in zip(steps, checks):
        try:
            if kind == "add_vertex":
                graph.add_vertex(a, "ab"[b % 2])
            elif kind == "add_edge":
                graph.add_edge(a, b)
            elif kind == "remove_edge":
                graph.remove_edge(a, b)
            elif kind == "remove_vertex":
                graph.remove_vertex(a)
            elif kind == "delta":
                random_delta(graph, edge_fraction=0.5,
                             remove_vertices=b % 2, seed=a).apply(graph)
            elif kind == "copy":
                graph = graph.copy()
            elif kind == "pickle":
                graph = pickle.loads(pickle.dumps(graph))
            elif graph.num_vertices:  # re_add: a no-op by construction
                v = list(graph.vertices())[a % graph.num_vertices]
                graph.add_vertex(v, graph.label(v))
                for u, w in list(graph.edges())[:1]:
                    graph.add_edge(u, w)
        except (KeyError, ValueError):
            pass  # an invalid step leaves the graph as it was
        if check:
            assert graph_digest(graph) == _fresh(graph)
    assert graph_digest(graph) == _fresh(graph)
