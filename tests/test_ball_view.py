"""Decoded balls are array-native (:class:`repro.graph.labeled_graph.
BallGraphView`, DESIGN.md 9.1): the view answers the whole ``LabeledGraph``
read API with the same values, types and iteration orders a
``from_edges``-decoded graph gave, refuses mutation, pickles as its arrays,
rejects every malformed record at decode time and never later, and a served
query builds adjacency sets for the vertices it touches only."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import DataOwnerKey
from repro.framework import roles as roles_module
from repro.framework.prilo import Prilo
from repro.graph.ball import Ball, extract_ball
from repro.graph.io import BallDecodeError, ball_from_bytes, ball_to_bytes
from repro.graph.labeled_graph import BallGraphView, LabeledGraph
from repro.graph.query import Semantics
from repro.semantics.evaluate import find_matches
from repro.storage import ArtifactStore
from repro.storage import store as store_module
from repro.workloads.datasets import load_dataset
from tests.ball_v1 import ball_from_bytes_v1, ball_to_bytes_v1
from tests import test_ball_record as record_tests
from tests.test_ball_record import HAND_BALL, balls, record
from tests.test_label_slice import assert_slice_of
from tests.test_pattern_dedup import random_world

MISSING = ("no", "such", "vertex")


def reads(graph) -> dict:
    """Every read-API answer of ``graph``.  Containers are kept as they
    come back, so ``repr`` of the result also pins element types
    (``1 == True == 1.0``) and every iteration order."""
    vertices = list(graph.vertices())
    labels = [*graph.alphabet, "no such label"]
    try:
        diameter = graph.diameter()
    except ValueError as exc:
        diameter = str(exc)
    return {
        "sizes": (graph.num_vertices, graph.num_edges, len(graph),
                  graph.mutation_epoch, graph.max_degree()),
        "vertices": vertices,
        "edges": list(graph.edges()),
        "labels": graph.labels(),
        "alphabet": graph.alphabet,
        "by_label": [(graph.vertices_with_label(label),
                      graph.label_frequency(label)) for label in labels],
        "per_vertex": [
            (graph.label(v), v in graph, graph.successors(v),
             graph.predecessors(v), graph.neighbors(v), graph.out_degree(v),
             graph.in_degree(v), graph.degree(v), graph.eccentricity(v),
             graph.undirected_distances(v),
             graph.undirected_distances(v, cutoff=1),
             [graph.has_edge(v, w) for w in vertices])
            for v in vertices],
        "missing": (MISSING in graph, graph.has_edge(MISSING, MISSING),
                    vertices and graph.has_edge(vertices[0], MISSING)),
        "metric": (diameter, graph.is_connected()),
        "adjacency_masks": graph.adjacency_masks(),
        "hash": hash(graph),
    }


def assert_same_reads(view, ref) -> None:
    assert isinstance(view, BallGraphView) and type(ref) is LabeledGraph
    mine, theirs = reads(view), reads(ref)
    assert mine == theirs
    assert repr(mine) == repr(theirs)
    assert view == ref and ref == view and not view != ref
    assert repr(view) == repr(ref).replace("LabeledGraph", "BallGraphView")
    for v in (MISSING, ("also", "missing")):
        for read in (view.label, view.successors, view.predecessors,
                     view.neighbors, view.degree, view.undirected_distances):
            with pytest.raises(KeyError):
                read(v)
    with pytest.raises(KeyError):
        view.induced_subgraph([MISSING])
    keep = list(ref.vertices())[::2]
    for derived, expected in ((view.induced_subgraph(keep),
                               ref.induced_subgraph(keep)),
                              (view.copy(), ref.copy())):
        assert type(derived) is LabeledGraph and derived == expected
        assert repr(reads(derived)) == repr(reads(expected))
        derived.add_vertex(MISSING, "fresh")  # mutable, and not the view's
    assert MISSING not in view


class TestReadAPI:
    @settings(max_examples=150, deadline=None)
    @given(ball=st.one_of(balls(), balls(st.integers(-40, 40))))
    def test_view_answers_like_a_from_edges_decode(self, ball):
        data = ball_to_bytes(ball)
        oracle = ball_from_bytes_v1(ball_to_bytes_v1(ball))
        decoded = ball_from_bytes(data)
        assert_same_reads(decoded.graph, oracle.graph)
        assert decoded == oracle == ball
        assert repr(decoded.center) == repr(ball.center)
        assert decoded.center_label == ball.center_label
        assert ball_to_bytes(decoded) == data
        # Untouched and touched views compare alike, both ways round.
        fresh = ball_from_bytes(data).graph
        assert fresh == decoded.graph and decoded.graph == fresh
        assert hash(fresh) == hash(ball.graph)

    @pytest.mark.parametrize("parts", [
        {},                                             # unsorted edges
        {"edges": ((2, 0), (0, 1), (1, 2), (0, 2))},
        {"labels": (b"'B'", b"'A'"), "codes": (1, 0, 1)},   # table permuted
        {"labels": (b"'A'", b"'Z'", b"'B'"), "codes": (0, 2, 0)},  # unused
        {"labels": (b"1", b"True", b"1.0"), "codes": (1, 0, 2)},   # equal
        {"edges": ()},
        {"flags": 1, "ids": (b"'v'", b"(2, 'x')", b"3")},
    ], ids=["hand", "edges", "permuted", "unused", "equal", "no-edges",
            "text-ids"])
    def test_non_canonical_records(self, parts):
        """What the encoder never writes but the format allows: the view
        still answers as ``from_edges`` over the record's own order."""
        spec = {"labels": (b"'A'", b"'B'"), "ids": (5, -6, 2**40),
                "codes": (0, 1, 0), "edges": ((0, 1), (1, 2), (2, 0)),
                **parts}
        ids = [eval(v) if isinstance(v, bytes) else v for v in spec["ids"]]
        table = [eval(text) for text in spec["labels"]]
        ref = LabeledGraph.from_edges(
            [(v, table[code]) for v, code in zip(ids, spec["codes"])],
            [(ids[u], ids[v]) for u, v in spec["edges"]])
        ball = ball_from_bytes(record(**parts))
        assert_same_reads(ball.graph, ref)
        assert ball.center == ids[1]
        if not parts:
            assert ball == HAND_BALL


class TestReadOnly:
    def test_mutators_raise_and_change_nothing(self):
        view = ball_from_bytes(record()).graph
        before = repr(reads(view))
        for mutate, args in ((view.add_vertex, (99, "A")),
                             (view.add_vertex, (5, "A")),   # even a no-op
                             (view.add_edge, (5, 2**40)),
                             (view.remove_edge, (5, -6)),
                             (view.remove_vertex, (5,))):
            with pytest.raises(TypeError, match="read-only"):
                mutate(*args)
        assert repr(reads(view)) == before
        assert view.mutation_epoch == view.num_vertices + view.num_edges


def _materialized(view) -> int:
    """Adjacency sets built so far (``len`` counts every vertex)."""
    return dict.__len__(view._succ) + dict.__len__(view._pred)


class TestPickle:
    @settings(max_examples=100, deadline=None)
    @given(ball=balls())
    def test_round_trip_touched_or_not(self, ball):
        untouched = ball_from_bytes(ball_to_bytes(ball))
        touched = ball_from_bytes(ball_to_bytes(ball))
        reads(touched.graph)
        assert _materialized(touched.graph) == 2 * ball.size
        for decoded in (untouched, touched):
            clone = pickle.loads(pickle.dumps(decoded))
            assert isinstance(clone.graph, BallGraphView)
            assert _materialized(clone.graph) == 0    # the memo stayed home
            assert clone == decoded and clone.ball_id == decoded.ball_id
            assert_same_reads(
                clone.graph, ball_from_bytes_v1(ball_to_bytes_v1(ball)).graph)
        assert len(pickle.dumps(untouched)) == len(pickle.dumps(touched))

    def test_pickle_is_about_the_record(self):
        """The arrays plus a constant (class paths, array headers): on a
        ball of serving size well inside 1.5x the record, and under the
        mutable graph it replaces."""
        graph = load_dataset("slashdot", scale=0.05).graph
        sizes = []
        for center, radius in ((0, 1), (3, 2), (0, 3)):
            data = ball_to_bytes(extract_ball(graph, center, radius))
            ball = ball_from_bytes(data)
            reads(ball.graph) if radius < 3 else ball.graph.copy()
            assert len(pickle.dumps(ball)) <= len(data) + 512
            sizes.append((len(data), len(pickle.dumps(ball)),
                          len(pickle.dumps(replace(
                              ball, graph=ball.graph.copy())))))
        record_size, view_size, graph_size = sizes[-1]
        assert record_size > 4096
        assert view_size <= 1.5 * record_size and view_size < graph_size


MALFORMED = (record_tests.TestTypedErrors.test_malformed_record
             .pytestmark[0].args[1])
#: ``labels`` for the sliced decode: none, and some of the labels of the
#: hand record, fig. 3 and slashdot, with and without the center's.
ALPHABETS = (frozenset(), frozenset({"A"}), frozenset({"B", "C", 0, 1}),
             frozenset({"A", "D", "E", 2, 3, 5}))


def _mutated(data, original: bytes) -> bytes:
    """1-3 random byte flips of ``original``."""
    mutated = bytearray(original)
    for _ in range(data.draw(st.integers(1, 3))):
        mutated[data.draw(st.integers(0, len(original) - 1))] ^= \
            data.draw(st.integers(1, 255))
    return bytes(mutated)


def _decoded(data: bytes, labels=None):
    """The decoded ball, or None when the record is refused."""
    try:
        return ball_from_bytes(data, labels=labels)
    except BallDecodeError:
        return None


class TestEagerValidation:
    def test_there_are_vectors(self):
        assert len(MALFORMED) >= 20

    @pytest.mark.parametrize("data", MALFORMED)
    def test_malformed_record_raises_at_decode(self, data):
        with pytest.raises(BallDecodeError):
            ball_from_bytes(data)

    @pytest.mark.parametrize("data", MALFORMED)
    def test_malformed_record_raises_sliced_too(self, data):
        """The slice is cut only after the whole record is checked."""
        for labels in ALPHABETS:
            with pytest.raises(BallDecodeError):
                ball_from_bytes(data, labels=labels)

    @pytest.mark.parametrize("arrays, error", [
        (dict(ids=[5, 5, 7]), "duplicate vertex id"),
        (dict(sources=[0, 1, 1], targets=[1, 2, 1]), "self loop"),
        (dict(sources=[0, 1, 0], targets=[1, 2, 1]), "duplicate edge"),
        (dict(sources=[2, 0, 0, 2], targets=[0, 1, 2, 0]),
         "duplicate edge"),                          # unsorted and repeated
        (dict(sources=[0, 1, 3], targets=[1, 2, 0]), "past the vertex"),
        (dict(sources=[0, 1, 2], targets=[1, 2, 3]), "past the vertex"),
        (dict(codes=[0, 2, 0]), "index out of range"),
        (dict(codes=[0, 1]), "lengths disagree"),
        (dict(sources=[0, 1]), "lengths disagree"),
    ])
    def test_the_constructor_is_where_graph_data_is_checked(self, arrays,
                                                            error):
        parts = {"ids": [5, -6, 7], "codes": [0, 1, 0],
                 "sources": [0, 1, 2], "targets": [1, 2, 0], **arrays}
        with pytest.raises((ValueError, IndexError), match=error):
            BallGraphView(
                np.array(parts["ids"], np.int64), ["A", "B"],
                *(np.array(parts[k], np.uint16)
                  for k in ("codes", "sources", "targets")))

    def test_whatever_decodes_answers_every_read(self):
        """``test_ball_record.py``'s mutation fuzz, one step further: a
        damaged record that still decodes is a valid graph -- no read
        raises on it, it equals its own ``from_edges`` rebuild, and it
        re-encodes."""
        @settings(max_examples=250, deadline=None)
        @given(data=st.data())
        def fuzz(data):
            mutated = _mutated(data, data.draw(
                st.sampled_from(record_tests.TestFuzz.RECORDS[:2])))
            try:
                ball = ball_from_bytes(bytes(mutated))
            except BallDecodeError:
                return
            view = ball.graph
            ids, table, codes, sources, targets = view._arrays
            ids = list(view.vertices())
            rebuilt = LabeledGraph.from_edges(  # as the decoder used to
                [(v, table[code]) for v, code in zip(ids, codes)],
                [(ids[u], ids[v]) for u, v in zip(sources, targets)])
            assert (rebuilt.num_vertices, rebuilt.num_edges) == (
                view.num_vertices, view.num_edges)
            assert_same_reads(ball_from_bytes(bytes(mutated)).graph, rebuilt)
            assert ball_from_bytes(ball_to_bytes(ball)) == ball

        fuzz()

    @pytest.mark.parametrize("labels, decodes", [
        ((b"'A'", b"'B'", b"[1]"), True),        # unhashable, unused
        ((b"'A'", b"[1]"), False),               # unhashable, carried
    ], ids=["unused", "used"])
    def test_unhashable_label_parity(self, labels, decodes):
        """Only a label some vertex carries is hashed, sliced or whole."""
        data = record(labels=labels)
        for part in (None, *ALPHABETS):
            assert (_decoded(data, part) is not None) == decodes

    def test_sliced_decode_raises_exactly_when_whole_decode_does(self):
        """The same fuzz: under every alphabet the sliced decode refuses
        exactly the records the whole decode refuses, and what it accepts
        is the slice of the whole ball."""
        @settings(max_examples=250, deadline=None)
        @given(data=st.data())
        def fuzz(data):
            original = data.draw(
                st.sampled_from(record_tests.TestFuzz.RECORDS[:2]))
            mutated = _mutated(data, original)
            for record_bytes in (original, mutated):
                whole = _decoded(record_bytes)
                for labels in ALPHABETS:
                    part = _decoded(record_bytes, labels)
                    assert (part is None) == (whole is None)
                    if whole is not None:
                        assert_slice_of(part, whole, labels)

        fuzz()


class TestTouchedVerticesOnly:
    RADII = (2,)
    SEED = 3  # matches test_config so store key == engine owner key
    #: Adjacency sets one served query builds, over every ball it decodes.
    #: Goes up when a consumer starts asking per vertex what it could ask
    #: in bulk; reaches ``2 * VERTICES`` when decode builds them all again.
    #: ``VERTICES`` counts the user's retrieved balls as their ``Sigma_Q``
    #: slices; the Players' store reads stay whole.
    MATERIALIZED = 22
    VERTICES = 299

    def test_served_hom_query_materializes_what_it_touches(
            self, tmp_path, dataset, test_config, monkeypatch):
        decoded: list[Ball] = []

        def spy(data, labels=None):
            decoded.append(ball_from_bytes(data, labels=labels))
            return decoded[-1]

        monkeypatch.setattr(store_module, "ball_from_bytes", spy)
        monkeypatch.setattr(roles_module, "ball_from_bytes", spy)
        config = replace(test_config, radii=self.RADII)
        query = dataset.random_queries(2, size=4, diameter=self.RADII[0],
                                       seed=13)[0]
        assert query.semantics is Semantics.HOM
        store = ArtifactStore.create(
            tmp_path / "pack", dataset.graph, self.RADII,
            DataOwnerKey.generate(self.SEED), twiglet_h=None)
        with store, Prilo.setup(dataset.graph, config,
                                store=store) as engine:
            result = engine.run(query)
        assert result.num_matches and len(decoded) > len(result.matches)
        assert all(isinstance(b.graph, BallGraphView) for b in decoded)
        built = sum(_materialized(b.graph) for b in decoded)
        vertices = sum(b.size for b in decoded)
        assert (built, vertices) == (self.MATERIALIZED, self.VERTICES)
        assert built < vertices


class TestMatchers:
    @pytest.mark.parametrize("semantics", list(Semantics),
                             ids=[s.value for s in Semantics])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_find_matches_is_the_same_list(self, semantics, seed):
        query, ball = random_world(seed, semantics)
        decoded = ball_from_bytes(ball_to_bytes(ball))
        assert isinstance(decoded.graph, BallGraphView)
        found, expected = find_matches(query, decoded), find_matches(query,
                                                                     ball)
        assert found == expected            # order of the list included
        assert all(type(match) is LabeledGraph for match in found)
        assert ([sorted(map(repr, m.edges())) for m in found]
                == [sorted(map(repr, m.edges())) for m in expected])
