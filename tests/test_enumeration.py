"""Tests for Alg. 1 (candidate enumeration) and its obliviousness."""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import encrypt_query_matrix
from repro.core.enumeration import (
    candidate_vertices,
    count_cmm_upper_bound,
    enumerate_cmms,
    iter_cmms,
    prepare_ball,
    work_order,
)
from repro.core.verification import (
    verification_plan,
    verify_ball,
    verify_ball_streaming,
)
from repro.crypto.cgbe import CGBE
from repro.graph.ball import BallIndex, extract_ball
from repro.graph.io import ball_from_bytes, ball_to_bytes
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import Query, QueryLabelView, Semantics
from repro.workloads.datasets import load_dataset
from tests.oracle import reference_prepared_ball

LETTERS = "abc"


@st.composite
def balls(draw):
    """A ball of a random small labelled graph.  Vertex ids go past 9, so
    ``repr`` order differs from numeric order; half the balls are decoded
    from their record (the read-only graph the SP serves from a pack)."""
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=10,
                        unique=True))
    labels = {v: draw(st.sampled_from(LETTERS)) for v in ids}
    pairs = [(u, v) for u in ids for v in ids if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          min_size=len(ids) - 1, max_size=4 * len(ids)))
    graph = LabeledGraph.from_edges(labels, edges)
    ball = extract_ball(graph, draw(st.sampled_from(ids)),
                        draw(st.integers(1, 2)),
                        ball_id=draw(st.integers(0, 9)))
    return ball_from_bytes(ball_to_bytes(ball)) if draw(st.booleans()) \
        else ball


@st.composite
def label_views(draw, ball, semantics):
    """A label-only query of 2..8 rows over the ball's labels whose
    center-label rows sit at drawn positions, or nowhere ("d" labels
    nothing, so now and then a row is empty)."""
    size = draw(st.integers(2, 8))
    center_rows = draw(st.one_of(
        st.just(set()),
        st.sets(st.integers(0, size - 1), min_size=1, max_size=size)))
    present = sorted(ball.graph.alphabet)
    labels = tuple(ball.center_label if p in center_rows
                   else draw(st.sampled_from(present * 3 + ["d"]))
                   for p in range(size))
    return QueryLabelView(labels=labels, diameter=2, semantics=semantics)


class TestCandidateVertices:
    def test_example4_cv_sets(self, fig3, fig3_ball):
        query, _ = fig3
        cv = candidate_vertices(query, fig3_ball)
        assert cv["u1"] == ["v6"]
        assert cv["u2"] == ["v2", "v4"]
        assert cv["u3"] == ["v1", "v5", "v7"]
        assert cv["u4"] == ["v1", "v5", "v7"]
        assert cv["u5"] == ["v3"]


class TestEnumeration:
    def test_fig3_count(self, fig3, fig3_ball):
        """1 * 2 * 3 * 3 * 1 = 18 assignments, all containing v6 (u1 must
        map to v6, the only B vertex)."""
        query, _ = fig3
        result = enumerate_cmms(query, fig3_ball)
        assert result.enumerated == 18
        assert not result.truncated
        assert not result.is_spurious

    def test_every_cmm_contains_center(self, fig3, fig3_ball):
        query, _ = fig3
        for cmm in enumerate_cmms(query, fig3_ball).cmms:
            assert cmm.uses("v6")

    def test_labels_respected(self, fig3, fig3_ball):
        query, _ = fig3
        ball = fig3_ball
        for cmm in enumerate_cmms(query, ball).cmms:
            for u, v in cmm.mapping().items():
                assert query.label(u) == ball.graph.label(v)

    def test_spurious_when_center_unmatchable(self, fig3):
        """Ball centered at v7 (label C): u3/u4 can map to it, so it is not
        spurious; ball centered on an A vertex whose label appears but that
        cannot host the center -- craft a query lacking the center label."""
        _, graph = fig3
        q = Query.from_edges({1: "B", 2: "A"}, [(2, 1)],
                             vertex_order=(1, 2))
        ball = extract_ball(graph, "v3", q.diameter)  # center label D
        result = enumerate_cmms(q, ball)
        assert result.is_spurious
        assert result.enumerated == 0

    def test_limit_truncates(self, fig3, fig3_ball):
        query, _ = fig3
        result = enumerate_cmms(query, fig3_ball, limit=5)
        assert result.truncated
        assert result.enumerated == 5
        assert not result.is_spurious

    def test_injective_subset(self, fig3, fig3_ball):
        query, _ = fig3
        plain = enumerate_cmms(query, fig3_ball)
        injective = enumerate_cmms(query, fig3_ball, injective=True)
        assert injective.enumerated < plain.enumerated
        assignments = {c.assignment for c in plain.cmms}
        for cmm in injective.cmms:
            assert cmm.assignment in assignments
            assert len(set(cmm.assignment)) == len(cmm.assignment)

    def test_query_obliviousness(self, fig3, fig3_ball):
        """Two queries with identical labels but different edges must
        produce identical CMM sets (App. A.2's proof, checked literally)."""
        query, _ = fig3
        labels = {u: query.label(u) for u in query.vertex_order}
        # Same labels, completely different connected structure.
        other = Query.from_edges(
            labels, [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u5")],
            vertex_order=query.vertex_order)
        a = enumerate_cmms(query, fig3_ball)
        b = enumerate_cmms(other, fig3_ball)
        assert [c.assignment for c in a.cmms] == [c.assignment
                                                  for c in b.cmms]

    def test_works_with_label_view(self, fig3, fig3_ball):
        """The Player-side label view yields the same assignments."""
        query, _ = fig3
        view = QueryLabelView.of(query)
        a = enumerate_cmms(query, fig3_ball)
        b = enumerate_cmms(view, fig3_ball)
        assert [c.assignment for c in a.cmms] == [c.assignment
                                                  for c in b.cmms]


class TestUpperBound:
    def test_bound_at_least_count(self, fig3, fig3_ball):
        query, _ = fig3
        result = enumerate_cmms(query, fig3_ball)
        assert count_cmm_upper_bound(query, fig3_ball) >= result.enumerated

    def test_fig3_bound_exact_product(self, fig3, fig3_ball):
        query, _ = fig3
        assert count_cmm_upper_bound(query, fig3_ball) == 1 * 2 * 3 * 3 * 1


class TestWorkOrderWalk:
    """``prepare_ball`` walks Alg. 1's tree in :func:`work_order` and
    restores Alg. 1's order; the reference walks the ``V_Q`` rows in
    order.  Equal field by field, under limits that truncate and bounds
    that bypass."""

    def test_sizes_span_both_result_layouts(self):
        """Rows 2..8 under a 256-bit / 24-bit scheme cover the summable
        and the per-item plan the recorded stream is verified under."""
        params = CGBE.generate(modulus_bits=256, q_bits=24, r_bits=24,
                               seed=5).params
        layouts = {verification_plan(params, QueryLabelView(
            labels=("a",) * size, diameter=2)).summable
            for size in range(2, 9)}
        assert layouts == {True, False}

    def test_fig3_work_order(self, fig3, fig3_ball):
        """Center-label row u1 first, then by ``|CV(u)|`` = u5 (1), u2
        (2), u3 and u4 (3 each, ``V_Q`` order)."""
        query, _ = fig3
        assert work_order(query, fig3_ball) == [0, 4, 1, 2, 3]

    @pytest.mark.parametrize("semantics", [Semantics.HOM, Semantics.SUB_ISO],
                             ids=lambda s: s.value)
    def test_fig3_every_row_order_equals_reference(self, fig3, fig3_ball,
                                                   semantics):
        """All 120 orders of fig. 3's five rows: the center row and the
        narrow rows land anywhere in ``V_Q``, so the walk's order and
        Alg. 1's differ in every way five rows allow."""
        query, _ = fig3
        for order in itertools.permutations(query.vertex_order):
            view = QueryLabelView(labels=tuple(map(query.label, order)),
                                  diameter=query.diameter,
                                  semantics=semantics)
            total = reference_prepared_ball(
                view, fig3_ball, enumeration_limit=2000,
                cmm_bound_bypass=2000).enumerated
            for limit in (1, total - 1, total, total + 1):
                bounds = {"enumeration_limit": limit,
                          "cmm_bound_bypass": 2000}
                assert prepare_ball(view, fig3_ball, **bounds) == \
                    reference_prepared_ball(view, fig3_ball, **bounds)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_prepare_ball_equals_reference(self, data):
        ball = data.draw(balls())
        semantics = data.draw(st.sampled_from(
            [Semantics.HOM, Semantics.SUB_ISO]))
        view = data.draw(label_views(ball, semantics))
        bound = count_cmm_upper_bound(view, ball)
        bypass = data.draw(st.sampled_from(
            [max(bound - 1, 1), max(min(bound, 3000), 1), 3000]))
        total = reference_prepared_ball(
            view, ball, enumeration_limit=10 ** 6,
            cmm_bound_bypass=bypass).enumerated
        # Three draws in seven keep every CMM, whose order is then
        # checked; the others sit at 1 or next to the ball's CMM count,
        # where truncation starts.
        limit = data.draw(st.sampled_from(
            [10 ** 6, 10 ** 6, 10 ** 6, 1, max(total - 1, 1), max(total, 1),
             total + 1]))
        got = prepare_ball(view, ball, enumeration_limit=limit,
                           cmm_bound_bypass=bypass)
        assert got == reference_prepared_ball(
            view, ball, enumeration_limit=limit, cmm_bound_bypass=bypass)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_labels_other_edges_same_walk(self, data):
        """``E_Q`` reaches neither the work order nor the stream."""
        ball = data.draw(balls())
        semantics = data.draw(st.sampled_from(
            [Semantics.HOM, Semantics.SUB_ISO]))
        labels = data.draw(label_views(ball, semantics)).labels
        size = len(labels)
        queries = []
        for _ in range(2):  # a random spanning tree plus random chords
            edges = {(data.draw(st.integers(0, u - 1)), u)
                     for u in range(1, size)}
            edges |= set(data.draw(st.lists(st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                    lambda e: e[0] != e[1]), max_size=size)))
            queries.append(Query.from_edges(dict(enumerate(labels)),
                                            sorted(edges),
                                            semantics=semantics,
                                            vertex_order=tuple(range(size))))
        first, second = queries
        assert work_order(first, ball) == work_order(second, ball)
        bounds = {"enumeration_limit": 2000, "cmm_bound_bypass": 3000}
        assert prepare_ball(first, ball, **bounds) == \
            prepare_ball(second, ball, **bounds)


@st.composite
def twin_balls(draw):
    """A ball around planted twins on one hub: same-label leaves (false
    twins, which share a class), an adjacent same-label pair (true twins,
    which must not) and a vertex wired and labeled like the center.  A
    few random edges on top may break any of them."""
    def wire(v, how):
        return {"out": [(1, v)], "in": [(v, 1)],
                "both": [(1, v), (v, 1)]}[how]

    hows = st.sampled_from(["out", "in", "both"])
    leaves = draw(st.integers(2, 4))
    pair = [2 + leaves, 3 + leaves]
    twin = 4 + leaves
    labels = {0: "a", 1: "b", twin: "a"}
    labels |= dict.fromkeys(range(2, 2 + leaves), draw(st.sampled_from(
        LETTERS)))
    labels |= dict.fromkeys(pair, draw(st.sampled_from(LETTERS)))
    center_how, leaf_how, pair_how = (draw(hows) for _ in range(3))
    edges = {*wire(0, center_how), *wire(twin, center_how),
             (pair[0], pair[1]), (pair[1], pair[0])}
    for v in range(2, 2 + leaves):
        edges.update(wire(v, leaf_how))
    for v in pair:
        edges.update(wire(v, pair_how))
    edges.update(draw(st.lists(st.tuples(
        st.integers(0, twin), st.integers(0, twin)).filter(
            lambda e: e[0] != e[1]), max_size=2)))
    graph = LabeledGraph.from_edges(labels, sorted(edges))
    ball = extract_ball(graph, 0, 2, ball_id=draw(st.integers(0, 9)))
    return ball_from_bytes(ball_to_bytes(ball)) if draw(st.booleans()) \
        else ball


@pytest.fixture(scope="module")
def schemes(cgbe):
    """A scheme whose plans for 3..4 rows are summable and one whose
    plans are per-item."""
    small = CGBE.generate(modulus_bits=256, q_bits=24, r_bits=24, seed=5)
    return {True: cgbe, False: small}


class TestTwinClasses:
    """``prepare_ball`` places one member per false-twin class and counts
    the class product; the reference walks every CMM.  True twins and the
    center's twin stay apart."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_planted_twins_equal_reference(self, data, schemes):
        ball = data.draw(twin_balls())
        semantics = data.draw(st.sampled_from(
            [Semantics.HOM, Semantics.SUB_ISO]))
        size = data.draw(st.integers(3, 4))
        labels = (ball.center_label, *data.draw(st.lists(
            st.sampled_from(LETTERS), min_size=size - 1,
            max_size=size - 1)))
        labels = data.draw(st.permutations(labels))
        edges = {(data.draw(st.integers(0, u - 1)), u)
                 for u in range(1, size)}
        query = Query.from_edges(dict(enumerate(labels)), sorted(edges),
                                 semantics=semantics,
                                 vertex_order=tuple(range(size)))
        view = QueryLabelView.of(query)
        full = {"enumeration_limit": 10 ** 6, "cmm_bound_bypass": 10 ** 6}
        total = reference_prepared_ball(view, ball, **full).enumerated
        for limit in {1, max(total - 1, 1), max(total, 1), total + 1}:
            bounds = {**full, "enumeration_limit": limit}
            assert prepare_ball(view, ball, **bounds) == \
                reference_prepared_ball(view, ball, **bounds)
        prepared = prepare_ball(view, ball, **full)
        cmms = enumerate_cmms(view, ball, injective=semantics is
                              Semantics.SUB_ISO).cmms
        for summable, scheme in schemes.items():
            plan = verification_plan(scheme.params, view)
            assert plan.summable is summable
            fixed = (scheme.params, encrypt_query_matrix(scheme, query),
                     scheme.encrypt_one())
            assert verify_ball_streaming(*fixed, prepared, plan) == \
                verify_ball(*fixed, ball, cmms, plan)


class TestNoReferenceCycles:
    def test_walks_leave_nothing_for_the_collector(self):
        """Alg. 1's walks free their working state by reference count: a
        nested function closing over itself would leave a cycle per call
        for the cyclic collector."""
        dataset = load_dataset("slashdot", scale=0.05)
        view = QueryLabelView.of(dataset.random_queries(
            1, size=5, diameter=2, seed=3)[0])
        index = BallIndex(dataset.graph, (2,))
        bounds = {"enumeration_limit": 10 ** 4, "cmm_bound_bypass": 10 ** 5}
        balls = [index.ball(v, 2)
                 for v in sorted(dataset.graph.vertices(), key=repr)
                 if dataset.graph.label(v) in view.labels]
        balls = [ball for ball in balls
                 if prepare_ball(view, ball, **bounds).enumerated][:8]
        assert len(balls) >= 4
        gc.collect()
        gc.disable()
        try:
            for ball in balls:
                prepare_ball(view, ball, **bounds)
                list(iter_cmms(view, ball))
            assert gc.collect() == 0
        finally:
            gc.enable()
