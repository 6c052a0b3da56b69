"""Incremental ball maintenance and standing queries over dynamic graphs.

Contract under test: ``ArtifactStore.apply_delta`` followed by a query
answers exactly like a from-scratch rebuild on the post-delta graph --
across all three semantics and both engines -- while re-encrypting only
the added balls and the dirty balls whose record bytes changed; the
updated Merkle root certifies post-delta serving (including absence
proofs once a delete empties a candidate catalog);
``QueryBatchEngine`` standing queries re-notify exactly when their match
set changes.
"""

import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bf_pruning import BFConfig
from repro.crypto.keys import DataOwnerKey
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.server import CMMCache, QueryBatchEngine
from repro.framework.wire import canonical_answer_of_result
from repro.graph.ball import extract_ball
from repro.graph.delta import GraphDelta, random_delta
from repro.graph.io import ball_to_bytes
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import Query, Semantics
from repro.storage import (
    ArtifactStore,
    MerkleTree,
    verify_absent,
)

RADII = (2,)
SEED = 3  # matches test_config so store key == engine owner key
BF = BFConfig(eta=16, expected_trees=200)


@pytest.fixture(scope="module")
def key():
    return DataOwnerKey.generate(SEED)


def _build(root, graph, key):
    return ArtifactStore.create(root, graph, RADII, key, twiglet_h=3)


def _config(test_config, pruning=False):
    config = replace(test_config, radii=RADII)
    if pruning:
        config = replace(config, use_twiglet=True, use_bf=True, bf=BF)
    return config


def _flat_answers(engine, queries):
    """Canonical answers with ball ids erased: the user-visible match
    multiset plus the match count, per query.  Incremental and rebuilt
    stores legitimately number balls differently (survivors keep their
    historical ids), so equality is over content, not coordinates."""
    out = []
    for query in queries:
        answer = canonical_answer_of_result(engine.run(query))
        out.append((sorted(m for ms in answer["matches"].values()
                           for m in ms),
                    answer["num_matches"]))
    return out


# ---------------------------------------------------------------------------
# the differential: apply_delta + query == rebuild + query
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    @pytest.mark.parametrize("engine_cls,pruning", [(Prilo, False),
                                                    (PriloStar, True)])
    def test_incremental_equals_rebuild(self, tmp_path, dataset,
                                        test_config, key, semantics,
                                        engine_cls, pruning):
        graph = dataset.graph_for(semantics).copy()
        store = _build(tmp_path / "incremental", graph, key)
        balls_before = len(store._manifest["balls"])

        delta = random_delta(graph, edge_fraction=0.02,
                             remove_vertices=1, seed=5)
        report = store.apply_delta(delta, graph, key)
        assert report.reencrypted + report.reused == balls_before \
            - report.removed
        assert report.graph_digest == store.manifest_graph_digest
        store.check(graph=graph, key=key)

        rebuilt = _build(tmp_path / "rebuilt", graph, key)
        config = _config(test_config, pruning)
        queries = dataset.random_queries(2, size=4, diameter=RADII[0],
                                         semantics=semantics, seed=13)
        incremental_engine = engine_cls.setup(graph, config, store=store)
        rebuilt_engine = engine_cls.setup(graph, config, store=rebuilt)
        try:
            assert _flat_answers(incremental_engine, queries) == \
                _flat_answers(rebuilt_engine, queries)
        finally:
            incremental_engine.close()
            rebuilt_engine.close()

    def test_repeated_deltas_stay_consistent(self, tmp_path, dataset,
                                             test_config, key):
        graph = dataset.graph.copy()
        store = _build(tmp_path / "store", graph, key)
        for seed in (21, 22):
            delta = random_delta(graph, edge_fraction=0.01, seed=seed)
            store.apply_delta(delta, graph, key)
        store.check(graph=graph, key=key)
        rebuilt = _build(tmp_path / "rebuilt", graph, key)
        queries = dataset.random_queries(1, size=4, diameter=RADII[0],
                                         seed=13)
        config = _config(test_config)
        incremental_engine = Prilo.setup(graph, config, store=store)
        rebuilt_engine = Prilo.setup(graph, config, store=rebuilt)
        try:
            assert _flat_answers(incremental_engine, queries) == \
                _flat_answers(rebuilt_engine, queries)
        finally:
            incremental_engine.close()
            rebuilt_engine.close()

    def test_empty_delta_touches_nothing(self, tmp_path, dataset, key):
        graph = dataset.graph.copy()
        store = _build(tmp_path / "store", graph, key)
        root_before = store.auth["root"]
        report = store.apply_delta(GraphDelta(), graph, key)
        assert report.dirty == report.added == report.removed == 0
        assert report.reencrypted == 0
        assert store.auth["root"] == root_before


# ---------------------------------------------------------------------------
# the reuse contract: only balls whose record bytes changed are re-encrypted
# ---------------------------------------------------------------------------
_LETTERS = ("a", "b", "c")


@st.composite
def _graphs(draw):
    """A small labelled digraph on integer vertices, no self loops."""
    n = draw(st.integers(3, 9))
    labels = draw(st.lists(st.sampled_from(_LETTERS), min_size=n,
                           max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n,
                          unique=True))
    return LabeledGraph.from_edges(dict(enumerate(labels)), edges)


@st.composite
def _delta_for(draw, graph, step):
    """One delta against ``graph``: random edge churn, at most one vertex
    removed, and at most one vertex added with edges to survivors."""
    edge_ops = draw(st.integers(0, 3))
    base = random_delta(
        graph, edge_fraction=min(1.0, (edge_ops + 0.5) / graph.num_edges)
        if graph.num_edges else 0.0,
        remove_vertices=draw(st.integers(0, min(1, graph.num_vertices - 2))),
        seed=draw(st.integers(0, 2 ** 16)))
    added_vertices, added_edges = (), list(base.added_edges)
    if draw(st.booleans()):
        fresh = f"new-{step}"
        added_vertices = ((fresh, draw(st.sampled_from(_LETTERS))),)
        removed = set(base.removed_vertices)
        survivors = sorted((v for v in graph.vertices() if v not in removed),
                           key=repr)
        for v in draw(st.lists(st.sampled_from(survivors), max_size=2,
                               unique=True)):
            added_edges.append(
                (fresh, v) if draw(st.booleans()) else (v, fresh))
    return GraphDelta(added_vertices=added_vertices,
                      removed_vertices=base.removed_vertices,
                      added_edges=tuple(added_edges),
                      removed_edges=base.removed_edges)


def _record_of(graph, ball_key, ball_id):
    center, radius = ball_key
    return ball_to_bytes(extract_ball(graph, center, radius,
                                      ball_id=ball_id))


class TestReuseContract:
    """An independent oracle -- every surviving ball extracted from a
    pre-delta copy and from the live graph -- decides which balls changed;
    the store re-encrypts exactly those plus the added ones and carries
    every other ball forward byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), graph=_graphs(),
           radii=st.sampled_from([(1,), (2,), (1, 2)]))
    def test_reencrypts_exactly_the_changed_and_added_balls(
            self, key, data, graph, radii):
        cipher = key.cipher()
        config = PriloConfig(k_players=2, modulus_bits=512, q_bits=24,
                             r_bits=24, radii=radii, seed=SEED)
        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore.create(Path(tmp) / "incremental", graph,
                                         radii, key, twiglet_h=3)
            for step in range(data.draw(st.integers(1, 3))):
                delta = data.draw(_delta_for(graph, step))
                pre = graph.copy()
                ids_before = store.ball_id_map(pre)
                before = {i: store._record(i) for i in store.ball_ids()}
                report = store.apply_delta(delta, graph, key)
                ids = store.ball_id_map(graph)
                survivors = {k: i for k, i in ids.items()
                             if k in ids_before}
                changed = {i for k, i in survivors.items()
                           if _record_of(pre, k, i)
                           != _record_of(graph, k, i)}
                assert report.reencrypted == len(changed) + report.added
                assert report.reused == (report.balls_after
                                         - report.reencrypted)
                for i in set(survivors.values()) - changed:
                    assert store._record(i) == before[i]
                for k, i in ids.items():
                    payload, blob = store._record(i)
                    assert payload == _record_of(graph, k, i)
                    assert cipher.decrypt(blob) == payload
                assert store.verify(key).ok
            rebuilt = ArtifactStore.create(Path(tmp) / "rebuilt", graph,
                                           radii, key, twiglet_h=3)
            queries = _path_queries(graph, min(radii))
            with Prilo.setup(graph, config, store=store) as incremental, \
                    Prilo.setup(graph, config, store=rebuilt) as fresh:
                assert (_flat_answers(incremental, queries)
                        == _flat_answers(fresh, queries))
            store.close()
            rebuilt.close()

    @pytest.mark.parametrize("damage", ["other-plaintext", "bad-mac"])
    def test_unchanged_dirty_ball_with_a_wrong_blob_is_reencrypted(
            self, tmp_path, dataset, key, damage):
        """A dirty ball whose record does not change is carried forward
        only when its stored blob is a v2 ciphertext of that record."""
        graph = dataset.graph.copy()
        store = ArtifactStore.create(tmp_path / "store", graph, (1,), key,
                                     twiglet_h=3)
        # An edge from a neighbour of ``center`` to a vertex two or more
        # hops away dirties ball (center, 1) without changing its record.
        center, near, far = next(
            (c, u, v) for c in sorted(graph.vertices(), key=repr)
            for u in sorted(graph.neighbors(c), key=repr)
            for v in sorted(graph.vertices(), key=repr)
            if v not in graph.neighbors(c) and v != c
            and not graph.has_edge(u, v))
        target = store.ball_id_map(graph)[(center, 1)]
        payload, blob = store._record(target)
        if damage == "other-plaintext":
            wrong = key.cipher().encrypt(bytes([payload[0] ^ 1])
                                         + payload[1:])
        else:
            wrong = blob[:-1] + bytes([blob[-1] ^ 1])
        offset = store._slices[target].enc_offset
        with (tmp_path / "store" / "encrypted.pack").open("r+b") as fh:
            fh.seek(offset)
            fh.write(wrong)
        assert store._record(target) == (payload, wrong)

        report = store.apply_delta(GraphDelta(added_edges=((near, far),)),
                                   graph, key)
        assert target in report.dirty_ball_ids
        assert store._record(target)[0] == payload
        fresh = store._record(target)[1]
        assert fresh not in (blob, wrong)
        assert key.cipher().decrypt(fresh) == payload
        assert store.verify(key).ok
        store.close()


def _path_queries(graph, diameter):
    """Up to nine labelled path queries of ``diameter`` edges over the
    graph's alphabet."""
    labellings = itertools.product(sorted(graph.alphabet),
                                   repeat=diameter + 1)
    return [Query.from_edges(dict(enumerate(labels)),
                             [(i, i + 1) for i in range(diameter)])
            for labels in itertools.islice(labellings, 9)]


# ---------------------------------------------------------------------------
# verified serving under the updated Merkle root
# ---------------------------------------------------------------------------
class TestUpdatedAuth:
    def test_certified_serving_after_delta(self, tmp_path, dataset,
                                           test_config, key):
        from repro.framework import wire
        from repro.framework.server import QueryStatus
        from repro.framework.verify import AnswerVerifier, Certifier

        graph = dataset.graph.copy()
        store = _build(tmp_path / "store", graph, key)
        root_before = store.auth["root"]
        delta = random_delta(graph, edge_fraction=0.02, seed=5)
        store.apply_delta(delta, graph, key)
        assert store.auth["root"] != root_before

        config = _config(test_config)
        query = dataset.random_queries(1, size=4, diameter=RADII[0],
                                       seed=13)[0]
        engine = Prilo.setup(graph, config, store=store)
        try:
            result = engine.run(query)
            certifier = Certifier(store.auth, seed=config.seed,
                                  config=engine.config,
                                  graph_digest=store.manifest_graph_digest)
            cert = certifier.certify(qid=1, shard_id=0, members=[0],
                                     prev_members=None, result=result)
            verifier = AnswerVerifier.from_store(store, seed=config.seed,
                                                 config=engine.config)
        finally:
            engine.close()
        answer = wire.canonical_answer_of_result(result)
        verdict = {"t": "verdict", "qid": 1, "shard": 0,
                   "status": QueryStatus.OK, "cert": cert,
                   "candidates": answer["candidates"],
                   "pm_positive": answer["pm_positive"],
                   "verified": answer["verified"],
                   "matches": answer["matches"]}
        assert verifier.verify_verdict(
            qid=1, shard_id=0, members=[0], prev_members=None,
            query=query, verdict=verdict) >= 0

    def test_emptied_catalog_and_absence_proofs(self, tmp_path, dataset,
                                                key):
        """Deleting every carrier of a label empties its candidate rows,
        and the removed balls get verifiable absence proofs under the
        updated root."""
        graph = dataset.graph.copy()
        store = _build(tmp_path / "store", graph, key)
        label = min(graph.alphabet,
                    key=lambda lab: (graph.label_frequency(lab),
                                     repr(lab)))
        victims = sorted(graph.vertices_with_label(label), key=repr)
        ids = store.ball_id_map(graph)
        removed_ids = sorted(ids[(v, RADII[0])] for v in victims)
        delta = GraphDelta(removed_vertices=tuple(victims))
        report = store.apply_delta(delta, graph, key)
        assert sorted(report.removed_ball_ids) == removed_ids

        assert label not in graph.alphabet
        catalog = store.auth["catalog"][str(RADII[0])]
        assert repr(label) not in catalog
        for rows in catalog.values():
            assert not set(rows) & set(removed_ids)
        # No candidates for the dead label through the store-backed index.
        index = store.ball_index(graph)
        assert list(index.candidate_balls(label, RADII[0])) == []
        # The updated accumulator proves the removed balls absent.
        tree = MerkleTree.from_leaf_hexes(store.auth["leaves"])
        assert tree.root_hex == store.auth["root"]
        for ball_id in removed_ids:
            assert ball_id not in tree
            proof = tree.prove_absent(ball_id)
            assert verify_absent(tree.root_hex, proof) == ball_id


# ---------------------------------------------------------------------------
# standing queries through QueryBatchEngine.apply_delta
# ---------------------------------------------------------------------------
class TestStandingQueries:
    @pytest.fixture()
    def served(self, dataset, test_config):
        graph = dataset.graph.copy()
        engine = Prilo(graph, _config(test_config))
        server = QueryBatchEngine(engine, cache=CMMCache())
        query = dataset.random_queries(1, size=4, diameter=RADII[0],
                                       seed=13)[0]
        yield server, query
        engine.close()

    def test_registration_is_not_a_notification(self, served):
        server, query = served
        standing = server.register_standing(query, name="watch")
        assert standing.notifications == 0
        assert standing.evaluations == 0
        assert server.standing == (standing,)

    def test_empty_delta_does_not_notify(self, served):
        server, query = served
        standing = server.register_standing(query)
        application = server.apply_delta(GraphDelta())
        assert application.notified == 0
        assert [n.changed for n in application.notices] == [False]
        assert standing.evaluations == 1
        assert standing.notifications == 0

    def test_isolated_vertex_does_not_notify(self, served):
        """A delta whose affected balls cannot host a match re-evaluates
        the standing query but must not re-notify."""
        server, query = served
        engine = server.engine
        label = next(iter(engine.graph.alphabet))
        standing = server.register_standing(query)
        before = dict(standing.matches)
        application = server.apply_delta(GraphDelta(
            added_vertices=(("dyn-isolated", label),)))
        assert len(application.added_ball_ids) == len(RADII)
        assert application.dirty_ball_ids == ()
        assert application.notified == 0
        assert standing.matches == before
        assert standing.evaluations == 1

    def test_destroying_a_match_notifies(self, served):
        server, query = served
        engine = server.engine
        standing = server.register_standing(query)
        assert standing.matches, "fixture query must match somewhere"
        matched_id = int(next(iter(standing.matches)))
        center = next(ctr for (ctr, radius), ball_id
                      in engine.index.id_map().items()
                      if ball_id == matched_id)
        application = server.apply_delta(GraphDelta(
            removed_vertices=(center,)))
        assert application.notified == 1
        assert standing.notifications == 1
        assert str(matched_id) not in standing.matches
        # The retained state equals a from-scratch evaluation.
        fresh = Prilo(engine.graph.copy(), engine.config)
        try:
            answer = canonical_answer_of_result(fresh.run(query))
        finally:
            fresh.close()
        assert sorted(m for ms in standing.matches.values()
                      for m in ms) == \
            sorted(m for ms in answer["matches"].values() for m in ms)

    def test_cache_invalidation_on_delta(self, served):
        server, query = served
        server.serve([query, query])  # warm the CMM cache
        assert len(server.cache) > 0
        entries_before = len(server.cache)
        evictions_before = server.cache.stats.evictions
        delta = random_delta(server.engine.graph, edge_fraction=0.05,
                             seed=9)
        application = server.apply_delta(delta)
        assert application.cache_invalidated > 0
        assert len(server.cache) < entries_before
        assert server.cache.stats.evictions > evictions_before

    def test_store_backed_apply_delta(self, tmp_path, dataset,
                                      test_config, key):
        graph = dataset.graph.copy()
        store = _build(tmp_path / "store", graph, key)
        engine = Prilo(graph, _config(test_config), store=store)
        server = QueryBatchEngine(engine, cache=CMMCache())
        query = dataset.random_queries(1, size=4, diameter=RADII[0],
                                       seed=13)[0]
        try:
            standing = server.register_standing(query)
            delta = random_delta(graph, edge_fraction=0.02, seed=5)
            application = server.apply_delta(delta)
            assert application.store_report is not None
            assert application.store_report.reused >= 0
            store.check(graph=engine.graph, key=key)
            # The engine serves correctly from the updated store.
            report = server.serve([query])
            flat = sorted(m for ms in canonical_answer_of_result(
                report.results[0])["matches"].values() for m in ms)
            assert flat == sorted(m for ms in standing.matches.values()
                                  for m in ms)
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# one delta planner for the store and the in-memory engine
# ---------------------------------------------------------------------------
class TestOnePlanner:
    def test_in_memory_plan_equals_store_plan(self, tmp_path, dataset,
                                              test_config, key):
        """A chain of random deltas (edge churn, vertex removals, one
        added vertex) dirties / adds / removes the same ball ids whether
        it goes through the store or through an in-memory engine."""
        from repro.framework import server as server_module
        from repro.storage import store as store_module

        assert server_module.plan_delta is store_module.plan_delta
        stored_graph = dataset.graph.copy()
        store = _build(tmp_path / "store", stored_graph, key)
        engine = Prilo(dataset.graph.copy(), _config(test_config))
        server = QueryBatchEngine(engine, cache=CMMCache())
        try:
            for step in range(4):
                delta = random_delta(stored_graph, edge_fraction=0.03,
                                     remove_vertices=step % 2,
                                     seed=70 + step)
                if step == 3:
                    anchor = sorted(stored_graph.vertices(), key=repr)[0]
                    delta = replace(
                        delta, added_vertices=(("fresh", "fresh-label"),),
                        added_edges=delta.added_edges + (("fresh", anchor),))
                report = store.apply_delta(delta, stored_graph, key)
                application = server.apply_delta(delta)
                assert (application.dirty_ball_ids,
                        application.added_ball_ids,
                        application.removed_ball_ids) == (
                    report.dirty_ball_ids, report.added_ball_ids,
                    report.removed_ball_ids)
                assert report.dirty > 0
                assert engine.index.id_map() == store.ball_id_map(
                    engine.graph)
            assert report.added == len(RADII)
        finally:
            engine.close()
            store.close()
