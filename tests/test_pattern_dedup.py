"""The chunked (per-item) result layout ships one item per *distinct*
projected pattern, and one fused kernel produces those patterns.

Pinned here:

* the fused enumerate->mask kernel equals the two-step reference
  (``iter_cmms`` + ``project`` + ``mask_of_pattern``) mask for mask, in
  order, for hom and injective sub-iso, with the same truncation
  accounting;
* ``aggregate_items`` keeps each distinct chunk list once, the user's
  decision is unchanged by that, and it stays exact against the plaintext
  matcher;
* the shipped ``per_item`` lists are equal across the paper-literal
  oracle and the kernels, worker-recorded and cache-fed shares, the
  process executor and a journal replay;
* the summable layout is untouched: its sum is byte-identical to the
  value recorded on the commit before this layout change.

The property tests use a 256-bit modulus with the suite's 24-bit q/r:
4 factors per chunk, so every ``|V_Q| = 4`` product takes 3 chunks
(``summable=False``).  24-bit blinds keep both a blind hitting ``q`` and
two matrix positions drawing the same ciphertext (which would merge two
patterns' products) at ~2^-23 per encryption.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import decide_positive
from repro.core.encoding import encrypt_query_matrix
from repro.core.enumeration import (
    enumerate_cmms,
    iter_cmms,
    iter_projected_masks,
    prepare_ball,
)
from repro.core.verification import (
    verification_multiexp,
    verification_plan,
    verify_ball,
    verify_ball_streaming,
    verify_plaintext,
)
from repro.crypto.cgbe import CGBE
from repro.crypto.kernels import mask_of_pattern, pattern_of_mask
from repro.framework.executor import (
    EvaluationShare,
    ProcessExecutor,
    SerialExecutor,
)
from repro.framework.messages import EncryptedQueryMessage
from repro.framework.prilo import Prilo, PriloConfig
from repro.graph.ball import extract_ball
from repro.graph.generators import fig3_graph, fig3_query
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import Query, QueryLabelView, Semantics
from repro.semantics.evaluate import ball_contains_match
from repro.storage.journal import RunJournal, journal_key
from tests.oracle import oracle_evaluate_ball

SEEDS = st.integers(0, 10 ** 6)
BOTH = pytest.mark.parametrize("semantics",
                               [Semantics.HOM, Semantics.SUB_ISO],
                               ids=lambda s: s.value)


@pytest.fixture(scope="module")
def small_scheme():
    scheme = CGBE.generate(modulus_bits=256, q_bits=24, r_bits=24, seed=5)
    assert not verification_plan(
        scheme.params, QueryLabelView(labels=("a",) * 4, diameter=2)).summable
    return scheme


def random_world(seed: int, semantics: Semantics):
    """A small random directed labelled graph, a connected 4-vertex query
    over the same two-letter alphabet, and one candidate ball."""
    rng = random.Random(seed)
    size = rng.randint(5, 8)
    labels = {v: rng.choice("ab") for v in range(size)}
    edges = {(u, v) for u in range(size) for v in range(size)
             if u != v and rng.random() < 0.35}
    graph = LabeledGraph.from_edges(labels, sorted(edges))
    q_labels = {u: rng.choice("ab") for u in range(4)}
    q_edges = set()
    for u in range(1, 4):  # a random spanning tree keeps it connected
        parent = rng.randrange(u)
        q_edges.add((parent, u) if rng.random() < 0.5 else (u, parent))
    q_edges |= {(u, v) for u in range(4) for v in range(4)
                if u != v and rng.random() < 0.15}
    query = Query.from_edges(q_labels, sorted(q_edges), semantics=semantics)
    label = query.most_frequent_label(graph)
    centers = sorted(graph.vertices_with_label(label))
    center = centers[seed % len(centers)] if centers else 0
    return query, extract_ball(graph, center, query.diameter, ball_id=seed)


def reference_masks(query, ball, injective):
    return [mask_of_pattern(cmm.project(ball.graph))
            for cmm in iter_cmms(query, ball, injective=injective)]


class TestFusedKernel:
    @BOTH
    @given(seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_masks_equal_two_step_reference(self, semantics, seed):
        query, ball = random_world(seed, semantics)
        injective = semantics is Semantics.SUB_ISO
        masks = list(iter_projected_masks(query, ball, injective=injective))
        assert masks == reference_masks(query, ball, injective)
        for mask in set(masks):
            assert mask_of_pattern(pattern_of_mask(mask, query.size)) == mask

    @BOTH
    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_truncation_accounting(self, semantics, seed, small_scheme):
        query, ball = random_world(seed, semantics)
        injective = semantics is Semantics.SUB_ISO
        params = small_scheme.params
        enc = encrypt_query_matrix(small_scheme, query)
        c_one = small_scheme.encrypt_one()
        plan = verification_plan(params, query)
        table = verification_multiexp(params, enc, c_one, plan)
        total = len(reference_masks(query, ball, injective))
        for limit in {1, total - 1, total, total + 1}:
            if limit < 1:
                continue
            expected = enumerate_cmms(query, ball, limit=limit,
                                      injective=injective)
            prepared = prepare_ball(QueryLabelView.of(query), ball,
                                    enumeration_limit=limit,
                                    cmm_bound_bypass=10 ** 9)
            assert (prepared.enumerated, prepared.truncated) == (
                expected.enumerated, expected.truncated)
            for multiexp in (None, table):
                verdict = verify_ball_streaming(params, enc, c_one, prepared,
                                                plan, multiexp=multiexp)
                assert verdict.bypassed == expected.truncated


class TestDedupedVerdict:
    @BOTH
    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_one_item_per_distinct_pattern(self, semantics, seed,
                                           small_scheme):
        query, ball = random_world(seed, semantics)
        injective = semantics is Semantics.SUB_ISO
        params = small_scheme.params
        enc = encrypt_query_matrix(small_scheme, query)
        c_one = small_scheme.encrypt_one()
        plan = verification_plan(params, query)
        assert not plan.summable
        cmms = list(iter_cmms(query, ball, injective=injective))
        masks = reference_masks(query, ball, injective)
        table = verification_multiexp(params, enc, c_one, plan)
        prepared = prepare_ball(query, ball, enumeration_limit=10 ** 9,
                                cmm_bound_bypass=10 ** 9)
        kernel = verify_ball_streaming(params, enc, c_one, prepared, plan,
                                       multiexp=table)
        private = verify_ball_streaming(params, enc, c_one, prepared, plan)
        oracle = verify_ball(params, enc, c_one, ball, cmms, plan)
        assert prepared.enumerated == len(cmms)
        if not cmms:
            assert kernel.empty and private.empty and oracle.empty
        else:
            assert len(kernel.per_item) == len(set(masks))
            assert len({tuple(chunks) for chunks in kernel.per_item}) == \
                len(kernel.per_item)
            assert kernel.per_item == private.per_item == oracle.per_item
            assert all(len(chunks) == plan.chunks_per_item
                       for chunks in kernel.per_item)
        # The user's decision is what it was per CMM, and it is exact.
        per_cmm = any(
            verify_plaintext(query, params.q, ball, cmm) % params.q != 0
            for cmm in cmms)
        decided = decide_positive(small_scheme, kernel)
        assert decided == per_cmm == ball_contains_match(query, ball)


def _per_item(outcomes):
    return {result.ball_id: result.verdict.per_item
            for outcome in outcomes for result in outcome.results}


class TestPathsShipTheSameItems:
    def test_naive_batched_prepared_process_journal(self, small_scheme,
                                                    tmp_path):
        worlds = [random_world(seed, Semantics.HOM) for seed in range(40)]
        # One label view, many balls: keep the worlds that share the most
        # common query-label tuple so a single message serves them all.
        query, _ = worlds[0]
        view = QueryLabelView.of(query)
        balls = tuple(ball for other, ball in worlds
                      if QueryLabelView.of(other).labels == view.labels)
        message = EncryptedQueryMessage(
            semantics=Semantics.HOM, diameter=query.diameter,
            vertex_labels=view.labels, params=small_scheme.params,
            encrypted_matrix=encrypt_query_matrix(small_scheme, query),
            c_one=small_scheme.encrypt_one())
        bounds = dict(enumeration_limit=2_000, cmm_bound_bypass=10 ** 9)
        shares = [EvaluationShare(player=0, balls=balls)]
        serial = SerialExecutor()
        batched = serial.evaluate_shares(message, shares, **bounds)
        reference = _per_item(batched)
        assert any(items for items in reference.values())
        oracle = [oracle_evaluate_ball(message, ball, **bounds)
                  for ball in balls]
        assert {v.ball_id: v.per_item for v in oracle} == reference
        fed = [EvaluationShare(player=0, cached=True, balls=tuple(
            prepare_ball(view, ball, **bounds) for ball in balls))]
        assert _per_item(serial.evaluate_shares(
            message, fed, **bounds)) == reference
        with ProcessExecutor(workers=2) as pool:
            assert _per_item(pool.evaluate_shares(
                message, shares, **bounds)) == reference
        # Journal round trip: what a resumed run splices back in.
        key = journal_key(3)
        with RunJournal(tmp_path / "wal", key) as journal:
            journal.append_share("q0", "eval:0:p0", batched[0])
        replayed = RunJournal(tmp_path / "wal", key).replay()
        outcome = replayed.queries["q0"].shares["eval:0:p0"].outcome
        assert _per_item([outcome]) == reference
        assert [r.cmms for r in outcome.results] == \
            [prepared.enumerated for prepared in fed[0].balls]


#: ``sha256(hex(summed.value))`` of ``verify_ball`` over the Fig. 3 ball
#: under ``CGBE.generate(1024, 24, 24, seed=14)``, recorded on the commit
#: before the per-item layout changed (PR 13, 7a68438).
SUMMABLE_GOLDEN = {
    Semantics.HOM: (
        18, "1ae7a8d06a98b5a04bdd1aa120ee5959c56f73f4f1a2c21dd1c5d01c355754dc",
        965),
    Semantics.SUB_ISO: (
        12, "cfbefd3b0344249907def06f7159b1670a319dac3703c0ceee7e6aa971d3c36e",
        964),
}


class TestSummableLayoutUntouched:
    @BOTH
    def test_sum_is_byte_identical_to_parent(self, semantics):
        base = fig3_query()
        query = Query(pattern=base.pattern, semantics=semantics,
                      vertex_order=base.vertex_order)
        injective = semantics is Semantics.SUB_ISO
        ball = extract_ball(fig3_graph(), "v6", query.diameter, ball_id=0)
        cgbe = CGBE.generate(modulus_bits=1024, q_bits=24, r_bits=24,
                             seed=14)
        enc = encrypt_query_matrix(cgbe, query)
        c_one = cgbe.encrypt_one()
        plan = verification_plan(cgbe.params, query)
        assert plan.summable
        cmms = enumerate_cmms(query, ball, injective=injective).cmms
        count, digest, value_bits = SUMMABLE_GOLDEN[semantics]
        assert len(cmms) == count
        view = QueryLabelView.of(query)
        message = EncryptedQueryMessage(
            semantics=semantics, diameter=query.diameter,
            vertex_labels=view.labels, params=cgbe.params,
            encrypted_matrix=enc, c_one=c_one)
        bounds = dict(enumeration_limit=2_000, cmm_bound_bypass=2_000)
        prepared = prepare_ball(view, ball, **bounds)
        table = verification_multiexp(cgbe.params, enc, c_one, plan)
        verdicts = [
            verify_ball(cgbe.params, enc, c_one, ball, cmms, plan),
            verify_ball_streaming(cgbe.params, enc, c_one, prepared, plan),
            verify_ball_streaming(cgbe.params, enc, c_one, prepared, plan,
                                  multiexp=table),
        ] + [
            SerialExecutor().evaluate_shares(
                message, [share], **bounds)[0].results[0].verdict
            for share in (EvaluationShare(player=0, balls=(ball,)),
                          EvaluationShare(player=0, balls=(prepared,),
                                          cached=True))
        ]
        for verdict in verdicts:
            summed = verdict.summed
            assert hashlib.sha256(
                hex(summed.value).encode()).hexdigest() == digest
            assert (summed.power, summed.value_bits) == (20, value_bits)


class TestShippedBytes:
    """``sizes.ciphertext_results == ct_bytes * chunks * sum(distinct)``
    under a 512-bit modulus with 48-bit factors: 10 per chunk, so 5-vertex
    queries (20 factors) take 2 chunks -> the per-item layout."""

    def run(self, graph, query):
        config = PriloConfig(k_players=2, modulus_bits=512, q_bits=24,
                             r_bits=24, radii=(1, 2, 3), seed=7)
        engine = Prilo.setup(graph, config)
        result = engine.run(query)
        cgbe = engine.user.keyring.cgbe
        plan = verification_plan(cgbe.params, query)
        assert not plan.summable and plan.chunks_per_item == 2
        assert result.metrics.bypassed_balls == 0
        slots = cmms = distinct = 0
        for ball_id in result.candidate_ids:
            masks = list(iter_projected_masks(
                query, engine.index.ball_by_id(ball_id)))
            cmms += len(masks)
            distinct += len(set(masks))
            # a ball with no CMM still costs one (empty) result slot
            slots += max(len(set(masks)) * plan.chunks_per_item, 1)
        assert result.metrics.sizes.ciphertext_results == \
            cgbe.ciphertext_bytes() * slots
        assert result.metrics.cmms_enumerated == cmms
        return result, cmms, distinct

    def test_fig3_run(self):
        result, cmms, distinct = self.run(fig3_graph(), fig3_query())
        assert result.num_matches == 1
        assert 0 < distinct <= cmms

    def test_run_with_repeated_patterns(self, dataset):
        query = dataset.random_queries(1, size=5, diameter=2,
                                       semantics=Semantics.HOM, seed=2)[0]
        result, cmms, distinct = self.run(
            dataset.graph_for(Semantics.HOM), query)
        assert result.num_matches >= 1
        assert 0 < distinct < cmms  # repeats exist and are not shipped
