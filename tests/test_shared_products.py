"""Each distinct product is computed once, and equals the paper-literal fold.

* ``MaskedProductTable``'s product-tree memo: every chunk equals
  ``chunked_product`` over the same factor list in value, ``power`` and
  ``value_bits``, for any window width, layout and memo bound (a bound of
  one entry evicts every node); and a miss never costs more modmuls than
  the left-to-right fold over the same window entries.
* ``weighted_sum`` is ``CGBE.sum_`` over the repeated terms, overflow
  boundary included.
* ``ssim_verify_ball`` (one pass per ball, one table call per distinct
  mask) equals ``_pair_product`` + ``CGBE.sum_`` per candidate, and an
  exact-count gate pins how many products it asks for.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    BallCiphertextResult,
    ChunkPlan,
    chunked_product,
    weighted_sum,
)
from repro.core.encoding import encrypt_query_matrix
from repro.core.ssim_verification import (
    _pair_product,
    ssim_plan,
    ssim_verify_ball,
)
from repro.crypto import ops as crypto_ops
from repro.crypto.cgbe import CGBE, CGBECiphertext, OverflowError_
from repro.crypto.kernels import MaskedProductTable, MultiExpRegistry
from repro.graph.query import Query, Semantics
from tests.test_pattern_dedup import random_world

SEEDS = st.integers(0, 10 ** 6)


@pytest.fixture(scope="module")
def pool(cgbe):
    """Fresh single encryptions to draw bases and pads from."""
    return [cgbe.encrypt(m) for m in range(2, 26)]


def _flat_fold_bound(table: MaskedProductTable, mask: int) -> int:
    """Modmuls the left-to-right fold spends on a miss beyond its window
    entries: one per non-identity window after the first, plus the pad."""
    plan = table.plan
    total = 0
    for chunk, (_, _, first, count) in enumerate(table._chunks):
        start = chunk * plan.chunk_factors
        real = min(start + plan.chunk_factors, plan.factors) - start
        selected = (mask >> start) & ((1 << plan.chunk_factors) - 1)
        include = ~selected & ((1 << real) - 1)
        bounds = table._offsets[first:first + count] + [start + real]
        used = sum(1 for lo, hi in zip(bounds, bounds[1:])
                   if (include >> (lo - start)) & ((1 << (hi - lo)) - 1))
        pads = (selected & ((1 << real) - 1)).bit_count() \
            + plan.chunk_factors - real
        total += max(used - 1, 0) + (1 if used and pads else 0)
    return total


def _multi_bit_entries(table: MaskedProductTable) -> int:
    return sum(1 for entries in table._tables
               for sub in entries if sub & (sub - 1))


class TestProductTree:
    @given(data=st.data(), window=st.integers(1, 8),
           max_memo=st.sampled_from([1, 2, 5, 1 << 16]))
    @settings(max_examples=80, deadline=None)
    def test_equals_oracle_fold(self, cgbe, pool, data, window, max_memo):
        params = cgbe.params
        factors = data.draw(st.integers(1, 16))
        chunk_factors = data.draw(st.integers(1, min(factors, 12)))
        chunks = -(-factors // chunk_factors)
        plan = ChunkPlan(factors=factors, chunk_factors=chunk_factors,
                         chunks_per_item=chunks, summable=chunks == 1)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 2),
                                   min_size=factors, max_size=factors))
        bases = [pool[i] for i in picks]
        pad = pool[-1]
        table = MaskedProductTable(params, bases, pad, plan, window=window,
                                   max_memo=max_memo)
        # Mask streams with repeats and near-repeats, like real selections.
        masks = data.draw(st.lists(st.integers(0, (1 << factors) - 1),
                                   min_size=1, max_size=12))
        masks += [m ^ (1 << data.draw(st.integers(0, factors - 1)))
                  for m in masks[:4]] + masks[:3]
        for mask in masks:
            oracle = chunked_product(
                params, [pad if mask >> p & 1 else bases[p]
                         for p in range(factors)], pad, plan)
            before = _multi_bit_entries(table)
            counter = crypto_ops.OpCounter()
            with crypto_ops.counting(counter, "evaluation", "user") as ops:
                got = table.chunk_ciphertexts(mask)
            assert got == oracle
            assert ops.modmul - (_multi_bit_entries(table) - before) <= \
                _flat_fold_bound(table, mask)
            assert len(table.memo) <= max_memo


class TestTinyMemo:
    @given(data=st.data(), max_memo=st.sampled_from([1, 3]))
    @settings(max_examples=80, deadline=None)
    def test_evicting_memo_equals_oracle_and_counts_every_lookup(
            self, cgbe, pool, data, max_memo):
        """Under a bound small enough that results and tree nodes evict
        each other, every chunk still equals the fold, and each chunk
        lookup is counted once, as a hit or a miss."""
        params = cgbe.params
        factors = data.draw(st.integers(1, 16))
        chunk_factors = data.draw(st.integers(1, factors))
        chunks = -(-factors // chunk_factors)
        plan = ChunkPlan(factors=factors, chunk_factors=chunk_factors,
                         chunks_per_item=chunks, summable=chunks == 1)
        bases = [pool[i] for i in data.draw(st.lists(
            st.integers(0, len(pool) - 2), min_size=factors,
            max_size=factors))]
        pad = pool[-1]
        table = MaskedProductTable(params, bases, pad, plan, window=2,
                                   max_memo=max_memo)
        masks = data.draw(st.lists(st.integers(0, (1 << factors) - 1),
                                   min_size=1, max_size=16))
        masks += masks[:4]
        for mask in masks:
            assert table.chunk_ciphertexts(mask) == chunked_product(
                params, [pad if mask >> p & 1 else bases[p]
                         for p in range(factors)], pad, plan)
            assert len(table.memo) <= max_memo
        assert table.hits + table.misses == len(masks) * chunks


class TestWeightedSum:
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("headroom", range(0, 5))
    def test_equals_repeated_sum_at_the_boundary(self, cgbe, n, headroom):
        params = cgbe.params
        bits = params.modulus_bits - 1 - headroom
        terms = [CGBECiphertext(value=v, power=3, value_bits=bits)
                 for v in (params.modulus - 5, 7, 11)]
        counts = [n, 1, 2]
        repeated = [t for t, c in zip(terms, counts) for _ in range(c)]
        try:
            expected = CGBE.sum_(params, repeated)
        except OverflowError_:
            with pytest.raises(OverflowError_, match="emit partial sums"):
                weighted_sum(params, terms, counts)
        else:
            assert weighted_sum(params, terms, counts) == expected

    def test_rejects_unequal_terms(self, cgbe):
        a = CGBECiphertext(value=3, power=2, value_bits=40)
        with pytest.raises(ValueError):
            weighted_sum(cgbe.params, [a, CGBECiphertext(3, 1, 40)], [1, 1])


def _oracle_result(params, ball_id, items, plan):
    """Per candidate, as the paper folds it: the summable layout sums
    every item with ``CGBE.sum_``; the per-item layout keeps distinct
    chunk lists in first-appearance order."""
    if not items:
        return BallCiphertextResult(ball_id=ball_id, empty=True)
    if plan.summable:
        return BallCiphertextResult(ball_id=ball_id, summed=CGBE.sum_(
            params, [chunks[0] for chunks in items]))
    distinct = {}
    for chunks in items:
        distinct.setdefault(tuple(chunks), chunks)
    return BallCiphertextResult(ball_id=ball_id,
                                per_item=list(distinct.values()))


def _oracle_ssim(params, enc, c_one, query, ball, plan):
    per_vertex, center = [], []
    for row, u in enumerate(query.vertex_order):
        candidates = sorted(ball.graph.vertices_with_label(query.label(u)),
                            key=repr)
        per_vertex.append(_oracle_result(params, ball.ball_id, [
            _pair_product(params, enc, c_one, query, ball, row, v, plan)
            for v in candidates], plan))
        if query.label(u) == ball.center_label:
            center.append(_pair_product(params, enc, c_one, query, ball,
                                        row, ball.center, plan))
    return per_vertex, _oracle_result(params, ball.ball_id, center, plan)


@pytest.fixture(scope="module")
def small_scheme():
    """4 factors per chunk: a 4-vertex ssim product takes 2 chunks."""
    return CGBE.generate(modulus_bits=256, q_bits=24, r_bits=24, seed=5)


@pytest.fixture(scope="module")
def tight_scheme():
    """8-bit q and r: a 4-vertex ssim product is 8 x 16 = 128 bits, so a
    131-bit modulus holds a sum of at most 4 candidates (a quarter of
    ``random_world``'s balls have a row with more)."""
    return CGBE.generate(modulus_bits=131, q_bits=8, r_bits=8, seed=3)


class TestSsimOnePass:
    @pytest.mark.parametrize("layout", ["summable", "chunked", "tight"])
    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_equals_pair_products(self, cgbe, small_scheme, tight_scheme,
                                  layout, seed):
        query, ball = random_world(seed, Semantics.SSIM)
        scheme = {"summable": cgbe, "chunked": small_scheme,
                  "tight": tight_scheme}[layout]
        params = scheme.params
        plan = ssim_plan(params, query)
        if layout == "tight":
            plan = ChunkPlan(factors=plan.factors,
                             chunk_factors=plan.factors,
                             chunks_per_item=1, summable=True)
        assert plan.summable == (layout != "chunked")
        enc = encrypt_query_matrix(scheme, query)
        c_one = scheme.encrypt_one()
        try:
            expected = _oracle_ssim(params, enc, c_one, query, ball, plan)
        except OverflowError_:
            assert layout == "tight"
            with pytest.raises(OverflowError_):
                ssim_verify_ball(params, enc, c_one, query, ball, plan)
            return
        verdict = ssim_verify_ball(params, enc, c_one, query, ball, plan,
                                   multiexp=MultiExpRegistry())
        assert (verdict.per_vertex, verdict.center) == expected


#: A fixed 8-vertex ssim query whose labels c / d never occur in
#: ``random_world``'s two-letter balls: every c / d position is always
#: included, which is the shape real selections have (few pads).
GATE_LABELS = "ababcdcd"
#: (eval modmuls, ``chunk_ciphertexts`` calls) over the gate's 24 balls.
#: The parent fold (one call per candidate, flat fold, single-bit entries
#: multiplied by 1) spent (320, 340); the flat fold with one call per
#: distinct mask (280, 276).
SSIM_GATE = (234, 276)


class TestSsimCountGate:
    def test_products_per_ball_are_pinned(self, cgbe, monkeypatch):
        n = len(GATE_LABELS)
        query = Query.from_edges(
            dict(enumerate(GATE_LABELS)),
            [(u, u + 1) if u % 2 else (u + 1, u) for u in range(n - 1)]
            + [(0, n - 1)], semantics=Semantics.SSIM)
        balls = [random_world(seed, Semantics.SSIM)[1] for seed in range(24)]
        enc = encrypt_query_matrix(cgbe, query)
        c_one = cgbe.encrypt_one()
        plan = ssim_plan(cgbe.params, query)
        assert plan.summable and plan.chunks_per_item == 1
        calls = []
        real = MaskedProductTable.chunk_ciphertexts

        def counted(table, mask):
            calls.append(mask)
            return real(table, mask)

        monkeypatch.setattr(MaskedProductTable, "chunk_ciphertexts", counted)
        registry = MultiExpRegistry()
        counter = crypto_ops.OpCounter()
        with crypto_ops.counting(counter, "evaluation", "player:0") as ops:
            for ball in balls:
                ssim_verify_ball(cgbe.params, enc, c_one, query, ball, plan,
                                 multiexp=registry)
        assert (ops.modmul, len(calls)) == SSIM_GATE
