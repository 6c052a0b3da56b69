"""Query verification -- Alg. 2 (``Verify``) and the per-ball aggregation.

Given a CMM ``C``, Alg. 2 projects the ball's adjacency matrix through ``C``
(``M_p = C . M_B . C^T``) and multiplies together the encodings
``M_Qe(i, j)`` of every position where ``M_p(i, j) = 0``.  The product has a
factor ``q`` iff the query has an edge the candidate lacks -- a matching
violation against Def. 1 condition (2).

Faithful refinements (see DESIGN.md):

* positions where ``M_p(i, j) = 1`` multiply the user-chosen encryption of
  1 (``c_one``), so every product consists of exactly
  ``|V_Q| * (|V_Q| - 1)`` factors -- required for the per-ball sums of
  Alg. 3 line 7 to be homomorphically well-formed, and making the operation
  sequence literally position-independent;
* diagonal positions are skipped: ``M_Q(i, i) = 0`` always (no self loops),
  so they contribute a public constant factor of 1 -- skipping them buys a
  full ``|V_Q|`` factors of overflow headroom without touching privacy;
* overflow handling delegates to :mod:`repro.core.aggregation`: products
  and sums are chunked whenever the budget requires, with layouts that
  depend only on public parameters.

Two layers live here.  :func:`verify_ball_streaming` is the evaluator the
Players run: every product comes out of the query's shared
:class:`~repro.crypto.kernels.MaskedProductTable`.  The paper-literal fold
-- :func:`verify_plaintext`, :func:`verify_ciphertext`,
:func:`verify_projected_rows`, :func:`verify_ball` -- multiplies factor by
factor; it is the oracle the tests hold the evaluator to and is called by
nothing else in ``src/``.
"""

from __future__ import annotations

from repro.core.aggregation import (
    BallCiphertextResult,
    ChunkPlan,
    aggregate_items,
    chunked_product,
    decide_positive,
)
from repro.core.enumeration import PreparedBall
from repro.crypto.cgbe import CGBECiphertext, CGBEPublicParams
from repro.crypto.kernels import MaskedProductTable, offdiagonal_bases
from repro.graph.ball import Ball
from repro.graph.matrix import CandidateMappingMatrix
from repro.graph.query import Query


def verify_plaintext(query: Query, q: int, ball: Ball,
                     cmm: CandidateMappingMatrix) -> int:
    """Alg. 2 on plaintext encodings; returns the aggregated integer ``r``.

    ``r % q != 0`` iff ``cmm`` is a valid match function under hom
    (sub-iso shares this check; injectivity is handled at enumeration).
    """
    from repro.core.encoding import materialize_query_matrix

    encoded = materialize_query_matrix(query, q)
    projected = cmm.project(ball.graph)
    r = 1
    n = query.size
    for i in range(n):
        for j in range(n):
            if i != j and projected[i, j] == 0:
                r *= int(encoded[i, j])
    return r


def verification_plan(params: CGBEPublicParams, query: Query,
                      expected_terms: int = 1 << 16) -> ChunkPlan:
    """The chunk layout for Alg. 2 products: ``|V_Q| * (|V_Q| - 1)``
    off-diagonal factors per CMM."""
    return ChunkPlan.plan(params, query.size * (query.size - 1),
                          expected_terms=expected_terms)


def verification_multiexp(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    plan: ChunkPlan,
) -> MaskedProductTable:
    """The shared Straus table for Alg. 2 products of one query message.

    The base vector (the encrypted matrix's off-diagonal entries) is
    identical for every ball and every CMM of a query, so one table --
    window subset products plus the per-pattern chunk memo -- serves an
    entire executor share.  Results are value-identical to
    :func:`verify_projected_rows`.
    """
    return MaskedProductTable(params, offdiagonal_bases(encrypted_matrix),
                              c_one, plan)


def verify_ciphertext(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    ball: Ball,
    cmm: CandidateMappingMatrix,
    plan: ChunkPlan,
) -> list[CGBECiphertext]:
    """Alg. 2 under CGBE: the SP-side product(s) for one CMM.

    Returns ``plan.chunks_per_item`` ciphertexts; every position of the
    encrypted matrix is touched in the same order regardless of values
    (query-obliviousness, proven in App. A.2).
    """
    return verify_projected_rows(params, encrypted_matrix, c_one,
                                 cmm.project(ball.graph).tolist(), plan)


def verify_projected_rows(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    rows: "list | tuple",
    plan: ChunkPlan,
) -> list[CGBECiphertext]:
    """The SP-side product(s) for one *projected matrix* ``M_p``.

    The factor list -- and hence the result -- is a function of the
    projected 0/1 pattern alone, not of which CMM produced it, which is
    why CMMs of one ball sharing a pattern can share one product
    (:func:`verify_ball_streaming`).  Operation order is identical to
    :func:`verify_ciphertext`'s.
    """
    n = len(rows)
    factors: list[CGBECiphertext] = []
    for i in range(n):
        projected_row = rows[i]
        matrix_row = encrypted_matrix[i]
        for j in range(n):
            if i == j:
                continue
            if projected_row[j] == 0:
                factors.append(matrix_row[j])
            else:
                factors.append(c_one)
    return chunked_product(params, factors, c_one, plan)


def verify_ball(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    ball: Ball,
    cmms: list[CandidateMappingMatrix],
    plan: ChunkPlan,
    bypassed: bool = False,
) -> BallCiphertextResult:
    """Alg. 3 lines 6-7: verify every CMM of a ball and aggregate.

    ``bypassed`` propagates the footnote-6 enumeration cutoff: the ball is
    reported unpruned rather than risking an unsound verdict on a partial
    CMM set.
    """
    if bypassed:
        return BallCiphertextResult(ball_id=ball.ball_id, bypassed=True)
    chunk_lists = [
        verify_ciphertext(params, encrypted_matrix, c_one, ball, cmm, plan)
        for cmm in cmms
    ]
    return aggregate_items(params, ball.ball_id, chunk_lists, plan)


def verify_ball_streaming(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    prepared: PreparedBall,
    plan: ChunkPlan,
    multiexp: MaskedProductTable | None = None,
) -> BallCiphertextResult:
    """Alg. 2 + Alg. 3 lines 6-7 over one ball's recorded mask stream
    (:func:`repro.core.enumeration.prepare_ball`) -- the one hom / sub-iso
    verifier, whether the stream was recorded a moment ago in this worker
    or came out of a :class:`~repro.framework.server.CMMCache`.

    A bypassed stream (footnote 6) is reported unpruned.  Each *distinct*
    mask's chunk product is computed once per ball, out of ``multiexp``
    -- the query's :func:`verification_multiexp` table, shared across a
    share's balls; a call without one builds its own.  The summable
    layout's sum weighs each product by its mask's CMM count (the
    paper-literal sum over every CMM, as one
    :func:`~repro.core.aggregation.weighted_sum`), the per-item layout
    ships the distinct products.

    What is computed for which mask is a function of the ball's plaintext
    adjacency and the public label view only -- never of ciphertext
    values or verdicts.
    """
    if prepared.bypassed:
        return BallCiphertextResult(ball_id=prepared.ball_id, bypassed=True)
    if multiexp is None:
        multiexp = verification_multiexp(params, encrypted_matrix, c_one,
                                         plan)
    items = [multiexp.chunk_ciphertexts(mask) for mask in prepared.masks]
    return aggregate_items(params, prepared.ball_id, items, plan,
                           counts=list(prepared.counts))


# Re-exported so framework code has one import site for the user-side test.
decide_ball = decide_positive

__all__ = [
    "BallCiphertextResult",
    "decide_ball",
    "verification_multiexp",
    "verification_plan",
    "verify_ball",
    "verify_ball_streaming",
    "verify_ciphertext",
    "verify_plaintext",
    "verify_projected_rows",
]
