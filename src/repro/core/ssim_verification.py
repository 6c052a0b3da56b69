"""Query-oblivious verification for strong simulation (ssim).

Footnote 3: ssim "has a straightforward candidate enumeration step" -- the
candidates are simply the label-compatible pairs ``(u, v)`` -- and its
verification detects violations of Def. 4's conditions rather than CMM edge
violations.  The SP performs *one dual-simulation refinement round* under
ciphertext:

For a pair ``(u, v)`` the product over every query row ``u'`` of

* ``M^E_Qe(u, u')`` when ``v`` has no successor labeled ``L(u')``
  (violates 3b if the query edge (u, u') exists), else ``c_one``; and
* ``M^E_Qe(u', u)`` when ``v`` has no predecessor labeled ``L(u')``
  (violates 3c), else ``c_one``

has a factor ``q`` iff the pair dies in the first refinement round.  Per
query vertex ``u`` the SP sums the products over all candidate ``v`` (the
sum is q-free iff some candidate survives -> condition (1) can still hold)
and one extra ciphertext sums the center's pairs (condition (2)).

Soundness: the dual-simulation fixpoint is contained in the round-one
relation, so a ball rejected here can never strongly simulate the query --
the pruning admits false positives but no false negatives, which the
property tests assert.  Obliviousness: the factor choice depends only on
the ball's labels; every encrypted position is touched in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from repro.core.aggregation import (
    BallCiphertextResult,
    ChunkPlan,
    aggregate_items,
    chunked_product,
    decide_positive,
)
from repro.crypto.cgbe import CGBE, CGBECiphertext, CGBEPublicParams
from repro.crypto.kernels import MaskedProductTable, MultiExpRegistry
from repro.graph.ball import Ball
from repro.graph.labeled_graph import Vertex
from repro.graph.query import Query


def ssim_plan(params: CGBEPublicParams, query: Query,
              expected_terms: int = 1 << 16) -> ChunkPlan:
    """Pair products have ``2 * |V_Q|`` factors (3b + 3c per query row)."""
    return ChunkPlan.plan(params, 2 * query.size,
                          expected_terms=expected_terms)


@dataclass
class SsimBallVerdict:
    """Ciphertext results for one ball: one per query vertex (condition 1)
    plus the center aggregate (condition 2)."""

    ball_id: int
    per_vertex: list[BallCiphertextResult]
    center: BallCiphertextResult


def _pair_product(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    query: Query,
    ball: Ball,
    row: int,
    v: Vertex,
    plan: ChunkPlan,
) -> list[CGBECiphertext]:
    """The paper-literal pair product for ``(query row, v)``, factor by
    factor -- the oracle :func:`ssim_verify_ball`'s products are tested
    against; nothing in ``src/`` calls it."""
    succ_labels = {ball.graph.label(w) for w in ball.graph.successors(v)}
    pred_labels = {ball.graph.label(w) for w in ball.graph.predecessors(v)}
    factors: list[CGBECiphertext] = []
    for j, u_other in enumerate(query.vertex_order):
        label = query.label(u_other)
        factors.append(c_one if label in succ_labels
                       else encrypted_matrix[row][j])
        factors.append(c_one if label in pred_labels
                       else encrypted_matrix[j][row])
    return chunked_product(params, factors, c_one, plan)


def ssim_multiexp(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    query: Query,
    row: int,
    plan: ChunkPlan,
) -> MaskedProductTable:
    """The shared Straus table for one query row's pair products.

    The base vector interleaves ``M[row][j], M[j][row]`` over the vertex
    order -- position-aligned with the masks of :func:`ssim_verify_ball`
    -- and is identical for every candidate pair of the row, across every
    ball of a share.
    """
    bases: list[CGBECiphertext] = []
    for j in range(query.size):
        bases.append(encrypted_matrix[row][j])
        bases.append(encrypted_matrix[j][row])
    return MaskedProductTable(params, bases, c_one, plan)


def _successor_bits(query: Query) -> dict:
    """``label -> bits``: bit ``2j`` for every query vertex ``u_j`` labeled
    so.  A candidate's selection mask is the OR of its successors' bits
    (bit ``2j`` selects the pad: no 3b violation possible) and its
    predecessors' bits shifted by one (bit ``2j + 1``, 3c)."""
    bits: dict = {}
    for j, u in enumerate(query.vertex_order):
        label = query.label(u)
        bits[label] = bits.get(label, 0) | 1 << (2 * j)
    return bits


def ssim_verify_ball(
    params: CGBEPublicParams,
    encrypted_matrix: list[list[CGBECiphertext]],
    c_one: CGBECiphertext,
    query: Query,
    ball: Ball,
    plan: ChunkPlan,
    multiexp: MultiExpRegistry | None = None,
) -> SsimBallVerdict:
    """The SP-side ssim verification for one candidate ball.

    Each query row's pair products come from a shared
    :class:`MaskedProductTable` (registry key ``("ssim", row)``; a call
    without a registry builds its own).  One pass over the ball computes
    every candidate's mask, and the candidates of each query label are
    grouped by mask: per row, one table call per distinct mask, weighted
    by its candidate count in the summable layout
    (:func:`aggregate_items`).  Candidates with equal neighbor-label sets
    are the common case on low-diversity balls.  Value-identical to the
    :func:`_pair_product` fold.
    """
    if multiexp is None:
        multiexp = MultiExpRegistry()
    graph = ball.graph
    label_bits = _successor_bits(query)
    # Sorted candidates per query label; their first-appearance order is
    # the order the chunked layout ships distinct products in.
    members = {label: sorted(graph.vertices_with_label(label), key=repr)
               for label in label_bits}
    bits_of = dict.fromkeys(graph.vertices(), 0)
    for label, vertices in members.items():
        bits_of.update(dict.fromkeys(vertices, label_bits[label]))
    bit = bits_of.__getitem__

    def mask_of(v: Vertex) -> int:
        return (reduce(or_, map(bit, graph.successors(v)), 0)
                | reduce(or_, map(bit, graph.predecessors(v)), 0) << 1)

    groups: dict = {}
    for label, vertices in members.items():
        counts = groups[label] = {}
        for v in vertices:
            mask = mask_of(v)
            counts[mask] = counts.get(mask, 0) + 1
    per_vertex: list[BallCiphertextResult] = []
    center_items: list[list[CGBECiphertext]] = []
    for row, u in enumerate(query.vertex_order):
        label = query.label(u)
        table = multiexp.table(
            ("ssim", row),
            lambda row=row: ssim_multiexp(params, encrypted_matrix, c_one,
                                          query, row, plan))
        counts = groups[label]
        items = [table.chunk_ciphertexts(mask) for mask in counts]
        per_vertex.append(aggregate_items(params, ball.ball_id, items, plan,
                                          counts=list(counts.values())))
        if label == ball.center_label:
            center_items.append(table.chunk_ciphertexts(mask_of(ball.center)))
    center = aggregate_items(params, ball.ball_id, center_items, plan)
    return SsimBallVerdict(ball_id=ball.ball_id, per_vertex=per_vertex,
                           center=center)


def decide_ssim_ball(cgbe: CGBE, verdict: SsimBallVerdict) -> bool:
    """User side: the ball survives iff every query vertex keeps at least
    one candidate (condition 1) and the center keeps a match (condition 2).
    """
    if not all(decide_positive(cgbe, result)
               for result in verdict.per_vertex):
        return False
    return decide_positive(cgbe, verdict.center)
