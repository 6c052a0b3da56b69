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


class _NeighborLabelCache:
    """Per-ball memo of the selection mask a vertex's successor /
    predecessor label sets induce on ``query``.

    A ball vertex is a candidate of every query row sharing its label, and
    :func:`_pair_mask` depends on ``v`` only, so a per-(row, v)
    recomputation would rebuild it ``|rows with that label|`` times.
    """

    def __init__(self, ball: Ball, query: Query) -> None:
        self._graph = ball.graph
        self._query = query
        self._masks: dict[Vertex, int] = {}

    def mask(self, v: Vertex) -> int:
        cached = self._masks.get(v)
        if cached is None:
            graph = self._graph
            cached = self._masks[v] = _pair_mask(
                self._query,
                frozenset(graph.label(w) for w in graph.successors(v)),
                frozenset(graph.label(w) for w in graph.predecessors(v)))
        return cached


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
    order -- position-aligned with :func:`_pair_mask` -- and is identical
    for every candidate pair of the row, across every ball of a share.
    """
    bases: list[CGBECiphertext] = []
    for j in range(query.size):
        bases.append(encrypted_matrix[row][j])
        bases.append(encrypted_matrix[j][row])
    return MaskedProductTable(params, bases, c_one, plan)


def _pair_mask(query: Query, succ_labels: frozenset,
               pred_labels: frozenset) -> int:
    """The selection mask of one candidate pair: bit ``2j`` selects the
    pad where ``v`` has a successor labeled ``L(u_j)`` (no 3b violation
    possible), bit ``2j + 1`` likewise for predecessors (3c)."""
    mask = 0
    for j, u_other in enumerate(query.vertex_order):
        label = query.label(u_other)
        if label in succ_labels:
            mask |= 1 << (2 * j)
        if label in pred_labels:
            mask |= 1 << (2 * j + 1)
    return mask


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
    without a registry builds its own); candidates with equal
    neighbor-label sets -- the common case on low-diversity balls --
    collapse into memo hits.  Value-identical to the :func:`_pair_product`
    fold.
    """
    if multiexp is None:
        multiexp = MultiExpRegistry()
    neighbor_cache = _NeighborLabelCache(ball, query)
    per_vertex: list[BallCiphertextResult] = []
    center_items: list[list[CGBECiphertext]] = []
    for row, u in enumerate(query.vertex_order):
        candidates = sorted(
            ball.graph.vertices_with_label(query.label(u)), key=repr)
        table = multiexp.table(
            ("ssim", row),
            lambda row=row: ssim_multiexp(params, encrypted_matrix, c_one,
                                          query, row, plan))
        items = [table.chunk_ciphertexts(neighbor_cache.mask(v))
                 for v in candidates]
        per_vertex.append(
            aggregate_items(params, ball.ball_id, items, plan))
        if query.label(u) == ball.center_label:
            center_items.append(table.chunk_ciphertexts(
                neighbor_cache.mask(ball.center)))
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
