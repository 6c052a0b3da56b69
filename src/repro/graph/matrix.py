"""Adjacency matrices and candidate mapping matrices (CMMs).

Prilo expresses all three LGPQ semantics through matrix operations
(Sec. 2.1).  A candidate mapping matrix ``C`` (Def. 2) is a 0/1 matrix with
exactly one 1 per row that maps each query vertex to one ball vertex with the
same label.  Because of that one-hot structure, the projected adjacency
matrix ``M_p = C . M_G . C^T`` of Alg. 2 reduces to index lookups:
``M_p[i, j] = M_G[assignment[i], assignment[j]]``.  We keep both views: the
compact assignment tuple used by the algorithms, and the explicit matrices
used by the tests to validate the algebra literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.labeled_graph import LabeledGraph, Vertex


def vertex_order(graph: LabeledGraph) -> tuple[Vertex, ...]:
    """A deterministic vertex ordering used to index matrix rows/columns."""
    return tuple(sorted(graph.vertices(), key=repr))


def adjacency_matrix(
    graph: LabeledGraph, order: Sequence[Vertex] | None = None
) -> np.ndarray:
    """Boolean adjacency matrix ``M_G`` over ``order`` (Sec. 2.1)."""
    if order is None:
        order = vertex_order(graph)
    index = {v: i for i, v in enumerate(order)}
    if len(index) != len(order):
        raise ValueError("vertex order contains duplicates")
    matrix = np.zeros((len(order), len(order)), dtype=np.uint8)
    for u, v in graph.edges():
        if u in index and v in index:
            matrix[index[u], index[v]] = 1
    return matrix


@dataclass(frozen=True)
class CandidateMappingMatrix:
    """A CMM (Def. 2) in compact form.

    ``query_order`` fixes the row order (query vertices), ``assignment``
    holds, per row, the ball vertex that row is mapped to.  The class offers
    the dense matrix view for validation and the projection shortcut used by
    the verification algorithm.
    """

    query_order: tuple[Vertex, ...]
    assignment: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        if len(self.query_order) != len(self.assignment):
            raise ValueError("one assignment per query vertex is required")

    def mapping(self) -> dict[Vertex, Vertex]:
        """The match function ``H`` as a dict (query vertex -> ball vertex)."""
        return dict(zip(self.query_order, self.assignment))

    def image(self) -> tuple[Vertex, ...]:
        return self.assignment

    def uses(self, ball_vertex: Vertex) -> bool:
        return ball_vertex in self.assignment

    def dense(self, ball_order: Sequence[Vertex]) -> np.ndarray:
        """The explicit ``|V_Q| x |V_B|`` 0/1 matrix of Def. 2."""
        column = {v: j for j, v in enumerate(ball_order)}
        matrix = np.zeros((len(self.query_order), len(ball_order)),
                          dtype=np.uint8)
        for i, target in enumerate(self.assignment):
            matrix[i, column[target]] = 1
        return matrix

    def project(self, ball: LabeledGraph) -> np.ndarray:
        """``M_p = C . M_B . C^T`` exploiting the one-hot rows of ``C``.

        ``M_p[i, j] = 1`` iff the ball has the edge between the images of
        query rows ``i`` and ``j``.
        """
        n = len(self.assignment)
        projected = np.zeros((n, n), dtype=np.uint8)
        for i, u in enumerate(self.assignment):
            for j, v in enumerate(self.assignment):
                if i != j and ball.has_edge(u, v):
                    projected[i, j] = 1
        return projected

    def project_dense(self, ball: LabeledGraph,
                      ball_order: Sequence[Vertex] | None = None) -> np.ndarray:
        """The literal matrix product of Alg. 2 line 2 (for validation)."""
        if ball_order is None:
            ball_order = vertex_order(ball)
        c = self.dense(ball_order).astype(np.int64)
        m_b = adjacency_matrix(ball, ball_order).astype(np.int64)
        product = c @ m_b @ c.T
        # Same-row self products can exceed 1 only if the ball had self
        # loops, which LabeledGraph forbids; clamp defensively anyway.
        return np.minimum(product, 1).astype(np.uint8)

    def __len__(self) -> int:
        return len(self.query_order)
