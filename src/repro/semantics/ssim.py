"""Strong simulation on balls (Def. 4, App. A.1).

Strong simulation requires, for a ball ``B = G[v_s, d_Q]``, a binary
relation ``S`` over ``V_Q x V_B`` such that (1) every query vertex has a
match, (2) some query vertex matches the ball center, and (3) every pair is
label-consistent and child/parent-closed (the *dual simulation* conditions).

There is a unique maximal relation satisfying (3a-c): the greatest fixpoint
of the dual-simulation refinement operator, computed here by iterated
pruning.  Conditions (1)-(2) are then checked on that maximal relation --
if it fails them, no sub-relation can satisfy them either, because adding
pairs is impossible and every satisfying relation is contained in the
maximal one.
"""

from __future__ import annotations

from repro.graph.ball import Ball
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.query import Query


def maximal_dual_simulation(query: Query, graph: LabeledGraph,
                            ) -> dict[Vertex, set[Vertex]]:
    """The greatest relation satisfying Def. 4 condition (3).

    Returned as ``sim[u] = set of graph vertices simulating u``.  Empty sets
    mean condition (1) fails for that query vertex.

    Implementation: packed-bitset fixpoint.  Candidate sets and per-vertex
    successor/predecessor sets become int bitmaps over the graph's own
    vertex positions (``adjacency_masks``: no per-vertex set is asked for),
    so the inner survivor test (3b/3c) is one AND per query edge instead of
    a set intersection, and the convergence check is an int comparison.
    Output is identical to the set-based transcription of Def. 4 (3) that
    the tests keep as their oracle (``tests/oracle.py``).
    """
    bit, succ, pred = graph.adjacency_masks()
    sim_bits: dict[Vertex, int] = {
        u: sum(map(bit.__getitem__,
                   graph.vertices_with_label(query.label(u))))
        for u in query.vertex_order}
    changed = True
    while changed:
        changed = False
        for u in query.vertex_order:
            children = [sim_bits[c] for c in query.pattern.successors(u)]
            parents = [sim_bits[p] for p in query.pattern.predecessors(u)]
            survivors = 0
            remaining = sim_bits[u]
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                i = low.bit_length() - 1
                if all(succ[i] & c for c in children) \
                        and all(pred[i] & p for p in parents):
                    survivors |= low
            if survivors != sim_bits[u]:
                sim_bits[u] = survivors
                changed = True
    order = sorted(bit, key=repr)
    return {u: {v for v in order if bit[v] & bits}
            for u, bits in sim_bits.items()}


def strong_simulation(query: Query, ball: Ball,
                      ) -> dict[Vertex, set[Vertex]] | None:
    """The maximal strong-simulation relation of ``query`` in ``ball``.

    Returns None when the ball does not strongly simulate the query (some
    query vertex unmatched, or the center matched by no query vertex).
    """
    sim = maximal_dual_simulation(query, ball.graph)
    if any(not matches for matches in sim.values()):
        return None  # condition (1) fails
    if not any(ball.center in matches for matches in sim.values()):
        return None  # condition (2) fails
    return sim


def match_graph(query: Query, ball: Ball) -> LabeledGraph | None:
    """The matching subgraph under ssim: the induced subgraph of the ball
    over the image of the maximal relation (Ma et al.'s match graph)."""
    sim = strong_simulation(query, ball)
    if sim is None:
        return None
    image: set[Vertex] = set()
    for matches in sim.values():
        image |= matches
    return ball.graph.induced_subgraph(image)
