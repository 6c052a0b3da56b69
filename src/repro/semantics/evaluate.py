"""Semantics dispatch: evaluate any LGPQ semantics on a ball.

``ball_contains_match`` is the ground-truth predicate behind the paper's
true/false positive bookkeeping (PPCR, Sec. 6.3): for hom and sub-iso a ball
"contains a match" when a match function exists whose image includes the
ball center (Props. 1-2 make center-containing matches sufficient for
completeness across all balls); for ssim it is Def. 4 verbatim.

Every semantics preserves labels -- hom and sub-iso by Def. 1, ssim by
Def. 4 (3a) -- so no vertex whose label is outside ``Sigma_Q`` is in any
match, and both functions return the same on a ball's ``Sigma_Q`` slice
(the vertices labeled in ``Sigma_Q``, plus the center, and the edges among
them; what the user decodes, :func:`repro.graph.io.ball_from_bytes`):

* hom's neighbour-label filter asks whether labels in ``Sigma_Q`` occur
  around a vertex, which the slice keeps;
* sub-iso's degree filter reads smaller degrees on the slice but stays
  sound, because an injective match maps a vertex's query neighbours onto
  distinct graph neighbours that carry query labels; it may prune more,
  which can change the order matches are found in, never the set;
* ssim's maximal dual simulation relates only ``Sigma_Q``-labeled
  vertices, and their children and parents in it are ``Sigma_Q``-labeled;
* the center is always kept, so Prop. 2's ``require_vertex`` and ssim
  condition (2) read the same thing.
"""

from __future__ import annotations

from repro.graph.ball import Ball
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.query import Query, Semantics
from repro.semantics.hom import find_homomorphisms
from repro.semantics.ssim import match_graph, strong_simulation
from repro.semantics.subiso import find_isomorphisms


def ball_contains_match(query: Query, ball: Ball) -> bool:
    """Does this ball contribute at least one LGPQ answer?"""
    if query.semantics is Semantics.HOM:
        return bool(find_homomorphisms(query, ball.graph,
                                       require_vertex=ball.center, limit=1))
    if query.semantics is Semantics.SUB_ISO:
        return bool(find_isomorphisms(query, ball.graph,
                                      require_vertex=ball.center, limit=1))
    if query.semantics is Semantics.SSIM:
        return strong_simulation(query, ball) is not None
    raise ValueError(f"unknown semantics {query.semantics!r}")


def find_matches(query: Query, ball: Ball,
                 limit: int | None = None) -> list[LabeledGraph]:
    """The matching subgraphs of ``ball`` for ``query`` (Alg. 3 line 15).

    For hom/sub-iso each match function's image induces one matching
    subgraph (Sec. 2.1); duplicates from distinct functions with equal
    images are collapsed.  For ssim the result is the single match graph.
    """
    if query.semantics is Semantics.SSIM:
        graph = match_graph(query, ball)
        return [graph] if graph is not None else []
    if query.semantics is Semantics.HOM:
        functions = find_homomorphisms(query, ball.graph,
                                       require_vertex=ball.center,
                                       limit=limit)
    elif query.semantics is Semantics.SUB_ISO:
        functions = find_isomorphisms(query, ball.graph,
                                      require_vertex=ball.center,
                                      limit=limit)
    else:
        raise ValueError(f"unknown semantics {query.semantics!r}")
    seen: set[frozenset[Vertex]] = set()
    matches: list[LabeledGraph] = []
    for function in functions:
        image = frozenset(function.values())
        if image not in seen:
            seen.add(image)
            matches.append(ball.graph.induced_subgraph(image))
            if limit is not None and len(matches) >= limit:
                break
    return matches
