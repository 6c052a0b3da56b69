"""Subgraph homomorphism (Def. 1).

A match function ``H: V_Q -> V_G`` must preserve labels and map every query
edge onto a graph edge.  ``H`` need not be injective (Example 2 maps both u3
and u4 to v5).  The search is a standard backtracking join over per-vertex
candidate sets with neighborhood-label filtering, ordered smallest-candidate-
set-first; queries are small (|V_Q| <= ~10 in the paper) so this is fast.
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.query import Query


def _candidate_sets(query: Query, graph: LabeledGraph,
                    injective: bool = False) -> dict[Vertex, list[Vertex]] | None:
    """Label + degree + neighbor-label candidate filtering (the opt() of
    Alg. 1 line 3, after [18]).

    Returns None when some query vertex has no candidates at all.
    """
    candidates: dict[Vertex, list[Vertex]] = {}
    for u in query.vertex_order:
        out_labels = {query.label(w) for w in query.pattern.successors(u)}
        in_labels = {query.label(w) for w in query.pattern.predecessors(u)}
        out_deg = query.pattern.out_degree(u)
        in_deg = query.pattern.in_degree(u)
        survivors = []
        for v in sorted(graph.vertices_with_label(query.label(u)), key=repr):
            if injective and (graph.out_degree(v) < out_deg
                              or graph.in_degree(v) < in_deg):
                continue
            # A side is looked at only when the query constrains it.
            if (not out_labels or out_labels
                    <= {graph.label(w) for w in graph.successors(v)}) \
                    and (not in_labels or in_labels
                         <= {graph.label(w) for w in graph.predecessors(v)}):
                survivors.append(v)
        if not survivors:
            return None
        candidates[u] = survivors
    return candidates


def _search(query: Query, graph: LabeledGraph,
            candidates: dict[Vertex, list[Vertex]],
            injective: bool) -> Iterator[dict[Vertex, Vertex]]:
    """Backtracking over query vertices, smallest candidate set first."""
    order = sorted(query.vertex_order, key=lambda u: len(candidates[u]))
    assignment: dict[Vertex, Vertex] = {}
    used: set[Vertex] = set()

    def consistent(u: Vertex, v: Vertex) -> bool:
        for w in query.pattern.successors(u):
            if w in assignment and not graph.has_edge(v, assignment[w]):
                return False
        for w in query.pattern.predecessors(u):
            if w in assignment and not graph.has_edge(assignment[w], v):
                return False
        return True

    def extend(depth: int) -> Iterator[dict[Vertex, Vertex]]:
        if depth == len(order):
            yield dict(assignment)
            return
        u = order[depth]
        for v in candidates[u]:
            if injective and v in used:
                continue
            if not consistent(u, v):
                continue
            assignment[u] = v
            if injective:
                used.add(v)
            yield from extend(depth + 1)
            del assignment[u]
            if injective:
                used.discard(v)

    yield from extend(0)


def iter_homomorphisms(query: Query, graph: LabeledGraph,
                       require_vertex: Vertex | None = None,
                       ) -> Iterator[dict[Vertex, Vertex]]:
    """All subgraph homomorphisms of ``query`` in ``graph``.

    ``require_vertex`` restricts results to matches whose image contains
    that vertex -- Prop. 2's "candidate subgraphs that contain the ball's
    center" filter.
    """
    candidates = _candidate_sets(query, graph)
    if candidates is None:
        return
    for match in _search(query, graph, candidates, injective=False):
        if require_vertex is None or require_vertex in match.values():
            yield match


def find_homomorphisms(query: Query, graph: LabeledGraph,
                       require_vertex: Vertex | None = None,
                       limit: int | None = None,
                       ) -> list[dict[Vertex, Vertex]]:
    """Materialized :func:`iter_homomorphisms`, optionally truncated."""
    matches: list[dict[Vertex, Vertex]] = []
    for match in iter_homomorphisms(query, graph, require_vertex):
        matches.append(match)
        if limit is not None and len(matches) >= limit:
            break
    return matches


def has_homomorphism(query: Query, graph: LabeledGraph,
                     require_vertex: Vertex | None = None) -> bool:
    return bool(find_homomorphisms(query, graph, require_vertex, limit=1))
