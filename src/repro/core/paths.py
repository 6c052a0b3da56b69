"""Path-based pruning -- the baseline of Xu et al. [57] (``Path_h``).

The comparison baseline in Sec. 6 checks, under the ciphertext domain, the
existence of query label *paths*: if a distinct-label undirected path starts
at query vertex ``u`` but no equally-labeled path starts at the ball center,
the center cannot match ``u``.  This is exactly the twiglet machinery with
the fork variants removed -- which is also why twiglets dominate it in
pruning power (Fig. 2(a)) at extra cost.

``Path_h`` covers paths with ``3..h`` labels (2 to ``h-1`` hops), mirroring
the i-twiglet convention so the two techniques are compared like-for-like.
"""

from __future__ import annotations

from itertools import permutations

from repro.core.table_pruning import PruneTable, build_table
from repro.core.twiglets import Twiglet, twiglets_from, _key
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.query import Query


def all_path_shapes(start_label: Label, alphabet: frozenset[Label],
                    h: int) -> list[Twiglet]:
    """Every possible label path (no forks) from ``start_label``."""
    if h < 3:
        raise ValueError("path parameter h must be at least 3")
    start = _key(start_label)
    others = sorted(_key(l) for l in alphabet if _key(l) != start)
    make = Twiglet._make
    return [make(((start,) + tail, None)) for i in range(3, h + 1)
            for tail in permutations(others, i - 1)]


def paths_from(graph: LabeledGraph, start: Vertex, h: int,
               alphabet: frozenset[Label] | None = None) -> set[Twiglet]:
    """The label paths present in ``graph`` from ``start`` (the
    fork-free members of :func:`twiglets_from`)."""
    return {t for t in twiglets_from(graph, start, h, alphabet)
            if t.fork is None}


def build_path_tables(cgbe, query: Query, h: int) -> list[PruneTable]:
    """One encrypted path table per query vertex (the [57] baseline)."""
    tables: list[PruneTable] = []
    for u in query.vertex_order:
        shapes = all_path_shapes(query.label(u), query.alphabet, h)
        present = paths_from(query.pattern, u, h, query.alphabet)
        tables.append(build_table(cgbe, query.label(u), shapes, present))
    return tables


def path_table_size(alphabet_size: int, h: int) -> int:
    """Closed-form table length for chunk planning."""
    import math

    m = alphabet_size - 1
    return sum(math.perm(m, i - 1) if i - 1 <= m else 0
               for i in range(3, h + 1))
