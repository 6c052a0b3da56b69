"""h-twiglets and twiglet pruning -- Sec. 4.2, Table 2, Alg. 5.

An *i-twiglet* starting from a vertex ``v1`` is a label topology
``[L(v1), ..., L(v_{i-1}), [L(v_i), L(v_{i+1})]]``: an undirected label path
followed by a two-way fork, all labels pairwise distinct.  Following
Table 2's worked example and the "we pruned balls using i-twiglets,
3 <= i <= h" protocol of Sec. 6.1, the feature family for parameter ``h``
contains, for every ``i`` in ``3..h``:

* plain label paths with ``i`` labels (the fork degenerates; these cover
  the path information of topologies i-vi of Fig. 6), and
* forked twiglets with ``i + 1`` labels (path part of ``i - 1`` labels plus
  an unordered fork pair).

For ``h = 3`` and ``Sigma_Q = {A, B, C, D}`` with start label B this yields
exactly the nine rows of Table 2.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple

from repro.core.table_pruning import PruneTable, build_table
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.query import Query

#: The twiglet heights ``h`` Sec. 4.2 admits (3 <= h <= 5).
TWIGLET_HEIGHTS = range(3, 6)


class _Shape(NamedTuple):
    path: tuple[str, ...]
    fork: tuple[str, str] | None = None


class Twiglet(_Shape):
    """One twiglet shape: the label path (start label first) and the
    optional canonical (sorted) fork pair.

    A tuple, so hashing, equality and ordering run in C.  ``Twiglet(...)``
    checks the shape; producers that are correct by construction build
    through ``Twiglet._make``, which skips the checks.
    """

    __slots__ = ()

    def __new__(cls, path: tuple[str, ...],
                fork: tuple[str, str] | None = None) -> "Twiglet":
        if len(path) < 2:
            raise ValueError("twiglet path needs at least two labels")
        labels = list(path) + list(fork or ())
        if len(set(labels)) != len(labels):
            raise ValueError("twiglet labels must be pairwise distinct")
        if fork is not None and tuple(sorted(fork)) != fork:
            raise ValueError("fork pair must be in canonical sorted order")
        return super().__new__(cls, path, fork)

    @property
    def num_labels(self) -> int:
        return len(self.path) + (2 if self.fork else 0)

    def render(self) -> str:
        """Table 2's bracket notation, e.g. ``[B, A, [C, D]]``."""
        parts = list(self.path)
        if self.fork:
            parts.append(f"[{self.fork[0]}, {self.fork[1]}]")
        return "[" + ", ".join(parts) + "]"


def _key(label: Label) -> str:
    """Twiglets store labels as reprs so shapes hash/order uniformly."""
    return repr(label)


def all_twiglet_shapes(start_label: Label, alphabet: frozenset[Label],
                       h: int) -> list[Twiglet]:
    """Every possible twiglet over ``alphabet`` from ``start_label``
    (the first column of the Table 2 tables), deterministic order.

    The count depends only on ``|Sigma_Q|`` and ``h`` -- identical for
    every start label -- which is what makes the per-vertex products
    homomorphically summable.
    """
    if h < 3:
        raise ValueError("twiglet parameter h must be at least 3 (Sec. 4.2)")
    start = _key(start_label)
    others = sorted(_key(l) for l in alphabet if _key(l) != start)
    make = Twiglet._make
    shapes: list[Twiglet] = []
    for i in range(3, h + 1):
        # Plain paths with i labels: start + (i-1) ordered distinct labels.
        for tail in permutations(others, i - 1):
            shapes.append(make(((start,) + tail, None)))
        # Forked twiglets with i+1 labels: path part of i-1 labels + pair.
        # ``others`` is sorted, so every pair already is.
        for tail in permutations(others, i - 2):
            used = set(tail)
            rest = [l for l in others if l not in used]
            for pair in combinations(rest, 2):
                shapes.append(make(((start,) + tail, pair)))
    return shapes


# ----------------------------------------------------------------------
# membership: the twiglets actually present in a graph from a vertex
# ----------------------------------------------------------------------
def twiglets_from(graph: LabeledGraph, start: Vertex, h: int,
                  alphabet: frozenset[Label] | None = None) -> set[Twiglet]:
    """The deduplicated twiglet set ``R`` of Alg. 5 line 3: the twiglets
    of ``graph`` that start at ``start`` -- undirected steps,
    pairwise-distinct labels, path lengths ``3..h`` labels plus their
    forked extensions.

    A DFS over label paths.  Each visited vertex's usable neighbour labels
    are collected once; they give the forks from the path end, and at a
    path of ``h - 1`` labels they give the final paths without visiting
    the neighbours.  ``alphabet`` restricts traversal to labels in
    ``Sigma_Q`` (others can never appear in a table, so walking them is
    wasted work).
    """
    allowed = None if alphabet is None else {_key(l) for l in alphabet}
    start_key = _key(graph.label(start))
    found: set[Twiglet] = set()
    if h < 3 or (allowed is not None and start_key not in allowed):
        return found
    add, make = found.add, Twiglet._make
    label, neighbors = graph.label, graph.neighbors
    last = h - 1
    # An explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep every call's set alive
    # until the cycle collector ran.
    stack = [(start, (start_key,))]
    while stack:
        v, path = stack.pop()
        steps = []
        for child in neighbors(v):
            key = repr(label(child))
            if key not in path and (allowed is None or key in allowed):
                steps.append((child, key))
        keys = sorted({key for _, key in steps})
        # Forks from the path end: an i-twiglet has a path part of i - 1
        # labels, 3 <= i <= h  =>  path part length 2..h-1.
        if len(path) >= 2:
            for pair in combinations(keys, 2):
                add(make((path, pair)))
        if len(path) == last:
            for key in keys:
                add(make((path + (key,), None)))
            continue
        for child, key in steps:
            longer = path + (key,)
            if len(longer) >= 3:
                add(make((longer, None)))
            stack.append((child, longer))
    return found


# ----------------------------------------------------------------------
# user side: encrypted twiglet tables (Table 2)
# ----------------------------------------------------------------------
def build_twiglet_tables(cgbe, query: Query, h: int) -> list[PruneTable]:
    """One encrypted table per query vertex.

    Each table's first column (the shapes) is public; the existence column
    is CGBE-encrypted: q = "this twiglet exists in Q from u" (a ball whose
    center lacks it cannot match u, Prop. 4), 1 = it does not.
    """
    tables: list[PruneTable] = []
    for u in query.vertex_order:
        shapes = all_twiglet_shapes(query.label(u), query.alphabet, h)
        present = twiglets_from(query.pattern, u, h, query.alphabet)
        tables.append(build_table(cgbe, query.label(u), shapes, present))
    return tables


def twiglet_table_size(alphabet_size: int, h: int) -> int:
    """Closed-form table length (paths + forks per Sec. 4.2's analysis);
    used for message-size accounting and chunk planning."""
    import math

    def perm(n: int, k: int) -> int:
        return math.perm(n, k) if 0 <= k <= n else 0

    def comb(n: int, k: int) -> int:
        return math.comb(n, k) if 0 <= k <= n else 0

    total = 0
    m = alphabet_size - 1
    for i in range(3, h + 1):
        total += perm(m, i - 1)                      # plain paths
        total += perm(m, i - 2) * comb(m - (i - 2), 2)  # forked twiglets
    return total
