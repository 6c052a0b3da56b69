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

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator

from repro.core.table_pruning import PruneTable, build_table
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.query import Query

#: The twiglet heights ``h`` Sec. 4.2 admits (3 <= h <= 5).
TWIGLET_HEIGHTS = range(3, 6)


@dataclass(frozen=True, order=True)
class Twiglet:
    """One twiglet shape: the label path (start label first) and the
    optional canonical (sorted) fork pair."""

    path: tuple[str, ...]
    fork: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("twiglet path needs at least two labels")
        labels = list(self.path) + list(self.fork or ())
        if len(set(labels)) != len(labels):
            raise ValueError("twiglet labels must be pairwise distinct")
        if self.fork is not None and tuple(sorted(self.fork)) != self.fork:
            raise ValueError("fork pair must be in canonical sorted order")

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
    shapes: list[Twiglet] = []
    for i in range(3, h + 1):
        # Plain paths with i labels: start + (i-1) ordered distinct labels.
        for tail in permutations(others, i - 1):
            shapes.append(Twiglet(path=(start,) + tail))
        # Forked twiglets with i+1 labels: path part of i-1 labels + pair.
        for tail in permutations(others, i - 2):
            used = set(tail)
            rest = [l for l in others if l not in used]
            for pair in combinations(rest, 2):
                shapes.append(Twiglet(path=(start,) + tail,
                                      fork=tuple(sorted(pair))))
    return shapes


# ----------------------------------------------------------------------
# membership: the twiglets actually present in a graph from a vertex
# ----------------------------------------------------------------------
def iter_twiglets_from(graph: LabeledGraph, start: Vertex, h: int,
                       alphabet: frozenset[Label] | None = None,
                       ) -> Iterator[Twiglet]:
    """DFS enumeration (Alg. 5 line 3) of the twiglets of ``graph`` that
    start at ``start``: undirected steps, pairwise-distinct labels, path
    lengths ``3..h`` labels plus their forked extensions.

    ``alphabet`` restricts traversal to labels in ``Sigma_Q`` (others can
    never appear in a table, so walking them is wasted work).
    """
    allowed = None if alphabet is None else {_key(l) for l in alphabet}
    start_key = _key(graph.label(start))
    if allowed is not None and start_key not in allowed:
        return

    def usable(v: Vertex, used: set[str]) -> str | None:
        key = _key(graph.label(v))
        if key in used:
            return None
        if allowed is not None and key not in allowed:
            return None
        return key

    def walk(v: Vertex, path: tuple[str, ...],
             used: set[str]) -> Iterator[Twiglet]:
        if 3 <= len(path) <= h:
            yield Twiglet(path=path)
        # Forks from the path end: i-twiglet has path part i-1 labels,
        # 3 <= i <= h  =>  path part length 2..h-1.
        if 2 <= len(path) <= h - 1:
            fork_labels = set()
            for child in graph.neighbors(v):
                key = usable(child, used)
                if key is not None:
                    fork_labels.add(key)
            for pair in combinations(sorted(fork_labels), 2):
                yield Twiglet(path=path, fork=pair)
        if len(path) >= h:
            return
        for child in graph.neighbors(v):
            key = usable(child, used)
            if key is None:
                continue
            used.add(key)
            yield from walk(child, path + (key,), used)
            used.discard(key)

    yield from walk(start, (start_key,), {start_key})


def twiglets_from(graph: LabeledGraph, start: Vertex, h: int,
                  alphabet: frozenset[Label] | None = None) -> set[Twiglet]:
    """The deduplicated twiglet set ``R`` of Alg. 5 line 3."""
    return set(iter_twiglets_from(graph, start, h, alphabet))


def filter_twiglets(features: "set[Twiglet] | frozenset[Twiglet]",
                    alphabet: frozenset[Label]) -> set[Twiglet]:
    """Restrict a full-alphabet twiglet set to ``Sigma_Q``.

    Equals ``twiglets_from(graph, start, h, alphabet)`` when ``features``
    is the unrestricted enumeration from the same start: a twiglet's
    witness walk only visits vertices whose labels appear in the twiglet,
    so restricting the DFS to ``Sigma_Q`` and filtering the full
    enumeration by label membership select the same shapes (asserted in
    ``tests/test_artifact_store.py``).  This is what lets the artifact
    store precompute per-ball features once, offline, for every future
    query alphabet.
    """
    allowed = {_key(l) for l in alphabet}
    return {t for t in features
            if set(t.path).union(t.fork or ()) <= allowed}


def twiglet_to_jsonable(twiglet: Twiglet) -> list:
    """Stable JSON form (used by the artifact store)."""
    return [list(twiglet.path),
            list(twiglet.fork) if twiglet.fork else None]


def twiglet_from_jsonable(data: list) -> Twiglet:
    path, fork = data
    return Twiglet(path=tuple(path), fork=tuple(fork) if fork else None)


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
