"""h-label binary trees (Def. 3) and their enumeration (Alg. 4).

The BF pruning of Sec. 4.1 projects height-2 undirected binary subtrees onto
their label structure.  Of the ten topologies of Fig. 6, only the four
"complex" ones (vii-x, the red dotted rectangle) are used -- the simpler
ones carry only neighbor-label / path / twiglet information that the other
pruning techniques already cover:

* vii  -- root, two children, one grandchild under one child;
* viii -- root, two children, two grandchildren under one child;
* ix   -- root, two children, two grandchildren under one child and one
          under the other;
* x    -- root, two children, two grandchildren under each.

Def. 3(iii) requires all vertices of the projected subtree to carry
*pairwise distinct* labels; this is what makes the Table 1 counting formulas
(permutations/combinations over ``kappa - 1`` non-root labels) exact upper
bounds.

Canonical encoding (Sec. 4.1.2 / Fig. 7): each position in a topology has a
fixed index; the encoding is ``sum(code(label) * base^position)``.  For
same-parent nodes with isomorphic unlabeled subtrees the larger code goes
first (the paper's footnote 4), which makes isomorphic trees encode
identically.  The Fig. 7 worked example (topology vii over labels A/C/D,
encoding 77) is reproduced by ``LabelCodec.encode_positions`` with
``paper_base=True``; production encodings add a topology tag so distinct
topologies can never collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Iterable, Iterator

from repro.core.encoding import LabelCodec
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex


@dataclass(frozen=True)
class Topology:
    """One of the Fig. 6 height-2 topologies used by BF pruning."""

    name: str
    tag: int
    left_grandchildren: int
    right_grandchildren: int

    @property
    def num_labels(self) -> int:
        """Non-root labeled positions: 2 children + grandchildren."""
        return 2 + self.left_grandchildren + self.right_grandchildren

    @property
    def symmetric(self) -> bool:
        """Children subtrees isomorphic (topology x): order is canonical."""
        return self.left_grandchildren == self.right_grandchildren


TOPOLOGY_VII = Topology("vii", 7, 1, 0)
TOPOLOGY_VIII = Topology("viii", 8, 2, 0)
TOPOLOGY_IX = Topology("ix", 9, 2, 1)
TOPOLOGY_X = Topology("x", 10, 2, 2)

BF_TOPOLOGIES: tuple[Topology, ...] = (
    TOPOLOGY_VII, TOPOLOGY_VIII, TOPOLOGY_IX, TOPOLOGY_X)


def _permutations(n: int, k: int) -> int:
    if n < k or n < 0:
        return 0
    return math.perm(n, k)


def _combinations(n: int, k: int) -> int:
    if n < k or n < 0:
        return 0
    return math.comb(n, k)


def max_tree_count(topology: Topology, kappa: int) -> int:
    """Table 1: the maximum number of distinct 2-label binary trees of a
    topology in a ball, ``kappa = min(|Sigma_Q|, d_max)``."""
    k = kappa
    if topology.name == "vii":
        return _permutations(k - 1, 3)
    if topology.name == "viii":
        return _permutations(k - 1, 2) * _combinations(k - 3, 2)
    if topology.name == "ix":
        return _permutations(k - 1, 3) * _combinations(k - 4, 2)
    if topology.name == "x":
        return (_combinations(k - 1, 2) * _combinations(k - 3, 2)
                * _combinations(k - 5, 2))
    raise ValueError(f"no Table 1 row for topology {topology.name!r}")


@dataclass(frozen=True)
class LabeledTree:
    """A concrete 2-label binary tree: children labels plus grandchild
    labels per child, in canonical order."""

    topology: Topology
    left: Label
    right: Label
    left_grand: tuple[Label, ...]
    right_grand: tuple[Label, ...]

    def position_labels(self) -> tuple[Label, ...]:
        """Labels in position order: left, right, left grandchildren,
        right grandchildren (grandchild groups pre-sorted canonically)."""
        return (self.left, self.right) + self.left_grand + self.right_grand

    def encode(self, codec: LabelCodec) -> int:
        return codec.encode_sequence(self.position_labels(),
                                     tag=self.topology.tag)


def canonical_tree(topology: Topology, codec: LabelCodec,
                   left: Label, right: Label,
                   left_grand: Iterable[Label],
                   right_grand: Iterable[Label]) -> LabeledTree:
    """Normalize per footnote 4: grandchild groups sorted by descending
    code; for the symmetric topology x the larger-coded child goes left."""
    lg = tuple(sorted(left_grand, key=codec.code, reverse=True))
    rg = tuple(sorted(right_grand, key=codec.code, reverse=True))
    if topology.symmetric and codec.code(left) < codec.code(right):
        left, right = right, left
        lg, rg = rg, lg
    return LabeledTree(topology=topology, left=left, right=right,
                       left_grand=lg, right_grand=rg)


# ----------------------------------------------------------------------
# Enumeration (Alg. 4 generalized to all four topologies).
# ----------------------------------------------------------------------
def _grandchild_labels(graph: LabeledGraph, child: Vertex,
                       forbidden: set[Label],
                       codec: LabelCodec) -> list[Label]:
    """Distinct usable labels among a child's undirected neighbors."""
    labels = {graph.label(n) for n in graph.neighbors(child)}
    return sorted((l for l in labels if l not in forbidden and l in codec),
                  key=codec.code)


def iter_center_trees(
    graph: LabeledGraph,
    root: Vertex,
    codec: LabelCodec,
    topologies: tuple[Topology, ...] = BF_TOPOLOGIES,
) -> Iterator[LabeledTree]:
    """All 2-label binary trees of ``graph`` rooted at ``root`` whose
    non-root labels lie in the codec's alphabet (labels outside
    ``Sigma_Q`` can never appear in a query tree, so enumerating them
    would only inflate the bloom filter).

    Yields canonical trees, possibly with repeats when distinct subtrees
    project to the same label tree; callers dedupe via encodings.
    """
    root_label = graph.label(root)
    children = sorted(
        (v for v in graph.neighbors(root)
         if graph.label(v) != root_label and graph.label(v) in codec),
        key=repr)
    by_label_pairs = [(u, v) for u in children for v in children
                      if u != v and graph.label(u) != graph.label(v)]
    for topology in topologies:
        for u, v in by_label_pairs:
            lu, lv = graph.label(u), graph.label(v)
            base_forbidden = {root_label, lu, lv}
            left_options = _grandchild_labels(graph, u, base_forbidden, codec)
            if len(left_options) < topology.left_grandchildren:
                continue
            for lg in _label_subsets(left_options,
                                     topology.left_grandchildren):
                forbidden = base_forbidden | set(lg)
                right_options = _grandchild_labels(graph, v, forbidden, codec)
                if len(right_options) < topology.right_grandchildren:
                    continue
                for rg in _label_subsets(right_options,
                                         topology.right_grandchildren):
                    yield canonical_tree(topology, codec, lu, lv, lg, rg)


def _label_subsets(options: list[Label], k: int) -> Iterator[tuple[Label, ...]]:
    if k == 0:
        yield ()
        return
    yield from combinations(options, k)


def enumerate_center_tree_encodings(
    graph: LabeledGraph,
    root: Vertex,
    codec: LabelCodec,
    topologies: tuple[Topology, ...] = BF_TOPOLOGIES,
    max_trees: int | None = None,
) -> tuple[set[int], bool]:
    """Deduplicated canonical encodings of all trees rooted at ``root``:
    ``{t.encode(codec) for t in iter_center_trees(...)}``, computed on
    label codes alone.

    An encoding is a function of label codes only -- never of which
    vertex carried a label -- so the usable children of ``root`` collapse
    to their distinct *signatures* ``(label code, codes of the neighbor
    labels)``, and trees are enumerated once per ordered signature pair
    instead of once per vertex pair.  Grandchild groups are drawn with
    ``combinations`` from descending code lists, and the symmetric
    topology x only from pairs whose left code is the larger one, so
    every tree comes out in footnote-4 canonical order and folds straight
    into ``tag * base^6 + sum(code * base^position)``.

    Returns ``(encodings, truncated)``.  ``truncated`` is set iff the
    root has at least ``max_trees`` distinct encodings; ``encodings`` is
    then some ``max_trees`` of them (the framework treats the ball as
    unprunable-by-BF and keeps only the count).
    """
    code_of = codec.get
    label_of = graph.label
    neighbors = graph.neighbors
    root_label = label_of(root)
    root_code = code_of(root_label)
    signatures: set[tuple[int, frozenset[int]]] = set()
    for child in neighbors(root):
        label = label_of(child)
        code = code_of(label)
        if code is None or label == root_label:
            continue
        around = set(map(code_of, map(label_of, neighbors(child))))
        around -= {None, root_code, code}
        signatures.add((code, frozenset(around)))
    children = [(code, sorted(around, reverse=True))
                for code, around in signatures]
    base = codec.base
    shapes = [(t.tag * base ** 6, t.left_grandchildren,
               t.right_grandchildren,
               [base ** (2 + i) for i in range(t.left_grandchildren)],
               [base ** (2 + t.left_grandchildren + i)
                for i in range(t.right_grandchildren)])
              for t in topologies]
    # The cut is only ever tested after an add, so max_trees < 1 acts as 1.
    limit = None if max_trees is None else max(max_trees, 1)
    encodings: set[int] = set()
    for left, left_desc in children:
        for right, right_desc in children:
            if left == right:
                continue
            left_options = [c for c in left_desc if c != right]
            right_options = [c for c in right_desc if c != left]
            pair = left + right * base
            for tagged, n_left, n_right, left_powers, right_powers in shapes:
                if n_left == n_right and left < right:
                    continue  # topology x: the larger child code goes left
                for left_grand in combinations(left_options, n_left):
                    partial = tagged + pair + sum(map(mul, left_grand,
                                                      left_powers))
                    if n_right:
                        remaining = [c for c in right_options
                                     if c not in left_grand]
                        encodings.update(
                            partial + sum(map(mul, right_grand, right_powers))
                            for right_grand in combinations(remaining,
                                                            n_right))
                    else:
                        encodings.add(partial)
                    if limit is not None and len(encodings) >= limit:
                        while len(encodings) > limit:
                            encodings.pop()
                        return encodings, True
    return encodings, False


def bf_threshold_exceeded(graph: LabeledGraph, center: Vertex,
                          threshold: int) -> bool:
    """Sec. 6.1's BF_t bypass test: more than ``threshold`` neighbors of the
    center have at least 3 distinct usable neighbor labels (the ``L`` sets
    of Alg. 4 lines 1-2), which signals an expensive topology-x enumeration.

    The Player reads it as ``ball.heavy_neighbors > threshold``
    (:attr:`repro.graph.ball.Ball.heavy_neighbors`, counted once per
    ball); this early-exit scan is the oracle the tests compare against.
    """
    if threshold < 0:
        return True  # bypass everything (degenerate configuration)
    label_of = graph.label
    center_label = label_of(center)
    heavy = 0
    for u in graph.neighbors(center):
        own = label_of(u)
        if own == center_label:
            continue
        labels = set(map(label_of, graph.neighbors(u)))
        labels.discard(own)
        labels.discard(center_label)
        if len(labels) >= 3:
            heavy += 1
            if heavy > threshold:
                return True
    return False
