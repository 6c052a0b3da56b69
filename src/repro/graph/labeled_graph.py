"""Directed vertex-labeled graphs.

The paper (Sec. 2.1) models a graph as ``G = (V_G, E_G, Sigma_G, L_G)`` with
directed edges and a labeling function.  Distances and diameters are measured
on the *undirected* version of the graph, which is what makes balls connected
supersets of localized matches.

Vertices are arbitrary hashable identifiers (the datasets use ``int``).
Labels are arbitrary hashable values (the datasets use small ``int`` codes,
the worked examples use single-letter strings).

:class:`LabeledGraph` is the mutable graph the data owner works on,
:class:`BallGraphView` the read-only form of a decoded ball record.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Mapping

import numpy as np

Vertex = Hashable
Label = Hashable


class GraphReadAPI:
    """Every read of a labeled graph, written once against what a subclass
    holds: ``_labels`` (vertex -> label, in vertex order), ``_succ`` /
    ``_pred`` (vertex -> neighbor set; only ever subscripted, so they may
    fill on first lookup), ``_label_index``, ``_num_edges``, ``_epoch``."""

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter bumped by every *effective* mutation.

        Derived structures that memoize against the graph (ball indexes,
        artifact stores) capture the epoch at build time and can detect
        that the graph moved under them instead of silently serving
        stale state.  No-op calls (re-adding an existing vertex with the
        same label, re-adding an existing edge) do not bump it.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for u in self._labels:
            for v in self._succ[u]:
                yield (u, v)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def label(self, v: Vertex) -> Label:
        return self._labels[v]

    def labels(self) -> Mapping[Vertex, Label]:
        """Read-only view of the vertex -> label mapping."""
        return dict(self._labels)

    @property
    def alphabet(self) -> frozenset[Label]:
        """``Sigma_G``: the set of labels that occur in the graph."""
        # Via an exact dict, which frozenset sizes its table differently for.
        return frozenset(dict.fromkeys(self._label_index))

    def vertices_with_label(self, label: Label) -> frozenset[Vertex]:
        return frozenset(self._label_index.get(label, frozenset()))

    def sorted_vertices_with_label(self, label: Label) -> tuple[Vertex, ...]:
        """``vertices_with_label`` in ``repr`` order: the deterministic
        order of ``CV(u)`` (Alg. 1) and of Prop. 1's candidate centers.

        Memoised on the graph per ``mutation_epoch``, as
        :func:`repro.storage.store.graph_digest` is, so every query that
        reads a label of the same graph sorts its bucket once.
        """
        memo = getattr(self, "_sorted_label_memo", None)
        if memo is None or memo[0] != self._epoch:
            memo = self._sorted_label_memo = (self._epoch, {})
        bucket = memo[1].get(label)
        if bucket is None:
            bucket = memo[1][label] = tuple(
                sorted(self._label_index.get(label, ()), key=repr))
        return bucket

    def label_frequency(self, label: Label) -> int:
        return len(self._label_index.get(label, ()))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._labels and v in self._succ[u]

    def successors(self, v: Vertex) -> frozenset[Vertex]:
        return frozenset(self._succ[v])

    def iter_successors(self, v: Vertex) -> Iterator[Vertex]:
        """The successors of ``v`` without a copy (a one-pass read)."""
        return iter(self._succ[v])

    def predecessors(self, v: Vertex) -> frozenset[Vertex]:
        return frozenset(self._pred[v])

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """Undirected neighborhood: successors union predecessors."""
        return frozenset(self._succ[v] | self._pred[v])

    def out_degree(self, v: Vertex) -> int:
        return len(self._succ[v])

    def in_degree(self, v: Vertex) -> int:
        return len(self._pred[v])

    def degree(self, v: Vertex) -> int:
        """Undirected degree (distinct neighbors)."""
        return len(self._succ[v] | self._pred[v])

    def max_degree(self) -> int:
        """``d_max``: largest undirected degree, 0 for the empty graph."""
        return max((self.degree(v) for v in self._labels), default=0)

    def adjacency_masks(self) -> tuple[dict[Vertex, int], list[int],
                                       list[int]]:
        """The whole graph as packed bitsets: each vertex's bit (``1 <<``
        its position in ``vertices()``) and, per position, the OR of its
        successors' bits and of its predecessors' bits."""
        bit = {v: 1 << i for i, v in enumerate(self._labels)}
        of = bit.__getitem__  # members are distinct, so the sum is the OR
        return (bit, [sum(map(of, self._succ[v])) for v in bit],
                [sum(map(of, self._pred[v])) for v in bit])

    # ------------------------------------------------------------------
    # traversal and metric structure
    # ------------------------------------------------------------------
    def undirected_distances(
        self, source: Vertex, cutoff: int | None = None
    ) -> dict[Vertex, int]:
        """BFS distances from ``source`` in the undirected graph.

        ``cutoff`` bounds the radius (used for ball extraction); vertices
        farther than ``cutoff`` are omitted.
        """
        if source not in self._labels:
            raise KeyError(f"unknown vertex {source!r}")
        distances = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            d = distances[u]
            if cutoff is not None and d >= cutoff:
                continue
            for w in self._succ[u]:
                if w not in distances:
                    distances[w] = d + 1
                    frontier.append(w)
            for w in self._pred[u]:
                if w not in distances:
                    distances[w] = d + 1
                    frontier.append(w)
        return distances

    def eccentricity(self, v: Vertex) -> int:
        """Largest undirected distance from ``v`` to any reachable vertex."""
        return max(self.undirected_distances(v).values(), default=0)

    def diameter(self) -> int:
        """Undirected diameter ``d_G`` (Sec. 2.1).

        Raises :class:`ValueError` when the undirected graph is disconnected,
        because the paper's distance (and hence the diameter) is undefined
        across components.  Intended for small graphs (queries, balls).
        """
        if not self._labels:
            return 0
        worst = 0
        for v in self._labels:
            distances = self.undirected_distances(v)
            if len(distances) != len(self._labels):
                raise ValueError("diameter undefined: graph is disconnected")
            worst = max(worst, max(distances.values()))
        return worst

    def is_connected(self) -> bool:
        """Whether the undirected version of the graph is connected."""
        if not self._labels:
            return True
        start = next(iter(self._labels))
        return len(self.undirected_distances(start)) == len(self._labels)

    # ------------------------------------------------------------------
    # subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "LabeledGraph":
        """Induced subgraph over ``vertices`` keeping original identifiers."""
        keep = set(vertices)
        missing = keep - self._labels.keys()
        if missing:
            raise KeyError(f"unknown vertices {sorted(map(repr, missing))}")
        labels, succ = self._labels, self._succ
        return LabeledGraph.from_edges(
            ((v, labels[v]) for v in keep),
            ((u, v) for u in keep for v in succ[u] if v in keep))

    def copy(self) -> "LabeledGraph":
        return self.induced_subgraph(self._labels)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphReadAPI):
            return NotImplemented
        return self._labels == other._labels and all(
            self._succ[v] == other._succ[v] for v in self._labels)

    def __hash__(self) -> int:
        """Digest-backed hash consistent with ``__eq__``.

        Defining ``__eq__`` alone sets ``__hash__ = None``, making graphs
        unusable as set members or dict keys.  The hash digests the same
        canonical ``repr``-sorted (labels, edges) view ``__eq__`` compares,
        so equal graphs always hash equal.  Like any mutable container
        used as a key, a graph must not be mutated while it lives in a
        hash-based collection.
        """
        h = hashlib.sha256()
        for v, label in sorted(self._labels.items(),
                               key=lambda kv: repr(kv[0])):
            h.update(f"{v!r}={label!r};".encode("utf-8"))
        for u, v in sorted(self.edges(),
                           key=lambda e: (repr(e[0]), repr(e[1]))):
            h.update(f"{u!r}>{v!r};".encode("utf-8"))
        return int.from_bytes(h.digest()[:8], "big")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(|V|={self.num_vertices}, "
                f"|E|={self.num_edges}, |Sigma|={len(self._label_index)})")


class LabeledGraph(GraphReadAPI):
    """A directed graph with a label on every vertex.

    The structure keeps successor and predecessor sets per vertex plus a
    label index (label -> set of vertices), so the common Prilo operations
    (Prop. 1 label filtering, ``CV(u)`` construction in Alg. 1, neighbor
    walks in Alg. 4/5) are O(1) lookups.
    """

    def __init__(self) -> None:
        self._succ: dict[Vertex, set[Vertex]] = {}
        self._pred: dict[Vertex, set[Vertex]] = {}
        self._labels: dict[Vertex, Label] = {}
        self._label_index: dict[Label, set[Vertex]] = {}
        self._num_edges = 0
        self._epoch = 0

    def add_vertex(self, v: Vertex, label: Label) -> None:
        """Add vertex ``v`` with ``label``; relabeling an existing vertex is
        an error (remove and re-add to relabel)."""
        if v in self._labels:
            if self._labels[v] != label:
                raise ValueError(f"vertex {v!r} already exists with label "
                                 f"{self._labels[v]!r}, cannot relabel to {label!r}")
            return
        self._labels[v] = label
        self._succ[v] = set()
        self._pred[v] = set()
        self._label_index.setdefault(label, set()).add(v)
        self._epoch += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the directed edge ``(u, v)``.  Both endpoints must exist.

        Parallel edges collapse (the adjacency matrix is boolean); self loops
        are rejected because neither balls nor the paper's semantics use them.
        """
        if u == v:
            raise ValueError(f"self loop on {u!r} is not supported")
        if u not in self._labels:
            raise KeyError(f"unknown vertex {u!r}")
        if v not in self._labels:
            raise KeyError(f"unknown vertex {v!r}")
        if v not in self._succ[u]:
            self._succ[u].add(v)
            self._pred[v].add(u)
            self._num_edges += 1
            self._epoch += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the directed edge ``(u, v)``.

        Removing an edge that does not exist is an error, so a delta that
        was already applied (or was built against another graph) fails
        loudly instead of silently diverging.
        """
        if u not in self._labels:
            raise KeyError(f"unknown vertex {u!r}")
        if v not in self._labels:
            raise KeyError(f"unknown vertex {v!r}")
        if v not in self._succ[u]:
            raise KeyError(f"no edge {u!r} -> {v!r}")
        self._succ[u].remove(v)
        self._pred[v].remove(u)
        self._num_edges -= 1
        self._epoch += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and every incident edge (both directions).

        The label index entry is dropped (and its bucket deleted when it
        empties, so ``alphabet`` shrinks exactly when the last carrier of
        a label disappears) and ``num_edges`` accounts for every removed
        incident edge.
        """
        if v not in self._labels:
            raise KeyError(f"unknown vertex {v!r}")
        for w in self._succ.pop(v):
            self._pred[w].remove(v)
            self._num_edges -= 1
        for w in self._pred.pop(v):
            self._succ[w].remove(v)
            self._num_edges -= 1
        label = self._labels.pop(v)
        bucket = self._label_index[label]
        bucket.remove(v)
        if not bucket:
            del self._label_index[label]
        self._epoch += 1

    @classmethod
    def from_edges(
        cls,
        labels: Mapping[Vertex, Label] | Iterable[tuple[Vertex, Label]],
        edges: Iterable[tuple[Vertex, Vertex]],
    ) -> "LabeledGraph":
        """Build a graph from vertex labels (a mapping or pairs) and edges.

        The one bulk path (extraction, ``copy``, text formats): same checks
        in the same order as ``add_vertex`` then ``add_edge`` per element,
        same resulting state including ``mutation_epoch``.
        """
        graph = cls()
        vertex_labels, index = graph._labels, graph._label_index
        succ, pred = graph._succ, graph._pred
        for v, label in (labels.items() if isinstance(labels, Mapping)
                         else labels):
            if v in vertex_labels:
                if vertex_labels[v] != label:
                    raise ValueError(
                        f"vertex {v!r} already exists with label "
                        f"{vertex_labels[v]!r}, cannot relabel to {label!r}")
                continue
            vertex_labels[v] = label
            succ[v] = set()
            pred[v] = set()
            index.setdefault(label, set()).add(v)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop on {u!r} is not supported")
            try:
                out, into = succ[u], pred[v]
            except KeyError:
                raise KeyError(
                    f"unknown vertex {(v if u in succ else u)!r}") from None
            out.add(v)  # sets collapse parallel edges
            into.add(u)
        graph._num_edges = sum(map(len, succ.values()))
        graph._epoch = len(vertex_labels) + graph._num_edges
        return graph


class _LazyRows(dict):
    """Key -> set of the ``ids`` at one CSR row's positions, for every key
    of ``index`` (which numbers the rows).  A set is built on first lookup,
    from its row in record order -- the order ``from_edges`` would have
    ``add``-ed it in, so it iterates the same."""

    __slots__ = ("_index", "_ids", "_offsets", "_positions")

    def __init__(self, index, ids, keys, values) -> None:
        self._index, self._ids = index, ids
        counts = np.bincount(keys, minlength=len(index))
        self._offsets = [0, *np.cumsum(counts).tolist()]
        self._positions = values[np.argsort(keys, kind="stable")].tolist()

    def __missing__(self, key: Hashable) -> set[Vertex]:
        i = self._index[key]
        # Members are the objects keying ``_labels``: probes hit by identity.
        row = self[key] = set(map(
            self._ids.__getitem__,
            self._positions[self._offsets[i]:self._offsets[i + 1]]))
        return row

    def get(self, key: Hashable, default=None):
        return self[key] if key in self._index else default

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def masks(self, bits: list[int]) -> list[int]:
        """Per row, the sum (= OR) of ``bits`` at the row's positions."""
        positions, offsets = self._positions, self._offsets
        return [sum(map(bits.__getitem__, positions[lo:hi]))
                for lo, hi in zip(offsets, offsets[1:])]


def check_ball_arrays(ids, label_table, codes, sources,
                      targets) -> tuple[list, dict]:
    """Raise what ``from_edges`` would raise on a ball record's arrays
    (DESIGN.md 9.1), vectorised: lengths that disagree, a label code past
    the table, a duplicate vertex id, an edge endpoint past the vertex
    table, a self loop, a duplicate edge.  Returns the ids as a list and
    the id -> position dictionary."""
    id_list = ids.tolist() if isinstance(ids, np.ndarray) else ids
    n = len(id_list)
    if len(codes) != n or len(sources) != len(targets):
        raise ValueError("array lengths disagree")
    if n and codes.max() >= len(label_table):
        raise IndexError("label code index out of range")
    index = dict(zip(id_list, range(n)))
    if len(index) != n:
        raise ValueError("duplicate vertex id")
    if len(sources):
        if max(sources.max(), targets.max()) >= n:
            raise IndexError("edge endpoint past the vertex table")
        if (sources == targets).any():
            raise ValueError("self loop")
        pairs = sources.astype(np.int64) * n + targets
        if not (pairs[1:] > pairs[:-1]).all():  # canonical records are
            pairs.sort()                        # sorted: skip the sort
            if (pairs[1:] == pairs[:-1]).any():
                raise ValueError("duplicate edge")
    return id_list, index


class BallGraphView(GraphReadAPI):
    """The read-only graph of a decoded ball: the record's arrays (DESIGN.md
    9.1) -- vertex ``ids`` (an int64 array or a list), the ``label_table``,
    one label code per vertex, the edges' source / target positions -- plus
    the id dictionaries and three CSRs (successors, predecessors, label
    members; one stable counting sort each) built here.

    All ``from_edges`` would reject is rejected here
    (:func:`check_ball_arrays`), so no later read can raise on the data; a
    neighbor set or a label's member set is materialised when first asked
    for.  Pickles as the arrays.
    """

    def __init__(self, ids, label_table, codes, sources, targets) -> None:
        self._arrays = (ids, label_table, codes, sources, targets)
        id_list, index = check_ball_arrays(*self._arrays)
        n = len(id_list)
        vertex_labels = list(map(label_table.__getitem__, codes.tolist()))
        self._labels = dict(zip(id_list, vertex_labels))
        # Labels numbered by first appearance, as ``from_edges`` meets them:
        # a canonical table already is (its objects *are* the keys); one
        # with unused, equal or reordered entries is renumbered.
        code_of = {label: code for code, label
                   in enumerate(dict.fromkeys(vertex_labels))}
        if list(code_of) != list(label_table):
            codes = np.array([code_of[label] for label in vertex_labels],
                             np.intp)
        self._label_index = _LazyRows(code_of, id_list, codes, np.arange(n))
        self._succ = _LazyRows(index, id_list, sources, targets)
        self._pred = _LazyRows(index, id_list, targets, sources)
        self._num_edges = len(sources)
        self._epoch = n + self._num_edges  # what from_edges leaves; constant

    def adjacency_masks(self):  # off the CSR rows: no set is built
        bits = [1 << i for i in range(len(self._labels))]
        return (dict(zip(self._labels, bits)), self._succ.masks(bits),
                self._pred.masks(bits))

    def _frozen(self, *args) -> None:
        raise TypeError("a decoded ball's graph is read-only; copy() it")

    add_vertex = add_edge = remove_edge = remove_vertex = _frozen

    def __reduce__(self):
        return type(self), self._arrays
