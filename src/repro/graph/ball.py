"""Balls ``G[u, r]`` and the data owner's precomputed ball index.

A ball (Sec. 2.1, following Ma et al.) is the subgraph of ``G`` induced by
all vertices within undirected distance ``r`` of the center ``u``.  Balls are
the privacy-preserving processing unit of Prilo: each one is encrypted and
shipped to the service provider, and every localized match is fully contained
in at least one ball whose center it touches (Props. 1-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.graph.labeled_graph import Label, LabeledGraph, Vertex


class StaleIndexError(RuntimeError):
    """The graph mutated after this index memoized its balls.

    :class:`BallIndex` captures ``graph.mutation_epoch`` at construction;
    every accessor that can serve a (possibly memoized) ball re-checks it.
    A moved epoch means the cached balls and deterministic ids no longer
    describe the graph -- callers must rebuild the index (or, for stores,
    run ``apply_delta``) rather than silently serve stale state.
    """


@dataclass(frozen=True)
class Ball:
    """A ball ``G[center, radius]``.

    ``graph`` is the induced subgraph (original vertex identifiers are kept),
    ``center`` its center and ``radius`` the extraction radius.  The ball id
    (``BId`` in Sec. 4.3) is assigned by :class:`BallIndex`.
    """

    graph: LabeledGraph
    center: Vertex
    radius: int
    ball_id: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.center not in self.graph:
            raise ValueError(f"center {self.center!r} not in ball subgraph")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    @property
    def size(self) -> int:
        """The paper's ball size metric ``|V_B|`` (Sec. 6.1)."""
        return self.graph.num_vertices

    @property
    def center_label(self) -> Label:
        return self.graph.label(self.center)

    def __repr__(self) -> str:
        return (f"Ball(id={self.ball_id}, center={self.center!r}, "
                f"r={self.radius}, |V|={self.size}, "
                f"|E|={self.graph.num_edges})")


def extract_ball(graph: LabeledGraph, center: Vertex, radius: int,
                 ball_id: int = -1) -> Ball:
    """Extract ``G[center, radius]`` by a bounded undirected BFS."""
    members = graph.undirected_distances(center, cutoff=radius)
    return Ball(graph=graph.induced_subgraph(members),
                center=center, radius=radius, ball_id=ball_id)


class BallIndex:
    """All balls of a graph for a set of radii, as the data owner builds them.

    The data owner "generates all balls of graph G with various diameters
    offline" (Sec. 2.3).  The index supports Prop. 1's filter: given a label
    ``l`` and radius ``d_Q``, iterate only the balls whose center carries
    ``l``.  Extraction is lazy with memoization so tests and benchmarks do
    not pay for balls they never touch; ``materialize()`` forces the offline
    behaviour.
    """

    def __init__(self, graph: LabeledGraph, radii: tuple[int, ...],
                 ids: dict[tuple[Vertex, int], int] | None = None) -> None:
        if not radii:
            raise ValueError("at least one radius is required")
        if any(r < 0 for r in radii):
            raise ValueError("radii must be non-negative")
        self._graph = graph
        self._radii = tuple(sorted(set(radii)))
        self._epoch = graph.mutation_epoch
        self._cache: dict[tuple[Vertex, int], Ball] = {}
        if ids is None:
            # Deterministic ball ids: (vertex order) x (radius order).
            self._ids: dict[tuple[Vertex, int], int] = {}
            next_id = 0
            for v in graph.vertices():
                for r in self._radii:
                    self._ids[(v, r)] = next_id
                    next_id += 1
        else:
            # Explicit ids survive deltas: an incrementally maintained
            # store keeps surviving balls' ids stable instead of the
            # positional renumbering a rebuild would impose.
            expected = graph.num_vertices * len(self._radii)
            if len(ids) != expected:
                raise ValueError(f"id map has {len(ids)} entries, expected "
                                 f"{expected} (|V| x |radii|)")
            if len(set(ids.values())) != len(ids):
                raise ValueError("id map assigns duplicate ball ids")
            for (v, r) in ids:
                if v not in graph:
                    raise ValueError(f"id map names unknown vertex {v!r}")
                if r not in self._radii:
                    raise ValueError(f"id map names unindexed radius {r}")
            self._ids = dict(ids)
        self._keys = {bid: key for key, bid in self._ids.items()}

    def _check_epoch(self) -> None:
        if self._graph.mutation_epoch != self._epoch:
            raise StaleIndexError(
                f"graph mutated since index construction (epoch "
                f"{self._graph.mutation_epoch} != {self._epoch}); "
                f"rebuild the index or apply the delta to the store")

    @property
    def graph(self) -> LabeledGraph:
        return self._graph

    @property
    def radii(self) -> tuple[int, ...]:
        return self._radii

    def __len__(self) -> int:
        return len(self._ids)

    def id_map(self) -> dict[tuple[Vertex, int], int]:
        """Copy of the ``(center, radius) -> ball id`` assignment."""
        return dict(self._ids)

    def ball_id(self, center: Vertex, radius: int) -> int:
        self._check_epoch()
        return self._ids[(center, radius)]

    def ball(self, center: Vertex, radius: int) -> Ball:
        """The ball ``G[center, radius]`` (memoized)."""
        self._check_epoch()
        key = (center, radius)
        if key not in self._ids:
            raise KeyError(f"no ball for center={center!r} radius={radius}")
        cached = self._cache.get(key)
        if cached is None:
            cached = extract_ball(self._graph, center, radius,
                                  ball_id=self._ids[key])
            self._cache[key] = cached
        return cached

    def ball_by_id(self, ball_id: int) -> Ball:
        self._check_epoch()
        if ball_id not in self._keys:
            raise KeyError(f"unknown ball id {ball_id}")
        return self.ball(*self._keys[ball_id])

    def candidate_balls(self, label: Label, radius: int) -> Iterator[Ball]:
        """Prop. 1: the balls with centers labeled ``label`` and the given
        radius -- the only balls a query with that label must inspect."""
        self._check_epoch()
        if radius not in self._radii:
            raise KeyError(f"radius {radius} not indexed (have {self._radii})")
        centers = self._graph.sorted_vertices_with_label(label)

        def _iter() -> Iterator[Ball]:
            for v in centers:
                yield self.ball(v, radius)

        return _iter()

    def candidate_count(self, label: Label, radius: int) -> int:
        self._check_epoch()
        if radius not in self._radii:
            raise KeyError(f"radius {radius} not indexed (have {self._radii})")
        return len(self._graph.vertices_with_label(label))

    def materialize(self) -> int:
        """Force extraction of every indexed ball (data owner offline step).

        Returns the number of balls extracted.
        """
        for (v, r) in self._ids:
            self.ball(v, r)
        return len(self._ids)
