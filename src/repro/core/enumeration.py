"""Candidate enumeration -- Alg. 1 (``CanEnum``).

Enumerates the candidate mapping matrices (CMMs, Def. 2) of a ball for a
query.  Faithful to the paper's obliviousness contract: *everything here
depends only on the query's vertex set and labels* (``V_Q``, ``Sigma_Q``,
``L_Q``), never on ``E_Q``.  The Player runs this on plaintext balls while
the query's edges stay encrypted.

Two refinements the paper calls out are implemented explicitly:

* ``opt()`` (Alg. 1 line 3, after [18]): ball minimization by labels --
  vertices whose label is not in ``Sigma_Q`` can never be matched and are
  dropped from the candidate sets.  Label-only, hence still oblivious.
* Footnote 6's bypass: balls whose enumeration would explode are cut off at
  ``limit`` CMMs and flagged ``truncated``; the framework treats them as
  positives rather than spending unbounded time.  The limit is a public
  constant, so obliviousness is unaffected.

The center-containment rule (Alg. 1 lines 11-12, justified by Prop. 2) is
enforced during the recursion with a label-based feasibility cut: a partial
assignment that has not used the center and whose remaining rows cannot
possibly map to it (no remaining row carries the center's label) is
abandoned early.

Production code reads the enumeration as a *recorded mask stream*:
:func:`prepare_ball` runs the fused kernel :func:`iter_projected_masks`
once per (ball, :func:`enumeration_signature`) and keeps the outcome as a
:class:`PreparedBall`, the single input of hom / sub-iso verification.
:func:`iter_cmms` / :func:`enumerate_cmms` stay as the CMM-object
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.graph.ball import Ball
from repro.graph.labeled_graph import Vertex
from repro.graph.matrix import CandidateMappingMatrix
from repro.graph.query import Query, Semantics


@dataclass
class CandidateEnumeration:
    """The outcome of Alg. 1 on one ball."""

    cmms: list[CandidateMappingMatrix] = field(default_factory=list)
    truncated: bool = False
    enumerated: int = 0

    @property
    def is_spurious(self) -> bool:
        """No CMM and no truncation: the ball center cannot be matched."""
        return not self.cmms and not self.truncated


def candidate_vertices(query: Query, ball: Ball,
                       ) -> dict[Vertex, list[Vertex]]:
    """``CV(u)`` (Alg. 1 lines 6-9): the ball vertices sharing ``u``'s label.

    Ordering is deterministic so enumeration is reproducible.
    """
    by_label: dict[object, list[Vertex]] = {}
    for label in query.alphabet:
        by_label[label] = sorted(ball.graph.vertices_with_label(label),
                                 key=repr)
    return {u: by_label[query.label(u)] for u in query.vertex_order}


def iter_cmms(query: Query, ball: Ball,
              injective: bool = False) -> Iterator[CandidateMappingMatrix]:
    """Lazy enumeration of all CMMs of ``ball`` whose image contains the
    ball center (Alg. 1 with Prop. 2's restriction).

    ``injective`` restricts assignments to distinct ball vertices -- the
    "minor modification" extending Alg. 1 to sub-iso (footnote 3).  It uses
    no edge information, so obliviousness is unaffected.
    """
    cv = candidate_vertices(query, ball)
    if any(not candidates for candidates in cv.values()):
        return
    order = query.vertex_order
    center = ball.center
    center_label = ball.center_label
    # rows_with_center_label[i] = does any row >= i carry the center label?
    suffix_has_center_label = [False] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_has_center_label[i] = (query.label(order[i]) == center_label
                                      or suffix_has_center_label[i + 1])

    assignment: list[Vertex] = []
    used: set[Vertex] = set()

    def extend(row: int, center_used: bool) -> Iterator[CandidateMappingMatrix]:
        if row == len(order):
            if center_used:  # Alg. 1 lines 11-12
                yield CandidateMappingMatrix(query_order=order,
                                             assignment=tuple(assignment))
            return
        if not center_used and not suffix_has_center_label[row]:
            return  # label-based feasibility cut (still E_Q-independent)
        for v in cv[order[row]]:
            if injective and v in used:
                continue
            assignment.append(v)
            if injective:
                used.add(v)
            yield from extend(row + 1, center_used or v == center)
            assignment.pop()
            if injective:
                used.discard(v)

    yield from extend(0, False)


def iter_projected_masks(query: Query, ball: Ball, injective: bool = False,
                         cv: dict[Vertex, list[Vertex]] | None = None,
                         ) -> Iterator[int]:
    """Alg. 1 fused with Alg. 2's projection: the packed ``M_p`` of every
    CMM :func:`iter_cmms` yields, in the same order.

    Bit layout is :func:`repro.crypto.kernels.mask_of_pattern`'s: position
    ``pos(i, j) = i*(n-1) + (j if j < i else j - 1)`` holds ``M_p[i][j]``.
    One DFS carries the partial mask down the tree: mapping row ``r`` adds
    the bits ``pos(r, j)`` and ``pos(j, r)`` for ``j < r`` once per node,
    shared by the node's whole subtree, so no CMM object and no per-leaf
    re-projection is ever built.  ``cv`` hands down an already computed
    :func:`candidate_vertices`.
    """
    if cv is None:
        cv = candidate_vertices(query, ball)
    rows = [cv[u] for u in query.vertex_order]
    if not all(rows):
        return
    last = len(rows) - 1
    center = ball.center
    # A prefix that has not used the center is dead once no remaining row
    # carries the center's label (iter_cmms's feasibility cut).
    last_center_row = max((r for r, u in enumerate(query.vertex_order)
                           if query.label(u) == ball.center_label),
                          default=-1)
    succ = {v: ball.graph.successors(v) for v in set().union(*rows)}
    # pos(r, j) and pos(j, r) for j < r, as ready-made bits per row.
    out_bits = [[1 << (r * last + j) for j in range(r)]
                for r in range(last + 1)]
    in_bits = [[1 << (j * last + r - 1) for j in range(r)]
               for r in range(last + 1)]
    chosen: list[Vertex] = [None] * (last + 1)
    cursor = [0] * (last + 1)        # next candidate of each row to try
    partial = [0] * (last + 2)       # mask bits among the rows above
    centered = [False] * (last + 2)  # some row above maps to the center
    row = 0
    while row >= 0:
        at = cursor[row]
        if at == len(rows[row]) or not (centered[row]
                                        or row <= last_center_row):
            cursor[row] = 0
            row -= 1
            continue
        cursor[row] = at + 1
        v = rows[row][at]
        above = chosen[:row]
        has_center = centered[row] or v == center
        if (injective and v in above) or (row == last and not has_center):
            continue  # footnote 3 / Alg. 1 lines 11-12
        mask = partial[row]
        succ_v = succ[v]
        for w, out_bit, in_bit in zip(above, out_bits[row], in_bits[row]):
            if w in succ_v:
                mask |= out_bit
            if v in succ[w]:
                mask |= in_bit
        if row == last:
            yield mask
            continue
        chosen[row] = v
        row += 1
        partial[row] = mask
        centered[row] = has_center


@dataclass(frozen=True)
class PreparedBall:
    """One ball's recorded mask stream: what Alg. 1 yields for it under
    one :func:`enumeration_signature`, and the only input hom / sub-iso
    verification reads.

    ``masks`` holds the *distinct* projected matrices ``M_p`` of the
    ball's CMMs as packed off-diagonal selection masks
    (:func:`repro.crypto.kernels.mask_of_pattern` layout), in
    first-appearance order; ``pattern_of_cmm`` maps each CMM, in
    enumeration order, to its index there.  It holds plain integers only
    (no graph objects), so a :class:`~repro.framework.server.CMMCache`
    can keep it across queries and ship it to worker processes.
    """

    ball_id: int
    enumerated: int
    truncated: bool
    bound_bypassed: bool
    masks: tuple[int, ...]
    pattern_of_cmm: tuple[int, ...]

    @property
    def bypassed(self) -> bool:
        return self.truncated or self.bound_bypassed

    @property
    def weight(self) -> int:
        """Cache weight in CMM units (per-CMM index + distinct patterns)."""
        return max(len(self.pattern_of_cmm) + len(self.masks), 1)


def enumeration_signature(query: Query, *, enumeration_limit: int,
                          cmm_bound_bypass: int) -> tuple:
    """The inputs Alg. 1 actually reads: ordered ``V_Q`` labels, ``d_Q``,
    the matching semantics, and the engine's enumeration bounds.

    Two queries with equal signatures induce identical mask streams on
    every ball -- the encrypted edges never participate -- and a query
    and its SP-side :class:`~repro.graph.query.QueryLabelView` give the
    same tuple.  The bounds are part of the signature because
    truncation/bypass verdicts depend on them.
    """
    labels = tuple(query.label(u) for u in query.vertex_order)
    return (labels, query.diameter, query.semantics,
            enumeration_limit, cmm_bound_bypass)


def prepare_ball(query: Query, ball: Ball, *, enumeration_limit: int,
                 cmm_bound_bypass: int) -> PreparedBall:
    """Run Alg. 1 once and record its mask stream.

    The one place the two footnote-6 decisions are taken: the bound
    bypass is checked before any enumeration (``enumerated == 0``), and
    producing a ``limit+1``-th CMM truncates with ``enumerated == limit``
    -- either way the ball is reported unpruned rather than risking an
    unsound verdict on a partial CMM set.

    CMMs are grouped by their packed off-diagonal selection mask, which
    :func:`iter_projected_masks` yields directly.  The mask ignores the
    diagonal, but projections keep the diagonal 0 by construction, so
    mask equality and pattern equality coincide.
    """
    cv = candidate_vertices(query, ball)
    if count_cmm_upper_bound(query, ball, cv) > cmm_bound_bypass:
        return PreparedBall(ball_id=ball.ball_id, enumerated=0,
                            truncated=False, bound_bypassed=True,
                            masks=(), pattern_of_cmm=())
    injective = query.semantics is Semantics.SUB_ISO
    index_of: dict[int, int] = {}  # mask -> pattern index, insertion order
    order: list[int] = []
    for mask in iter_projected_masks(query, ball, injective=injective, cv=cv):
        if len(order) >= enumeration_limit:
            return PreparedBall(ball_id=ball.ball_id, enumerated=len(order),
                                truncated=True, bound_bypassed=False,
                                masks=(), pattern_of_cmm=())
        order.append(index_of.setdefault(mask, len(index_of)))
    return PreparedBall(ball_id=ball.ball_id, enumerated=len(order),
                        truncated=False, bound_bypassed=False,
                        masks=tuple(index_of), pattern_of_cmm=tuple(order))


def enumerate_cmms(query: Query, ball: Ball,
                   limit: int | None = None,
                   injective: bool = False) -> CandidateEnumeration:
    """Alg. 1: the set ``R_1`` of CMMs of all candidate subgraphs of ``ball``.

    ``limit`` is the footnote-6 bypass threshold; when hit, enumeration
    stops and the result is flagged truncated.
    """
    result = CandidateEnumeration()
    for cmm in iter_cmms(query, ball, injective=injective):
        if limit is not None and result.enumerated >= limit:
            result.truncated = True
            break
        result.cmms.append(cmm)
        result.enumerated += 1
    return result


def count_cmm_upper_bound(query: Query, ball: Ball,
                          cv: dict[Vertex, list[Vertex]] | None = None,
                          ) -> int:
    """The paper's complexity bound: the product of ``|CV(u)|`` sizes.

    Used by the framework to decide bypassing *before* enumerating; ``cv``
    hands down an already computed :func:`candidate_vertices`.
    """
    if cv is None:
        cv = candidate_vertices(query, ball)
    bound = 1
    for candidates in cv.values():
        bound *= len(candidates)
        if bound > 10 ** 18:
            return 10 ** 18
    return bound
