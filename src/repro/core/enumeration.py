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
:func:`prepare_ball` runs Alg. 1 once per (ball,
:func:`enumeration_signature`) and keeps the outcome as a
:class:`PreparedBall`, the single input of hom / sub-iso verification.
The stream is recorded in Alg. 1's order (``V_Q`` rows, each row's
candidates in ``repr`` order), but the assignment tree is *walked* in a
work order that places the center-label rows first, so the center cut
fires as soon as they are placed, and then the narrowest rows: which
assignments are leaves does not depend on the order rows are placed
in, and each leaf carries its Alg. 1 rank, so the recorded order is
restored by one sort.  Both orders read only ``V_Q``, the labels and
the ball's label buckets.  :func:`iter_cmms` / :func:`enumerate_cmms`
stay as the CMM-object reference.
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

    Ordering is deterministic (``repr`` order, memoised on the ball's
    graph) so enumeration is reproducible.
    """
    bucket = ball.graph.sorted_vertices_with_label
    by_label = {label: list(bucket(label)) for label in query.alphabet}
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


def work_order(query: Query, ball: Ball,
               cv: dict[Vertex, list[Vertex]] | None = None) -> list[int]:
    """The order :func:`prepare_ball` places the ``V_Q`` rows in, as row
    positions: the rows labeled like the ball's center first (so the
    center cut fires as soon as they are placed), then the others by
    ascending ``|CV(u)|``, ties by ``V_Q`` position.

    It reads the query's labels and the ball's label buckets only, never
    ``E_Q``: Alg. 1's obliviousness contract holds for the walk as it
    does for the recorded order.
    """
    if cv is None:
        cv = candidate_vertices(query, ball)
    order = query.vertex_order
    first = [p for p, u in enumerate(order)
             if query.label(u) == ball.center_label]
    return first + sorted((p for p in range(len(order)) if p not in first),
                          key=lambda p: (len(cv[order[p]]), p))


def _ranked_masks(query: Query, ball: Ball,
                  cv: dict[Vertex, list[Vertex]], injective: bool,
                  stop: int) -> tuple[list[int], list[int]]:
    """Alg. 1 fused with Alg. 2's projection: the ranks and the masks
    ``M_p`` (two parallel lists) of the CMMs :func:`iter_cmms` yields,
    walked in :func:`work_order`, at most ``stop`` of them.

    ``rank`` is the CMM's position in Alg. 1's order, as a mixed-radix
    number over the ``V_Q`` rows (digit = index in ``CV(u)``); it grows
    one term per placed row.  The feasibility cut: the level placing the
    last center-label row, reached without the center, may place only
    the center.

    ``M_p`` is packed as in :func:`repro.crypto.kernels.mask_of_pattern`:
    ``M_p[i][j]`` at ``pos(i, j) = i*(n-1) + (j if j < i else j - 1)``.
    Each node ORs the bits of its row against every row placed above it,
    shared by its whole subtree: one probe of a per-ball adjacency code
    (bit 1: ``v -> w``, bit 2: ``w -> v``) indexes the ready-made bits.
    """
    rows = [cv[u] for u in query.vertex_order]
    # The level that must place the center if no level above it did.
    cut = sum(query.label(u) == ball.center_label
              for u in query.vertex_order) - 1
    if cut < 0 or not all(rows):
        return [], []
    n, center = len(rows), ball.center
    work = work_order(query, ball, cv)
    step = [1] * n  # Alg. 1 rank of one step along row p
    for p in range(n - 2, -1, -1):
        step[p] = step[p + 1] * len(rows[p + 1])
    code: dict[Vertex, dict[Vertex, int]] = {
        v: {} for v in set().union(*rows)}
    for v, code_v in code.items():
        for w in ball.graph.iter_successors(v):
            code_w = code.get(w)
            if code_w is not None:
                code_v[w] = code_v.get(w, 0) | 1
                code_w[v] = code_w.get(v, 0) | 2

    def bit(i: int, j: int) -> int:
        return 1 << (i * (n - 1) + (j if j < i else j - 1))

    # Per level, per row above: the bits of code 0..3 against it.
    pair_bits = [[(0, bit(p, q), bit(q, p), bit(p, q) | bit(q, p))
                  for q in work[:level]] for level, p in enumerate(work)]
    level_rows = [rows[p] for p in work]
    level_steps = [step[p] for p in work]
    center_at = ((rows[work[cut]].index(center), center),)  # cut level
    last = n - 1
    placed: list[Vertex] = [None] * n
    # Two int lists, not (rank, mask) tuples: ints are not tracked by the
    # cyclic garbage collector, so the leaves add nothing for it to scan.
    ranks: list[int] = []
    masks: list[int] = []

    def extend(level: int, mask: int, rank: int, centered: bool) -> bool:
        used = placed[:level] if injective else ()  # footnote 3
        unit = level_steps[level]
        for i, v in (enumerate(level_rows[level]) if centered or level != cut
                     else center_at):
            if v in used:
                continue
            code_v = code[v]
            m = mask
            for w, bits in zip(placed, pair_bits[level]):
                c = code_v.get(w)
                if c:
                    m |= bits[c]
            if level == last:
                ranks.append(rank + i * unit)
                masks.append(m)
                if len(ranks) == stop:
                    return True
            else:
                placed[level] = v
                if extend(level + 1, m, rank + i * unit,
                          centered or v == center):
                    return True
        return False

    extend(0, 0, 0, False)
    return ranks, masks


@dataclass(frozen=True)
class PreparedBall:
    """One ball's recorded mask stream: what Alg. 1 yields for it under
    one :func:`enumeration_signature`, and the only input hom / sub-iso
    verification reads.

    ``masks`` holds the *distinct* projected matrices ``M_p`` of the
    ball's CMMs as packed off-diagonal selection masks
    (:func:`repro.crypto.kernels.mask_of_pattern` layout), in
    first-appearance order; ``pattern_of_cmm`` maps each CMM, in Alg. 1's
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
    """Run Alg. 1 once and record its mask stream in Alg. 1's order.

    The one place the two footnote-6 decisions are taken: the bound
    bypass is checked before any enumeration (``enumerated == 0``), and
    producing a ``limit+1``-th CMM truncates with ``enumerated == limit``
    -- either way the ball is reported unpruned rather than risking an
    unsound verdict on a partial CMM set.

    The tree is walked in :func:`work_order` and each CMM comes with its
    Alg. 1 rank: ``pattern_of_cmm`` is the CMMs sorted by
    rank, ``masks`` the distinct masks ordered by their smallest rank --
    the stream Alg. 1's own order yields.  The work order reads the query's
    labels and the ball's label buckets only, so two queries with equal
    :func:`enumeration_signature` still get the same stream.  The mask
    ignores the diagonal, but projections keep the diagonal 0 by
    construction, so mask equality and pattern equality coincide.
    """
    cv = candidate_vertices(query, ball)
    if count_cmm_upper_bound(query, ball, cv) > cmm_bound_bypass:
        return PreparedBall(ball_id=ball.ball_id, enumerated=0,
                            truncated=False, bound_bypassed=True,
                            masks=(), pattern_of_cmm=())
    ranks, masks = _ranked_masks(
        query, ball, cv, injective=query.semantics is Semantics.SUB_ISO,
        stop=enumeration_limit + 1)
    if len(ranks) > enumeration_limit:
        return PreparedBall(ball_id=ball.ball_id,
                            enumerated=enumeration_limit, truncated=True,
                            bound_bypassed=False, masks=(),
                            pattern_of_cmm=())
    index_of: dict[int, int] = {}  # mask -> pattern index, insertion order
    order = tuple([index_of.setdefault(masks[leaf], len(index_of))
                   for leaf in sorted(range(len(ranks)),
                                      key=ranks.__getitem__)])
    return PreparedBall(ball_id=ball.ball_id, enumerated=len(order),
                        truncated=False, bound_bypassed=False,
                        masks=tuple(index_of), pattern_of_cmm=order)


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
