"""Generic encrypted-table pruning.

Twiglet pruning (Sec. 4.2), the path baseline of [57] and the neighbor-label
baseline of [17] all follow one scheme:

* **User**: per query vertex ``u``, enumerate *all possible* feature keys
  over the public alphabet ``Sigma_Q`` (so the table shape reveals nothing)
  and encrypt, per key, ``q`` when the feature exists in the query at ``u``
  ("the ball must have this too") and ``1`` otherwise.
* **Player**: per candidate ball, compute the set of feature keys present
  at the ball center; per table whose start label matches the center label,
  multiply the key's ciphertext where the ball *lacks* the feature and the
  user-chosen ``c_one`` where it has it (Alg. 5 lines 4-11); sum the
  per-table products into the ball's pruning ciphertext.
* **User**: a decryption holding the factor ``q`` in every table means no
  query vertex can match the center -- the ball is spurious (Prop. 4).

The feature family (twiglets / paths / distance-label pairs) is the only
thing that differs; each technique supplies a key enumerator and a
membership extractor.  A table maps its (distinct) keys to positions once,
so a ball's selection mask costs one lookup per feature of the ball, not
one membership test per key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.core.aggregation import (
    BallCiphertextResult,
    ChunkPlan,
    aggregate_items,
)
from repro.crypto.cgbe import CGBE, CGBECiphertext, CGBEPublicParams
from repro.crypto.kernels import MaskedProductTable, MultiExpRegistry
from repro.graph.ball import Ball
from repro.graph.labeled_graph import Label


@dataclass
class PruneTable:
    """One query vertex's encrypted feature table (e.g. Table 2).

    ``keys`` enumerates every possible feature for this start label in a
    deterministic public order, each once; ``ciphertexts[i]`` encrypts q
    (exists in query) or 1 (does not).  Which is which is hidden by CGBE.
    """

    start_label: Label
    keys: tuple[Hashable, ...]
    ciphertexts: list[CGBECiphertext]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.ciphertexts):
            raise ValueError("one ciphertext per key is required")
        # key -> position: a ball's selection mask is read off its own
        # features, never by scanning every key.
        self.positions = {key: pos for pos, key in enumerate(self.keys)}
        if len(self.positions) != len(self.keys):
            raise ValueError("table keys must be distinct")

    def __len__(self) -> int:
        return len(self.keys)

    def mask_of(self, features: Iterable[Hashable]) -> int:
        """The selection mask of a ball's features: bit ``pos`` is set iff
        ``keys[pos]`` is among them (features outside the table select
        nothing).  One lookup per feature, not one test per key."""
        positions = self.positions
        mask = 0
        for feature in features:
            pos = positions.get(feature)
            if pos is not None:
                mask |= 1 << pos
        return mask


def build_table(cgbe: CGBE, start_label: Label,
                keys: Sequence[Hashable],
                present: set[Hashable]) -> PruneTable:
    """User side: encrypt the existence column of one vertex's table."""
    ciphertexts = [cgbe.encrypt_q() if key in present else cgbe.encrypt(1)
                   for key in keys]
    return PruneTable(start_label=start_label, keys=tuple(keys),
                      ciphertexts=ciphertexts)


def table_plan(params: CGBEPublicParams, table_size: int,
               expected_terms: int = 64) -> ChunkPlan:
    """Chunk layout for tables of ``table_size`` keys (same size for every
    query vertex by construction, so one plan serves the whole query)."""
    return ChunkPlan.plan(params, table_size, expected_terms=expected_terms)


def player_table_prune(
    params: CGBEPublicParams,
    tables: Sequence[PruneTable],
    ball: Ball,
    ball_features: set[Hashable],
    c_one: CGBECiphertext,
    plan: ChunkPlan,
    multiexp: MultiExpRegistry | None = None,
    kind: str = "table",
) -> BallCiphertextResult:
    """Alg. 5 generalized: aggregate the violation ciphertext of one ball.

    Only tables whose start label equals the ball center's label take part
    (Alg. 5 line 4); the per-key branch (``c_one`` vs the table ciphertext)
    depends on the *ball's* features only, never on the encrypted bits.

    Each table's ciphertext column is a shared :class:`MaskedProductTable`
    (keyed by the public coordinate ``(kind, table_index)``; a call
    without a registry builds its own) and the ball's features pack into a
    selection mask by key lookup (:meth:`PruneTable.mask_of`) -- balls
    sharing a feature set hit the table's memo.  Value-identical to the
    paper-literal fold of that factor list
    (:mod:`repro.core.aggregation`).
    """
    if multiexp is None:
        multiexp = MultiExpRegistry()
    center_label = ball.center_label
    item_chunks: list[list[CGBECiphertext]] = []
    for index, table in enumerate(tables):
        if table.start_label != center_label:
            continue
        mtable = multiexp.table(
            (kind, index),
            lambda table=table: MaskedProductTable(
                params, table.ciphertexts, c_one, plan))
        item_chunks.append(
            mtable.chunk_ciphertexts(table.mask_of(ball_features)))
    return aggregate_items(params, ball.ball_id, item_chunks, plan)
