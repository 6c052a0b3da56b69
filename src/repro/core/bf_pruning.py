"""BF pruning -- bloom filters of trees in the TEE (Sec. 4.1).

Pipeline (Sec. 4.1.2):

* **User**: for every query vertex ``u``, enumerate the distinct 2-label
  binary trees (topologies vii-x) rooted at ``u`` and keep exactly ``eta``
  canonical encodings -- padding with 0s when fewer exist (0 is inserted in
  every ball filter so pads always pass), truncating when more exist (may
  cost pruning power, never correctness).  The encodings are sealed for the
  enclave over the attested channel.
* **Player, outside the enclave**: per candidate ball, build a bloom filter
  over the encodings of the ball center's trees plus the encoding 0, and
  pass it through the enclave boundary.
* **Player, inside the enclave**: test the query encodings obliviously and
  emit the encrypted pruning message ``c_sgx`` (see
  :meth:`repro.tee.enclave.Enclave.check_ball`).
* **User**: decrypt ``c_sgx``; plaintext 0 means no query vertex with the
  center's label survived Prop. 3 -- the ball is spurious.

The ``BF_t`` threshold of Sec. 6.1 is enforced player-side: balls whose
center neighborhood signals an explosive topology-x enumeration skip BF and
are conservatively marked positive (footnote 6's "bypass").  The statistic
is the ball's own (:attr:`repro.graph.ball.Ball.heavy_neighbors`, counted
once per ball), so each query's test is one comparison with ``t``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.encoding import LabelCodec
from repro.core.trees import BF_TOPOLOGIES, enumerate_center_tree_encodings
from repro.filters.bloom import BloomFilter, optimal_num_hashes, required_bits
from repro.graph.ball import Ball
from repro.graph.query import Query
from repro.tee.channel import SecureChannel
from repro.tee.enclave import Enclave

#: The all-pass pad encoding (Sec. 4.1.2: "User takes 0s as the rest").
PAD_ENCODING = 0


@dataclass(frozen=True)
class BFConfig:
    """Default parameters of Sec. 6.1.

    ``eta`` encodings per query vertex; filters sized by Eq. 1 for
    ``expected_trees`` at ``false_positive_rate`` (n=10K, p=0.3 -> m=25K
    bits); ``threshold_t`` is the BF_t bypass knob (5/15/25 in Fig. 12).
    """

    eta: int = 256
    expected_trees: int = 10_000
    false_positive_rate: float = 0.3
    threshold_t: int = 15
    max_ball_trees: int = 40_000

    def filter_bits(self) -> int:
        return required_bits(self.expected_trees, self.false_positive_rate)

    def filter_hashes(self) -> int:
        return optimal_num_hashes(self.filter_bits(), self.expected_trees)


@dataclass
class BFQueryMessage:
    """What the user sends toward the enclaves: the sealed encodings blob
    plus bookkeeping for the experiments (message sizes, truncation)."""

    sealed_blob: bytes
    entries: int
    truncated_vertices: int


def user_prepare_encodings(query: Query, codec: LabelCodec,
                           channel: SecureChannel,
                           config: BFConfig) -> BFQueryMessage:
    """User side: eta canonical encodings per query vertex, sealed."""
    entries: list[tuple[str, list[int]]] = []
    truncated_vertices = 0
    for u in query.vertex_order:
        encodings, _ = enumerate_center_tree_encodings(
            query.pattern, u, codec, BF_TOPOLOGIES)
        ordered = sorted(encodings)
        if len(ordered) > config.eta:
            ordered = ordered[:config.eta]
            truncated_vertices += 1
        while len(ordered) < config.eta:
            ordered.append(PAD_ENCODING)
        entries.append((repr(query.label(u)), ordered))
    payload = json.dumps({"eta": config.eta, "entries": entries},
                         separators=(",", ":")).encode("utf-8")
    return BFQueryMessage(sealed_blob=channel.seal(payload),
                          entries=len(entries),
                          truncated_vertices=truncated_vertices)


@dataclass
class BFPruneOutcome:
    """Player-side result for one ball: either an encrypted ``c_sgx`` or a
    bypass flag (threshold exceeded / enumeration truncated)."""

    ball_id: int
    c_sgx: bytes | None = None
    bypassed: bool = False
    trees_enumerated: int = field(default=0)
    filter_bytes: int = field(default=0)


def player_bf_prune(enclave: Enclave, ball: Ball, codec: LabelCodec,
                    config: BFConfig) -> BFPruneOutcome:
    """Player side: build this ball's bloom filter and query the enclave.

    Balls that trip the BF_t threshold (or whose tree enumeration hits the
    safety cap) bypass pruning and are reported as positives -- pruning must
    never be unsound, and an incomplete filter could prune a true match.
    """
    if ball.heavy_neighbors > config.threshold_t:
        return BFPruneOutcome(ball_id=ball.ball_id, bypassed=True)
    encodings, truncated = enumerate_center_tree_encodings(
        ball.graph, ball.center, codec, BF_TOPOLOGIES,
        max_trees=config.max_ball_trees)
    if truncated:
        return BFPruneOutcome(ball_id=ball.ball_id, bypassed=True,
                              trees_enumerated=len(encodings))
    ball_filter = BloomFilter(config.filter_bits(), config.filter_hashes())
    ball_filter.add(PAD_ENCODING)  # so the user's 0-pads always pass
    ball_filter.update(encodings)  # bits are OR-ed: order cannot matter
    blob = ball_filter.to_bytes()
    c_sgx = enclave.check_ball(blob, repr(ball.center_label))
    return BFPruneOutcome(ball_id=ball.ball_id, c_sgx=c_sgx,
                          trees_enumerated=len(encodings),
                          filter_bytes=len(blob))


def user_decode_outcome(channel: SecureChannel,
                        outcome: BFPruneOutcome) -> bool:
    """User side: True = positive (keep the ball), False = spurious."""
    if outcome.bypassed:
        return True
    assert outcome.c_sgx is not None
    matched_vertices = int.from_bytes(channel.open(outcome.c_sgx), "big")
    return matched_vertices > 0
