"""Encodings: the ``M_Qe`` prime encoding and canonical label codes.

Sec. 3.2 encodes the query's adjacency matrix as::

    M_Qe(i, j) = q  if M_Q(i, j) = 1      (edge present)
               = 1  otherwise             (edge absent)

so that multiplying ``M_Qe(i, j)`` into an aggregate exactly when the
candidate lacks the corresponding edge plants a factor of the public prime
``q`` iff a matching violation exists.  Encrypted under CGBE, the SP
multiplies blindly and the user tests divisibility by ``q`` after
decryption.

The :class:`LabelCodec` provides the shared label -> small-integer code used
by the canonical encodings of 2-label binary trees (Sec. 4.1.2) and by the
twiglet machinery.  The alphabet it covers is ``Sigma_Q`` -- the query's
label *set* is public in the protocol (the plaintext first column of every
twiglet table enumerates label sequences over it; only existence bits are
encrypted), so a codec derived from it leaks nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.crypto.cgbe import CGBE, CGBECiphertext
from repro.graph.labeled_graph import Label
from repro.graph.query import Query


def encode_query_matrix(query: Query) -> np.ndarray:
    """``M_Qe`` as an object array of Python ints (1 or q is substituted at
    encryption time; here edge-present positions hold the sentinel -1)."""
    n = query.size
    encoded = np.ones((n, n), dtype=np.int64)
    for i, u in enumerate(query.vertex_order):
        for j, v in enumerate(query.vertex_order):
            if query.pattern.has_edge(u, v):
                encoded[i, j] = -1  # placeholder for q
    return encoded


def materialize_query_matrix(query: Query, q: int) -> np.ndarray:
    """``M_Qe`` with the concrete prime ``q`` substituted (plaintext runs
    and tests)."""
    encoded = encode_query_matrix(query).astype(object)
    encoded[encoded == -1] = q
    return encoded


def encrypt_query_matrix(cgbe: CGBE, query: Query,
                         ) -> list[list[CGBECiphertext]]:
    """``M^E_Qe``: every position independently CGBE-encrypted (Sec. 3.2).

    Both values 1 and q are encrypted with fresh blinds, so the SP cannot
    distinguish edge from non-edge positions (CPA security of CGBE) -- this
    is the query-privacy core of the whole framework.
    """
    plain = materialize_query_matrix(query, cgbe.params.q)
    return [[cgbe.encrypt(int(plain[i, j])) for j in range(query.size)]
            for i in range(query.size)]


@dataclass(frozen=True)
class LabelCodec:
    """Canonical label -> code mapping over a fixed alphabet.

    Codes run 1..K in sorted-repr order.  ``base`` is the positional base of
    the canonical tree encodings; the default ``K + 1`` makes positional
    encodings collision-free (the paper's Fig. 7 example uses base K, which
    can collide -- acceptable for bloom filters; pass ``paper_base=True``
    to reproduce it, e.g. the encoding 77 of Fig. 7).
    """

    codes: tuple[tuple[Label, int], ...]
    base: int

    @classmethod
    def from_alphabet(cls, alphabet: Iterable[Label],
                      paper_base: bool = False) -> "LabelCodec":
        ordered = sorted(set(alphabet), key=repr)
        if not ordered:
            raise ValueError("alphabet must be non-empty")
        codes = tuple((label, i + 1) for i, label in enumerate(ordered))
        base = len(ordered) if paper_base else len(ordered) + 1
        return cls(codes=codes, base=max(base, 2))

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be at least 2")
        # O(1) label -> code index behind ``code`` / ``in``.  Derived, not a
        # field: equality, hash and repr see ``codes`` and ``base`` only.
        # Reversed so the first of two equal labels wins, as a scan would.
        object.__setattr__(self, "_index", dict(reversed(self.codes)))

    def __reduce__(self):
        """Pickle the two fields only; the index is rebuilt on arrival (the
        codec crosses the process-executor boundary with every share)."""
        return (type(self), (self.codes, self.base))

    @property
    def alphabet(self) -> tuple[Label, ...]:
        return tuple(label for label, _ in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def code(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(
                f"label {label!r} not in codec alphabet") from None

    def get(self, label: Label) -> int | None:
        """``code(label)``, or ``None`` for a label outside the alphabet."""
        return self._index.get(label)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def encode_positions(self, labels: Sequence[Label]) -> int:
        """Positional encoding ``sum(code(l) * base^position)`` -- the exact
        arithmetic of Fig. 7 (= 77 for (A, C, D) with paper_base)."""
        return sum(self.code(label) * self.base ** position
                   for position, label in enumerate(labels))

    def encode_sequence(self, labels: Sequence[Label], tag: int = 0) -> int:
        """Positional encoding prefixed with a structure ``tag`` so encodings
        of different shapes (topologies, twiglet variants) never collide."""
        if tag < 0:
            raise ValueError("tag must be non-negative")
        return tag * self.base ** 6 + self.encode_positions(labels)
