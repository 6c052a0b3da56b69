"""Batched crypto kernels for the CGBE hot path -- the one arithmetic
path the SP side computes through.

Straus-style shared-window multi-exponentiation
(:class:`MaskedProductTable`).  Verification, ssim refinement and table
pruning all fold the *same fixed base vector* (the encrypted query
matrix's off-diagonal entries, a query row's neighbor pairs, a prune
table's ciphertexts) under varying selections of which positions are
replaced by ``c_one``.  Instead of re-multiplying per item, the base
vector is cut into windows (never crossing chunk boundaries), each
window keeps a lazily-built subset-product table, and a chunk product
becomes one table lookup per window plus one cached ``c_one`` pad
power.  A chunk-result memo on top collapses repeated selection masks
-- the dominant effect in practice, since distinct projected patterns
are few (DESIGN.md Sec. 7 measures ~5.7x pattern redundancy on
slashdot) -- and the whole table is shared across every ball of a
share.  A memo hit costs one int key and one LRU probe: the memo holds
the finished ciphertext, so nothing is built.  Results are
value-identical to the paper-literal fold of
:mod:`repro.core.aggregation`, which stays there as the oracle the
tests compare against: same values, same ``power`` / ``value_bits``
bookkeeping, same overflow behavior.

The products themselves run in the table's arithmetic domain
(:mod:`repro.crypto.montgomery`: libcrypto's Montgomery form when it
loads, plain ints otherwise).  A base or the pad enters as it is on its
first multiplication, so an entry or node over ``k`` bases carries
``R^(1-k)``; one ``home`` constant per pad count pads a chunk and brings
it back to ``R^0``, and the result is read out once per ``(chunk,
mask)`` miss.  Nothing else crosses.

Every kernel op reports into :mod:`repro.crypto.ops` so benchmark deltas
are attributable op-by-op (modmul / modexp / table builds per phase).

Layering: this module sits inside ``repro.crypto`` and must not import
``repro.core`` or ``repro.framework``; the chunk layout is duck-typed
(anything with ``factors`` / ``chunk_factors`` / ``chunks_per_item``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cache import LRU
from repro.crypto import ops
from repro.crypto.cgbe import (
    CGBECiphertext,
    CGBEPublicParams,
    OverflowError_,
)
from repro.crypto.montgomery import domain_for

#: Straus window width in bits: subset tables stay at <= 16 entries per
#: window, the sweet spot for the 30-60 factor products of this codebase.
STRAUS_WINDOW = 4


# ---------------------------------------------------------------------------
# Straus shared-window multi-exponentiation
# ---------------------------------------------------------------------------
class MaskedProductTable:
    """Subset-product window tables over one fixed ciphertext vector.

    The factor list of one item is always "``bases[p]`` at every position
    ``p`` the selection mask leaves 0, ``pad`` (an encryption of 1) at
    every position the mask sets" -- verification selects by projected
    pattern, ssim by neighbor-label membership, pruning by feature-key
    membership.  ``chunk_ciphertexts(mask)`` returns exactly what the
    paper-literal fold returns for that factor list: same values, same
    ``power`` (= ``chunk_factors``), same ``value_bits``, same
    :class:`OverflowError_` condition.

    All bases (and the pad) must be fresh single encryptions
    (``power == 1``, ``value_bits == bits_per_factor``) -- the only shape
    the protocol produces.
    """

    def __init__(self, params: CGBEPublicParams,
                 bases: Sequence[CGBECiphertext],
                 pad: CGBECiphertext,
                 plan: "object",
                 window: int = STRAUS_WINDOW,
                 max_memo: int = 1 << 16) -> None:
        if not 1 <= window <= 8:
            raise ValueError("kernel window must be in 1..8")
        bits_per_factor = params.budget.bits_per_factor
        # Every chunk has chunk_factors equal-size factors, so its bit
        # bound -- and whether it fits the modulus at all -- is fixed here;
        # the refusal itself still happens per call (chunk_ciphertexts).
        width = plan.chunk_factors
        self._chunk_bits = width * bits_per_factor
        self._overflows = self._chunk_bits >= params.modulus_bits
        for c in (*bases, pad):
            if c.power != 1 or c.value_bits != bits_per_factor:
                raise ValueError(
                    "multi-exp tables need fresh single encryptions "
                    f"(power=1, value_bits={bits_per_factor}); got power="
                    f"{c.power}, value_bits={c.value_bits}")
        if len(bases) != plan.factors:
            raise ValueError(
                f"base vector has {len(bases)} entries but the plan lays "
                f"out {plan.factors} factors")
        self.params = params
        self.plan = plan
        self.hits = 0
        self.misses = 0
        modulus = params.modulus
        self._base_values = [c.value % modulus for c in bases]
        self._pad_plain = pad.value % modulus
        # Window entries, tree nodes, the pad and homes are domain
        # values.  A base enters on its first window entry (_entered[p]),
        # the pad on its first home; only chunk results leave, as ints.
        self._domain = domain_for(modulus)
        self._entered: list[int | None] = [None] * len(bases)
        # Window layout: windows tile each chunk's position range and
        # never cross a chunk boundary, so one chunk's product reads only
        # its own windows.  _offsets[w] is window w's first position;
        # _chunks[c] = (mask of the chunk's real positions, pad positions
        # past the base vector, first window, window count).
        self._offsets: list[int] = []
        self._chunks: list[tuple[int, int, int, int]] = []
        total = len(bases)
        for chunk in range(plan.chunks_per_item):
            start = chunk * width
            end = min(start + width, total)
            first = len(self._offsets)
            self._offsets.extend(range(start, end, window))
            self._chunks.append(((1 << (end - start)) - 1,
                                 width - (end - start), first,
                                 len(self._offsets) - first))
        self._chunk_mask = (1 << width) - 1
        # Lazily-filled subset tables: _tables[w][submask] = product of
        # the window's bases at submask's set bits (submask != 0).
        self._tables: list[dict[int, int]] = [{} for _ in self._offsets]
        # The entered pad (on the first home that needs it) and homes (by
        # pad count, see _home).  memo holds both the
        # finished per-(chunk, mask) ciphertexts and the product-tree
        # nodes (domain ints); one LRU bound covers both.  Keys are ints,
        # ``bits << _shift | id``: id = the chunk index for a result,
        # len(chunks) + first * (windows + 1) + count for the node over
        # windows first .. first + count - 1.  hits / misses count the
        # (chunk, mask) lookups only.
        windows = len(self._offsets)
        self._node_base = plan.chunks_per_item
        self._node_stride = windows + 1
        self._shift = (self._node_base + windows * self._node_stride
                       ).bit_length()
        self._pad: int | None = None
        self._homes: dict[int, int] = {}
        self.memo: LRU[int | CGBECiphertext] = LRU(max_memo)

    # -- internals ----------------------------------------------------
    def _base(self, position: int) -> int:
        value = self._entered[position]
        if value is None:
            value = self._domain.enter(self._base_values[position])
            self._entered[position] = value
        return value

    def _window_entry(self, w: int, submask: int) -> int:
        table = self._tables[w]
        value = table.get(submask)
        if value is None:
            # Build from the entry one set bit short: exactly one
            # multiplication per multi-bit entry, ever; a single-bit
            # entry is its base value and costs none.
            low = submask & -submask
            value = self._base(self._offsets[w] + low.bit_length() - 1)
            if submask != low:
                ops.record_modmul()
                value = self._domain.mul(
                    self._window_entry(w, submask ^ low), value)
            ops.record_table_build()
            table[submask] = value
        return value

    def _node(self, first: int, count: int, bits: int) -> int:
        """The product over windows ``first .. first + count - 1`` of the
        bases at ``bits`` (include bits over that span, bit 0 = the span's
        first position; never 0).

        A binary product tree: a node is one modmul the first time its
        key is seen and a memo hit after that, and a half with no include
        bits is the identity, skipped.  So a chunk whose mask differs
        from an earlier one in a single window recomputes only the path
        from that window to the root, and a miss never costs more
        modmuls than the left-to-right fold over the same windows.
        """
        if count == 1:
            return self._window_entry(first, bits)
        half = count >> 1
        split = self._offsets[first + half] - self._offsets[first]
        low = bits & ((1 << split) - 1)
        high = bits >> split
        if not high:
            return self._node(first, half, low)
        if not low:
            return self._node(first + half, count - half, high)
        key = bits << self._shift | (self._node_base
                                     + first * self._node_stride + count)
        value = self.memo.get(key)
        if value is None:
            ops.record_modmul()
            value = self._domain.mul(
                self._node(first, half, low),
                self._node(first + half, count - half, high))
            self.memo.put(key, value)
        return value

    def _home(self, ones: int) -> int:
        """``pad^ones * R^(chunk_factors - ones)``: times the product of a
        chunk's other bases (``R^(1 - chunk_factors + ones)``) it is the
        chunk's product at ``R^0``.  Uncounted, like a conversion."""
        value = self._homes.get(ones)
        if value is None:
            domain = self._domain
            if ones:
                if self._pad is None:
                    self._pad = domain.enter(self._pad_plain)
                power = self._pad
                if ones > 1:  # each pad power is read once, right here
                    ops.record_modexp()
                    power = domain.pow(power, ones)
                value = domain.mul(power, self._home(0))
            else:
                value = domain.enter(domain.r_power(self.plan.chunk_factors))
            self._homes[ones] = value
        return value

    def _chunk(self, chunk: int, selected: int) -> CGBECiphertext:
        """The chunk's product for selection mask ``selected`` (bit = 1
        means that position's factor is the pad)."""
        key = selected << self._shift | chunk
        cached = self.memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        real, pad_extra, first, count = self._chunks[chunk]
        ones = (selected & real).bit_count() + pad_extra
        include = ~selected & real
        if include:
            if ones:  # the pad multiply; bringing it home is free
                ops.record_modmul()
            value = self._domain.leave(self._domain.mul(
                self._node(first, count, include), self._home(ones)))
        elif ones == 1:  # chunk_factors >= 1, so an all-pad chunk has ones
            value = self._pad_plain
        else:
            value = self._domain.leave(self._home(ones))
        result = CGBECiphertext(value=value, power=self.plan.chunk_factors,
                                value_bits=self._chunk_bits)
        self.memo.put(key, result)
        return result

    # -- public API ---------------------------------------------------
    def chunk_ciphertexts(self, mask: int) -> list[CGBECiphertext]:
        """What the paper-literal fold returns for this mask's factor list.

        ``mask`` has one bit per plan position (``plan.factors`` bits,
        position 0 = bit 0); set bits select the pad.  Positions past the
        base vector (the plan's padding tail) are implicitly pads.  Equal
        masks return the same (immutable) ciphertext objects.
        """
        if self._overflows:
            # The paper-literal fold raises on its first boundary-crossing
            # multiply; with equal-size factors that is exactly the
            # "chunk does not fit" condition.
            raise OverflowError_(
                f"product would need {self._chunk_bits} bits but the "
                f"modulus has {self.params.modulus_bits}; split the "
                f"aggregation (AggregationBudget.max_factors)")
        chunk_mask = self._chunk_mask
        width = self.plan.chunk_factors
        return [self._chunk(chunk, (mask >> (chunk * width)) & chunk_mask)
                for chunk in range(len(self._chunks))]

    @property
    def table_entries(self) -> int:
        """Materialized subset-product entries."""
        return sum(len(t) for t in self._tables)


class MultiExpRegistry:
    """Lazily-built :class:`MaskedProductTable` per key, shared across
    every ball (and CMM) of one executor share.

    Keys are public coordinates -- ``("verify",)``, ``("ssim", row)``,
    ``("twiglet", table_index)`` -- never query content.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple, MaskedProductTable] = {}

    def table(self, key: tuple,
              build: Callable[[], MaskedProductTable]) -> MaskedProductTable:
        table = self._tables.get(key)
        if table is None:
            table = build()
            self._tables[key] = table
        return table

    def memo_hits(self) -> int:
        return sum(t.hits for t in self._tables.values())

    def memo_misses(self) -> int:
        return sum(t.misses for t in self._tables.values())


def mask_of_pattern(pattern: Sequence[Sequence[int]]) -> int:
    """A projected CMM pattern's selection mask, row-major off-diagonal.

    Position ``pos(i, j) = i*(n-1) + (j if j < i else j - 1)`` -- the
    order the paper-literal Alg. 2 fold of :mod:`repro.core.verification`
    visits factors in.  Bit = 1 where the projected entry is 1 (the factor is
    ``c_one``); the diagonal never contributes a factor and is skipped.
    """
    n = len(pattern)
    mask = 0
    pos = 0
    for i in range(n):
        row = pattern[i]
        for j in range(n):
            if j == i:
                continue
            if row[j]:
                mask |= 1 << pos
            pos += 1
    return mask


def pattern_of_mask(mask: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`mask_of_pattern`: the ``n x n`` projected 0/1
    rows (diagonal 0) a selection mask stands for -- what the
    paper-literal Alg. 2 fold of :mod:`repro.core.verification` reads."""
    width = n - 1
    return tuple(
        tuple(0 if j == i
              else (mask >> (i * width + (j if j < i else j - 1))) & 1
              for j in range(n))
        for i in range(n))


def offdiagonal_bases(encrypted_matrix: Sequence[Sequence[CGBECiphertext]],
                      ) -> list[CGBECiphertext]:
    """The verification base vector: ``M[i][j]`` row-major, ``j != i`` --
    position-aligned with :func:`mask_of_pattern`."""
    n = len(encrypted_matrix)
    return [encrypted_matrix[i][j]
            for i in range(n) for j in range(n) if j != i]


__all__ = [
    "MaskedProductTable",
    "MultiExpRegistry",
    "STRAUS_WINDOW",
    "mask_of_pattern",
    "offdiagonal_bases",
    "pattern_of_mask",
]
