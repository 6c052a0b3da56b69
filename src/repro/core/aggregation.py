"""Shared CGBE aggregation machinery.

Alg. 2 (verification), Alg. 5 (twiglet pruning) and the path/neighbor
baselines all share one algebraic pattern: per *item* (a CMM, a query
vertex's table) the SP multiplies a fixed-length list of ciphertexts --
factor ``q`` marks a violation -- and per ball it sums the items, so that
the decrypted sum is a multiple of ``q`` iff *every* item violated.

Summing is only well-formed when each item's product fits one ciphertext
under the overflow budget (see :class:`repro.crypto.cgbe.AggregationBudget`).
When it does not, products are split into equal-size *chunks* and forwarded
per item; the user then accepts a ball iff some item has every chunk free of
the factor ``q``.  That test is an ``any`` over items, so items with equal
chunk lists (CMMs sharing one projected pattern) are forwarded once.  Chunk
counts depend only on public parameters and ``|V_Q|`` / ``|Sigma_Q|``, and
which items coincide only on the ball's plaintext and the public label
view, so the layout leaks nothing about the query's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cgbe import (
    CGBE,
    CGBECiphertext,
    CGBEPublicParams,
    OverflowError_,
)


@dataclass(frozen=True)
class ChunkPlan:
    """Layout of per-item products for one (query, parameter) combination.

    ``factors`` -- the fixed product length per item;
    ``chunk_factors`` -- factors fitting one ciphertext;
    ``chunks_per_item`` -- resulting ciphertexts per item;
    ``summable`` -- whether items may be summed into one ciphertext
    (the paper's exact aggregation).
    """

    factors: int
    chunk_factors: int
    chunks_per_item: int
    summable: bool

    @classmethod
    def plan(cls, params: CGBEPublicParams, factors: int,
             expected_terms: int = 1 << 16) -> "ChunkPlan":
        if factors < 1:
            raise ValueError("need at least one factor per item")
        chunk = params.budget.max_factors(terms=expected_terms)
        if chunk < 1:
            raise ValueError(
                f"CGBE modulus of {params.modulus_bits} bits cannot hold a "
                f"single {params.budget.bits_per_factor}-bit factor")
        if chunk >= factors:
            return cls(factors=factors, chunk_factors=factors,
                       chunks_per_item=1, summable=True)
        chunks = -(-factors // chunk)
        return cls(factors=factors, chunk_factors=chunk,
                   chunks_per_item=chunks, summable=False)


def chunked_product(params: CGBEPublicParams,
                    factors: list[CGBECiphertext],
                    c_one: CGBECiphertext,
                    plan: ChunkPlan) -> list[CGBECiphertext]:
    """Multiply one item's factors according to ``plan`` -- the
    paper-literal fold, kept as the oracle
    :class:`repro.crypto.kernels.MaskedProductTable` is tested against.

    Short inputs are padded with ``c_one`` so every chunk has exactly
    ``plan.chunk_factors`` factors (constant powers, constant work).
    Padding once up front to the full ``chunks_per_item * chunk_factors``
    grid is what makes every slice full-length -- no per-chunk re-padding.
    """
    if len(factors) > plan.factors:
        raise ValueError(
            f"item has {len(factors)} factors but the plan's chunk layout "
            f"holds at most {plan.factors} "
            f"({plan.chunks_per_item} chunk(s) x {plan.chunk_factors} "
            f"factors); build the plan with ChunkPlan.plan(params, "
            f"{len(factors)}) instead of truncating")
    padded = list(factors)
    padded.extend([c_one] * (plan.chunks_per_item * plan.chunk_factors
                             - len(padded)))
    chunks: list[CGBECiphertext] = []
    for start in range(0, len(padded), plan.chunk_factors):
        chunk = padded[start:start + plan.chunk_factors]
        chunks.append(CGBE.product(params, chunk))
    return chunks


@dataclass
class BallCiphertextResult:
    """The per-ball ciphertext payload sent toward the user.

    Exactly one of the shapes is populated:

    * ``summed`` -- the paper's single aggregated ciphertext;
    * ``per_item`` -- the *distinct* per-item chunk lists, in
      first-appearance order (budget-constrained layout);
    * ``bypassed`` -- the ball skipped this computation (footnote 6);
    * ``empty`` -- there was nothing to aggregate (no CMM / no matching
      table), which itself proves the ball spurious.
    """

    ball_id: int
    summed: CGBECiphertext | None = None
    per_item: list[list[CGBECiphertext]] | None = None
    bypassed: bool = False
    empty: bool = False

    def ciphertext_count(self) -> int:
        if self.summed is not None:
            return 1
        if self.per_item is not None:
            return sum(len(chunks) for chunks in self.per_item)
        return 0


def weighted_sum(params: CGBEPublicParams, terms: list[CGBECiphertext],
                 counts: list[int]) -> CGBECiphertext:
    """``CGBE.sum_`` over ``terms[i]`` repeated ``counts[i]`` times, in one
    pass: the same value (``sum(count * value) mod P``), ``power``,
    ``value_bits`` (one term's bits + ``ceil(log2 n)`` for ``n`` repeated
    terms) and :class:`OverflowError_` condition.  Terms must share one
    ``power`` and ``value_bits`` -- every item of one :class:`ChunkPlan`
    does.
    """
    if not terms:
        raise ValueError("empty sum")
    first = terms[0]
    if any(t.power != first.power or t.value_bits != first.value_bits
           for t in terms):
        raise ValueError("weighted sums need equal-size terms")
    bits = first.value_bits + (sum(counts) - 1).bit_length()
    if bits >= params.modulus_bits:
        raise OverflowError_(
            f"sum would need {bits} bits but the modulus has "
            f"{params.modulus_bits}; emit partial sums "
            f"(AggregationBudget.max_terms)")
    value = sum(count * t.value for t, count in zip(terms, counts))
    return CGBECiphertext(value=value % params.modulus, power=first.power,
                          value_bits=bits)


def aggregate_items(params: CGBEPublicParams, ball_id: int,
                    item_chunk_lists: list[list[CGBECiphertext]],
                    plan: ChunkPlan,
                    counts: list[int] | None = None) -> BallCiphertextResult:
    """Combine per-item chunk lists into the ball's result.

    ``counts[i]`` is how many items ``item_chunk_lists[i]`` stands for (1
    each by default), so a caller that groups equal items computes each
    once.  The summable layout is the paper-literal sum over every item,
    repeats included (:func:`weighted_sum`).  The per-item layout keeps
    each distinct chunk list once, in first-appearance order: the only
    place either shape is decided, so every caller that feeds it (the
    kernels, the paper-literal oracle) ships the same result.
    """
    if not item_chunk_lists:
        return BallCiphertextResult(ball_id=ball_id, empty=True)
    if plan.summable:
        if counts is None:
            counts = [1] * len(item_chunk_lists)
        terms = [chunks[0] for chunks in item_chunk_lists]
        return BallCiphertextResult(
            ball_id=ball_id, summed=weighted_sum(params, terms, counts))
    distinct: dict[tuple, list[CGBECiphertext]] = {}
    for chunks in item_chunk_lists:
        distinct.setdefault(tuple(chunks), chunks)
    return BallCiphertextResult(ball_id=ball_id,
                                per_item=list(distinct.values()))


def decide_positive(cgbe: CGBE, result: BallCiphertextResult) -> bool:
    """User-side decryption: True = the ball survives (positive)."""
    if result.bypassed:
        return True
    if result.empty:
        return False
    if result.summed is not None:
        return not cgbe.has_factor_q(result.summed)
    assert result.per_item is not None
    return any(all(not cgbe.has_factor_q(chunk) for chunk in chunks)
               for chunks in result.per_item)
