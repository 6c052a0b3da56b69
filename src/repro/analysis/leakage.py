"""SP-observable leakage accounting.

Everything the service provider can observe about a run -- counts, sizes,
orderings, bypass flags -- gathered into one comparable record.  The
access-pattern privacy claim (Sec. 2.3) says these observables must be a
function of *public* inputs (graph, labels, diameter, parameters) only;
:func:`assert_query_independent` operationalizes that as an equality check
between runs of structurally different queries with the same public view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.framework.prilo import QueryResult


@dataclass(frozen=True)
class LeakageProfile:
    """The SP's complete observable view of one query run.

    ``result_ciphertexts`` is the bytes of ciphertext results the Players
    ship: one ciphertext per ball in the summable layout; in the chunked
    layout ``chunks_per_item`` per *distinct* projected pattern of the
    ball's CMMs.  Which CMMs share a pattern is decided by the ball's
    plaintext adjacency and the public label view alone, so the SP can
    compute the figure before touching a ciphertext (SP-simulatable) and
    it is equal across queries with equal public views.
    """

    chosen_label_repr: str
    diameter: int
    vertex_labels: tuple[str, ...]
    num_candidates: int
    sequence_lengths: tuple[int, ...]
    evaluations: int
    result_ciphertexts: int
    pm_message_bytes: int
    bypassed_balls: int

    @classmethod
    def of(cls, result: QueryResult) -> "LeakageProfile":
        return cls(
            chosen_label_repr=repr(result.chosen_label),
            diameter=result.query.diameter,
            vertex_labels=tuple(
                repr(result.query.label(u))
                for u in result.query.vertex_order),
            num_candidates=len(result.candidate_ids),
            sequence_lengths=tuple(len(s) for s in result.sequences),
            evaluations=result.schedule.evaluations,
            result_ciphertexts=result.metrics.sizes.ciphertext_results,
            pm_message_bytes=result.metrics.sizes.pruning_messages,
            bypassed_balls=result.metrics.bypassed_balls,
        )

    def public_view(self) -> dict:
        """The fields a privacy audit compares."""
        return {
            "chosen_label": self.chosen_label_repr,
            "diameter": self.diameter,
            "vertex_labels": self.vertex_labels,
            "num_candidates": self.num_candidates,
            "sequence_lengths": self.sequence_lengths,
            "evaluations": self.evaluations,
            "result_ciphertexts": self.result_ciphertexts,
            "pm_message_bytes": self.pm_message_bytes,
            "bypassed_balls": self.bypassed_balls,
        }


def diff_profiles(a: LeakageProfile, b: LeakageProfile) -> dict[str, tuple]:
    """The observables on which two runs differ (empty = indistinguishable
    up to ciphertext randomness)."""
    differences: dict[str, tuple] = {}
    for key, value_a in a.public_view().items():
        value_b = b.public_view()[key]
        if value_a != value_b:
            differences[key] = (value_a, value_b)
    return differences


#: Observables that legitimately vary with the user's *deliberate* step-4
#: disclosure (the decrypted positive/negative split drives SSG's early vs
#: normal mode, hence sequence lengths and total evaluation counts).
DISCLOSURE_DEPENDENT = frozenset({"sequence_lengths", "evaluations"})


# ---------------------------------------------------------------------------
# The allowed-observation model for trace spans
# ---------------------------------------------------------------------------
#: Span-attribute vocabulary of the paper's access-pattern bound: every
#: attribute a restricted-scope (``dealer``/``player``/``enclave``/``sp``)
#: trace span may carry.  It is the :class:`LeakageProfile` fields recast
#: per protocol step -- counts, sizes, orderings and public protocol
#: coordinates; nothing here is a function of the query's *edge structure*
#: beyond what steps 4-9 already reveal (candidate counts, the user's
#: deliberate positive/negative disclosure, and schedule geometry).
#: :class:`repro.observability.spans.RedactionPolicy` enforces this set at
#: span construction; :func:`repro.observability.audit.audit_spans`
#: re-checks serialized traces against it (``repro run --leakage-audit``).
SPAN_OBSERVABLE_KEYS = frozenset({
    # protocol cardinalities (LeakageProfile: num_candidates,
    # sequence_lengths, evaluations, bypassed_balls)
    "candidates", "positives", "balls", "cmms", "bypassed", "sequences",
    "evaluations", "queries", "index",
    # message/boundary sizes (LeakageProfile: pm_message_bytes,
    # result_ciphertexts; EnclaveMetrics byte meters)
    "bytes", "bytes_in", "bytes_out", "ecalls",
    # public protocol coordinates and engine topology
    "share_key", "mode", "backend", "kind", "semantics", "diameter",
    "workers", "attempt",
    # serving/journal machinery (already operator-visible state)
    "replayed", "records", "tampered", "truncated_bytes", "checkpoints",
    "submitted", "admitted", "shed", "drained", "committed",
    # cache counters (functions of public label views and ball ids)
    "hits", "misses", "evictions", "entries", "weight",
    # crypto op counters (operation-sequence cardinalities; the op
    # *sequence* is position-independent by Alg. 2's construction, so its
    # length reveals nothing beyond the candidate/CMM counts above)
    "modmuls", "modexps", "table_builds",
    # sharded-gateway topology (member ids, ring epochs, death and
    # re-dispatch counts are cluster facts the operator configures or
    # already observes at the process level; consistent-hash placement is
    # a public function of public ball ids, so ownership reveals nothing
    # the access-pattern bound does not)
    "shard", "shards", "deaths", "re_dispatches", "epoch", "pool",
    "window",
    # dynamic-update machinery (``delta_apply`` spans): dirty/re-encrypted
    # ball counts are sizes of public ball-id sets the SP derives itself
    # from the (public) delta's touched vertices; standing/notified are
    # registration and change-flag cardinalities -- none is a function of
    # query structure or match content
    "dirty", "reencrypted", "standing", "notified",
})

#: The subset of :data:`SPAN_OBSERVABLE_KEYS` whose values may be strings
#: -- each names a public coordinate with a closed vocabulary (a share
#: key like ``eval:0:p1``, a sequence mode, a backend or artifact-kind
#: name).  Every other allowed key must carry a number or bool, so
#: plaintext cannot ride along in a value.
SPAN_STRING_KEYS = frozenset({
    "share_key", "mode", "backend", "kind", "semantics",
})


def assert_query_independent(a: QueryResult, b: QueryResult,
                             ignore: frozenset[str] = frozenset()) -> None:
    """Raise AssertionError naming any observable that distinguishes two
    runs whose queries share labels/diameter but differ in structure.

    For the baseline Prilo (no pruning, RSG) every field must match.  For
    Prilo\\* pass ``ignore=DISCLOSURE_DEPENDENT``: the user's step-4
    disclosure of positive/negative bits is its own choice, not an SP
    inference, and SSG's geometry follows from it; everything the SP
    derives *without* that disclosure still may not differ.
    """
    differences = diff_profiles(LeakageProfile.of(a), LeakageProfile.of(b))
    relevant = {key: value for key, value in differences.items()
                if key not in ignore}
    if relevant:
        raise AssertionError(
            "SP-observable difference between label-equal queries: "
            + ", ".join(f"{key}: {va!r} != {vb!r}"
                        for key, (va, vb) in relevant.items()))
