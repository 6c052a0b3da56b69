"""The gateway <-> shard wire protocol: length-prefixed JSON frames.

One frame = a 4-byte big-endian length followed by a UTF-8 JSON object.
JSON (not pickle) keeps the boundary inspectable and language-neutral;
msgpack would shave bytes but is not in the baked toolchain, and frame
payloads are dominated by ball-id lists, not encoding overhead.

Frame vocabulary (``"t"`` discriminates):

* ``hello``   shard -> gateway on connect: shard id + serving stats.
* ``ping`` / ``pong``  gateway health checks.
* ``query``   gateway -> shard: one query + the membership under which
  the shard must compute its owned slice (``members``; optional
  ``prev_members`` marks a re-placement pass that evaluates only balls
  that newly moved here -- see :mod:`repro.framework.placement`).
* ``verdict`` shard -> gateway: the shard's slice of the answer plus its
  per-query counters (caches, crypto ops, journal) for the shard-aware
  metrics merge.
* ``drain`` / ``drained``  graceful shutdown handshake.
* ``error``   a request the shard could not parse/serve; carries detail.

Everything in a ``verdict`` is data the Dealer/SP boundary already
reveals to the coordinator in the single-engine layout (ball ids,
counts, decrypted match subgraphs destined for the user), so sharding
adds transport, not leakage surface.

Serialization of answers is *canonical*: :func:`canonical_answer` sorts
every id list and renders match subgraphs through the deterministic
:func:`repro.graph.io.graph_to_json`, so "byte-identical answers" is a
simple bytes comparison (:func:`answer_bytes`) between any two of: a
plain engine run, a 1-shard gateway, an N-shard gateway, or a gateway
that lost a shard mid-batch.
"""

from __future__ import annotations

import asyncio
import json

from repro.graph.io import graph_from_json, graph_to_json
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import Query, Semantics

#: Upper bound on a single frame (64 MiB).  Far above any verdict at the
#: paper's scales; a length prefix beyond it means a corrupt or hostile
#: peer, and failing fast beats allocating whatever the prefix claims.
MAX_FRAME_BYTES = 64 << 20

_LEN_BYTES = 4


class WireError(RuntimeError):
    """Malformed frame, oversized frame, or an unparsable payload."""


def encode_frame(payload: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON."""
    body = json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    return len(body).to_bytes(_LEN_BYTES, "big") + body


def decode_frame(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 / JSON / nesting
        raise WireError(f"unparsable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(f"frame payload must be an object, "
                        f"got {type(payload).__name__}")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_LEN_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid-frame") from exc
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {length}-byte frame "
                        f"(cap {MAX_FRAME_BYTES})")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid-frame") from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


# ----------------------------------------------------------------------
# Query serialization
# ----------------------------------------------------------------------
def query_to_jsonable(query: Query) -> dict:
    """A query as wire data: the pattern's canonical JSON, the vertex
    order (repr-encoded, like every graph payload in :mod:`repro.graph.io`),
    the semantics and the diameter.  Round-trips to a query with an
    identical enumeration signature and identical answers."""
    return {
        "pattern": graph_to_json(query.pattern),
        "vertex_order": [repr(v) for v in query.vertex_order],
        "semantics": query.semantics.value,
        "diameter": query.diameter,
    }


def query_from_jsonable(payload: dict) -> Query:
    import ast

    pattern = graph_from_json(payload["pattern"])
    order = tuple(ast.literal_eval(v) for v in payload["vertex_order"])
    return Query(pattern=pattern,
                 semantics=Semantics(payload["semantics"]),
                 vertex_order=order,
                 diameter=int(payload["diameter"]))


# ----------------------------------------------------------------------
# Canonical answers (the byte-identity contract)
# ----------------------------------------------------------------------
def _match_json(sub) -> str:
    if isinstance(sub, LabeledGraph):
        return graph_to_json(sub)
    return str(sub)


def canonical_answer(candidate_ids, pm_positive_ids, verified_ids,
                     matches) -> dict:
    """The deterministic, merge-stable form of one query's answer.

    ``matches`` maps ball id -> list of match subgraphs, each either a
    :class:`LabeledGraph` (engine side) or an already-canonical graph
    JSON string (wire side); both normalize to the same sorted strings.
    """
    canon_matches = {
        str(ball_id): sorted(_match_json(sub) for sub in subs)
        for ball_id, subs in matches.items()
    }
    return {
        "candidates": sorted(int(b) for b in candidate_ids),
        "pm_positive": sorted(int(b) for b in pm_positive_ids),
        "verified": sorted(int(b) for b in verified_ids),
        "matches": {k: canon_matches[k] for k in sorted(canon_matches,
                                                        key=int)},
        "num_matches": sum(len(v) for v in canon_matches.values()),
    }


def canonical_answer_of_result(result) -> dict:
    """:func:`canonical_answer` for a :class:`~repro.framework.prilo.QueryResult`."""
    return canonical_answer(result.candidate_ids, result.pm_positive_ids,
                            result.verified_ids, result.matches)


def answer_bytes(answer: dict) -> bytes:
    """The bytes two answers must agree on exactly."""
    return json.dumps(answer, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def verdict_payload(qid: int, shard_id: int, outcome, *,
                    busy: float | None = None,
                    cert: dict | None = None) -> dict:
    """One shard's reply for one query: its answer slice plus counters.

    ``outcome`` is the :class:`~repro.framework.server.QueryOutcome` of
    the shard-local :class:`~repro.framework.server.QueryStream`.
    ``busy`` overrides the reported busy seconds -- shards pass their
    per-query CPU time so the gateway's critical-path metric stays
    meaningful on hosts with fewer cores than shards (wall latency there
    includes scheduler wait, which grows with fleet size).
    ``cert`` attaches the shard's result certificate
    (:class:`repro.framework.verify.Certifier`) to an answered query.
    """
    payload = {
        "t": "verdict",
        "qid": qid,
        "shard": shard_id,
        "status": outcome.status,
        "detail": outcome.detail,
        "busy": outcome.latency_seconds if busy is None else busy,
    }
    result = outcome.result
    # OK outcomes carry their RunMetrics on the result; only aborted runs
    # (deadline) stash partial metrics on the outcome itself.
    metrics = outcome.metrics
    if metrics is None and result is not None:
        metrics = result.metrics
    if metrics is not None:
        payload["caches"] = {name: stats.as_dict()
                             for name, stats in metrics.caches.items()}
        payload["ops"] = metrics.ops.as_dict()
        payload["journal"] = metrics.journal.as_dict()
    if cert is not None:
        payload["cert"] = cert
    if result is not None:
        payload.update({
            "candidates": sorted(int(b) for b in result.candidate_ids),
            "pm_positive": sorted(int(b) for b in result.pm_positive_ids),
            "verified": sorted(int(b) for b in result.verified_ids),
            "matches": {str(ball_id): sorted(graph_to_json(sub)
                                             for sub in subs)
                        for ball_id, subs in result.matches.items()},
        })
    return payload


__all__ = [
    "MAX_FRAME_BYTES",
    "WireError",
    "answer_bytes",
    "canonical_answer",
    "canonical_answer_of_result",
    "decode_frame",
    "encode_frame",
    "query_from_jsonable",
    "query_to_jsonable",
    "read_frame",
    "verdict_payload",
    "write_frame",
]
