"""The durable delta log -- dynamic updates as an authenticated journal.

A dynamic graph's update stream gets the same durability discipline the
run journal (PR 4) gives queries: every :class:`~repro.graph.delta.GraphDelta`
is appended as one CRC-framed, fsync'd record of a
:class:`~repro.storage.journal.FramedLog` (which owns the frame layout,
the writer and the parser), and every record carries a **keyed** sha256 digest binding the
delta bytes to the graph digests it chains between::

    +----+------+---------+----------------------+-----------+
    | A5 | 0x07 | len:u32 | payload              | crc32:u32 |
    +----+------+---------+----------------------+-----------+

    payload = meta_len:u32 | meta (canonical JSON) | blob (delta JSON)
    meta    = {v, seq, parent, result, digest}

``parent``/``result`` are the whole-graph digests before/after the delta
(the same :func:`~repro.storage.store.graph_digest` the artifact-store
manifest pins), so the log is a hash chain over graph states.  The keyed
digest covers ``seq | parent | result | blob``: flipping any of them
without the owner key is detected and the record is **tampered** (exit 3
at the CLI), while a structurally intact record whose parent digest does
not match the graph at hand is merely **stale**/out-of-order (exit 2) --
the same severity split the store's ``verify`` applies, where tampered
wins over stale.

The log leaks exactly what an SP applying updates must observe anyway:
update cardinalities and which graph states chain to which.  Vertex and
label payloads inside the blob are the *plaintext owner-side* delta --
the log lives with the data owner next to the edge lists, not on the SP;
what the SP sees is the re-encrypted dirty packs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.graph.delta import GraphDelta
from repro.storage.journal import FramedLog

#: Versioned scheme tag every record's meta carries.
DELTA_SCHEME = "prilo-delta/1"

#: Frame record type -- outside the run journal's vocabulary, so neither
#: log can replay the other's frames.
DELTA_RECORD = 0x07


class DeltaError(RuntimeError):
    """The delta log cannot be used (bad key, malformed frame stream)."""


class StaleDeltaError(DeltaError):
    """A structurally intact record does not chain onto the graph at hand
    (its parent digest mismatches).  The log and the graph have diverged:
    re-sync or rebuild.  CLI exit 2."""


class TamperedDeltaError(DeltaError):
    """A record's keyed digest fails, or an applied delta does not
    reproduce its recorded result digest.  Hostile or corrupt -- never
    apply.  CLI exit 3."""


def delta_key(seed: int) -> bytes:
    """Keyed-digest key for a delta log, derived from the owner seed like
    :func:`~repro.storage.journal.journal_key` (no key material on disk)."""
    return hashlib.sha256(f"prilo-delta-key:{seed}"
                          .encode("utf-8")).digest()


def delta_digest(key: bytes, seq: int, parent: str, result: str,
                 blob: bytes) -> str:
    """Keyed digest over everything a record asserts: its chain position
    (``seq``), both graph digests, and the delta bytes."""
    h = hashlib.sha256()
    h.update(b"prilo-delta-rec:")
    h.update(key)
    h.update(seq.to_bytes(8, "big"))
    h.update(parent.encode("utf-8"))
    h.update(result.encode("utf-8"))
    h.update(blob)
    return h.hexdigest()


@dataclass(frozen=True)
class DeltaRecord:
    """One replayed, digest-verified record."""

    seq: int
    parent: str
    result: str
    delta: GraphDelta


@dataclass
class DeltaLogState:
    """The replayed picture of one delta log file."""

    records: list[DeltaRecord] = field(default_factory=list)
    #: Records whose keyed digest failed or whose blob is undecodable.
    tampered_records: int = 0
    #: Bytes discarded from the tail (torn final write), 0 when clean.
    truncated_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "scheme": DELTA_SCHEME,
            "records": len(self.records),
            "mutations": sum(rec.delta.size for rec in self.records),
            "tampered_records": self.tampered_records,
            "truncated_bytes": self.truncated_bytes,
            "head": self.records[0].parent if self.records else "",
            "tip": self.records[-1].result if self.records else "",
        }


class DeltaLog(FramedLog):
    """The keyed-digest delta log over :class:`FramedLog`."""

    RECORD_TYPES = {DELTA_RECORD: "delta"}
    #: Every delta is acknowledged on append: one ``fsync`` per record.
    DURABLE_TYPES = frozenset(RECORD_TYPES)
    error = DeltaError
    #: Sequence number of the next append; read off the file on first use.
    _next_seq: int | None = None

    def append(self, delta: GraphDelta, *, parent: str,
               result: str) -> DeltaRecord:
        """Durably append one delta chaining ``parent -> result``."""
        if self._next_seq is None:
            state = self.replay(truncate=False)
            self._next_seq = (state.records[-1].seq + 1
                              if state.records else 0)
        seq = self._next_seq
        blob = delta.to_bytes()
        self._write_frame(DELTA_RECORD, {
            "v": DELTA_SCHEME,
            "seq": seq,
            "parent": parent,
            "result": result,
            "digest": delta_digest(self.key, seq, parent, result, blob),
        }, blob)
        self._next_seq = seq + 1
        return DeltaRecord(seq=seq, parent=parent, result=result,
                           delta=delta)

    def replay(self, *, truncate: bool = True) -> DeltaLogState:
        """Rebuild the record list from disk (torn tail cut, see
        :meth:`FramedLog._frames`).  Records that frame correctly but
        fail the keyed digest -- or whose blob does not decode as a
        delta -- are hostile, not torn: dropped and counted in
        ``tampered_records``.
        """
        state = DeltaLogState()
        for _rtype, meta, blob in self._frames(state, truncate):
            record = None if meta is None else self._decode(meta, blob)
            if record is None:
                state.tampered_records += 1
            else:
                state.records.append(record)
        return state

    def _decode(self, meta: dict, blob: bytes) -> DeltaRecord | None:
        seq = meta.get("seq")
        parent = meta.get("parent")
        result = meta.get("result")
        if (meta.get("v") != DELTA_SCHEME
                or not isinstance(seq, int) or not 0 <= seq < 1 << 64
                or not isinstance(parent, str) or not isinstance(result, str)
                or meta.get("digest") != delta_digest(
                    self.key, seq, parent, result, blob)):
            return None
        try:
            delta = GraphDelta.from_bytes(blob)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError,
                SyntaxError):
            # An authenticated-yet-undecodable blob cannot happen under
            # an honest key; treat it as tamper, never as torn tail.
            return None
        return DeltaRecord(seq=seq, parent=parent, result=result,
                           delta=delta)

    def inspect(self) -> dict:
        """Non-destructive summary (torn bytes left in place)."""
        return self._summary(self.replay(truncate=False))


def walk_delta_chain(state: DeltaLogState, graph, apply_one):
    """THE walk over a replayed delta chain: yield ``(record,
    apply_one(record))`` for every record ``graph`` has not incorporated.

    ``apply_one`` is how one delta is applied (to a store, to a live
    engine); it must mutate ``graph`` in place.  Any tampered record in
    the replayed state refuses the whole log
    (:class:`TamperedDeltaError`; tampered wins over stale); a record
    whose ``result`` already equals the graph digest is skipped as
    applied (idempotent re-runs); one whose ``parent`` does not means
    the log and the graph diverged (:class:`StaleDeltaError`); and an
    applied delta must reproduce its recorded ``result`` digest
    (:class:`TamperedDeltaError`) before it is yielded.
    """
    from repro.storage.store import graph_digest

    if state.tampered_records:
        raise TamperedDeltaError(
            f"delta log carries {state.tampered_records} tampered "
            f"record(s); refusing to apply any of it")
    current = graph_digest(graph)
    for record in state.records:
        if record.result == current:
            continue
        if record.parent != current:
            raise StaleDeltaError(
                f"delta record seq={record.seq} chains from "
                f"{record.parent[:12]} but the graph is at "
                f"{current[:12]}; log and graph diverged")
        outcome = apply_one(record)
        current = graph_digest(graph)
        if current != record.result:
            raise TamperedDeltaError(
                f"delta record seq={record.seq} promised result "
                f"{record.result[:12]} but applying it produced "
                f"{current[:12]}")
        yield record, outcome


__all__ = [
    "DELTA_RECORD",
    "DELTA_SCHEME",
    "DeltaError",
    "DeltaLog",
    "DeltaLogState",
    "DeltaRecord",
    "StaleDeltaError",
    "TamperedDeltaError",
    "delta_digest",
    "delta_key",
    "walk_delta_chain",
]
