"""The write-ahead run journal -- crash-safe durable serving.

PR 3 made a single run survive *transient* faults; a ``kill -9``, an OOM
kill or a host restart still lost every in-flight query.  The
:class:`RunJournal` closes that gap: the serving layer appends one
record per protocol milestone (batch admission, query begin,
executor-share completion, query commit, drain).  Every record is
written and flushed to the OS before ``append`` returns, so ``kill -9``
or an OOM kill loses nothing that was appended.  ``fsync`` is a group
commit, run where the serving layer acknowledges something -- a query
commit (before the answer leaves), a drain, ``close()``: a record is
durable before anything that depends on it is acknowledged, and a
*host* crash loses at most the shares of the one un-acknowledged
query, which a resume recomputes.  A restarted ``serve-batch``/``run``
replays the journal and re-evaluates only the shares that never
reached it -- per-ball evaluation is a pure function of ``(message,
ball)`` and the CGBE randomness stream is a pure function of ``(seed,
query order)``, so a resumed run reproduces the uninterrupted run's
messages bit-for-bit and its answers exactly.

Record format (little-endian)::

    +----+------+---------+----------------+-----------+
    | A5 | type | len:u32 | payload        | crc32:u32 |
    +----+------+---------+----------------+-----------+

    payload = meta_len:u32 | meta (canonical JSON) | blob (pickle)

:class:`FramedLog` owns that layout -- the one writer, the one frame
reader and the one meta decoder -- for this journal and for the delta
log (:mod:`repro.storage.delta`); each log adds only its record
vocabulary, its keyed digest and its replayed state.

The CRC frames every record against *torn writes*: replay stops at the
first record whose frame is incomplete or whose CRC mismatches and
truncates the tail (a crash mid-``write`` must lose at most the record
being written, never a prefix).  Independently of the CRC, every record
that carries protocol state (share outcomes, commits) embeds a **keyed**
sha256 digest over its blob -- the same keyed-hash discipline
:mod:`repro.storage.store` applies to ball packs -- so a *tampered*
record is distinguishable from a torn one: tampering is detected,
reported, and the share is re-evaluated from the live pipeline rather
than trusted.

What is deliberately **not** persisted (leakage argument, DESIGN.md
section 9): decrypted pruning bits, plaintext matches, and any user-side
secret.  The journal holds only what the SP already observes during an
uninterrupted run -- ball/share identifiers, ciphertext verdicts and
public scheduling metadata -- so crash recovery never widens the leakage
surface beyond what the access-pattern analysis already admits.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

_REC_MAGIC = 0xA5
_HEADER = struct.Struct("<BBI")   # magic, type, payload length
_CRC = struct.Struct("<I")
_META_LEN = struct.Struct("<I")

#: Hard per-record payload bound: a length field corrupted into the
#: gigabytes must read as a torn tail, not an allocation attempt.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024

#: Everything ``pickle.loads`` raises on a malformed-but-authenticated
#: share payload (garbage stream, truncated stream, references to names
#: this build does not define).  Deliberately *not* a bare ``Exception``:
#: a KeyboardInterrupt, a tracer bug or an injected fault inside
#: unpickling must propagate, never be silently counted as tamper.
_UNPICKLE_ERRORS = (pickle.UnpicklingError, AttributeError, EOFError,
                    ImportError, IndexError, TypeError, ValueError)


class RecordType:
    """The journal's record vocabulary."""

    #: A ``serve`` call was admitted: config fingerprint + query keys.
    BATCH_ADMIT = 1
    #: One query started executing.
    QUERY_BEGIN = 2
    #: One Player share finished: ciphertext verdicts + fault events.
    SHARE_RESULT = 3
    #: One query finished: keyed answer digest + metrics snapshot.
    QUERY_COMMIT = 4
    #: Graceful drain: the process checkpointed and stopped admitting.
    DRAIN = 5


_TYPE_NAMES = {
    RecordType.BATCH_ADMIT: "batch_admit",
    RecordType.QUERY_BEGIN: "query_begin",
    RecordType.SHARE_RESULT: "share_result",
    RecordType.QUERY_COMMIT: "query_commit",
    RecordType.DRAIN: "drain",
}


class JournalError(RuntimeError):
    """The journal cannot be used (fingerprint mismatch, bad path,
    integrity violation on a committed answer)."""


def journal_key(seed: int) -> bytes:
    """The keyed-digest key for a journal, derived from the owner seed
    exactly like the store's key fingerprint discipline: the digest keys
    durable state without ever writing key material to disk."""
    return hashlib.sha256(f"prilo-journal-key:{seed}"
                          .encode("utf-8")).digest()


def keyed_digest(key: bytes, blob: bytes) -> str:
    """Tamper-evidence digest over one record blob (hex)."""
    return hashlib.sha256(b"prilo-journal-rec:" + key + blob).hexdigest()


def config_fingerprint(config, graph_digest: str = "") -> str:
    """A stable digest of every config field that shapes answers or the
    share partition.  A journal written under one fingerprint must never
    be replayed into an engine with another: ball ids, share keys and the
    randomness stream would all silently diverge.

    Scheduling-only knobs (chaos, deadlines, verified serving) are
    deliberately excluded -- resuming with the kill schedule disabled is
    exactly the recovery scenario the journal exists for.  Journals
    written when the config still carried an executor backend, a
    parallelism or recovery switches resume unchanged: none was ever
    hashed here.
    """
    fields = {
        "k_players": config.k_players,
        "modulus_bits": config.modulus_bits,
        "q_bits": config.q_bits,
        "r_bits": config.r_bits,
        "radii": list(config.radii),
        "use_bf": config.use_bf,
        "use_twiglet": config.use_twiglet,
        "use_path": config.use_path,
        "use_neighbor": config.use_neighbor,
        "use_ssg": config.use_ssg,
        "twiglet_h": config.twiglet_h,
        "enumeration_limit": config.enumeration_limit,
        "cmm_bound_bypass": config.cmm_bound_bypass,
        "label_strategy": config.label_strategy,
        "seed": config.seed,
        "graph": graph_digest,
    }
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def query_idempotency_key(key: bytes, query, index: int) -> str:
    """The per-submission idempotency key: a keyed digest of the query's
    canonical form plus its submission index.

    Replaying the same batch after a crash reproduces the same keys, so
    journaled work dedupes; two *identical* queries at different batch
    positions stay distinct (each consumes its own randomness slice).
    """
    row = {v: i for i, v in enumerate(query.vertex_order)}
    canonical = {
        "semantics": query.semantics.value,
        "diameter": query.diameter,
        "labels": [repr(query.label(u)) for u in query.vertex_order],
        "edges": sorted(sorted((row[u], row[v]))
                        for u, v in query.pattern.edges()),
        "index": index,
    }
    blob = json.dumps(canonical, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(b"prilo-journal-query:" + key + blob).hexdigest()


@dataclass
class JournaledShare:
    """One replayed share: the pickled outcome plus the fault events that
    were recorded (and journaled) while it was first computed."""

    outcome: object
    events: list[dict] = field(default_factory=list)


@dataclass
class QueryJournalState:
    """Everything the journal knows about one query."""

    key: str
    index: int = -1
    shares: dict[str, JournaledShare] = field(default_factory=dict)
    committed: bool = False
    answer_digest: str = ""
    fault_counts: dict = field(default_factory=dict)


@dataclass
class JournalState:
    """The replayed picture of one journal file."""

    fingerprint: str = ""
    batches: int = 0
    queries: dict[str, QueryJournalState] = field(default_factory=dict)
    record_counts: dict[str, int] = field(default_factory=dict)
    records: int = 0
    #: Bytes discarded from the tail (torn final write), 0 when clean.
    truncated_bytes: int = 0
    #: Records whose keyed digest failed -- dropped, counted, re-evaluated.
    tampered_records: int = 0
    drained: bool = False

    def query(self, key: str) -> QueryJournalState:
        state = self.queries.get(key)
        if state is None:
            state = QueryJournalState(key=key)
            self.queries[key] = state
        return state

    @property
    def journaled_shares(self) -> int:
        return sum(len(q.shares) for q in self.queries.values())

    @property
    def committed_queries(self) -> int:
        return sum(1 for q in self.queries.values() if q.committed)

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "records": self.records,
            "record_counts": dict(self.record_counts),
            "batches": self.batches,
            "queries": len(self.queries),
            "committed_queries": self.committed_queries,
            "journaled_shares": self.journaled_shares,
            "truncated_bytes": self.truncated_bytes,
            "tampered_records": self.tampered_records,
            "drained": self.drained,
        }


def _split_payload(payload: bytes) -> tuple[dict | None, bytes]:
    """``(meta, blob)`` of one CRC-valid payload; ``meta`` is None unless
    the payload really is ``meta_len | JSON object | blob``."""
    if len(payload) < _META_LEN.size:
        return None, b""
    meta_end = _META_LEN.size + _META_LEN.unpack_from(payload)[0]
    if meta_end > len(payload):
        return None, b""
    try:
        meta = json.loads(payload[_META_LEN.size:meta_end].decode("utf-8"))
    except (ValueError, RecursionError):    # not UTF-8, not JSON, too deep
        return None, b""
    return (meta if isinstance(meta, dict) else None), payload[meta_end:]


class FramedLog:
    """One append-only, CRC-framed record file -- THE place the frame
    layout of the module docstring is written and parsed.

    A subclass names the record types it accepts (``RECORD_TYPES``), the
    ones acknowledged on append (``DURABLE_TYPES``) and the error it
    raises (``error``); its replayed state object carries
    ``truncated_bytes`` and ``tampered_records``.
    """

    #: record type byte -> name; any other type byte reads as a torn tail.
    RECORD_TYPES: dict[int, str] = {}
    #: The record types whose append ``fsync``s -- making every record
    #: written before them durable too.  The record type decides
    #: durability: any other record is written and flushed (it survives
    #: ``kill -9``) and reaches the disk with the next durable record or
    #: :meth:`close`.
    DURABLE_TYPES: frozenset[int] = frozenset()
    error: type[Exception] = JournalError

    def __init__(self, path: str | Path, key: bytes) -> None:
        if not isinstance(key, bytes) or not key:
            raise self.error(
                f"{type(self).__name__} key must be non-empty bytes")
        self.path = Path(path)
        self.key = key
        self._fh: io.BufferedWriter | None = None
        #: Whether records were written since the last ``fsync``.
        self._unsynced = False

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _write_frame(self, rtype: int, meta: dict, blob: bytes) -> None:
        """Append one record (framed, CRC'd, written and flushed): when
        this returns, the record survives ``kill -9``; when its type is
        in ``DURABLE_TYPES``, it and every record before it also survive
        a host crash."""
        meta_bytes = json.dumps(meta, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        payload = _META_LEN.pack(len(meta_bytes)) + meta_bytes + blob
        header = _HEADER.pack(_REC_MAGIC, rtype, len(payload))
        crc = zlib.crc32(header + payload) & 0xFFFFFFFF
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab")
        self._fh.write(header + payload + _CRC.pack(crc))
        self._fh.flush()
        self._unsynced = True
        if rtype in self.DURABLE_TYPES:
            self._sync()

    def _sync(self) -> None:
        """Group commit: one ``fsync`` for every record flushed since the
        last one."""
        if self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = False

    def close(self) -> None:
        """Make the flushed tail durable, then release the handle."""
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @classmethod
    def _read_frame(cls, data: bytes, offset: int):
        """One framed record at ``offset`` as ``(type, payload, next
        offset)``; None on any torn/corrupt frame (replay treats
        everything from there on as lost tail)."""
        end = offset + _HEADER.size
        if end > len(data):
            return None
        magic, rtype, length = _HEADER.unpack_from(data, offset)
        if magic != _REC_MAGIC or rtype not in cls.RECORD_TYPES:
            return None
        if length > MAX_PAYLOAD_BYTES:
            return None
        payload_end = end + length
        crc_end = payload_end + _CRC.size
        if crc_end > len(data):
            return None
        expected = _CRC.unpack_from(data, payload_end)[0]
        if zlib.crc32(data[offset:payload_end]) & 0xFFFFFFFF != expected:
            return None
        return rtype, data[end:payload_end], crc_end

    def _frames(self, state, truncate: bool):
        """Yield ``(type, meta, blob)`` for every intact frame on disk.

        Stops at the first torn frame (incomplete or CRC mismatch), sets
        ``state.truncated_bytes`` and -- with ``truncate`` -- cuts the
        file back to the last intact record, so a crash mid-write
        self-heals on restart.  A frame whose CRC holds but whose payload
        is not ``meta_len | JSON object | blob`` was not written by
        :meth:`_write_frame`: it is hostile, not torn, and is yielded
        with ``meta=None`` for the caller to count as tampered.
        """
        if not self.path.is_file():
            return
        data = self.path.read_bytes()
        offset = 0
        while (frame := self._read_frame(data, offset)) is not None:
            rtype, payload, offset = frame
            yield (rtype, *_split_payload(payload))
        state.truncated_bytes = len(data) - offset
        if truncate and state.truncated_bytes:
            self.close()
            with self.path.open("r+b") as fh:
                fh.truncate(offset)

    def _summary(self, state) -> dict:
        """The ``inspect`` payload: the replayed state plus the file."""
        summary = state.as_dict()
        summary["path"] = str(self.path)
        summary["file_bytes"] = (self.path.stat().st_size
                                 if self.path.is_file() else 0)
        return summary


#: Meta keys that must be strings for a record to be applied at all
#: (they address the query/share the record belongs to).
_REQUIRED_META = {
    RecordType.QUERY_BEGIN: ("query",),
    RecordType.SHARE_RESULT: ("query", "share"),
    RecordType.QUERY_COMMIT: ("query",),
}


class RunJournal(FramedLog):
    """The write-ahead run journal over :class:`FramedLog`.

    When ``append`` returns, the record survives ``kill -9``.  The two
    records the serving layer acknowledges -- ``QUERY_COMMIT``, before
    the answer leaves, and ``DRAIN`` -- are ``fsync``'d together with
    every record before them: one ``fsync`` per answered query, not one
    per record.  A host crash loses at most the un-acknowledged query's
    begin and share records; a resume re-evaluates those shares.
    """

    RECORD_TYPES = _TYPE_NAMES
    DURABLE_TYPES = frozenset({RecordType.QUERY_COMMIT, RecordType.DRAIN})
    records_written = 0

    def append(self, rtype: int, meta: dict, blob: bytes = b"") -> None:
        """Append one record (framed, CRC'd, flushed; ``fsync``'d when it
        is acknowledged, see the class docstring)."""
        if rtype not in _TYPE_NAMES:
            raise JournalError(f"unknown record type {rtype!r}")
        if blob:
            meta = dict(meta)
            meta["digest"] = keyed_digest(self.key, blob)
        self._write_frame(rtype, meta, blob)
        self.records_written += 1

    def append_share(self, query_key: str, share_key: str, outcome: object,
                     events: list[dict] | None = None) -> None:
        """Checkpoint one completed Player share."""
        self.append(RecordType.SHARE_RESULT,
                    {"query": query_key, "share": share_key,
                     "events": events or []},
                    pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self, *, truncate: bool = True) -> JournalState:
        """Rebuild the durable state from disk (torn tail cut, see
        :meth:`FramedLog._frames`).  Records that frame correctly but
        fail the *keyed* digest, do not unpickle, or lack the keys that
        address them are hostile: dropped, counted in
        ``tampered_records``, and their shares are re-evaluated instead
        of trusted.
        """
        state = JournalState()
        for rtype, meta, blob in self._frames(state, truncate):
            state.records += 1
            name = _TYPE_NAMES[rtype]
            state.record_counts[name] = state.record_counts.get(name, 0) + 1
            if meta is None or not self._apply(state, rtype, meta, blob):
                state.tampered_records += 1
        return state

    def _apply(self, state: JournalState, rtype: int, meta: dict,
               blob: bytes) -> bool:
        """Fold one record into ``state``; False when it must not be
        trusted."""
        if not all(isinstance(meta.get(name), str)
                   for name in _REQUIRED_META.get(rtype, ())):
            return False
        if rtype == RecordType.BATCH_ADMIT:
            fingerprint = str(meta.get("fingerprint", ""))
            if state.fingerprint and fingerprint != state.fingerprint:
                raise JournalError(
                    f"journal {self.path} mixes config fingerprints "
                    f"({state.fingerprint[:12]} vs {fingerprint[:12]}); "
                    f"one journal serves one engine configuration")
            state.fingerprint = fingerprint
            state.batches += 1
        elif rtype == RecordType.QUERY_BEGIN:
            query = state.query(meta["query"])
            query.index = meta.get("index", -1)
        elif rtype == RecordType.SHARE_RESULT:
            if meta.get("digest") != keyed_digest(self.key, blob):
                return False
            try:
                outcome = pickle.loads(blob)
            except _UNPICKLE_ERRORS:
                # A digest collision cannot happen under an honest key;
                # treat an unpicklable-yet-authenticated blob as tamper.
                return False
            state.query(meta["query"]).shares[meta["share"]] = (
                JournaledShare(outcome=outcome,
                               events=meta.get("events", [])))
        elif rtype == RecordType.QUERY_COMMIT:
            query = state.query(meta["query"])
            query.committed = True
            query.answer_digest = meta.get("answer_digest", "")
            query.fault_counts = meta.get("faults", {})
        elif rtype == RecordType.DRAIN:
            state.drained = True
        return True

    # ------------------------------------------------------------------
    # inspection (``repro journal inspect``)
    # ------------------------------------------------------------------
    def inspect(self) -> dict:
        """Non-destructive summary: record counts, last checkpoint, and a
        truncated-tail report (the torn bytes are left in place)."""
        state = self.replay(truncate=False)
        last = ""
        for query in state.queries.values():
            if query.committed:
                last = f"query_commit:{query.key[:12]}"
            elif query.shares:
                last = f"share_result:{query.key[:12]}"
        summary = self._summary(state)
        summary["last_checkpoint"] = last
        return summary


def answer_digest(key: bytes, verified_ids, match_ball_ids,
                  num_matches: int) -> str:
    """The keyed digest a ``QUERY_COMMIT`` records: the query's durable
    answer identity (ids and counts only -- no plaintext subgraphs touch
    the journal).  A resumed run recomputes it and any mismatch against
    the committed digest is an integrity violation, not a recovery."""
    payload = json.dumps({
        "verified": sorted(verified_ids),
        "matches": sorted(match_ball_ids),
        "count": num_matches,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(b"prilo-journal-answer:" + key + payload
                          ).hexdigest()


__all__ = [
    "FramedLog",
    "JournalError",
    "JournalState",
    "JournaledShare",
    "QueryJournalState",
    "RecordType",
    "RunJournal",
    "answer_digest",
    "config_fingerprint",
    "journal_key",
    "keyed_digest",
    "query_idempotency_key",
]
