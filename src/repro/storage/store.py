"""The persistent offline artifact store -- the paper's step-1 outsourcing.

Sec. 2.3 treats ball generation as a one-time offline step ("the data
owner generates all balls of graph G with various diameters offline"),
yet the in-process engines rebuild every store on construction: the ball
index re-extracts subgraphs, the Dealer re-encrypts blobs, and the
Players re-enumerate per-ball pruning features on every query.
:class:`ArtifactStore` persists that whole offline output once:

* **balls.pack** -- every ball's canonical record
  (:func:`repro.graph.io.ball_to_bytes`), concatenated; loaded through
  ``mmap`` so a cold engine start touches only the balls a query
  actually visits;
* **encrypted.pack** -- the Dealer's authenticated ciphertext blobs
  (StreamCipher under the owner's ``sk``), same offset table;
* **twiglets.json** -- always the empty document
  ``{"balls":{},"h":null}``.  The store keeps no twiglet features: Alg. 5
  line 3 computes a ball's twiglet set ``R`` at query time, and the
  Players walk it under the query's alphabet afresh.  The file and its
  checksum stay so that packs move between this release and the one
  before it in both directions.

The ``manifest.json`` keys everything by (graph digest, radii, owner-key
fingerprint) and carries a sha256 per artifact file:
:meth:`ArtifactStore.check` detects staleness (the graph or config
changed under the store), :meth:`verify` detects tampering.  BF pruning
(Sec. 4.1) stores nothing: its tree encodings follow the query's label
codec.  :meth:`ArtifactStore.open` reads exactly the layout the writer
writes; a manifest an earlier release wrote is :class:`StoreStale`
(rebuild with ``repro store build``).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

# ledger pin: ``benchmarks/ledger/spans.py`` WRAP_TABLE resolves these
# imports by hard lookup; delete with their rows at the re-pin (ROADMAP 2).
from repro.core.trees import enumerate_center_tree_encodings  # noqa: F401
from repro.core.twiglets import twiglets_from  # noqa: F401
from repro.crypto.keys import DataOwnerKey
from repro.crypto.stream_cipher import AuthenticationError
from repro.storage.authenticate import (
    auth_key,
    build_auth_block,
    build_catalog,
    leaf_digest,
    updated_auth_block,
)
from repro.framework.faults import FaultAction, FaultInjector, FaultKind
from repro.framework.messages import EncryptedBallBlob
from repro.graph.ball import Ball, BallIndex, extract_ball
from repro.graph.delta import GraphDelta, dirty_ball_keys, touched_min_distances
from repro.graph.io import ball_from_bytes, ball_to_bytes, graph_to_json
from repro.graph.labeled_graph import LabeledGraph
from repro.observability.spans import NULL_TRACER

_MANIFEST = "manifest.json"
_BALLS_PACK = "balls.pack"
_ENCRYPTED_PACK = "encrypted.pack"
_TWIGLETS = "twiglets.json"
#: The files a manifest checksums, in the order a commit replaces them.
_ARTIFACTS = (_BALLS_PACK, _ENCRYPTED_PACK, _TWIGLETS)
#: What a manifest says besides ``version`` / ``balls`` / ``checksums``.
_FIELDS = ("graph_digest", "key_digest", "radii", "ball_ids", "auth")
#: What every commit writes to ``twiglets.json``: the document of a pack
#: that holds no twiglet features.
_NO_TWIGLETS = '{"balls":{},"h":null}'
#: Written by every commit.
_VERSION = 2
#: The one version :func:`_check_shape` reads: this release's own, fixed
#: when the module loads.  Every lower one is an earlier release's.
_READ_VERSION = _VERSION


class StoreError(RuntimeError):
    """Store is missing, stale, malformed, or failed verification."""


class StoreStale(StoreError):
    """The store no longer matches the live graph, radii or owner key:
    rebuildable, not damaged (CLI exit 2 where plain :class:`StoreError`
    is exit 3)."""


class StoreUsageError(StoreError):
    """The request is wrong, not the store: a non-empty target directory
    or a non-positive shard count (CLI exit 1, not 3)."""


class StoreMiss(StoreError):
    """A requested ball id is simply not in this store.

    Distinct from corruption on purpose: a *shard* pack (see
    :func:`shard_split`) legitimately holds only its placement slice, so
    a miss on a re-placed orphan ball must fall back to the live graph
    without quarantining the pack -- quarantine is for artifacts that
    served *wrong* bytes, not for artifacts that never held the ball.
    """


@dataclass(frozen=True)
class PackReport:
    """Verification outcome for one artifact file."""

    name: str
    #: ``ok`` | ``stale`` | ``tampered`` | ``missing``
    status: str
    reason: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "reason": self.reason}


@dataclass
class VerifyReport:
    """The full integrity/staleness picture of one store.

    Unlike the old first-failure raise, every artifact is checked and
    reported, so an operator sees the complete damage in one sweep --
    and ``repro store verify`` can map stale vs tampered to distinct
    exit codes.
    """

    packs: list[PackReport] = field(default_factory=list)
    balls: int = 0
    #: Blobs that decrypt-authenticated AND matched the plaintext pack
    #: during the keyed sweep (0 when no key was supplied).
    decrypted: int = 0

    @property
    def ok(self) -> bool:
        return all(p.status == "ok" for p in self.packs)

    @property
    def stale(self) -> list[PackReport]:
        return [p for p in self.packs if p.status == "stale"]

    @property
    def tampered(self) -> list[PackReport]:
        """Integrity failures: tampered or missing artifacts."""
        return [p for p in self.packs if p.status in ("tampered", "missing")]

    def as_dict(self) -> dict:
        return {"ok": self.ok,
                "balls": self.balls,
                "decrypted": self.decrypted,
                "packs": [p.as_dict() for p in self.packs]}


@dataclass(frozen=True)
class DeltaApplyReport:
    """What one :meth:`ArtifactStore.apply_delta` actually touched.

    The incremental-maintenance contract in one record: ``reused`` balls
    had their pack bytes (and Merkle leaves) copied verbatim, only
    ``reencrypted`` balls paid encryption and a new leaf:
    the added balls plus the dirty balls whose record bytes changed (or
    whose stored blob does not decrypt to them).  Every surviving
    ball is one or the other, so ``reused == balls_after - reencrypted``;
    every dirty ball was re-extracted to decide.  The dynamic-update
    benchmark gates these counts against a record-by-record diff.
    """

    balls_before: int
    balls_after: int
    reused: int
    reencrypted: int
    dirty_ball_ids: tuple[int, ...]
    added_ball_ids: tuple[int, ...]
    removed_ball_ids: tuple[int, ...]
    auth_root: str
    graph_digest: str

    @property
    def dirty(self) -> int:
        return len(self.dirty_ball_ids)

    @property
    def added(self) -> int:
        return len(self.added_ball_ids)

    @property
    def removed(self) -> int:
        return len(self.removed_ball_ids)

    def as_dict(self) -> dict:
        return {
            "balls_before": self.balls_before,
            "balls_after": self.balls_after,
            "reused": self.reused,
            "reencrypted": self.reencrypted,
            "dirty": self.dirty,
            "added": self.added,
            "removed": self.removed,
            "auth_root": self.auth_root,
            "graph_digest": self.graph_digest,
        }


def graph_digest(graph: LabeledGraph) -> str:
    """sha256 over the canonical JSON form -- the store's identity key.

    Memoised on the graph object per ``mutation_epoch`` (every effective
    mutation bumps it, so a mutated graph is always hashed afresh): the
    staleness check and the journal fingerprint of one engine start hash
    the graph once, and a graph digested before a fork or a pickle
    carries the value along.
    """
    epoch = graph.mutation_epoch
    memo = getattr(graph, "_digest_memo", None)
    if memo is not None and memo[0] == epoch:
        return memo[1]
    digest = hashlib.sha256(
        graph_to_json(graph).encode("utf-8")).hexdigest()
    graph._digest_memo = (epoch, digest)
    return digest


def key_digest(key: DataOwnerKey) -> str:
    """A fingerprint of ``sk`` (never the key itself) for staleness
    detection: a store built under a different owner key must not be
    silently served to a Dealer expecting this one."""
    return hashlib.sha256(b"prilo-store-key:" + key.ball_key).hexdigest()


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class PackSlice:
    """Offsets of one ball in the plaintext and encrypted packs."""

    ball_id: int
    center: str
    radius: int
    vertices: int
    offset: int
    length: int
    enc_offset: int
    enc_length: int


class _Pack:
    """A read-only mmap view over one pack file (plain bytes fallback
    for empty packs, which ``mmap`` refuses)."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._file = None
        self._view: "mmap.mmap | bytes | None" = None

    def slice(self, offset: int, length: int) -> bytes:
        if self._view is None:
            if self._path.stat().st_size == 0:
                self._view = b""
            else:
                self._file = self._path.open("rb")
                self._view = mmap.mmap(self._file.fileno(), 0,
                                       access=mmap.ACCESS_READ)
        return bytes(self._view[offset:offset + length])

    def close(self) -> None:
        if isinstance(self._view, mmap.mmap):
            self._view.close()
        if self._file is not None:
            self._file.close()
        self._view = None
        self._file = None


#: Manifest key -> JSON type; ``_OPTIONAL`` keys may be null or absent
#: here (every commit writes a null twiglet height, an earlier release's
#: default build wrote 3; no ``ball_ids`` or ``auth`` means an earlier
#: release wrote the manifest).
_SHAPE = {"version": int, "graph_digest": str, "key_digest": str,
          "radii": list, "balls": list, "checksums": dict,
          "twiglet_h": int, "ball_ids": dict, "auth": dict}
_OPTIONAL = ("twiglet_h", "ball_ids", "auth")
_SLICE_TYPES = get_type_hints(PackSlice)


def _earlier_release(manifest: dict) -> str | None:
    """What marks a well-formed ``manifest`` as an earlier release's
    layout, or ``None`` for the one this release writes."""
    if manifest.get("auth") is None:
        return "no auth block"
    if manifest.get("ball_ids") is None:
        return "no ball-id table"
    if manifest["checksums"].keys() != set(_ARTIFACTS):
        return f"checksums {sorted(manifest['checksums'])}"
    return None


def _check_shape(manifest) -> None:
    """Raise :class:`StoreError` unless the parsed ``manifest`` has the
    shape every reader assumes (exit 3, not a traceback), and
    :class:`StoreStale` (exit 2) for a layout an earlier release wrote.
    JSON decodes to exact types, and ``type(x) is int`` also refuses
    ``true``."""
    if type(manifest) is not dict:
        raise StoreError("malformed manifest: not a JSON object")
    version = manifest.get("version")
    if type(version) is not int or not 1 <= version <= _READ_VERSION:
        raise StoreError(f"unsupported store version {version!r}")
    if version < _READ_VERSION:
        raise _stale_layout(f"store version {version}")
    for name, kind in _SHAPE.items():
        value = manifest.get(name)
        if type(value) is not kind and (value is not None
                                        or name not in _OPTIONAL):
            raise StoreError(f"malformed manifest: bad {name!r}")
    balls = manifest["balls"]
    if not (all(type(radius) is int for radius in manifest["radii"])
            and all(type(e) is dict and e.keys() == _SLICE_TYPES.keys()
                    for e in balls)
            and [type(e[k]) for e in balls for k in _SLICE_TYPES]
            == list(_SLICE_TYPES.values()) * len(balls)
            and all(type(digest) is str and os.path.basename(name) == name
                    and name not in ("", ".", "..", _MANIFEST)
                    for name, digest in manifest["checksums"].items())):
        raise StoreError("malformed manifest: bad radius, ball entry or "
                         "checksum name")
    reason = _earlier_release(manifest)
    if reason is not None:
        raise _stale_layout(reason)


def _stale_layout(reason: str) -> StoreStale:
    return StoreStale(f"store is stale: written by an earlier release "
                      f"({reason}); rebuild with `repro store build`")


def _ball_id_table(ids: dict[tuple, int]) -> dict[str, dict[str, int]]:
    """The manifest's durable ``(center, radius) -> ball id`` table: an
    incrementally maintained store keeps surviving balls' ids stable
    instead of the positional renumbering of a rebuild."""
    table: dict[str, dict[str, int]] = {}
    for (center, radius), ball_id in ids.items():
        table.setdefault(repr(center), {})[str(radius)] = ball_id
    return table


class _StoreWriter:
    """THE place a store directory is laid out.

    Ball records are appended to both packs with their offsets tracked;
    :meth:`commit` then writes the empty ``twiglets.json``, the checksum
    set and -- last, as the commit point -- ``manifest.json``.  Every file
    goes through temp-file + rename, but the three artifacts are renamed over
    the live ones *before* the manifest: a crash between those renames
    leaves new artifacts under the previous manifest, a hybrid whose
    checksums no longer match.  ``verify`` reports it tampered, and the
    next ``apply_delta`` or ``shard_split`` refuses it (their loader
    checks every checksum) instead of carrying it forward.

    Callers decide *which* balls go in (:meth:`encrypt` a fresh one,
    :meth:`copy` a stored one verbatim) and what the manifest says about
    them.  Used as a context manager around the appends;
    ``commit`` follows the block.
    """

    def __init__(self, root: Path, key: DataOwnerKey | None = None) -> None:
        self._root = root
        self.entries: list[dict] = []
        #: Merkle leaves committed here: ball id -> leaf digest.
        self.leaves: dict[int, str] = {}
        self._offset = self._enc_offset = 0
        if key is not None:
            self._cipher = key.cipher()
            self._vkey = auth_key(key)
        self._plain = (root / (_BALLS_PACK + ".tmp")).open("wb")
        self._enc = (root / (_ENCRYPTED_PACK + ".tmp")).open("wb")

    def __enter__(self) -> "_StoreWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._plain.close()
        self._enc.close()

    def copy(self, entry: dict, payload: bytes, blob: bytes) -> None:
        """Append one ball record verbatim.  ``entry`` carries ``ball_id``
        / ``center`` / ``radius`` / ``vertices``; offsets are set here."""
        self._plain.write(payload)
        self._enc.write(blob)
        self.entries.append({**entry,
                             "offset": self._offset,
                             "length": len(payload),
                             "enc_offset": self._enc_offset,
                             "enc_length": len(blob)})
        self._offset += len(payload)
        self._enc_offset += len(blob)

    def commit_leaf(self, ball_id: int, blob: bytes) -> None:
        self.leaves[ball_id] = leaf_digest(self._vkey, ball_id, blob)

    def is_current(self, blob: bytes, payload: bytes) -> bool:
        """Whether ``blob`` authenticates under this writer's key and
        decrypts to exactly ``payload``."""
        try:
            self._cipher.verify(blob)
        except AuthenticationError:
            return False
        return self._cipher.decrypt_verified(blob) == payload

    def encrypt(self, ball: Ball, payload: bytes | None = None) -> None:
        """Put a freshly extracted ball in: serialize (unless ``payload``
        already holds its record), encrypt, commit its Merkle leaf."""
        if payload is None:
            payload = ball_to_bytes(ball)
        blob = self._cipher.encrypt(payload)
        self.commit_leaf(ball.ball_id, blob)
        self.copy({"ball_id": ball.ball_id, "center": repr(ball.center),
                   "radius": ball.radius, "vertices": ball.size},
                  payload, blob)

    def commit(self, manifest: dict) -> dict:
        """Turn the directory over: artifacts first, manifest last.
        ``manifest`` holds the :data:`_FIELDS`; returns the manifest as
        written."""
        root = self._root
        (root / (_TWIGLETS + ".tmp")).write_text(_NO_TWIGLETS,
                                                 encoding="utf-8")
        for name in _ARTIFACTS:
            os.replace(root / (name + ".tmp"), root / name)
        manifest = {**manifest,
                    "version": _VERSION,
                    "twiglet_h": None,
                    "balls": self.entries,
                    "checksums": {name: _file_digest(root / name)
                                  for name in _ARTIFACTS}}
        tmp_manifest = root / (_MANIFEST + ".tmp")
        tmp_manifest.write_text(
            json.dumps(manifest, sort_keys=True, separators=(",", ":")),
            encoding="utf-8")
        os.replace(tmp_manifest, root / _MANIFEST)
        return manifest


@dataclass(frozen=True)
class DeltaPlan:
    """Which balls one delta touches (ids are sorted unless noted)."""

    #: Post-delta ``(center, radius) -> ball id``: survivors keep their
    #: ids, added centers extend the id space past the historical
    #: maximum so ids never get reused.
    ids: dict[tuple, int]
    dirty: tuple[int, ...]
    #: In ``delta.added_vertices`` x radii order.
    added: tuple[int, ...]
    removed: tuple[int, ...]


def plan_delta(delta: GraphDelta, graph: LabeledGraph,
               radii: tuple[int, ...], ids: dict[tuple, int]) -> DeltaPlan:
    """Apply ``delta`` to ``graph`` in place and decide -- once, for the
    store and for in-memory engines alike -- which balls it touches.

    The dirty set is the sound overapproximation of
    :func:`~repro.graph.delta.dirty_ball_keys`: every surviving ball
    whose center lies within its radius of a touched vertex, with
    distances taken on both the pre- and the post-delta graph (a removal
    is only visible before, an insertion only after).  ``ids`` is the
    pre-delta ``(center, radius) -> ball id`` map.
    """
    cutoff = max(radii)
    touched = delta.touched_vertices()
    min_dists = touched_min_distances(graph, touched, cutoff)
    delta.apply(graph)
    touched_min_distances(graph, touched, cutoff, into=min_dists)
    removed_set = set(delta.removed_vertices)
    added_centers = [v for v, _ in delta.added_vertices]
    dirty_keys = dirty_ball_keys(
        min_dists, radii, exclude=removed_set.union(added_centers))
    new_ids = {k: i for k, i in ids.items() if k[0] not in removed_set}
    next_id = max(ids.values(), default=-1) + 1
    added: list[int] = []
    for v in added_centers:
        for r in radii:
            new_ids[(v, r)] = next_id
            added.append(next_id)
            next_id += 1
    return DeltaPlan(
        ids=new_ids,
        dirty=tuple(sorted(ids[k] for k in dirty_keys)),
        added=tuple(added),
        removed=tuple(sorted(ids[(v, r)] for v in removed_set
                             for r in radii)))


class StoreBallIndex(BallIndex):
    """A :class:`BallIndex` whose balls load from the store's pack
    instead of re-running the extraction BFS.

    Ball ids, candidate filtering and memoization are inherited -- the
    id assignment is a pure function of ``(graph.vertices(), radii)``,
    so loaded balls land on exactly the ids the in-process index would
    assign (checked at load: the pack payload carries its id).

    A ball that fails to load (corrupt payload, id mismatch) quarantines
    ``balls.pack`` and falls back to re-extracting from the live graph --
    extraction is the function that *built* the pack, so the recomputed
    ball is exactly what an untampered pack would have served.
    """

    def __init__(self, graph: LabeledGraph, radii: tuple[int, ...],
                 store: "ArtifactStore") -> None:
        # Stores that survived deltas pin their surviving balls to the
        # originally assigned ids via the manifest's ball-id table (at
        # create time it records the positional assignment).
        super().__init__(graph, radii, ids=store.ball_id_map(graph))
        self._store = store

    def ball(self, center, radius) -> Ball:
        self._check_epoch()
        key = (center, radius)
        if key not in self._ids:
            raise KeyError(f"no ball for center={center!r} radius={radius}")
        cached = self._cache.get(key)
        if cached is None:
            cached = self._load_or_recompute(center, radius, self._ids[key])
            self._cache[key] = cached
        return cached

    def _load_or_recompute(self, center, radius, ball_id: int) -> Ball:
        store = self._store
        if not store.is_quarantined(_BALLS_PACK):
            try:
                loaded = store.load_ball(ball_id)
                if loaded.ball_id != ball_id:
                    raise StoreError(
                        f"stored ball id {loaded.ball_id} does not match "
                        f"index id {ball_id} -- stale store?")
            except StoreMiss:
                # Not in this (shard) pack: an expected miss, not damage.
                # Extract from the live graph without quarantining --
                # extraction is the function that built every pack, so
                # the result is exactly what a pack holding the ball
                # would have served.
                return extract_ball(self._graph, center, radius,
                                    ball_id=ball_id)
            except (StoreError, ValueError, KeyError, TypeError,
                    UnicodeDecodeError) as exc:
                store.quarantine(
                    _BALLS_PACK,
                    f"ball {ball_id} failed to load: {exc}")
            else:
                return loaded
        return extract_ball(self._graph, center, radius, ball_id=ball_id)


class StoreEncryptedBalls:
    """The Dealer's blob source backed by ``encrypted.pack`` (duck-types
    :class:`repro.framework.roles.EncryptedBallStore`).

    ``key`` (supplied by the DataOwner, who holds ``sk``) enables the
    tamper fallback: a blob the user reports as failing authentication
    quarantines ``encrypted.pack`` and is re-encrypted from the plaintext
    pack -- the same bytes-in, so the re-served blob decrypts to the
    identical ball.

    ``fallback_index`` (a :class:`repro.graph.ball.BallIndex`) enables
    serving balls the pack never held: a shard store only carries its
    placement slice, so after a shard death the Dealer here may be asked
    for a re-placed orphan -- the blob is then encrypted on the fly from
    the live-graph extraction (requires ``key``).
    """

    def __init__(self, store: "ArtifactStore",
                 key: DataOwnerKey | None = None,
                 fallback_index=None) -> None:
        self._store = store
        self._cipher = key.cipher() if key is not None else None
        self._fallback_index = fallback_index
        self._cache: dict[int, EncryptedBallBlob] = {}

    def _encrypt_missing(self, ball_id: int) -> EncryptedBallBlob:
        if self._cipher is None or self._fallback_index is None:
            raise StoreMiss(
                f"ball {ball_id} not in this shard's pack and no "
                f"owner key/fallback index to synthesize it")
        ball = self._fallback_index.ball_by_id(ball_id)
        return EncryptedBallBlob(
            ball_id=ball_id,
            blob=self._cipher.encrypt(ball_to_bytes(ball)))

    def _reencrypt(self, ball_id: int) -> EncryptedBallBlob:
        key = f"reencrypt:b{ball_id}"
        for attempt in range(2):
            try:
                payload = ball_to_bytes(self._store.load_ball(ball_id))
            except StoreMiss:
                return self._encrypt_missing(ball_id)
            except (StoreError, ValueError, KeyError, TypeError,
                    UnicodeDecodeError) as exc:
                self._store.faults.record(
                    FaultKind.STORE_TAMPER, key, FaultAction.DETECTED,
                    detail=f"plaintext payload rejected: {exc}",
                    attempt=attempt)
                if attempt == 0:
                    # Transient rot (or a chaos flip) on the first serve:
                    # re-read the authoritative pack once.  Persistent
                    # corruption still fails loudly below.
                    self._store.faults.record(
                        FaultKind.STORE_TAMPER, key, FaultAction.RETRIED,
                        detail="re-reading plaintext pack", attempt=attempt)
                    continue
                raise StoreError(
                    f"cannot re-encrypt ball {ball_id}: plaintext pack "
                    f"unrecoverable ({exc})") from exc
            return EncryptedBallBlob(ball_id=ball_id,
                                     blob=self._cipher.encrypt(payload))
        raise AssertionError("unreachable")  # pragma: no cover

    def get(self, ball_id: int) -> EncryptedBallBlob:
        blob = self._cache.get(ball_id)
        if blob is None:
            if (self._cipher is not None
                    and self._store.is_quarantined(_ENCRYPTED_PACK)):
                blob = self._reencrypt(ball_id)
            else:
                try:
                    blob = EncryptedBallBlob(
                        ball_id=ball_id,
                        blob=self._store.load_encrypted(ball_id))
                except StoreMiss:
                    blob = self._encrypt_missing(ball_id)
            self._cache[ball_id] = blob
        return blob

    def refetch(self, ball_id: int) -> EncryptedBallBlob:
        """Re-serve a ball whose blob failed authentication downstream:
        drop the bad copy, quarantine the pack, re-encrypt from the
        authoritative plaintext (when the owner key is available)."""
        self._cache.pop(ball_id, None)
        if self._cipher is not None:
            self._store.quarantine(
                _ENCRYPTED_PACK,
                f"blob for ball {ball_id} failed authentication")
            blob = self._reencrypt(ball_id)
            self._cache[ball_id] = blob
            return blob
        return self.get(ball_id)


class ArtifactStore:
    """The on-disk offline outsourcing output (see module docstring)."""

    def __init__(self, root: Path, manifest: dict) -> None:
        self._root = root
        self._bind(manifest)
        #: The engine's per-run injector (inert by default).  Chaos may
        #: flip bytes in served payloads; detection happens downstream
        #: (parse failure, MAC failure) exactly like genuine rot.
        self._faults = FaultInjector()
        #: The engine's per-run span tracer (inert by default).
        self._tracer = NULL_TRACER
        self._quarantined: dict[str, str] = {}
        self._load_attempts: dict[str, int] = {}
        #: Whether this object made the directory's last commit
        #: (``create`` / ``apply_delta``); false while a commit is under
        #: way.  See :meth:`_check_artifacts`.
        self._committed = False

    def _bind(self, manifest: dict) -> None:
        """Point this object at the directory state ``manifest`` names."""
        self._manifest = manifest
        self._slices: dict[int, PackSlice] = {
            entry["ball_id"]: PackSlice(**entry)
            for entry in manifest["balls"]
        }
        self._balls_pack = _Pack(self._root / _BALLS_PACK)
        self._encrypted_pack = _Pack(self._root / _ENCRYPTED_PACK)

    def _record(self, ball_id: int) -> tuple[bytes, bytes]:
        """One stored ball's raw ``(payload, blob)`` pack bytes."""
        sl = self._slices[ball_id]
        return (self._balls_pack.slice(sl.offset, sl.length),
                self._encrypted_pack.slice(sl.enc_offset, sl.enc_length))

    # ------------------------------------------------------------------
    # fault injection / quarantine
    # ------------------------------------------------------------------
    def install_faults(self, injector: FaultInjector) -> None:
        """Bind the run's fault injector (chaos + event log)."""
        self._faults = injector

    def install_tracer(self, tracer) -> None:
        """Bind the run's span tracer: every served payload emits an
        ``sp``-scope I/O event (artifact kind + byte count -- the store
        serves SP-owned data, so sizes are the whole story)."""
        self._tracer = tracer

    @property
    def faults(self) -> FaultInjector:
        return self._faults

    @property
    def auth(self) -> dict:
        """The manifest's Merkle auth block (root, committed leaf table,
        candidate catalog)."""
        return self._manifest["auth"]

    @property
    def manifest_graph_digest(self) -> str:
        return self._manifest["graph_digest"]

    def is_quarantined(self, name: str) -> bool:
        return name in self._quarantined

    @property
    def quarantined(self) -> dict[str, str]:
        """Quarantined pack name -> reason."""
        return dict(self._quarantined)

    def quarantine(self, name: str, reason: str) -> None:
        """Mark one artifact file as untrusted for the rest of this
        store's lifetime; callers fall back to recomputing from the live
        graph (balls) or re-encrypting from the plaintext pack (blobs)."""
        if name in self._quarantined:
            return
        self._quarantined[name] = reason
        self._faults.record(FaultKind.STORE_TAMPER, f"store:{name}",
                            FaultAction.DETECTED, detail=reason)
        self._faults.record(
            FaultKind.STORE_TAMPER, f"store:{name}", FaultAction.DEGRADED,
            detail=f"{name} quarantined; serving from fallback source")

    def _served_bytes(self, kind_key: str, blob: bytes) -> bytes:
        """Route one served payload through the chaos injector.  Only the
        first serve of a key can be corrupted (the attempt counter
        increments per call), so recovery paths that re-read converge."""
        attempt = self._load_attempts.get(kind_key, 0)
        self._load_attempts[kind_key] = attempt + 1
        if self._tracer.enabled:
            # kind_key is "store:<kind>:<ball_id>"; the span carries the
            # kind and size only (ball ids already ride in share keys).
            self._tracer.event("store_io", "sp",
                               kind=kind_key.split(":")[1],
                               bytes=len(blob), attempt=attempt)
        return self._faults.corrupt(FaultKind.STORE_TAMPER, kind_key, blob,
                                    attempt=attempt)

    # ------------------------------------------------------------------
    # creation (data owner side)
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str | Path, graph: LabeledGraph,
               radii: tuple[int, ...], key: DataOwnerKey, *,
               twiglet_h=None,  # ledger pin: ignored; delete at the re-pin
               bf_config=None,  # ledger pin: ignored; delete at the re-pin
               ) -> "ArtifactStore":
        """Run the full offline outsourcing step into ``root``: both packs
        -- what cold starts need -- and the manifest."""
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise StoreUsageError(f"refusing to overwrite non-empty {root}")
        root.mkdir(parents=True, exist_ok=True)
        index = BallIndex(graph, radii)
        catalog_rows: list[tuple[int, int, object]] = []
        with _StoreWriter(root, key) as writer:
            for center in graph.vertices():
                for radius in index.radii:
                    ball = index.ball(center, radius)
                    writer.encrypt(ball)
                    catalog_rows.append((ball.ball_id, radius,
                                         graph.label(center)))
        store = cls(root, writer.commit({
            "graph_digest": graph_digest(graph),
            "key_digest": key_digest(key),
            "radii": list(index.radii),
            "ball_ids": _ball_id_table(index.id_map()),
            "auth": build_auth_block(key, writer.leaves,
                                     build_catalog(catalog_rows)),
        }))
        store._committed = True
        return store

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: str | Path) -> "ArtifactStore":
        root = Path(root)
        manifest_path = root / _MANIFEST
        if not manifest_path.is_file():
            raise StoreError(f"no manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_bytes())
        except (ValueError, RecursionError) as exc:
            raise StoreError(f"malformed manifest: {exc}") from exc
        _check_shape(manifest)
        return cls(root, manifest)

    def close(self) -> None:
        self._balls_pack.close()
        self._encrypted_pack.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # staleness / integrity
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        return self._root

    @property
    def radii(self) -> tuple[int, ...]:
        return tuple(self._manifest["radii"])

    def __len__(self) -> int:
        return len(self._slices)

    def check(self, *, graph: LabeledGraph | None = None,
              radii: tuple[int, ...] | None = None,
              key: DataOwnerKey | None = None) -> None:
        """Staleness detection: raise :class:`StoreStale` when the live
        configuration no longer matches what the store was built from.

        Radii must match *exactly* (not merely be a subset): ball ids are
        assigned by ``(vertex order) x (sorted radii)``, so an engine
        configured with different radii would address different balls
        under the same ids.
        """
        for reason in self._stale_reasons(graph, radii, key):
            raise StoreStale(f"store is stale: {reason}")

    def _stale_reasons(self, graph, radii, key):
        """Why the live ``graph`` / ``radii`` / ``key`` (each optional)
        no longer match the manifest, one reason per mismatch."""
        if graph is not None:
            live = graph_digest(graph)
            if live != self._manifest["graph_digest"]:
                yield (f"graph digest {live[:12]} != stored "
                       f"{self._manifest['graph_digest'][:12]} (the data "
                       f"graph changed since the store was built)")
        if radii is not None:
            wanted = tuple(sorted(set(radii)))
            if wanted != self.radii:
                yield (f"radii {wanted} != stored {self.radii} (ball ids "
                       f"would not line up)")
        if key is not None and key_digest(key) != self._manifest["key_digest"]:
            yield "built under a different owner key"

    def verify(self, key: DataOwnerKey | None = None, *,
               graph: LabeledGraph | None = None,
               radii: tuple[int, ...] | None = None) -> VerifyReport:
        """Full integrity/staleness sweep, reported per artifact.

        Every artifact file is re-hashed against the manifest; with
        ``key``, every encrypted blob is additionally
        decrypt-authenticated and compared to the plaintext pack (which
        catches same-length blob swaps that survive a recomputed file
        checksum).  ``graph``/``radii``/``key`` also drive staleness
        checks, reported against ``manifest.json``.

        Unlike :meth:`check`, nothing raises: all failures are collected
        into the returned :class:`VerifyReport` so operators (and the
        ``repro store verify`` exit codes) see the whole picture.
        """
        report = VerifyReport(balls=len(self._slices))
        for name, expected in self._manifest["checksums"].items():
            path = self._root / name
            if not path.is_file():
                report.packs.append(PackReport(
                    name, "missing", f"artifact file missing at {path}"))
                continue
            actual = _file_digest(path)
            if actual != expected:
                report.packs.append(PackReport(
                    name, "tampered",
                    f"checksum {actual[:12]} != manifest {expected[:12]}"))
            else:
                report.packs.append(PackReport(name, "ok"))
        by_name = {p.name: p for p in report.packs}

        report.packs.extend(
            PackReport(_MANIFEST, "stale", reason)
            for reason in self._stale_reasons(graph, radii, key))
        stale_key = (key is not None
                     and key_digest(key) != self._manifest["key_digest"])

        def present(name: str) -> bool:
            return by_name[name].status != "missing"

        if (key is not None and not stale_key and present(_ENCRYPTED_PACK)
                and present(_BALLS_PACK)):
            cipher = key.cipher()
            leaves = self.auth["leaves"]
            vkey = auth_key(key)
            bad = 0
            first = ""
            for sl in self._slices.values():
                plain, blob = self._record(sl.ball_id)
                if leaves.get(str(sl.ball_id)) != leaf_digest(
                        vkey, sl.ball_id, blob):
                    bad += 1
                    first = first or (f"ball {sl.ball_id}: blob does not "
                                      f"match its committed Merkle leaf")
                    continue
                try:
                    payload = cipher.decrypt(blob)
                except AuthenticationError as exc:
                    # The only failure decrypt raises: a truncated or
                    # MAC-failing blob.  Anything else (an injected
                    # tracer/chaos bug, a broken cipher) must propagate,
                    # not masquerade as tamper.
                    bad += 1
                    first = first or (f"ball {sl.ball_id} failed "
                                      f"authenticated decryption: {exc}")
                    continue
                if payload != plain:
                    bad += 1
                    first = first or (f"ball {sl.ball_id}: encrypted and "
                                      f"plaintext packs disagree")
                    continue
                report.decrypted += 1
            if bad:
                entry = by_name[_ENCRYPTED_PACK]
                reason = f"{bad} blob(s) failed the keyed sweep; {first}"
                if entry.status == "ok":
                    report.packs[report.packs.index(entry)] = PackReport(
                        _ENCRYPTED_PACK, "tampered", reason)
                else:
                    report.packs.append(PackReport(
                        _ENCRYPTED_PACK, "tampered", reason))
        return report

    # ------------------------------------------------------------------
    # incremental maintenance (dynamic graphs)
    # ------------------------------------------------------------------
    def _check_artifacts(self) -> None:
        """Refuse to build a new commit on a damaged directory.

        Every artifact the manifest lists must match its checksum: a
        delta or a split copies clean records verbatim and checksums
        what it wrote, so it would carry tampering forward under a fresh
        checksum.  Skipped when this object made the last commit itself;
        a store bound by :meth:`open`, or one whose last commit failed,
        is checked.  The skip is cleared until the new commit's manifest
        rename.
        """
        committed, self._committed = self._committed, False
        if committed:
            return
        checksums = self._manifest["checksums"]
        for name in _ARTIFACTS:
            path = self._root / name
            if not path.is_file() or _file_digest(path) != checksums[name]:
                raise StoreError(
                    f"{name} does not match the manifest's checksum; "
                    f"refusing to carry it forward (see `store verify`)")

    def apply_delta(self, delta: GraphDelta, graph: LabeledGraph,
                    key: DataOwnerKey) -> DeltaApplyReport:
        """Apply one :class:`~repro.graph.delta.GraphDelta` to the live
        graph *and* this store, re-encrypting only the dirty balls whose
        record bytes changed.

        ``graph`` must be the store's parent graph (checked against the
        manifest digest before anything mutates) and is updated in
        place.  The dirty set is the sound overapproximation of
        :func:`~repro.graph.delta.dirty_ball_keys`: every ball whose
        center lies within its radius of a touched vertex on either side
        of the delta.  Clean balls keep their pack bytes, ball ids and
        Merkle leaves verbatim.  Dirty balls are re-extracted and
        serialized once; one whose fresh record equals the stored record,
        held in a stored blob that authenticates and decrypts to exactly
        those bytes, is then carried forward like a clean ball, and only
        the others are re-encrypted.  Removed vertices drop
        their balls; added vertices get fresh ids past the historical
        maximum.  The auth block is patched by leaf replacement
        (:func:`updated_auth_block`) and the candidate catalog
        recommitted, so verified serving keeps working across updates
        under the new root.

        All artifact files are rewritten via temp-file + rename with the
        manifest last.  A crash between the artifact renames and the
        manifest rename leaves a hybrid: child artifacts under the parent
        manifest.  It is detected, not repaired: ``verify`` reports the
        artifacts tampered, and a re-run (on this object or after
        :meth:`open`) raises :class:`StoreError` from the checksum check
        of :meth:`_check_artifacts` instead of committing over it.
        """
        self.check(graph=graph, key=key)
        if delta.is_empty:
            n = len(self._slices)
            return DeltaApplyReport(
                balls_before=n, balls_after=n, reused=n, reencrypted=0,
                dirty_ball_ids=(), added_ball_ids=(), removed_ball_ids=(),
                auth_root=self.auth["root"],
                graph_digest=self._manifest["graph_digest"])

        # Refuse a damaged directory before the graph moves.
        self._check_artifacts()
        plan = plan_delta(delta, graph, self.radii, self.ball_id_map(graph))
        key_by_id = {ball_id: k for k, ball_id in plan.ids.items()}
        dirty, removed = set(plan.dirty), set(plan.removed)

        catalog_rows: list[tuple[int, int, object]] = []
        reused = 0
        with _StoreWriter(self._root, key) as writer:
            for old in self._manifest["balls"]:
                ball_id = old["ball_id"]
                if ball_id in removed:
                    continue
                center, radius = key_by_id[ball_id]
                catalog_rows.append((ball_id, radius, graph.label(center)))
                payload, blob = self._record(ball_id)
                if ball_id in dirty:
                    # Carried forward like a clean ball only when its
                    # record is unchanged and its blob decrypts to it.
                    ball = extract_ball(graph, center, radius,
                                        ball_id=ball_id)
                    fresh = ball_to_bytes(ball)
                    if fresh != payload or not writer.is_current(blob, fresh):
                        writer.encrypt(ball, fresh)
                        continue
                writer.copy(old, payload, blob)
                reused += 1
            for ball_id in plan.added:
                center, radius = key_by_id[ball_id]
                catalog_rows.append((ball_id, radius, graph.label(center)))
                writer.encrypt(extract_ball(graph, center, radius,
                                            ball_id=ball_id))

        auth = updated_auth_block(key, self.auth, replaced=writer.leaves,
                                  removed=plan.removed,
                                  catalog=build_catalog(catalog_rows))

        # Close the mmaps before their files are replaced.
        balls_before = len(self._slices)
        self.close()
        self._bind(writer.commit({
            **{name: self._manifest.get(name) for name in _FIELDS},
            "graph_digest": graph_digest(graph),
            "ball_ids": _ball_id_table(plan.ids),
            "auth": auth,
        }))
        self._committed = True

        report = DeltaApplyReport(
            balls_before=balls_before,
            balls_after=len(self._slices),
            reused=reused,
            reencrypted=len(self._slices) - reused,
            dirty_ball_ids=plan.dirty,
            added_ball_ids=plan.added,
            removed_ball_ids=plan.removed,
            auth_root=auth["root"],
            graph_digest=self._manifest["graph_digest"])
        if self._tracer.enabled:
            self._tracer.event("delta_apply", "sp",
                               balls=report.balls_after,
                               dirty=report.dirty,
                               reencrypted=report.reencrypted)
        return report

    # ------------------------------------------------------------------
    # artifact access
    # ------------------------------------------------------------------
    def load_ball(self, ball_id: int) -> Ball:
        sl = self._slices.get(ball_id)
        if sl is None:
            raise StoreMiss(f"ball {ball_id} not in store")
        payload = self._served_bytes(f"store:ball:{ball_id}",
                                     self._balls_pack.slice(sl.offset,
                                                            sl.length))
        return ball_from_bytes(payload)

    def load_encrypted(self, ball_id: int) -> bytes:
        sl = self._slices.get(ball_id)
        if sl is None:
            raise StoreMiss(f"ball {ball_id} not in store")
        return self._served_bytes(
            f"store:enc:{ball_id}",
            self._encrypted_pack.slice(sl.enc_offset, sl.enc_length))

    def ball_id_map(self, graph: LabeledGraph) -> dict[tuple, int]:
        """The manifest's ``(center, radius) -> ball id`` table, keyed by
        live vertex objects."""
        table = self._manifest["ball_ids"]
        by_repr = {repr(v): v for v in graph.vertices()}
        ids: dict[tuple, int] = {}
        for center_repr, per_radius in table.items():
            center = by_repr.get(center_repr)
            if center is None:
                raise StoreStale(
                    f"store is stale: ball-id table names vertex "
                    f"{center_repr} which the live graph does not have")
            for radius, ball_id in per_radius.items():
                ids[(center, int(radius))] = int(ball_id)
        return ids

    def ball_index(self, graph: LabeledGraph) -> StoreBallIndex:
        """The Players' ball index, loading from the pack (cold-start
        path).  ``graph`` must be the store's graph (:meth:`check`)."""
        return StoreBallIndex(graph, self.radii, self)

    def encrypted_store(self,
                        key: DataOwnerKey | None = None,
                        fallback_index=None) -> StoreEncryptedBalls:
        """The Dealer's blob source (no re-encryption at startup).  With
        ``key`` the source can re-encrypt from the plaintext pack when a
        served blob turns out tampered; ``fallback_index`` additionally
        lets a shard store serve re-placed orphan balls its pack never
        held (encrypted on the fly from the live graph)."""
        return StoreEncryptedBalls(self, key=key,
                                   fallback_index=fallback_index)

    def ball_ids(self) -> list[int]:
        """All stored ball ids, in pack (= generation) order."""
        return [entry["ball_id"] for entry in self._manifest["balls"]]

    def describe(self) -> dict:
        """The ``store inspect`` payload: manifest metadata + totals."""
        sizes = {name: (self._root / name).stat().st_size
                 for name in self._manifest["checksums"]
                 if (self._root / name).is_file()}
        per_radius: dict[int, int] = {}
        for sl in self._slices.values():
            per_radius[sl.radius] = per_radius.get(sl.radius, 0) + 1
        return {
            "root": str(self._root),
            "version": self._manifest["version"],
            "graph_digest": self._manifest["graph_digest"],
            "key_digest": self._manifest["key_digest"],
            "radii": list(self.radii),
            "balls": len(self._slices),
            "balls_per_radius": {str(r): n
                                 for r, n in sorted(per_radius.items())},
            "file_bytes": sizes,
        }


def shard_split(root: str | Path, out_root: str | Path, shards: int) -> dict:
    """Cut one store into per-shard packs under the consistent-hash ring.

    ``out_root/shard-<i>/`` becomes a fully valid, independently
    verifiable :class:`ArtifactStore` holding exactly shard ``i``'s
    placement slice (both packs re-packed with fresh offsets, checksums
    recomputed); ``out_root/placement.json`` records the members (on the
    fixed ring geometry) and per-shard counts
    (:class:`repro.framework.placement.PlacementManifest`).

    The manifests inherit the source's ``graph_digest``/``key_digest``/
    ``radii``, so each shard store passes :meth:`ArtifactStore.check`
    against the *full* live graph -- a shard engine keeps global ball
    ids and simply misses (-> live-graph fallback) on balls outside its
    slice.

    Returns the placement summary (the manifest's jsonable form).
    """
    from repro.framework.placement import PlacementManifest, ring_for

    if shards < 1:
        raise StoreUsageError("shard count must be positive")
    src = ArtifactStore.open(root)
    out_root = Path(out_root)
    if out_root.exists() and any(out_root.iterdir()):
        raise StoreUsageError(f"refusing to overwrite non-empty {out_root}")
    src._check_artifacts()
    out_root.mkdir(parents=True, exist_ok=True)

    manifest = src._manifest
    ring = ring_for(range(shards))
    by_shard: dict[int, list[dict]] = {m: [] for m in ring.members}
    for entry in manifest["balls"]:
        by_shard[ring.owner_of(entry["ball_id"])].append(entry)

    shard_dirs: dict[int, str] = {}
    shard_balls: dict[int, int] = {}
    for shard_id, entries in by_shard.items():
        shard_dir = out_root / f"shard-{shard_id}"
        shard_dir.mkdir()
        with _StoreWriter(shard_dir) as writer:
            for entry in entries:
                writer.copy(entry, *src._record(entry["ball_id"]))
        # ``auth`` is the *global* block, verbatim: a shard proves its
        # slice against the owner's pack-wide root, and orphaned balls
        # (served after a re-placement) still have committed leaves even
        # though this shard's pack never held them.  Likewise the global
        # ``ball_ids`` table: shard engines keep global ids, including
        # ids for balls outside their slice.
        writer.commit({name: manifest.get(name) for name in _FIELDS})
        shard_dirs[shard_id] = shard_dir.name
        shard_balls[shard_id] = len(entries)

    auth = manifest["auth"]
    placement = PlacementManifest(
        members=ring.members,
        graph_digest=manifest["graph_digest"],
        radii=tuple(manifest["radii"]),
        balls=len(manifest["balls"]),
        shard_dirs=shard_dirs, shard_balls=shard_balls,
        auth_root=auth["root"],
        catalog=auth["catalog"],
        catalog_digest=auth["catalog_digest"])
    placement.write(out_root)
    src.close()
    return placement.to_jsonable()


__all__ = [
    "ArtifactStore",
    "DeltaApplyReport",
    "DeltaPlan",
    "PackReport",
    "PackSlice",
    "StoreBallIndex",
    "StoreEncryptedBalls",
    "StoreError",
    "StoreMiss",
    "StoreStale",
    "StoreUsageError",
    "VerifyReport",
    "graph_digest",
    "key_digest",
    "plan_delta",
    "shard_split",
]
