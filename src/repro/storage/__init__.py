"""Persistent storage for the data owner's offline artifacts.

Sec. 2.3: the data owner "generates ... all balls of graph G with various
diameters offline" and ships the encrypted copies to the Dealer.
:class:`~repro.storage.store.ArtifactStore` is the durable form of that
hand-off, the *full* offline outsourcing output: plaintext + encrypted
ball packs (mmap cold start for Players and Dealer alike;
``encrypted_store()`` satisfies the same ``get(ball_id)`` protocol as the
in-memory store, so a :class:`repro.framework.roles.Dealer` can be backed
by either) and per-ball twiglet feature sets, under a versioned manifest
with staleness and tamper detection.  It opens only the layout it
writes: a pack an earlier release wrote is stale, and ``repro store
build`` regenerates it from the graph and the owner key.

:class:`~repro.storage.journal.RunJournal` is the *online* durability
counterpart: a write-ahead, CRC-framed, keyed-digest journal of batch
admissions and executor-share results, so a killed serving process
resumes from its last durable checkpoint re-evaluating only unjournaled
shares.
"""

from repro.storage.authenticate import (
    AUTH_SCHEME,
    AuthError,
    MerkleTree,
    auth_key,
    build_auth_block,
    build_catalog,
    catalog_digest,
    leaf_digest,
    updated_auth_block,
    verify_absent,
    verify_multiproof,
)
from repro.storage.delta import (
    DeltaError,
    DeltaLog,
    DeltaLogState,
    DeltaRecord,
    StaleDeltaError,
    TamperedDeltaError,
    delta_key,
    walk_delta_chain,
)
from repro.storage.journal import (
    JournalError,
    JournalState,
    RecordType,
    RunJournal,
    config_fingerprint,
    journal_key,
    query_idempotency_key,
)
from repro.storage.store import (
    ArtifactStore,
    DeltaApplyReport,
    PackReport,
    StoreBallIndex,
    StoreEncryptedBalls,
    StoreError,
    StoreMiss,
    StoreStale,
    StoreUsageError,
    VerifyReport,
    graph_digest,
    key_digest,
    shard_split,
)

__all__ = [
    "ArtifactStore",
    "AUTH_SCHEME",
    "AuthError",
    "MerkleTree",
    "auth_key",
    "build_auth_block",
    "build_catalog",
    "catalog_digest",
    "leaf_digest",
    "updated_auth_block",
    "verify_absent",
    "verify_multiproof",
    "DeltaApplyReport",
    "DeltaError",
    "DeltaLog",
    "DeltaLogState",
    "DeltaRecord",
    "StaleDeltaError",
    "TamperedDeltaError",
    "delta_key",
    "walk_delta_chain",
    "JournalError",
    "JournalState",
    "PackReport",
    "RecordType",
    "RunJournal",
    "config_fingerprint",
    "journal_key",
    "query_idempotency_key",
    "StoreBallIndex",
    "StoreEncryptedBalls",
    "StoreError",
    "StoreMiss",
    "StoreStale",
    "StoreUsageError",
    "VerifyReport",
    "graph_digest",
    "key_digest",
    "shard_split",
]
