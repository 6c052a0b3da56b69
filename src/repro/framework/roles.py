"""The four parties of the system model (Sec. 2.3, Fig. 4).

* :class:`DataOwner` -- generates ``sk``, extracts all balls offline, ships
  plaintext balls to the Players (the data graph is public; only the query
  is protected) and encrypted balls to the Dealer (so the Dealer cannot
  correlate retrievals with content it can read).
* :class:`User` -- encrypts queries, decrypts pruning messages and results,
  retrieves and decrypts target balls, computes final matches on plaintext.
* :class:`Player` -- computes pruning messages (BF inside its enclave,
  twiglets under CGBE) and evaluates balls in its Dealer-given order.
* :class:`Dealer` -- stores encrypted balls, runs SSG/RSG, relays results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.aggregation import decide_positive
from repro.core.bf_pruning import (
    BFConfig,
    player_bf_prune,
    user_decode_outcome,
    user_prepare_encodings,
)
from repro.core.encoding import LabelCodec, encrypt_query_matrix
from repro.core.enumeration import PreparedBall, prepare_ball
from repro.core.neighbors import build_neighbor_tables, neighbor_features
from repro.core.paths import build_path_tables, paths_from
from repro.core.retrieval import PlayerSequence, rsg_sequences, ssg_sequences
from repro.core.ssim_verification import (
    decide_ssim_ball,
    ssim_plan,
    ssim_verify_ball,
)
from repro.core.table_pruning import player_table_prune, table_plan
from repro.core.twiglets import (
    build_twiglet_tables,
    filter_twiglets,
    twiglets_from,
)
from repro.core.verification import (
    verification_multiexp,
    verification_plan,
    verify_ball_streaming,
)
from repro.crypto.kernels import MultiExpRegistry
from repro.crypto.keys import DataOwnerKey, UserKeyring
from repro.crypto.stream_cipher import AuthenticationError
from repro.framework.faults import (
    ChaosPolicy,
    FaultAction,
    FaultEvent,
    FaultInjector,
    FaultKind,
)
from repro.framework.messages import (
    DecryptedPMs,
    EncryptedBallBlob,
    EncryptedQueryMessage,
    EvaluationResult,
    PruningMessages,
)
from repro.framework.metrics import MessageSizes, PhaseTimings, Stopwatch
from repro.graph.ball import Ball, BallIndex
from repro.graph.io import ball_from_bytes, ball_to_bytes
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query import Query, QueryLabelView, Semantics
from repro.semantics.evaluate import find_matches
from repro.tee.channel import AttestationFailure, SecureChannel
from repro.tee.enclave import ChannelIntegrityError, Enclave, EnclaveMemoryError


# ----------------------------------------------------------------------
# Data owner
# ----------------------------------------------------------------------
class DataOwner:
    """Owns the graph, the ball index, and the ball-encryption key ``sk``.

    With ``store`` (a :class:`repro.storage.ArtifactStore`), the offline
    outsourcing output is *loaded* rather than recomputed: the ball index
    reads from the mmap'd pack and the Dealer's blobs come pre-encrypted.
    The store is staleness-checked against the live graph, radii and key
    at construction -- a mismatch raises rather than serving wrong balls.
    """

    def __init__(self, graph: LabeledGraph, radii: tuple[int, ...],
                 seed: int = 0, store=None,
                 index: BallIndex | None = None) -> None:
        self.key = DataOwnerKey.generate(seed)
        self._graph = graph
        self._radii = radii
        self._store = store
        # An explicit index override carries delta-stable ball ids for
        # dynamic no-store engines (see ``Prilo.refresh``); otherwise the
        # index is lazily built or store-loaded on first access.
        self._index: BallIndex | None = index
        self._dealer_store = None
        if store is not None:
            store.check(graph=graph, radii=radii, key=self.key)

    @property
    def index(self) -> BallIndex:
        """The ball index, built (or store-loaded) once on first access."""
        if self._index is None:
            if self._store is not None:
                self._index = self._store.ball_index(self._graph)
            else:
                self._index = BallIndex(self._graph, self._radii)
        return self._index

    def player_store(self) -> BallIndex:
        """Step 1a: plaintext balls for the Players (memoized -- every
        caller shares one index and hence one ball cache)."""
        return self.index

    def dealer_store(self):
        """Step 1b: encrypted balls for the Dealer (memoized -- repeated
        calls must not discard the store's encryption cache)."""
        if self._dealer_store is None:
            if self._store is not None:
                # The owner key enables the tamper fallback: a blob that
                # fails authentication downstream is re-encrypted from the
                # plaintext pack instead of aborting the query.  The ball
                # index doubles as the miss fallback so a *shard* store
                # can serve re-placed orphan balls its pack never held.
                self._dealer_store = self._store.encrypted_store(
                    key=self.key, fallback_index=self.index)
            else:
                self._dealer_store = EncryptedBallStore(self.index, self.key)
        return self._dealer_store

    def grant_key(self, user: "User") -> None:
        """Out-of-band ``sk`` delivery to an authorized user."""
        user.keyring.grant_owner_key(self.key)


class EncryptedBallStore:
    """Lazy (memoized) encrypted-ball storage, as held by the Dealer."""

    def __init__(self, index: BallIndex, key: DataOwnerKey) -> None:
        self._index = index
        self._cipher = key.cipher()
        self._cache: dict[int, EncryptedBallBlob] = {}

    def get(self, ball_id: int) -> EncryptedBallBlob:
        blob = self._cache.get(ball_id)
        if blob is None:
            ball = self._index.ball_by_id(ball_id)
            blob = EncryptedBallBlob(
                ball_id=ball_id,
                blob=self._cipher.encrypt(ball_to_bytes(ball)))
            self._cache[ball_id] = blob
        return blob

    def refetch(self, ball_id: int) -> EncryptedBallBlob:
        """Discard the cached (possibly corrupted) blob and re-encrypt
        from the authoritative plaintext index."""
        self._cache.pop(ball_id, None)
        return self.get(ball_id)


# ----------------------------------------------------------------------
# User
# ----------------------------------------------------------------------
@dataclass
class UserQueryState:
    """The user's private per-query state (never leaves the user)."""

    query: Query
    codec: LabelCodec
    channels: list[SecureChannel] = field(default_factory=list)


class User:
    """The query user: holds the CGBE key, the enclave session key and
    (once granted) the data owner's ``sk``."""

    def __init__(self, keyring: UserKeyring) -> None:
        self.keyring = keyring

    # -- step 2: encrypt the query -----------------------------------
    def prepare_query(
        self,
        query: Query,
        *,
        use_bf: bool,
        use_twiglet: bool,
        use_path: bool,
        use_neighbor: bool,
        twiglet_h: int,
        bf_config: BFConfig,
        enclaves: list[Enclave],
        sizes: MessageSizes,
        timings: PhaseTimings,
        faults: FaultInjector | None = None,
        degrade_bf: bool = True,
    ) -> tuple[EncryptedQueryMessage, UserQueryState]:
        cgbe = self.keyring.cgbe
        state = UserQueryState(query=query,
                               codec=LabelCodec.from_alphabet(query.alphabet))
        with Stopwatch() as watch:
            message = EncryptedQueryMessage(
                semantics=query.semantics,
                diameter=query.diameter,
                vertex_labels=tuple(query.label(u)
                                    for u in query.vertex_order),
                params=cgbe.public_params(),
                encrypted_matrix=encrypt_query_matrix(cgbe, query),
                c_one=cgbe.encrypt_one(),
            )
            ct_bytes = cgbe.ciphertext_bytes()
            sizes.add("encrypted_matrix", query.size ** 2 * ct_bytes)
            if use_twiglet:
                tables = build_twiglet_tables(cgbe, query, twiglet_h)
                # Queries with |Sigma_Q| < 3 admit no twiglets at all --
                # the technique is inapplicable, not "prunes everything".
                if tables and len(tables[0]) > 0:
                    message.twiglet_tables = tables
                    sizes.add("twiglet_tables",
                              sum(len(t) for t in tables) * ct_bytes)
            if use_path:
                tables = build_path_tables(cgbe, query, twiglet_h)
                if tables and len(tables[0]) > 0:
                    message.path_tables = tables
                    sizes.add("twiglet_tables",
                              sum(len(t) for t in tables) * ct_bytes)
            if use_neighbor:
                message.neighbor_tables = build_neighbor_tables(cgbe, query)
                sizes.add("twiglet_tables",
                          sum(len(t) for t in message.neighbor_tables)
                          * ct_bytes)
            if use_bf:
                if not enclaves:
                    raise ValueError("BF pruning needs at least one enclave")
                injector = faults if faults is not None else FaultInjector()
                try:
                    for i, enclave in enumerate(enclaves):
                        state.channels.append(SecureChannel.establish(
                            enclave, self.keyring.enclave_key,
                            faults=injector, fault_key=f"enclave:{i}"))
                except AttestationFailure as exc:
                    # Injected or genuine: the enclave fleet cannot be
                    # trusted this run.  BF is the only TEE-dependent
                    # pruning method; dropping it only keeps *more*
                    # candidates (Prop. 3 is one-sided), so the final
                    # match set is unchanged -- continue twiglet-only.
                    if not degrade_bf:
                        raise
                    key = f"enclave:{len(state.channels)}"
                    injector.record(FaultKind.ENCLAVE_ATTESTATION, key,
                                    FaultAction.DETECTED, detail=str(exc))
                    injector.record(
                        FaultKind.ENCLAVE_ATTESTATION, key,
                        FaultAction.DEGRADED,
                        detail="BF pruning disabled for this query; "
                               "continuing twiglet-only")
                    state.channels.clear()
                else:
                    message.bf_message = user_prepare_encodings(
                        query, state.codec, state.channels[0], bf_config)
                    sizes.add("bf_encodings",
                              len(message.bf_message.sealed_blob))
        timings.user_preprocessing += watch.total
        return message, state

    # -- step 4: decrypt pruning messages ----------------------------
    def decrypt_pms(
        self,
        pms: PruningMessages,
        ball_ids: Iterable[int],
        state: UserQueryState,
        timings: PhaseTimings,
    ) -> tuple[DecryptedPMs, dict[str, dict[int, bool]]]:
        """Combine every active method's verdicts; a ball is positive only
        when no method proved it spurious.  Returns the per-method verdict
        maps as well (the experiments compare methods individually)."""
        cgbe = self.keyring.cgbe
        ordered = tuple(sorted(ball_ids))
        per_method: dict[str, dict[int, bool]] = {}
        with Stopwatch() as watch:
            if pms.bf:
                channel = state.channels[0]
                per_method["bf"] = {
                    bid: user_decode_outcome(channel, outcome)
                    for bid, outcome in pms.bf.items()}
            for name, results in (("twiglet", pms.twiglet),
                                  ("path", pms.path),
                                  ("neighbor", pms.neighbor)):
                if results:
                    per_method[name] = {
                        bid: decide_positive(cgbe, result)
                        for bid, result in results.items()}
            positives = frozenset(
                bid for bid in ordered
                if all(verdicts.get(bid, True)
                       for verdicts in per_method.values()))
        timings.user_pm_decryption += watch.total
        return DecryptedPMs(ball_ids=ordered, positives=positives), per_method

    # -- step 8: decrypt ciphertext results --------------------------
    def decrypt_results(self, results: Iterable[EvaluationResult],
                        timings: PhaseTimings) -> set[int]:
        """Ball ids whose ciphertext result proves a surviving candidate."""
        cgbe = self.keyring.cgbe
        verified: set[int] = set()
        with Stopwatch() as watch:
            for result in results:
                if result.ball_id in verified:
                    continue
                verdict = result.verdict
                if hasattr(verdict, "per_vertex"):  # SsimBallVerdict
                    positive = decide_ssim_ball(cgbe, verdict)
                else:
                    positive = decide_positive(cgbe, verdict)
                if positive:
                    verified.add(result.ball_id)
        timings.user_result_decryption += watch.total
        return verified

    # -- step 9: retrieve balls and match ----------------------------
    def retrieve_and_match(
        self,
        verified_ids: Iterable[int],
        dealer: "Dealer",
        query: Query,
        sizes: MessageSizes,
        timings: PhaseTimings,
        faults: FaultInjector | None = None,
    ) -> dict[int, list[LabeledGraph]]:
        injector = faults if faults is not None else FaultInjector()
        cipher = self.keyring.ball_cipher()
        matches: dict[int, list[LabeledGraph]] = {}
        decrypting, decoding, matching = Stopwatch(), Stopwatch(), Stopwatch()
        with Stopwatch() as watch:
            for ball_id in sorted(verified_ids):
                blob = dealer.fetch_encrypted_ball(ball_id)
                sizes.add("retrieved_balls", blob.size)
                try:
                    with decrypting:
                        payload = cipher.decrypt(blob.blob)
                except AuthenticationError as exc:
                    # The ciphertext the Dealer served fails its MAC --
                    # tampered or rotted.  Have the Dealer quarantine its
                    # copy and re-serve from the authoritative source; the
                    # retried blob authenticates or the run fails loudly.
                    key = f"retrieve:b{ball_id}"
                    injector.record(FaultKind.STORE_TAMPER, key,
                                    FaultAction.DETECTED,
                                    detail=f"ball blob failed "
                                           f"authentication: {exc}")
                    injector.record(FaultKind.STORE_TAMPER, key,
                                    FaultAction.RETRIED,
                                    detail="re-fetching from Dealer after "
                                           "quarantine")
                    blob = dealer.refetch_encrypted_ball(ball_id)
                    with decrypting:
                        payload = cipher.decrypt(blob.blob)
                    injector.record(FaultKind.STORE_TAMPER, key,
                                    FaultAction.RECOVERED,
                                    detail="re-served blob authenticated")
                with decoding:
                    ball = ball_from_bytes(payload)
                with matching:
                    found = find_matches(query, ball)
                if found:
                    matches[ball_id] = found
        timings.user_matching += watch.total
        timings.user_ball_decrypt += decrypting.total
        timings.user_ball_decode += decoding.total
        timings.user_ball_match += matching.total
        return matches


# ----------------------------------------------------------------------
# Player
# ----------------------------------------------------------------------
def evaluate_ball_kernel(
    message: EncryptedQueryMessage,
    ball: Ball | PreparedBall,
    *,
    enumeration_limit: int,
    cmm_bound_bypass: int,
    player_id: int = 0,
    multiexp: MultiExpRegistry | None = None,
) -> EvaluationResult:
    """Alg. 3 lines 3-8 for one ball, using only the label view of the
    query (the edges stay encrypted).

    A module-level pure function of ``(message, ball)``, independent of
    any :class:`Player` object and of every other ball.  For hom /
    sub-iso the ball's mask stream is recorded here
    (:func:`repro.core.enumeration.prepare_ball`) -- unless the caller
    hands over the :class:`PreparedBall` a ``CMMCache`` already holds --
    and verified by :func:`repro.core.verification.verify_ball_streaming`.

    ``multiexp`` (a per-share :class:`MultiExpRegistry`) shares the
    Straus window tables the chunk products come out of across every ball
    passed with the same registry; a call without one builds its own.
    Results are value-identical either way.
    """
    if multiexp is None:
        multiexp = MultiExpRegistry()
    view = QueryLabelView(labels=message.vertex_labels,
                          diameter=message.diameter,
                          semantics=message.semantics)
    params = message.params
    started = time.perf_counter()
    if message.semantics is Semantics.SSIM:
        plan = ssim_plan(params, view)
        verdict = ssim_verify_ball(params, message.encrypted_matrix,
                                   message.c_one, view, ball, plan,
                                   multiexp=multiexp)
        cost = time.perf_counter() - started
        return EvaluationResult(ball_id=ball.ball_id, verdict=verdict,
                                cost_seconds=cost,
                                player=player_id)
    prepared = ball if isinstance(ball, PreparedBall) else prepare_ball(
        view, ball, enumeration_limit=enumeration_limit,
        cmm_bound_bypass=cmm_bound_bypass)
    plan = verification_plan(params, view)
    table = multiexp.table(("verify",), lambda: verification_multiexp(
        params, message.encrypted_matrix, message.c_one, plan))
    verdict = verify_ball_streaming(
        params, message.encrypted_matrix, message.c_one, prepared, plan,
        multiexp=table)
    cost = time.perf_counter() - started
    return EvaluationResult(
        ball_id=prepared.ball_id, verdict=verdict, cost_seconds=cost,
        player=player_id, cmms=prepared.enumerated,
        bypassed=verdict.bypassed)


#: Times a corrupted sealed payload is re-requested before the share
#: degrades to twiglet-only.
_CHANNEL_RETRIES = 3


def _load_encodings_with_recovery(enclave: Enclave, blob: bytes,
                                  injector: FaultInjector,
                                  player_id: int) -> bool:
    """Install the sealed BF payload, re-requesting it on corruption.

    The channel is authenticated, so a flipped byte surfaces as
    :class:`~repro.tee.enclave.ChannelIntegrityError` -- never as silently
    wrong encodings.  Returns False when every attempt failed, in which
    case the caller skips BF for this share (sound: a missing BF verdict
    counts the ball positive downstream).
    """
    key = f"bf-blob:p{player_id}"
    for attempt in range(_CHANNEL_RETRIES + 1):
        payload = injector.corrupt(FaultKind.CHANNEL_CORRUPTION, key, blob,
                                   attempt=attempt)
        try:
            enclave.load_query_encodings(payload)
        except ChannelIntegrityError as exc:
            injector.record(FaultKind.CHANNEL_CORRUPTION, key,
                            FaultAction.DETECTED, detail=str(exc),
                            attempt=attempt)
            if attempt < _CHANNEL_RETRIES:
                injector.record(FaultKind.CHANNEL_CORRUPTION, key,
                                FaultAction.RETRIED,
                                detail="re-requesting sealed BF payload",
                                attempt=attempt)
                continue
            injector.record(
                FaultKind.CHANNEL_CORRUPTION, key, FaultAction.DEGRADED,
                detail="sealed payload unrecoverable; BF skipped for "
                       "this share", attempt=attempt)
            return False
        if attempt > 0:
            injector.record(FaultKind.CHANNEL_CORRUPTION, key,
                            FaultAction.RECOVERED,
                            detail=f"payload accepted on attempt {attempt}",
                            attempt=attempt)
        return True
    return False  # pragma: no cover - loop always returns


def _bf_prune_with_recovery(enclave: Enclave, ball: Ball, codec: LabelCodec,
                            bf_config: BFConfig, injector: FaultInjector,
                            player_id: int):
    """One BF ECALL with a single retry on enclave memory pressure.

    EPC exhaustion is transient (the filter allocation is freed per call),
    so one retry usually recovers; if the enclave aborts again the ball's
    BF verdict is skipped (``None``) -- sound, since a ball without a BF
    pruning message is treated as positive by the user.
    """
    key = f"enclave-mem:p{player_id}:b{ball.ball_id}"
    for attempt in range(2):
        try:
            if injector.should(FaultKind.ENCLAVE_MEMORY, key,
                               attempt=attempt,
                               detail="ECALL aborted (EPC exhausted)"):
                raise EnclaveMemoryError(
                    f"injected EPC exhaustion on {key}")
            outcome = player_bf_prune(enclave, ball, codec, bf_config)
        except EnclaveMemoryError as exc:
            injector.record(FaultKind.ENCLAVE_MEMORY, key,
                            FaultAction.DETECTED, detail=str(exc),
                            attempt=attempt)
            if attempt == 0:
                injector.record(FaultKind.ENCLAVE_MEMORY, key,
                                FaultAction.RETRIED,
                                detail="re-issuing ECALL", attempt=attempt)
                continue
            injector.record(
                FaultKind.ENCLAVE_MEMORY, key, FaultAction.DEGRADED,
                detail="BF verdict skipped for this ball (missing PM "
                       "counts positive -- sound)", attempt=attempt)
            return None
        else:
            if attempt > 0:
                injector.record(FaultKind.ENCLAVE_MEMORY, key,
                                FaultAction.RECOVERED,
                                detail="ECALL succeeded on retry",
                                attempt=attempt)
            return outcome
    return None  # pragma: no cover - loop always returns


def compute_pms_kernel(
    enclave: Enclave,
    message: EncryptedQueryMessage,
    balls: list[Ball],
    *,
    bf_config: BFConfig,
    twiglet_h: int,
    twiglet_features: dict[int, frozenset] | None = None,
    chaos: ChaosPolicy | None = None,
    player_id: int = 0,
) -> tuple[PruningMessages, dict[int, float], PhaseTimings,
           list[FaultEvent]]:
    """One player's share of the pruning messages (Secs. 4.1-4.2).

    Returns fresh ``(pms, per-ball costs, phase timings, fault events)``
    so the executor merges every player's share deterministically.

    ``chaos`` (the active fault schedule, if any) drives the enclave-side
    injections -- sealed-payload corruption and EPC exhaustion -- which
    fire here, where the enclave executes.
    The recovery paths are shared with genuine failures, and every
    degradation here is sound: BF pruning only ever removes provably
    spurious balls, so skipping it keeps strictly more candidates and the
    final match set is unchanged.

    ``twiglet_features`` supplies precomputed *full-alphabet* per-ball
    twiglet sets (the artifact store's offline output); they are
    restricted to the query alphabet here, yielding exactly the set the
    per-query DFS would enumerate.
    """
    injector = FaultInjector(chaos)
    pms = PruningMessages()
    pm_costs: dict[int, float] = {}
    timings = PhaseTimings()
    codec = LabelCodec.from_alphabet(message.alphabet)
    params = message.params
    # One registry per share: prune-table Straus tables are shared across
    # every ball of this kernel call (keys are public coordinates).
    registry = MultiExpRegistry()
    bf_active = False
    if message.bf_message is not None:
        bf_active = _load_encodings_with_recovery(
            enclave, message.bf_message.sealed_blob, injector, player_id)
    twiglet_plan = None
    if message.twiglet_tables:
        twiglet_plan = table_plan(params, len(message.twiglet_tables[0]))
    path_plan = None
    if message.path_tables:
        path_plan = table_plan(params, len(message.path_tables[0]))
    neighbor_plan = None
    if message.neighbor_tables:
        neighbor_plan = table_plan(params,
                                   len(message.neighbor_tables[0]))
    for ball in balls:
        started = time.perf_counter()
        if bf_active:
            bf_start = time.perf_counter()
            outcome = _bf_prune_with_recovery(enclave, ball, codec,
                                              bf_config, injector, player_id)
            if outcome is not None:
                pms.bf[ball.ball_id] = outcome
            timings.pm_bf += time.perf_counter() - bf_start
        if message.twiglet_tables:
            t_start = time.perf_counter()
            if (twiglet_features is not None
                    and ball.ball_id in twiglet_features):
                features = filter_twiglets(twiglet_features[ball.ball_id],
                                           message.alphabet)
            else:
                features = twiglets_from(ball.graph, ball.center, twiglet_h,
                                         message.alphabet)
            pms.twiglet[ball.ball_id] = player_table_prune(
                params, message.twiglet_tables, ball, features,
                message.c_one, twiglet_plan,
                multiexp=registry, kind="twiglet")
            timings.pm_twiglet += time.perf_counter() - t_start
        if message.path_tables:
            features = paths_from(ball.graph, ball.center, twiglet_h,
                                  message.alphabet)
            pms.path[ball.ball_id] = player_table_prune(
                params, message.path_tables, ball, features,
                message.c_one, path_plan,
                multiexp=registry, kind="path")
        if message.neighbor_tables:
            features = neighbor_features(ball.graph, ball.center)
            pms.neighbor[ball.ball_id] = player_table_prune(
                params, message.neighbor_tables, ball, features,
                message.c_one, neighbor_plan,
                multiexp=registry, kind="neighbor")
        elapsed = time.perf_counter() - started
        pm_costs[ball.ball_id] = elapsed
        timings.pm_computation += elapsed
    return pms, pm_costs, timings, injector.report.events


def merge_pms(into: PruningMessages, share: PruningMessages) -> None:
    """Merge one player's PM share into the run-wide collection."""
    into.bf.update(share.bf)
    into.twiglet.update(share.twiglet)
    into.path.update(share.path)
    into.neighbor.update(share.neighbor)


class Player:
    """One Player server: plaintext balls + an SGX enclave."""

    def __init__(self, player_id: int, index: BallIndex,
                 enclave: Enclave | None = None) -> None:
        self.player_id = player_id
        self.index = index
        self.enclave = enclave if enclave is not None else Enclave()

    # -- pruning-message computation (Secs. 4.1-4.2) -----------------
    def compute_pms(
        self,
        message: EncryptedQueryMessage,
        balls: list[Ball],
        *,
        bf_config: BFConfig,
        twiglet_h: int,
        pms: PruningMessages,
        pm_costs: dict[int, float],
        timings: PhaseTimings,
        faults: FaultInjector | None = None,
    ) -> None:
        """Compute this player's share of the PMs, appending into ``pms``."""
        share, costs, share_timings, events = compute_pms_kernel(
            self.enclave, message, balls,
            bf_config=bf_config, twiglet_h=twiglet_h,
            chaos=faults.policy if faults is not None and faults.active
            else None,
            player_id=self.player_id)
        if faults is not None:
            faults.report.extend(events)
        merge_pms(pms, share)
        pm_costs.update(costs)
        timings.pm_bf += share_timings.pm_bf
        timings.pm_twiglet += share_timings.pm_twiglet
        timings.pm_computation += share_timings.pm_computation

    # -- ball evaluation (Secs. 3.1-3.2) ------------------------------
    def evaluate_ball(
        self,
        message: EncryptedQueryMessage,
        ball: Ball,
        *,
        enumeration_limit: int,
        cmm_bound_bypass: int,
    ) -> EvaluationResult:
        """Alg. 3 lines 3-8 for one ball (see :func:`evaluate_ball_kernel`)."""
        return evaluate_ball_kernel(
            message, ball,
            enumeration_limit=enumeration_limit,
            cmm_bound_bypass=cmm_bound_bypass,
            player_id=self.player_id)


# ----------------------------------------------------------------------
# Dealer
# ----------------------------------------------------------------------
class Dealer:
    """The Dealer server: encrypted balls, sequence generation, relaying."""

    def __init__(self, store: EncryptedBallStore) -> None:
        self._store = store

    def generate_sequences(
        self,
        decrypted: DecryptedPMs,
        k: int,
        *,
        use_ssg: bool,
        seed: int = 0,
    ) -> tuple[list[PlayerSequence], str]:
        """Step 5: SSG when enabled (falling back to the normal case at
        theta >= 1/2 internally), plain RSG otherwise."""
        if use_ssg:
            return ssg_sequences(decrypted.ball_ids, decrypted.positives,
                                 k, seed=seed)
        return rsg_sequences(decrypted.ball_ids, k, seed=seed), "rsg"

    def fetch_encrypted_ball(self, ball_id: int) -> EncryptedBallBlob:
        """Step 9: serve one encrypted ball."""
        return self._store.get(ball_id)

    def refetch_encrypted_ball(self, ball_id: int) -> EncryptedBallBlob:
        """Re-serve a ball whose previous blob failed authentication,
        bypassing (and evicting/quarantining) the bad copy."""
        refetch = getattr(self._store, "refetch", None)
        if refetch is not None:
            return refetch(ball_id)
        return self._store.get(ball_id)
