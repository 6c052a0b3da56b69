"""The simulated SGX enclave hosting the BF-pruning trusted application.

Sec. 4.1.2 splits BF pruning across three locations:

* *user*: computes and encrypts eta canonical tree encodings per query vertex
  and sends them into the enclave over a secure channel;
* *player, outside the enclave*: builds a per-ball bloom filter and
  transmits it through the enclave boundary;
* *player, inside the enclave*: decrypts the query encodings, tests them
  against the ball's filter query-obliviously (the same one-word test per
  matching query vertex whatever it holds -- no early exits), aggregates
  the outcome into one integer and encrypts it as the pruning message
  ``c_sgx``.

This class enforces the two properties SGX contributes to the paper:
isolation of the plaintext encodings (only ciphertext crosses the boundary,
and the host-side code in :mod:`repro.core.bf_pruning` never touches the
internals), and the cost model (an EPC byte budget and metered boundary
crossings, because "the cost of interaction with the enclave is huge").
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from repro.crypto.stream_cipher import StreamCipher
from repro.filters.bloom import BloomFilter
from repro.observability.spans import NULL_TRACER, ROLE_ENCLAVE
from repro.tee.attestation import AttestationReport, measure

#: Usable protected memory; the paper cites ~128 MB (Sec. 2.2).
DEFAULT_EPC_BYTES = 128 * 1024 * 1024

_enclave_ids = itertools.count(1)


class EnclaveMemoryError(MemoryError):
    """A load would exceed the enclave's protected-memory budget."""


class ChannelIntegrityError(ValueError):
    """A sealed user->enclave payload failed authentication or parsing.

    One exception type for every corruption symptom (MAC failure, garbage
    JSON, malformed entries) so the Player-side recovery path can treat
    "the sealed blob did not survive transit" uniformly: re-request the
    payload, and degrade to twiglet-only pruning if it keeps failing.
    """


@dataclass
class EnclaveMetrics:
    """Boundary-crossing and memory accounting for one enclave instance."""

    ecalls: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    current_memory: int = 0
    peak_memory: int = field(default=0)

    def charge_in(self, nbytes: int) -> None:
        self.ecalls += 1
        self.bytes_in += nbytes

    def charge_out(self, nbytes: int) -> None:
        self.bytes_out += nbytes

    def allocate(self, nbytes: int, limit: int) -> None:
        if self.current_memory + nbytes > limit:
            raise EnclaveMemoryError(
                f"enclave allocation of {nbytes} B exceeds the "
                f"{limit} B EPC budget ({self.current_memory} B in use)")
        self.current_memory += nbytes
        self.peak_memory = max(self.peak_memory, self.current_memory)

    def free(self, nbytes: int) -> None:
        self.current_memory = max(0, self.current_memory - nbytes)


class Enclave:
    """One SGX enclave instance on a Player server."""

    APP_IDENTITY = "prilo-bf-checker/1.0"

    def __init__(self, memory_limit_bytes: int = DEFAULT_EPC_BYTES) -> None:
        if memory_limit_bytes < 1:
            raise ValueError("memory limit must be positive")
        self._memory_limit = memory_limit_bytes
        self._enclave_id = next(_enclave_ids)
        self.metrics = EnclaveMetrics()
        #: Per-ECALL boundary tracing (``enclave`` scope).  Only sizes and
        #: call counts are emitted -- never payloads; the plaintext
        #: encodings and the ``c_sgx`` contents stay inside, exactly like
        #: the cost model's metering.  Inert by default.
        self.tracer = NULL_TRACER
        self._session: StreamCipher | None = None
        # Sealed query state: list of (label_repr, encodings tuple).
        self._encodings: list[tuple[str, tuple[int, ...]]] = []
        self._encodings_bytes = 0
        # Per filter geometry (m, k): one (label_repr, required-bits word)
        # per loaded query vertex, derived at the first check_ball of that
        # geometry and charged to the EPC budget until the encodings go.
        self._words: dict[tuple[int, int], list[tuple[str, int]]] = {}
        self._words_bytes = 0

    # ------------------------------------------------------------------
    # attestation and session establishment
    # ------------------------------------------------------------------
    def attest(self) -> AttestationReport:
        return AttestationReport(measurement=measure(self.APP_IDENTITY),
                                 enclave_id=self._enclave_id)

    def _install_session_key(self, key: bytes) -> None:
        """Endpoint of the (simulated) attested key exchange; called by
        :class:`repro.tee.channel.SecureChannel` only."""
        self._session = StreamCipher(key)

    @property
    def has_session(self) -> bool:
        return self._session is not None

    # ------------------------------------------------------------------
    # trusted application: BF pruning
    # ------------------------------------------------------------------
    def load_query_encodings(self, encrypted_blob: bytes) -> None:
        """ECALL: install the user's encrypted 2-label-binary-tree encodings.

        Payload (after in-enclave decryption) is JSON
        ``{"eta": int, "entries": [[label_repr, [enc, ...]], ...]}``; every
        entry must carry exactly ``eta`` encodings (the user pads with 0s,
        Sec. 4.1.2), which is what makes the later checks oblivious.
        """
        if self._session is None:
            raise PermissionError("no attested session established")
        self.metrics.charge_in(len(encrypted_blob))
        try:
            payload = json.loads(self._session.decrypt(encrypted_blob))
            eta = int(payload["eta"])
            if eta < 1:
                raise ValueError("eta must be positive")
            entries: list[tuple[str, tuple[int, ...]]] = []
            for label_repr, encodings in payload["entries"]:
                if len(encodings) != eta:
                    raise ValueError(
                        f"entry for label {label_repr} has {len(encodings)} "
                        f"encodings, expected eta={eta}")
                entries.append((label_repr,
                                tuple(int(e) for e in encodings)))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            # Includes StreamCipher's AuthenticationError (a ValueError):
            # the sealed payload was corrupted in transit or is malformed.
            raise ChannelIntegrityError(
                f"sealed query-encoding payload rejected: {exc}") from exc
        nbytes = sum(8 * eta + len(l) for l, _ in entries)
        self._free_encodings()
        self.metrics.allocate(nbytes, self._memory_limit)
        self._encodings = entries
        self._encodings_bytes = nbytes
        self.tracer.event("ecall_load_encodings", ROLE_ENCLAVE,
                          bytes_in=len(encrypted_blob),
                          ecalls=self.metrics.ecalls)

    def _free_encodings(self) -> None:
        if self._encodings_bytes:
            self.metrics.free(self._encodings_bytes + self._words_bytes)
            self._encodings = []
            self._encodings_bytes = 0
            self._words = {}
            self._words_bytes = 0

    def _required_words(self, ball_filter: BloomFilter,
                        ) -> list[tuple[str, int]]:
        """Per loaded query vertex, the OR of its eta encodings' probe
        positions under ``ball_filter``'s geometry: the vertex passes a
        filter exactly when the filter holds every bit of its word."""
        geometry = (ball_filter.num_bits, ball_filter.num_hashes)
        words = self._words.get(geometry)
        if words is None:
            # Encodings repeat (every vertex pads with 0s): hash each once.
            distinct = {e for _, encodings in self._encodings
                        for e in encodings}
            of = {e: ball_filter.positions_word(e) for e in distinct}
            words = [(label_repr, reduce(or_, map(of.__getitem__, encodings)))
                     for label_repr, encodings in self._encodings]
            nbytes = len(words) * ((geometry[0] + 7) // 8)
            self.metrics.allocate(nbytes, self._memory_limit)
            self._words[geometry] = words
            self._words_bytes += nbytes
        return words

    def check_ball(self, filter_blob: bytes, center_label_repr: str) -> bytes:
        """ECALL: test the loaded encodings against one ball's bloom filter.

        Returns the encrypted pruning message ``c_sgx`` whose plaintext is
        the number of query vertices (with the ball center's label) whose
        eta encodings all pass the filter.  A plaintext of 0 marks the ball
        spurious (Prop. 3).

        Each query vertex's eta encodings are tested as one word: the OR
        of their probe positions, derived once per filter geometry
        (:meth:`_required_words`).  Every matching query vertex costs the
        same one AND and compare whichever probe would have missed, so the
        enclave's memory access pattern is independent of the query's edge
        structure (Prop. 7).
        """
        if self._session is None:
            raise PermissionError("no attested session established")
        if not self._encodings:
            raise RuntimeError("query encodings not loaded")
        self.metrics.charge_in(len(filter_blob))
        self.metrics.allocate(len(filter_blob), self._memory_limit)
        try:
            ball_filter = BloomFilter.from_bytes(filter_blob)
            bits = ball_filter.as_int()
            matched_vertices = 0
            for label_repr, need in self._required_words(ball_filter):
                if label_repr != center_label_repr:
                    continue
                matched_vertices += 1 if bits & need == need else 0
            plaintext = matched_vertices.to_bytes(8, "big")
            result = self._session.encrypt(plaintext)
            self.metrics.charge_out(len(result))
            self.tracer.event("ecall_check_ball", ROLE_ENCLAVE,
                              bytes_in=len(filter_blob),
                              bytes_out=len(result))
            return result
        finally:
            self.metrics.free(len(filter_blob))

    # ------------------------------------------------------------------
    @property
    def memory_limit_bytes(self) -> int:
        return self._memory_limit
