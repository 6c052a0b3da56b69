"""Authenticated symmetric encryption from the standard library.

The paper uses AES-256 for (a) the data owner's ball encryption (secret key
``sk``) and (b) the user -> enclave transport of 2-label binary tree
encodings (Sec. 4.1.2).  No third-party crypto package is available offline,
so this module implements a SHAKE-256 keystream with an encrypt-then-MAC
HMAC-SHA-256 tag.  Interface properties (symmetric key, random nonce,
ciphertext indistinguishable from random to parties without the key,
tampering detected) match what the reproduction needs; see DESIGN.md for the
substitution rationale.

Every blob is ``nonce(16) || body || tag(32)``.  Two keystreams have
written that layout: v2 (what :meth:`StreamCipher.encrypt` writes) is
``shake_256(enc2_key || nonce)``, one C call per blob; v1 (packs written
before it) is SHA-256 in counter mode, one hash per 32-byte block.  Each
version has its own MAC key, so the tag that verifies says which keystream
to apply: a pack patched by a later release holds both, blob by blob.
"""

from __future__ import annotations

import hashlib
import hmac
import os

_NONCE_BYTES = 16
_TAG_BYTES = 32
_BLOCK_BYTES = 32  # SHA-256 output, the v1 keystream's block


class AuthenticationError(ValueError):
    """Ciphertext failed MAC verification (tampered or wrong key)."""


def _xor(data: bytes, keystream: bytes) -> bytes:
    """Equal-length XOR on two big integers, not byte by byte."""
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(keystream, "big")).to_bytes(len(data), "big")


class StreamCipher:
    """SHAKE-256 keystream + HMAC-SHA-256, a stdlib-only AES-256-GCM
    stand-in that still decrypts its SHA-256-CTR (v1) blobs."""

    KEY_BYTES = 32
    TAG_BYTES = _TAG_BYTES

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_BYTES:
            raise ValueError(f"key must be {self.KEY_BYTES} bytes, "
                             f"got {len(key)}")
        self._enc_key = hashlib.sha256(b"enc2" + key).digest()
        self._mac_key = hashlib.sha256(b"mac2" + key).digest()
        self._v1_enc_key = hashlib.sha256(b"enc" + key).digest()
        self._v1_mac_key = hashlib.sha256(b"mac" + key).digest()

    @classmethod
    def generate_key(cls, seed: int | None = None) -> bytes:
        """A fresh key; seedable for reproducible experiments."""
        if seed is None:
            return os.urandom(cls.KEY_BYTES)
        return hashlib.sha256(f"stream-cipher-key:{seed}"
                              .encode("utf-8")).digest()

    # ------------------------------------------------------------------
    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _v1_keystream(self, nonce: bytes, length: int) -> bytes:
        """``sha256(v1_enc_key || nonce || ctr)`` per 32-byte block: the
        shared prefix is hashed once and copied per block."""
        prefix = hashlib.sha256(self._v1_enc_key + nonce)
        blocks = []
        for counter in range((length + _BLOCK_BYTES - 1) // _BLOCK_BYTES):
            block = prefix.copy()
            block.update(counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """``nonce || ciphertext || tag``, always cipher v2.

        A caller-supplied nonce makes ciphertexts reproducible in tests;
        production-style use leaves it None for a random nonce.
        """
        if nonce is None:
            nonce = os.urandom(_NONCE_BYTES)
        if len(nonce) != _NONCE_BYTES:
            raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
        head = nonce + _xor(plaintext, self._keystream(nonce, len(plaintext)))
        return head + hmac.digest(self._mac_key, head, "sha256")

    def verify(self, blob: bytes) -> int:
        """The version whose tag verifies ``blob`` (v2 is tried first, so
        a v2 blob costs one MAC); raises :class:`AuthenticationError`
        when neither does.  The tag is ``blob[-32:]``: a verified tag
        binds the exact ``nonce || ciphertext`` bytes under this key."""
        if len(blob) < _NONCE_BYTES + _TAG_BYTES:
            raise AuthenticationError("ciphertext too short")
        head, tag = blob[:-_TAG_BYTES], blob[-_TAG_BYTES:]
        if hmac.compare_digest(
                tag, hmac.digest(self._mac_key, head, "sha256")):
            return 2
        if hmac.compare_digest(
                tag, hmac.digest(self._v1_mac_key, head, "sha256")):
            return 1
        raise AuthenticationError("MAC verification failed")

    def decrypt_verified(self, blob: bytes, version: int) -> bytes:
        """The plaintext of a blob :meth:`verify` returned ``version``
        for: the keystream alone, no second MAC."""
        nonce = blob[:_NONCE_BYTES]
        body = blob[_NONCE_BYTES:-_TAG_BYTES]
        keystream = self._keystream if version == 2 else self._v1_keystream
        return _xor(body, keystream(nonce, len(body)))

    def decrypt_versioned(self, blob: bytes) -> tuple[int, bytes]:
        """``(version, plaintext)``: :meth:`verify`, then
        :meth:`decrypt_verified`."""
        version = self.verify(blob)
        return version, self.decrypt_verified(blob, version)

    def decrypt(self, blob: bytes) -> bytes:
        """Verify the tag, then decrypt; raises on tampering."""
        return self.decrypt_versioned(blob)[1]

    @staticmethod
    def overhead_bytes() -> int:
        """Per-message size overhead (nonce + tag), for size accounting."""
        return _NONCE_BYTES + _TAG_BYTES
