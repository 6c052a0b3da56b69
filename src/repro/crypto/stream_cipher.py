"""Authenticated symmetric encryption from the standard library.

The paper uses AES-256 for (a) the data owner's ball encryption (secret key
``sk``) and (b) the user -> enclave transport of 2-label binary tree
encodings (Sec. 4.1.2).  No third-party crypto package is available offline,
so this module implements a SHAKE-256 keystream with an encrypt-then-MAC
HMAC-SHA-256 tag.  Interface properties (symmetric key, random nonce,
ciphertext indistinguishable from random to parties without the key,
tampering detected) match what the reproduction needs; see DESIGN.md for the
substitution rationale.

Every blob is ``nonce(16) || body || tag(32)``: the body is the plaintext
XORed with ``shake_256(enc_key || nonce)`` (one C call per blob), the tag
an HMAC over ``nonce || body``.  Both keys are derived from the one
32-byte key; the ``2`` in their labels is part of the format.
"""

from __future__ import annotations

import hashlib
import hmac
import os

_NONCE_BYTES = 16
_TAG_BYTES = 32


class AuthenticationError(ValueError):
    """Ciphertext failed MAC verification (tampered or wrong key)."""


def _xor(data: bytes, keystream: bytes) -> bytes:
    """Equal-length XOR on two big integers, not byte by byte."""
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(keystream, "big")).to_bytes(len(data), "big")


class StreamCipher:
    """SHAKE-256 keystream + HMAC-SHA-256, a stdlib-only AES-256-GCM
    stand-in."""

    KEY_BYTES = 32
    TAG_BYTES = _TAG_BYTES

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_BYTES:
            raise ValueError(f"key must be {self.KEY_BYTES} bytes, "
                             f"got {len(key)}")
        self._enc_key = hashlib.sha256(b"enc2" + key).digest()
        self._mac_key = hashlib.sha256(b"mac2" + key).digest()

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

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """``nonce || ciphertext || tag``.

        A caller-supplied nonce makes ciphertexts reproducible in tests;
        production-style use leaves it None for a random nonce.
        """
        if nonce is None:
            nonce = os.urandom(_NONCE_BYTES)
        if len(nonce) != _NONCE_BYTES:
            raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
        head = nonce + _xor(plaintext, self._keystream(nonce, len(plaintext)))
        return head + hmac.digest(self._mac_key, head, "sha256")

    def verify(self, blob: bytes) -> None:
        """Raise :class:`AuthenticationError` unless ``blob``'s tag
        verifies.  The tag is ``blob[-32:]``: a verified tag binds the
        exact ``nonce || ciphertext`` bytes under this key."""
        if len(blob) < _NONCE_BYTES + _TAG_BYTES:
            raise AuthenticationError("ciphertext too short")
        head, tag = blob[:-_TAG_BYTES], blob[-_TAG_BYTES:]
        if not hmac.compare_digest(
                tag, hmac.digest(self._mac_key, head, "sha256")):
            raise AuthenticationError("MAC verification failed")

    def decrypt_verified(self, blob: bytes) -> bytes:
        """The plaintext of a blob :meth:`verify` accepted: the keystream
        alone, no second MAC."""
        nonce = blob[:_NONCE_BYTES]
        body = blob[_NONCE_BYTES:-_TAG_BYTES]
        return _xor(body, self._keystream(nonce, len(body)))

    def decrypt(self, blob: bytes) -> bytes:
        """Verify the tag, then decrypt; raises on tampering."""
        self.verify(blob)
        return self.decrypt_verified(blob)

    @staticmethod
    def overhead_bytes() -> int:
        """Per-message size overhead (nonce + tag), for size accounting."""
        return _NONCE_BYTES + _TAG_BYTES
