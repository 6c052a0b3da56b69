"""Authenticated symmetric encryption from the standard library.

The paper uses AES-256 for (a) the data owner's ball encryption (secret key
``sk``) and (b) the user -> enclave transport of 2-label binary tree
encodings (Sec. 4.1.2).  No third-party crypto package is available offline,
so this module implements SHA-256-in-counter-mode with an encrypt-then-MAC
HMAC-SHA-256 tag.  Interface properties (symmetric key, random nonce,
ciphertext indistinguishable from random to parties without the key,
tampering detected) match what the reproduction needs; see DESIGN.md for the
substitution rationale.
"""

from __future__ import annotations

import hashlib
import hmac
import os

_NONCE_BYTES = 16
_TAG_BYTES = 32
_BLOCK_BYTES = 32  # SHA-256 output


class AuthenticationError(ValueError):
    """Ciphertext failed MAC verification (tampered or wrong key)."""


class StreamCipher:
    """SHA-256-CTR + HMAC-SHA-256, a stdlib-only AES-256-GCM stand-in."""

    KEY_BYTES = 32

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_BYTES:
            raise ValueError(f"key must be {self.KEY_BYTES} bytes, "
                             f"got {len(key)}")
        self._enc_key = hashlib.sha256(b"enc" + key).digest()
        self._mac_key = hashlib.sha256(b"mac" + key).digest()

    @classmethod
    def generate_key(cls, seed: int | None = None) -> bytes:
        """A fresh key; seedable for reproducible experiments."""
        if seed is None:
            return os.urandom(cls.KEY_BYTES)
        return hashlib.sha256(f"stream-cipher-key:{seed}"
                              .encode("utf-8")).digest()

    # ------------------------------------------------------------------
    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the keystream ``sha256(enc_key || nonce || ctr)``:
        the shared prefix is hashed once and copied per block, and the XOR
        runs on two big integers, not byte by byte."""
        length = len(data)
        prefix = hashlib.sha256(self._enc_key + nonce)
        blocks = []
        for counter in range((length + _BLOCK_BYTES - 1) // _BLOCK_BYTES):
            block = prefix.copy()
            block.update(counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        keystream = b"".join(blocks)[:length]
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(keystream, "big")).to_bytes(length, "big")

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """``nonce || ciphertext || tag``.

        A caller-supplied nonce makes ciphertexts reproducible in tests;
        production-style use leaves it None for a random nonce.
        """
        if nonce is None:
            nonce = os.urandom(_NONCE_BYTES)
        if len(nonce) != _NONCE_BYTES:
            raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
        body = self._xor_keystream(nonce, plaintext)
        tag = hmac.new(self._mac_key, nonce + body, hashlib.sha256).digest()
        return nonce + body + tag

    def decrypt(self, blob: bytes) -> bytes:
        """Verify the tag, then decrypt; raises on tampering."""
        if len(blob) < _NONCE_BYTES + _TAG_BYTES:
            raise AuthenticationError("ciphertext too short")
        nonce = blob[:_NONCE_BYTES]
        body = blob[_NONCE_BYTES:-_TAG_BYTES]
        tag = blob[-_TAG_BYTES:]
        expected = hmac.new(self._mac_key, nonce + body,
                            hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected):
            raise AuthenticationError("MAC verification failed")
        return self._xor_keystream(nonce, body)

    @staticmethod
    def overhead_bytes() -> int:
        """Per-message size overhead (nonce + tag), for size accounting."""
        return _NONCE_BYTES + _TAG_BYTES
