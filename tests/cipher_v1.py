"""Cipher v1 -- SHA-256 in counter mode + HMAC-SHA-256 -- as
``repro.crypto.stream_cipher`` wrote it until the SHAKE-256 keystream (v2)
replaced it.  ``src/`` only *decrypts* v1 now; the writer lives on here as
the oracle for the compatibility tests, the way ``tests/ball_v1.py`` keeps
the v1 ball record."""

import hashlib
import hmac

from repro.crypto import stream_cipher
from repro.crypto.keys import DataOwnerKey
from repro.crypto.stream_cipher import StreamCipher


def reference_encrypt_v1(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The byte-at-a-time SHA-256-CTR + HMAC the cipher was first written
    as; every pack, journal and fixture written before cipher v2 was
    produced by it."""
    enc_key = hashlib.sha256(b"enc" + key).digest()
    mac_key = hashlib.sha256(b"mac" + key).digest()
    stream = b"".join(
        hashlib.sha256(enc_key + nonce + counter.to_bytes(8, "big")).digest()
        for counter in range((len(plaintext) + 31) // 32))
    body = bytes(p ^ k for p, k in zip(plaintext, stream))
    return nonce + body + hmac.new(mac_key, nonce + body,
                                   hashlib.sha256).digest()


class V1Cipher(StreamCipher):
    """Encrypts through the v1 oracle; decrypts like the current cipher.
    Nonces come from the module's ``os.urandom`` in the same order the v1
    writer drew them, so pinned-nonce goldens reproduce."""

    def __init__(self, key: bytes) -> None:
        super().__init__(key)
        self._key = key

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        if nonce is None:
            nonce = stream_cipher.os.urandom(16)
        return reference_encrypt_v1(self._key, plaintext, nonce)


def write_v1_ciphers(monkeypatch) -> None:
    """Make every owner-key cipher (``ArtifactStore.create`` /
    ``apply_delta`` / the store's re-encrypt fallback) write v1 blobs, as
    the release before cipher v2 did."""
    monkeypatch.setattr(DataOwnerKey, "cipher",
                        lambda self: V1Cipher(self.ball_key))
