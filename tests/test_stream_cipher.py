"""Tests for the stdlib authenticated stream cipher (AES-256 stand-in)."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.stream_cipher import AuthenticationError, StreamCipher


@pytest.fixture(scope="module")
def cipher():
    return StreamCipher(StreamCipher.generate_key(seed=1))


class TestRoundtrip:
    def test_basic(self, cipher):
        blob = cipher.encrypt(b"hello balls")
        assert cipher.decrypt(blob) == b"hello balls"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_large_payload(self, cipher):
        data = bytes(range(256)) * 500
        assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_fresh_nonce_randomizes(self, cipher):
        assert cipher.encrypt(b"x") != cipher.encrypt(b"x")

    def test_fixed_nonce_reproducible(self, cipher):
        nonce = b"n" * 16
        assert cipher.encrypt(b"x", nonce) == cipher.encrypt(b"x", nonce)

    def test_overhead(self, cipher):
        blob = cipher.encrypt(b"abc")
        assert len(blob) == 3 + StreamCipher.overhead_bytes()


class TestAuthentication:
    def test_tampered_body_rejected(self, cipher):
        blob = bytearray(cipher.encrypt(b"payload"))
        blob[20] ^= 1
        with pytest.raises(AuthenticationError):
            cipher.decrypt(bytes(blob))

    def test_tampered_tag_rejected(self, cipher):
        blob = bytearray(cipher.encrypt(b"payload"))
        blob[-1] ^= 1
        with pytest.raises(AuthenticationError):
            cipher.decrypt(bytes(blob))

    def test_truncated_rejected(self, cipher):
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"short")

    def test_wrong_key_rejected(self, cipher):
        other = StreamCipher(StreamCipher.generate_key(seed=2))
        with pytest.raises(AuthenticationError):
            other.decrypt(cipher.encrypt(b"secret"))


    def test_truncated_by_one_byte_rejected(self, cipher):
        blob = cipher.encrypt(bytes(100))
        for cut in (blob[:-1], blob[1:], blob[:16] + blob[17:]):
            with pytest.raises(AuthenticationError):
                cipher.decrypt(cut)

    def test_large_payload_tamper_rejected(self, cipher):
        blob = bytearray(cipher.encrypt(bytes(50_000)))
        blob[25_000] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.decrypt(bytes(blob))


def reference_encrypt(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The byte-at-a-time SHA-256-CTR + HMAC the cipher was first written
    as; every pack, journal and fixture on disk was produced by it."""
    enc_key = hashlib.sha256(b"enc" + key).digest()
    mac_key = hashlib.sha256(b"mac" + key).digest()
    stream = b"".join(
        hashlib.sha256(enc_key + nonce + counter.to_bytes(8, "big")).digest()
        for counter in range((len(plaintext) + 31) // 32))
    body = bytes(p ^ k for p, k in zip(plaintext, stream))
    return nonce + body + hmac.new(mac_key, nonce + body,
                                   hashlib.sha256).digest()


class TestByteStability:
    """The wire/pack format is frozen: same key, nonce and plaintext give
    the same ``nonce || body || tag`` bytes as on every earlier commit."""

    NONCE = bytes(range(16))
    #: sha256(encrypt(pattern(n), NONCE)) under key seed 1, recorded on the
    #: commit before the wide-word XOR landed.
    VECTORS = {
        0: "0caf3dd7227022d98bea7bf7a8c53be525d35224875ab83b6403ef6a641b659b",
        1: "4669c71c588cdc56b44ac4910f0d4db382888614f7ffd1857379870d3bc2331d",
        31: "79e45c7652553056c456da11dac611fcd0625161e6d22e3e7f373132cd2b8092",
        32: "c9facade47622bdcf7936e1ed11359516f2b7782347694d54c4add40b39c075f",
        33: "a402287a125287c5fce8908af7263f461a52d363c69c4ad94098bc9efea1d08d",
        64: "147fe19ce0eb1f58c3074a24a2c9ee2c7901c7ebb0d5cbfb8f5bfe42a99eaed2",
        50_000:
            "e309bd19bf313fb8ba8aad72924c45bd11d7dbb8f7332516d72adf2e263bc004",
    }

    @staticmethod
    def pattern(length: int) -> bytes:
        return bytes((i * 7 + 3) % 256 for i in range(length))

    @pytest.mark.parametrize("length", sorted(VECTORS))
    def test_known_answer(self, cipher, length):
        blob = cipher.encrypt(self.pattern(length), self.NONCE)
        assert hashlib.sha256(blob).hexdigest() == self.VECTORS[length]
        assert cipher.decrypt(blob) == self.pattern(length)

    @given(st.binary(max_size=4096), st.binary(min_size=16, max_size=16),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, data, nonce, seed):
        key = StreamCipher.generate_key(seed)
        blob = StreamCipher(key).encrypt(data, nonce)
        assert blob == reference_encrypt(key, data, nonce)
        assert StreamCipher(key).decrypt(blob) == data

    def test_leading_zero_bytes_survive(self, cipher):
        """The XOR runs on big integers; a body whose leading bytes XOR to
        zero must keep its full length."""
        keystream = cipher.encrypt(bytes(64), self.NONCE)[16:-32]
        blob = cipher.encrypt(keystream, self.NONCE)
        assert blob[16:-32] == bytes(64)
        assert cipher.decrypt(blob) == keystream


class TestKeyHandling:
    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            StreamCipher(b"short")

    def test_seeded_keys_deterministic(self):
        assert StreamCipher.generate_key(3) == StreamCipher.generate_key(3)
        assert StreamCipher.generate_key(3) != StreamCipher.generate_key(4)

    def test_bad_nonce_length(self):
        cipher = StreamCipher(StreamCipher.generate_key(seed=5))
        with pytest.raises(ValueError):
            cipher.encrypt(b"x", nonce=b"short")


class TestProperties:
    @given(st.binary(max_size=2000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        cipher = StreamCipher(StreamCipher.generate_key(seed=8))
        assert cipher.decrypt(cipher.encrypt(data)) == data

    @given(st.binary(min_size=16, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_ciphertext_hides_plaintext(self, data):
        """Payloads of >= 16 bytes never appear verbatim in the blob
        (shorter fragments can collide with nonce/tag bytes by chance)."""
        cipher = StreamCipher(StreamCipher.generate_key(seed=9))
        blob = cipher.encrypt(data)
        assert data not in blob
