"""Tests for the stdlib authenticated stream cipher (AES-256 stand-in):
one keystream and one MAC key; the blobs of the retired SHA-256-CTR
cipher are refused."""

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


def reference_encrypt_v2(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The cipher written directly from ``hashlib``: a SHAKE-256 keystream
    and an HMAC-SHA-256 tag, each under its own ``*2``-labelled key."""
    enc_key = hashlib.sha256(b"enc2" + key).digest()
    mac_key = hashlib.sha256(b"mac2" + key).digest()
    stream = hashlib.shake_256(enc_key + nonce).digest(len(plaintext))
    body = bytes(p ^ k for p, k in zip(plaintext, stream))
    return nonce + body + hmac.new(mac_key, nonce + body,
                                   hashlib.sha256).digest()


def reference_encrypt_v1(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The retired cipher, SHA-256 in counter mode under ``enc``/``mac``
    labelled keys: what packs written before the SHAKE-256 keystream
    hold, kept here to show that none of it authenticates any more."""
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
    the same ``nonce || body || tag`` bytes as on every earlier commit of
    this cipher, and no blob the retired v1 cipher wrote authenticates."""

    NONCE = bytes(range(16))
    #: sha256(encrypt(pattern(n), NONCE)) under key seed 1.  Re-recorded
    #: once, when the SHAKE-256 keystream (cipher v2) replaced SHA-256-CTR
    #: as what ``encrypt`` writes; the blob layout and length did not move.
    VECTORS = {
        0: "b767fbd2f5b0878cb13aca6144479fca26b1ff186c4f12c81eafee668511926e",
        1: "0f444089dad112d2fec2b2f4eab27f5aff4419542ec249e3665a7415c09bc850",
        31: "a205ab407ea8ce7ce16b90e303aa0abd5a21f0760a204e4cffb854f60436cbcc",
        32: "fa41228f4d4324a81e69adf299edb826d9f04b475913cd79206d64bf03c2f40a",
        33: "614badd80072592062674e0dd110f212217e4dded5f08c15079dd8a8ec856d94",
        64: "de89f2f16e5d97aa4af26b4119f4725c8d0984dd263bb55157080e107eaf21b8",
        50_000:
            "f3af6eaed042aa6290ebcd082c875907fe1b1aee477bbd0dcf2744be4cbb0671",
    }
    #: The same digests for the retired cipher v1, recorded on the commit
    #: before the wide-word XOR landed: what the v1 oracle writes, and
    #: what the cipher must refuse.
    V1_VECTORS = {
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

    @pytest.mark.parametrize("length", sorted(V1_VECTORS))
    def test_v1_known_answer_is_refused(self, cipher, length):
        blob = reference_encrypt_v1(StreamCipher.generate_key(seed=1),
                                    self.pattern(length), self.NONCE)
        assert hashlib.sha256(blob).hexdigest() == self.V1_VECTORS[length]
        with pytest.raises(AuthenticationError):
            cipher.decrypt(blob)

    @given(st.binary(max_size=4096), st.binary(min_size=16, max_size=16),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, data, nonce, seed):
        key = StreamCipher.generate_key(seed)
        blob = StreamCipher(key).encrypt(data, nonce)
        assert blob == reference_encrypt_v2(key, data, nonce)
        assert StreamCipher(key).decrypt(blob) == data

    @given(st.binary(max_size=4096), st.binary(min_size=16, max_size=16),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_refuses_the_v1_reference(self, data, nonce, seed):
        key = StreamCipher.generate_key(seed)
        blob = reference_encrypt_v1(key, data, nonce)
        assert len(blob) == len(StreamCipher(key).encrypt(data, nonce))
        with pytest.raises(AuthenticationError):
            StreamCipher(key).verify(blob)

    def test_leading_zero_bytes_survive(self, cipher):
        """The XOR runs on big integers; a body whose leading bytes XOR to
        zero must keep its full length."""
        keystream = cipher.encrypt(bytes(64), self.NONCE)[16:-32]
        blob = cipher.encrypt(keystream, self.NONCE)
        assert blob[16:-32] == bytes(64)
        assert cipher.decrypt(blob) == keystream


def _flip(blob: bytes, index: int) -> bytes:
    damaged = bytearray(blob)
    damaged[index] ^= 0x01
    return bytes(damaged)


class TestCrossVersion:
    """A blob is authenticated by its own tag only: no mutation of it, and
    no splice of its body with the retired v1 cipher's tag (or back),
    decrypts."""

    KEY = StreamCipher.generate_key(seed=1)
    NONCE = bytes(range(16))
    PLAIN = bytes(range(256)) * 4

    @pytest.fixture()
    def blob(self, cipher):
        return cipher.encrypt(self.PLAIN, self.NONCE)

    @pytest.mark.parametrize("mutate", [
        lambda b: _flip(b, 0),             # nonce
        lambda b: _flip(b, 15),            # nonce, last byte
        lambda b: _flip(b, 16),            # body, first byte
        lambda b: _flip(b, len(b) // 2),   # body
        lambda b: _flip(b, len(b) - 33),   # body, last byte
        lambda b: _flip(b, len(b) - 32),   # tag, first byte
        lambda b: _flip(b, len(b) - 1),    # tag
        lambda b: b[:-1],                  # truncated tag
        lambda b: b[1:],                   # truncated nonce
        lambda b: b[:16] + b[17:],         # truncated body
        lambda b: b[:47],                  # too short for nonce + tag
    ], ids=["nonce0", "nonce15", "body0", "body-mid", "body-last", "tag0",
            "tag-last", "cut-tag", "cut-nonce", "cut-body", "short"])
    def test_mutation_rejected(self, cipher, blob, mutate):
        assert cipher.decrypt(blob) == self.PLAIN
        with pytest.raises(AuthenticationError):
            cipher.decrypt(mutate(blob))
        with pytest.raises(AuthenticationError):
            cipher.verify(mutate(blob))

    def test_decrypt_verified_is_decrypt_after_verify(self, cipher, blob):
        cipher.verify(blob)
        assert cipher.decrypt_verified(blob) == cipher.decrypt(blob) \
            == self.PLAIN

    def test_body_under_the_other_versions_tag_rejected(self, cipher):
        v1 = reference_encrypt_v1(self.KEY, self.PLAIN, self.NONCE)
        v2 = cipher.encrypt(self.PLAIN, self.NONCE)
        assert v1[:16] == v2[:16] and v1[16:-32] != v2[16:-32]
        for body_of, tag_of in ((v1, v2), (v2, v1)):
            with pytest.raises(AuthenticationError):
                cipher.decrypt(body_of[:-32] + tag_of[-32:])

    def test_v2_keys_are_not_the_v1_keys(self, cipher):
        """The same key and nonce give unrelated keystreams and tags."""
        v1 = reference_encrypt_v1(self.KEY, bytes(64), self.NONCE)
        v2 = cipher.encrypt(bytes(64), self.NONCE)
        assert v1[16:-32] != v2[16:-32] and v1[-32:] != v2[-32:]


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
