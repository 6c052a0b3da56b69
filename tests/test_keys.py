"""Tests for key material containers."""

import pytest

from repro.crypto.cgbe import CGBE
from repro.crypto.keys import DataOwnerKey, UserKeyring
from repro.framework.prilo import Prilo, PriloConfig
from repro.graph.generators import fig3_graph


class TestDataOwnerKey:
    def test_generate_and_cipher(self):
        key = DataOwnerKey.generate(seed=1)
        cipher = key.cipher()
        assert cipher.decrypt(cipher.encrypt(b"ball")) == b"ball"

    def test_deterministic_with_seed(self):
        assert DataOwnerKey.generate(2).ball_key == DataOwnerKey.generate(2).ball_key


class TestUserKeyring:
    def test_generate(self):
        ring = UserKeyring.generate(modulus_bits=256, seed=1)
        assert ring.cgbe.params.modulus_bits == 256
        assert ring.owner_key is None

    def test_ball_cipher_requires_grant(self):
        ring = UserKeyring.generate(modulus_bits=256, seed=2)
        with pytest.raises(PermissionError):
            ring.ball_cipher()
        ring.grant_owner_key(DataOwnerKey.generate(seed=3))
        assert ring.ball_cipher() is not None

    def test_enclave_cipher(self):
        ring = UserKeyring.generate(modulus_bits=256, seed=4)
        cipher = ring.enclave_cipher()
        assert cipher.decrypt(cipher.encrypt(b"enc")) == b"enc"

    def test_engine_generates_the_user_key_once(self, monkeypatch):
        """The engine's user key is one CGBE generation at the configured
        q/r, not a default one thrown away and regenerated."""
        calls = []
        real = CGBE.generate.__func__
        monkeypatch.setattr(CGBE, "generate", classmethod(
            lambda cls, **kw: (calls.append(kw), real(cls, **kw))[1]))
        config = PriloConfig(k_players=2, modulus_bits=256, q_bits=16,
                             r_bits=16, seed=5)
        with Prilo(fig3_graph(), config) as engine:
            params = engine.user.keyring.cgbe.params
        assert calls == [dict(modulus_bits=256, q_bits=16, r_bits=16,
                              seed=5)]
        assert params == CGBE.generate(modulus_bits=256, q_bits=16,
                                       r_bits=16, seed=5).params
