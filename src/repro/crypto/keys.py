"""Key material for the three parties of the system model (Fig. 4).

* The **data owner** holds ``sk`` -- the symmetric key encrypting ball data.
  Authorized users receive it out of band; the SP never does.
* The **user** additionally holds the CGBE private key (``pk`` in the
  paper's notation) and a session key for the user -> enclave channel.
* The **service provider** sees only :class:`repro.crypto.cgbe.CGBEPublicParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.cgbe import CGBE
from repro.crypto.stream_cipher import StreamCipher


@dataclass(frozen=True)
class DataOwnerKey:
    """The data owner's ball-encryption secret key ``sk``."""

    ball_key: bytes

    @classmethod
    def generate(cls, seed: int | None = None) -> "DataOwnerKey":
        return cls(ball_key=StreamCipher.generate_key(seed))

    def cipher(self) -> StreamCipher:
        return StreamCipher(self.ball_key)


@dataclass
class UserKeyring:
    """Everything the query user holds.

    ``cgbe`` encrypts query encodings and twiglet tables and decrypts
    pruning messages / results; ``enclave_key`` protects the 2-label binary
    tree encodings sent into SGX enclaves; ``owner_key`` (granted by the
    data owner) decrypts retrieved balls.
    """

    cgbe: CGBE
    enclave_key: bytes
    owner_key: DataOwnerKey | None = field(default=None)

    @classmethod
    def generate(cls, modulus_bits: int = 2048, seed: int | None = None,
                 owner_key: DataOwnerKey | None = None, *,
                 q_bits: int = 32, r_bits: int = 32) -> "UserKeyring":
        return cls(
            cgbe=CGBE.generate(modulus_bits=modulus_bits, q_bits=q_bits,
                               r_bits=r_bits, seed=seed),
            enclave_key=StreamCipher.generate_key(
                None if seed is None else seed + 1),
            owner_key=owner_key,
        )

    def enclave_cipher(self) -> StreamCipher:
        return StreamCipher(self.enclave_key)

    def grant_owner_key(self, owner_key: DataOwnerKey) -> None:
        """Receive ``sk`` from the data owner (authorized users only)."""
        self.owner_key = owner_key

    def ball_cipher(self) -> StreamCipher:
        if self.owner_key is None:
            raise PermissionError(
                "user has not been granted the data owner's secret key")
        return self.owner_key.cipher()
