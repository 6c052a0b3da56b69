"""Cryptographic substrate: CGBE, a symmetric stream cipher, and keys.

* :class:`~repro.crypto.cgbe.CGBE` -- the cyclic-group based encryption of
  Fan et al. [17], the partially homomorphic scheme all of Prilo's
  ciphertext-domain computation runs on.
* :class:`~repro.crypto.stream_cipher.StreamCipher` -- a SHAKE-256
  keystream + HMAC-SHA-256 construction standing in for AES-256 (no
  third-party crypto libraries are available offline); used for ball
  data encryption and the user -> enclave channel.
* :mod:`~repro.crypto.keys` -- key material containers for the three parties.
"""

from repro.crypto.cgbe import (
    CGBE,
    AggregationBudget,
    CGBECiphertext,
    CGBEPublicParams,
    OverflowError_,
)
from repro.crypto.keys import DataOwnerKey, UserKeyring
from repro.crypto.stream_cipher import StreamCipher

__all__ = [
    "CGBE",
    "AggregationBudget",
    "CGBECiphertext",
    "CGBEPublicParams",
    "DataOwnerKey",
    "OverflowError_",
    "StreamCipher",
    "UserKeyring",
]
