"""Arithmetic domains for the SP kernel's modular products.

A *domain* fixes one modulus and computes in its own representation:
``enter(x)`` takes a reduced int in, ``mul(a, b)`` and ``pow(a, e)``
compute on domain values, and ``leave(a)`` gives the reduced int back.
:class:`repro.crypto.kernels.MaskedProductTable` keeps its window
entries, product-tree nodes and pad powers as domain values and leaves
only chunk results, so the conversions are paid once per entered factor
and once per chunk, while every product in between stays in the domain.

Two domains, chosen by :func:`domain_for` alone:

* :class:`LibcryptoDomain` -- values are OpenSSL ``BIGNUM`` handles in
  Montgomery form, multiplied by ``BN_mod_mul_montgomery`` through stdlib
  :mod:`ctypes`.  The library is the libcrypto CPython's own ``_hashlib``
  links, loaded on first use.
* :class:`PythonDomain` -- values are ints and ``mul`` is ``a * b % n``.
  It serves only when libcrypto cannot be loaded or the modulus is even
  (Montgomery reduction needs an odd one).

Both return the same ints: a domain changes the cost of a product, never
its value.  There is no option to pick one; :func:`arithmetic` names what
this process selected.

Handle ownership: every ``BIGNUM`` a libcrypto domain allocates comes
from that domain's own ``BN_CTX`` and is released with it, and its
``BN_MONT_CTX`` freed, when the domain is dropped.  A table owns its domain and
never returns a domain value, so no handle outlives the table that made
it.  A domain is used from one thread at a time, as all kernel crypto is
(see :mod:`repro.crypto.ops`).

Layering: a leaf module (stdlib only).
"""

from __future__ import annotations

import ctypes
import functools
import weakref

_P = ctypes.c_void_p
_INT = ctypes.c_int

#: ``name: (restype, argtypes)`` of every libcrypto call made here.  The
#: default ``int`` restype would truncate 64-bit pointers.
_SIGNATURES = {
    "BN_CTX_new": (_P, []),
    "BN_CTX_start": (None, [_P]),
    "BN_CTX_get": (_P, [_P]),
    "BN_CTX_end": (None, [_P]),
    "BN_CTX_free": (None, [_P]),
    "BN_lebin2bn": (_P, [ctypes.c_char_p, _INT, _P]),
    "BN_bn2lebinpad": (_INT, [_P, ctypes.c_char_p, _INT]),
    "BN_MONT_CTX_new": (_P, []),
    "BN_MONT_CTX_set": (_INT, [_P, _P, _P]),
    "BN_MONT_CTX_free": (None, [_P]),
    "BN_to_montgomery": (_INT, [_P, _P, _P, _P]),
    "BN_from_montgomery": (_INT, [_P, _P, _P, _P]),
    "BN_mod_mul_montgomery": (_INT, [_P, _P, _P, _P, _P]),
}

#: Where libcrypto is looked for: the 3.x and 1.1 sonames (Linux, macOS);
#: ``_hashlib`` has normally made one of them resident already.
_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.3.dylib",
            "libcrypto.1.1.dylib")


#: Ended arenas a dropped domain hands on, at most this many: a reused
#: ``BN_CTX`` gives back ``BIGNUM`` handles whose limbs are already
#: allocated, so neither a table's teardown nor its products pay malloc /
#: free.
_SPARE_ARENAS = 8
_spare_arenas: list[int] = []


class LibcryptoError(RuntimeError):
    """A libcrypto call reported failure."""


def _check(name: str, status: int) -> None:
    if status != 1:
        raise LibcryptoError(f"libcrypto {name} failed")


def _handle(name: str, pointer: int | None) -> int:
    if pointer is None:
        raise MemoryError(f"libcrypto {name} returned NULL")
    return pointer


@functools.cache
def libcrypto() -> ctypes.CDLL | None:
    """This process's libcrypto with every call made here typed;
    ``None`` when it cannot be loaded.  Loaded on the first call (the
    first table built, or :func:`arithmetic`)."""
    try:
        import _hashlib  # noqa: F401 -- makes CPython's own libcrypto resident
    except ImportError:
        pass
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            for name, (restype, argtypes) in _SIGNATURES.items():
                function = getattr(lib, name)
                function.restype = restype
                function.argtypes = argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


def arithmetic() -> str:
    """``"libcrypto"`` or ``"python"``: the domain this process gives an
    odd modulus (every CGBE modulus is an odd prime)."""
    return "libcrypto" if libcrypto() is not None else "python"


class PythonDomain:
    """Plain ints: the fallback, and the reference the tests compare
    :class:`LibcryptoDomain` against."""

    name = "python"

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    def enter(self, x: int) -> int:
        return x

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def pow(self, a: int, exponent: int) -> int:
        return pow(a, exponent, self.modulus)

    def leave(self, a: int) -> int:
        return a


class LibcryptoDomain:
    """``BIGNUM`` handles in Montgomery form for one odd modulus.

    The handles come from the domain's own ``BN_CTX``, opened as one frame
    that stays open until the domain is dropped; that frame is the arena,
    and dropping the domain releases every handle in one ``BN_CTX_end``.
    The same ``BN_CTX`` is the scratch libcrypto's calls take, in frames
    of their own above the arena.  So it is the table's lifetime (one
    executor share) that bounds the handles, not the table's memo, and a
    memo eviction never frees a value an in-flight product still reads.
    """

    name = "libcrypto"

    def __init__(self, lib: ctypes.CDLL, modulus: int) -> None:
        if not modulus & 1:
            raise ValueError("Montgomery form needs an odd modulus")
        self._lib = lib
        self._modulus = modulus
        self._nbytes = (modulus.bit_length() + 7) // 8
        self._mont: int | None = None  # set up by the first enter()
        self._get = lib.BN_CTX_get
        self._mont_mul = lib.BN_mod_mul_montgomery

    def _open(self) -> None:
        """The arena, the ``BN_MONT_CTX`` and the leave scratch, made on
        first entry: a table that never multiplies (its share hit the CMM
        cache) makes no libcrypto call at all."""
        lib = self._lib
        arena = (_spare_arenas.pop() if _spare_arenas
                 else _handle("BN_CTX_new", lib.BN_CTX_new()))
        lib.BN_CTX_start(arena)
        mont = lib.BN_MONT_CTX_new()
        self._finalizer = weakref.finalize(self, _release, lib, arena, mont)
        _handle("BN_MONT_CTX_new", mont)
        self._arena = arena
        _check("BN_MONT_CTX_set", lib.BN_MONT_CTX_set(
            mont, self._bignum(self._modulus), arena))
        self._scratch = self._new()
        self._buffer = ctypes.create_string_buffer(self._nbytes)
        self._mont = mont

    def _new(self) -> int:
        return _handle("BN_CTX_get", self._get(self._arena))

    def _bignum(self, x: int) -> int:
        size = self._nbytes
        handle = self._new()
        _handle("BN_lebin2bn", self._lib.BN_lebin2bn(
            x.to_bytes(size, "little"), size, handle))
        return handle

    def enter(self, x: int) -> int:
        """``x`` (``0 <= x < modulus``) in Montgomery form."""
        if self._mont is None:
            self._open()
        handle = self._bignum(x)
        _check("BN_to_montgomery", self._lib.BN_to_montgomery(
            handle, handle, self._mont, self._arena))
        return handle

    def mul(self, a: int, b: int) -> int:
        arena = self._arena
        result = self._get(arena)
        if result is None:
            raise MemoryError("libcrypto BN_CTX_get returned NULL")
        if self._mont_mul(result, a, b, self._mont, arena) != 1:
            raise LibcryptoError("libcrypto BN_mod_mul_montgomery failed")
        return result

    def pow(self, a: int, exponent: int) -> int:
        """``a ** exponent`` (``exponent >= 1``), square-and-multiply."""
        result = a
        for bit in bin(exponent)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def leave(self, a: int) -> int:
        lib, scratch = self._lib, self._scratch
        _check("BN_from_montgomery", lib.BN_from_montgomery(
            scratch, a, self._mont, self._arena))
        if lib.BN_bn2lebinpad(scratch, self._buffer,
                              self._nbytes) != self._nbytes:
            raise LibcryptoError("libcrypto BN_bn2lebinpad failed")
        return int.from_bytes(self._buffer, "little")


def _release(lib: ctypes.CDLL, arena: int, mont: int | None) -> None:
    lib.BN_CTX_end(arena)  # every handle the domain made is released
    if len(_spare_arenas) < _SPARE_ARENAS:
        _spare_arenas.append(arena)
    else:
        lib.BN_CTX_free(arena)
    lib.BN_MONT_CTX_free(mont)  # NULL is a no-op


def domain_for(modulus: int) -> LibcryptoDomain | PythonDomain:
    """The arithmetic domain for ``modulus``: libcrypto's Montgomery form
    when the library loads and the modulus is odd, plain ints otherwise."""
    lib = libcrypto()
    if lib is None or not modulus & 1:
        return PythonDomain(modulus)
    return LibcryptoDomain(lib, modulus)


__all__ = [
    "LibcryptoDomain",
    "LibcryptoError",
    "PythonDomain",
    "arithmetic",
    "domain_for",
    "libcrypto",
]
