"""Arithmetic domains for the SP kernel's products and the user's q-test.

A *domain* fixes one modulus and computes in its own representation:
``enter(x)`` takes a reduced int in, ``mul(a, b)`` and ``pow(a, e)``
compute on domain values, and ``leave(a)`` gives the reduced int back.
A value of residue ``x`` is ``x * R^e mod n`` (``R`` the domain's
radix), and ``e`` follows from the value's factor count, never stored:

* ``enter`` loads ``x`` as it is, so it carries ``R^0``;
* ``mul`` of values carrying ``R^e1`` and ``R^e2`` carries ``R^(e1+e2-1)``;
* so a product of ``k`` entered values carries ``R^(1-k)``.

``leave`` reads a value carrying ``R^0``; a product of ``k`` entered
values comes home by one ``mul`` with ``enter(r_power(k))`` (the kernel
folds it into its pad multiply), so nothing converts back.

Two domains, chosen by :func:`domain_for` alone:

* :class:`LibcryptoDomain` -- values are OpenSSL ``BIGNUM`` handles,
  multiplied by ``BN_mod_mul_montgomery`` through stdlib :mod:`ctypes`;
  ``R`` is libcrypto's Montgomery radix (a power of its word size).  The
  library is the libcrypto CPython's own ``_hashlib`` links, loaded on
  first use.
* :class:`PythonDomain` -- values are ints, ``mul`` is ``a * b % n``
  and ``R`` is 1.  It serves only when libcrypto cannot be loaded or
  the modulus is even (Montgomery reduction needs an odd one).

Both return the same ints: a domain changes the cost of a product, never
its value.  There is no option to pick one; :func:`arithmetic` names what
this process selected.

Handle ownership: every ``BIGNUM`` a libcrypto domain allocates comes
from that domain's own ``BN_CTX`` and is released with it, and its
``BN_MONT_CTX`` freed, when the domain is dropped.  A table (a ``CGBE``
for its q-test) owns its domain and never returns a domain value, so no
handle outlives its owner.  A domain is used from one thread at a time,
as all kernel crypto is (see :mod:`repro.crypto.ops`).

Layering: a leaf module (stdlib only).
"""

from __future__ import annotations

import ctypes
import functools
import weakref

_P = ctypes.c_void_p
_INT = ctypes.c_int
_WORD = ctypes.c_uint64  # BN_ULONG on every 64-bit build

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
    "BN_mod_mul_montgomery": (_INT, [_P, _P, _P, _P, _P]),
    "BN_mod_word": (_WORD, [_P, _WORD]),
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

#: ``R^k mod n`` per ``(n, k)``, for the life of the process.
_r_powers: dict[tuple[int, int], int] = {}


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
    """Plain ints (``R`` is 1): the fallback, and the reference the tests
    compare :class:`LibcryptoDomain` against."""

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

    def r_power(self, k: int) -> int:
        return 1

    def residue(self, x: int, y: int, word: int) -> int:
        return x * y % self.modulus % word


class LibcryptoDomain:
    """``BIGNUM`` handles for one odd modulus, Montgomery products.

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
        """The arena, the ``BN_MONT_CTX`` and the :meth:`residue`
        scratch, made on first entry: a table that never multiplies (its
        share hit the CMM cache) makes no libcrypto call at all."""
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
        self._scratch = self._new(), self._new()
        self._buffer = ctypes.create_string_buffer(self._nbytes)
        self._mont = mont

    def _new(self) -> int:
        return _handle("BN_CTX_get", self._get(self._arena))

    def _bignum(self, x: int, handle: int | None = None) -> int:
        size = self._nbytes
        handle = handle or self._new()
        _handle("BN_lebin2bn", self._lib.BN_lebin2bn(
            x.to_bytes(size, "little"), size, handle))
        return handle

    def enter(self, x: int) -> int:
        """``x`` (``0 <= x < modulus``) as it is: it carries ``R^0``."""
        if self._mont is None:
            self._open()
        return self._bignum(x)

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
        """The int ``a`` holds; ``a`` must carry ``R^0``."""
        if self._lib.BN_bn2lebinpad(a, self._buffer,
                                    self._nbytes) != self._nbytes:
            raise LibcryptoError("libcrypto BN_bn2lebinpad failed")
        return int.from_bytes(self._buffer, "little")

    def r_power(self, k: int) -> int:
        """``R^k mod modulus``; ``R mod modulus`` is libcrypto's own
        Montgomery form of 1, read out as it is."""
        value = _r_powers.get((self._modulus, k))
        if value is None:
            one = self.enter(1)
            _check("BN_to_montgomery", self._lib.BN_to_montgomery(
                one, one, self._mont, self._arena))
            value = pow(self.leave(one), k, self._modulus)
            _r_powers[self._modulus, k] = value
        return value

    def residue(self, x: int, y: int, word: int) -> int:
        """``x * u mod modulus mod word`` for ``0 <= x < modulus`` and a
        domain value ``y`` holding ``u`` carrying ``R^1`` (``word`` < 2^63)."""
        plain, product = self._scratch
        _check("BN_mod_mul_montgomery", self._mont_mul(
            product, self._bignum(x, plain), y, self._mont, self._arena))
        value = self._lib.BN_mod_word(product, word)
        if value >> 63:
            raise LibcryptoError("libcrypto BN_mod_word failed")
        return value


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
