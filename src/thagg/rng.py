"""Deterministic randomness.

One root seed per run; every party and purpose gets its own substream.
Stream keys come from SHAKE-256: the root key from the seed, and a child's
key from its parent's key and a label. A stream is the ChaCha20 keystream
(RFC 8439) under the stream's key, with a zero 96-bit nonce, from block 0.
It is read front to back: each read returns the bytes that follow those of
the reads before it, and no read goes back. Byte p of a stream depends on
its key alone, so any transcript can be replayed byte for byte. The 32-bit
block counter ends a stream at 2^38 bytes; a read past that point raises
rather than repeat keystream.

The keystream comes from OpenSSL's EVP_chacha20, in the libcrypto that
CPython's `_hashlib` already maps, called through ctypes. Streams are not
thread-safe; confine each instance to a single caller.
"""

from __future__ import annotations

import _hashlib
import ctypes
import hashlib
import weakref

import numpy as np

from .errors import KeystreamError

_END = 64 << 32  # bytes in a stream: 2^32 blocks of 64 bytes
_PIECE = 1 << 16  # the most keystream bytes one EVP_EncryptUpdate makes
_ZEROS = bytes(_PIECE)  # the input a piece encrypts: its output is keystream

_VP = ctypes.c_void_p
# libcrypto's prototypes: name -> (restype, argtypes). A wrong one crashes
# the process rather than raise, so they are declared here and only here.
_PROTOTYPES = {
    "EVP_CIPHER_CTX_new": (_VP, []),
    "EVP_CIPHER_CTX_free": (None, [_VP]),
    "EVP_chacha20": (_VP, []),
    # ctx, cipher, engine, key, iv
    "EVP_EncryptInit_ex": (ctypes.c_int, [_VP, _VP, _VP, ctypes.c_char_p,
                                          ctypes.c_char_p]),
    # ctx, out, &outl, in, inl
    "EVP_EncryptUpdate": (ctypes.c_int, [_VP, _VP,
                                         ctypes.POINTER(ctypes.c_int),
                                         ctypes.c_char_p, ctypes.c_int]),
}


def _bind() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, argtypes) in _PROTOTYPES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError) as exc:
        raise KeystreamError(
            f"ChaCha20 is not available from libcrypto: {exc}") from exc
    return lib


_LIB = _bind()
_CHACHA20 = _LIB.EVP_chacha20()
if not _CHACHA20:
    raise KeystreamError("libcrypto has no ChaCha20 cipher")


class Xof:
    """Byte stream keyed by 32 bytes; children are derived by label."""

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("xof key must be 32 bytes")
        self.key = bytes(key)
        self._pos = 0  # bytes read so far
        self._ctx = None  # the cipher context, made by the first read

    @classmethod
    def from_seed(cls, seed: int | bytes | str) -> "Xof":
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError("seed must be non-negative")
            raw = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "little")
        elif isinstance(seed, str):
            raw = seed.encode()
        else:
            raw = bytes(seed)
        return cls(hashlib.shake_256(b"thagg-seed\x00" + raw).digest(32))

    def child(self, label: str) -> "Xof":
        key = hashlib.shake_256(self.key + b"\x00" + label.encode()).digest(32)
        return Xof(key)

    def read(self, n: int) -> bytearray:
        """The next n bytes of the stream, in a new bytearray."""
        if n < 0 or self._pos + n > _END:
            raise KeystreamError(f"read of {n} bytes at {self._pos} passes "
                                 f"the stream's end at {_END}")
        out = bytearray(n)
        if n == 0:
            return out
        if self._ctx is None:  # the first read: block counter 0, zero nonce
            ctx = _LIB.EVP_CIPHER_CTX_new()
            if not ctx:
                raise KeystreamError("EVP_CIPHER_CTX_new failed")
            weakref.finalize(self, _LIB.EVP_CIPHER_CTX_free, ctx)
            if _LIB.EVP_EncryptInit_ex(ctx, _CHACHA20, None, self.key,
                                       bytes(16)) != 1:
                raise KeystreamError("EVP_EncryptInit_ex failed")
            self._ctx = ctx
        address = ctypes.addressof(ctypes.c_char.from_buffer(out))
        outl = ctypes.c_int()
        for lo in range(0, n, _PIECE):
            size = min(_PIECE, n - lo)
            if (_LIB.EVP_EncryptUpdate(self._ctx, address + lo, outl, _ZEROS,
                                       size) != 1 or outl.value != size):
                raise KeystreamError("EVP_EncryptUpdate failed")
        self._pos += n
        return out

    def float_open01(self, count: int) -> np.ndarray:
        """Floats in (0, 1]: 53-bit uniforms, zero excluded, scaled in place
        (two arrays of `count` at most at once)."""
        out = (np.frombuffer(self.read(8 * count), dtype="<u8")
               >> np.uint64(11)).astype(np.float64)
        out += 1.0
        out *= 2.0**-53
        return out
