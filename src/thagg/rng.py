"""Deterministic randomness.

One root seed per run; every party and purpose gets its own substream,
derived by a keyed extendable-output function (SHAKE-256 in counter mode).
A stream is a pure function of (key, position), so any transcript can be
replayed byte for byte. Streams are not thread-safe; confine each instance
to a single caller.
"""

from __future__ import annotations

import hashlib

import numpy as np

_BLOCK = 1 << 13


class Xof:
    """Byte stream keyed by 32 bytes; children are derived by label."""

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("xof key must be 32 bytes")
        self.key = bytes(key)
        self._counter = 0
        self._buf = b""
        self._pos = 0

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

    def read(self, n: int) -> bytes:
        if self._pos + n <= len(self._buf):  # within the current block
            self._pos += n
            return self._buf[self._pos - n : self._pos]
        pieces = []
        while n > 0:
            if self._pos >= len(self._buf):
                block = self.key + b"\x01" + self._counter.to_bytes(8, "little")
                self._buf = hashlib.shake_256(block).digest(_BLOCK)
                self._pos = 0
                self._counter += 1
            take = min(n, len(self._buf) - self._pos)
            pieces.append(memoryview(self._buf)[self._pos : self._pos + take])
            self._pos += take
            n -= take
        return b"".join(pieces)

    def u64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.read(8 * count), dtype="<u8").copy()

    def bytes_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.read(count), dtype=np.uint8).copy()

    def float_open01(self, count: int) -> np.ndarray:
        """Floats in (0, 1]: 53-bit uniforms, zero excluded."""
        u = self.u64_array(count) >> np.uint64(11)
        return (u.astype(np.float64) + 1.0) * 2.0**-53
