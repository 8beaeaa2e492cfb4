"""Binary wire formats, version 3.

Ciphertext: magic "THAG", version u16, scheme tag u8, n u32, prime count
k u8 (so `ntt.select_primes` picks at most `ntt.MAX_LIMBS` = 255 primes),
the k primes of q as a u64 list, the count k' u8 of leading primes c0 is
sent on, then c0 on those k' primes (the decryption modulus q',
`SchemeParams.dec_ring`: clients round c0 there before sending it) and c1
on all k primes, as little-endian u32 residues in prime-major
coefficient-minor order, and adds_consumed u32. That is
17 + 8k + 4(k + k')n bytes.

Protocol shares reuse the ring-element block of that format, prefixed by a
one-byte message-kind tag and a u16 party index (so a run has at most
MAX_PARTIES = 65,535 parties, numbered from 1): 8 + 8k + 4kn bytes. A
public-key share has the k primes of q; a partial decryption has only the
k' leading primes of q', so it is 8 + 8k' + 4k'n bytes.

u32 residues are exact because `RingParams.create` admits only primes
below 2^MAX_PRIME_BITS = 2^30; a decoder returns read-only views of them.
Versions 1 (u64 residues) and 2 (c0 at the full q) are not read.

All integers are little-endian. Elements are serialized in the coefficient
domain; an NTT-domain element (a stored key) raises `DomainMismatchError`,
and a batch of elements (residues of shape (B, limbs, n)) raises
`WireFormatError`.
A decoder accepts only the receiver's own rings (n and primes as in
`expected.ring`; c0 and a partial decryption on `expected.dec_ring`, so a
c0 or share left at the full q is refused), residues below their primes,
adds_consumed <= kappa and party indices >= 1; anything else raises
`WireFormatError`.
"""

from __future__ import annotations

import struct

import numpy as np

from . import ring as rg
from .errors import DomainMismatchError, ParamsMismatchError, WireFormatError
from .schemes import BFV, CKKS, Ciphertext, SchemeParams
from .threshold import PartialDecryption, PkShare

MAGIC = b"THAG"
VERSION = 3
RESIDUE = np.dtype("<u4")

SCHEME_TAGS = {BFV: 1, CKKS: 2}
TAG_SCHEMES = {v: k for k, v in SCHEME_TAGS.items()}

KIND_PK_SHARE = 1
KIND_PARTIAL_DEC = 2
MAX_PARTIES = 0xFFFF  # the largest u16 party index


def _element_header(params: rg.RingParams) -> bytes:
    return struct.pack(f"<IB{len(params.primes)}Q", params.n,
                       len(params.primes), *params.primes)


def _residue_block(el: rg.RingElement) -> bytes:
    if el.domain != rg.COEFF:
        raise DomainMismatchError("messages carry coefficient-domain elements")
    shape = (len(el.params.primes), el.params.n)
    if el.residues.shape != shape:
        raise WireFormatError(f"a message carries one element, residues of "
                              f"shape {shape}, not {el.residues.shape}")
    return el.residues.astype(RESIDUE, copy=False).tobytes()


class _Reader:
    def __init__(self, blob: bytes):
        self.view = memoryview(blob)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.view):
            raise WireFormatError("message truncated")
        out = self.view[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self.pos != len(self.view):
            raise WireFormatError("trailing bytes in message")


def _read_element_header(rd: _Reader, ring: rg.RingParams) -> None:
    n, count = rd.unpack("<IB")
    primes = rd.unpack(f"<{count}Q")
    if n != ring.n or primes != ring.primes:
        raise WireFormatError("ring parameters do not match receiver's")


def _read_residues(rd: _Reader, ring: rg.RingParams) -> rg.RingElement:
    shape = (len(ring.primes), ring.n)
    raw = np.frombuffer(rd.take(RESIDUE.itemsize * shape[0] * shape[1]),
                        dtype=RESIDUE).reshape(shape)
    bad = raw.max(axis=1) >= rg.prime_column(ring.primes)[:, 0]
    if bad.any():
        p = ring.primes[int(bad.argmax())]
        raise WireFormatError(f"residue out of range for prime {p}")
    return rg.RingElement(ring, raw, rg.COEFF)


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    ring, dec = ct.c1.params, ct.c0.params
    k_dec = len(dec.primes)
    if dec.n != ring.n or dec.primes != ring.primes[:k_dec]:
        raise ParamsMismatchError("c0's primes are not a prefix of c1's")
    return b"".join((
        MAGIC, struct.pack("<HB", VERSION, SCHEME_TAGS[ct.scheme]),
        _element_header(ring), struct.pack("<B", k_dec),
        _residue_block(ct.c0), _residue_block(ct.c1),
        struct.pack("<I", ct.adds_consumed)))


def deserialize_ciphertext(blob: bytes, expected: SchemeParams) -> Ciphertext:
    rd = _Reader(blob)
    if rd.take(4) != MAGIC:
        raise WireFormatError("bad magic")
    version, tag = rd.unpack("<HB")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if tag not in TAG_SCHEMES:
        raise WireFormatError(f"unknown scheme tag {tag}")
    scheme = TAG_SCHEMES[tag]
    if scheme != expected.scheme:
        raise WireFormatError(
            f"ciphertext is {scheme}, receiver expects {expected.scheme}")
    _read_element_header(rd, expected.ring)
    (k_dec,) = rd.unpack("<B")
    want = len(expected.dec_ring.primes)
    if k_dec != want:
        where = ("at the full q" if k_dec == len(expected.ring.primes)
                 else f"on {k_dec} limbs")
        raise WireFormatError(
            f"c0 sent {where}; receiver expects it on the {want} limbs of q'")
    c0 = _read_residues(rd, expected.dec_ring)
    c1 = _read_residues(rd, expected.ring)
    (adds,) = rd.unpack("<I")
    rd.done()
    if adds > expected.kappa:
        raise WireFormatError(
            f"adds_consumed {adds} exceeds capacity kappa={expected.kappa}")
    return Ciphertext(c0=c0, c1=c1, scheme=scheme, adds_consumed=adds,
                      kappa=expected.kappa)


def _serialize_share(kind: int, index: int, el: rg.RingElement) -> bytes:
    return b"".join((struct.pack("<BH", kind, index),
                     _element_header(el.params), _residue_block(el)))


def serialize_pk_share(share: PkShare) -> bytes:
    return _serialize_share(KIND_PK_SHARE, share.index, share.p0)


def serialize_partial_dec(part: PartialDecryption) -> bytes:
    return _serialize_share(KIND_PARTIAL_DEC, part.index, part.h)


def _deserialize_share(blob: bytes, want_kind: int, ring: rg.RingParams):
    rd = _Reader(blob)
    kind, index = rd.unpack("<BH")
    if kind != want_kind:
        raise WireFormatError(f"message kind {kind}, expected {want_kind}")
    if index == 0:
        raise WireFormatError("party index 0; parties are numbered from 1")
    _read_element_header(rd, ring)
    el = _read_residues(rd, ring)
    rd.done()
    return index, el


def deserialize_pk_share(blob: bytes, expected: SchemeParams) -> PkShare:
    index, el = _deserialize_share(blob, KIND_PK_SHARE, expected.ring)
    return PkShare(index=index, p0=el)


def deserialize_partial_dec(blob: bytes,
                            expected: SchemeParams) -> PartialDecryption:
    index, el = _deserialize_share(blob, KIND_PARTIAL_DEC,
                                   expected.dec_ring)
    return PartialDecryption(index=index, h=el)
