"""Exact arithmetic in R_q = Z[x]/(x^n + 1) over an RNS residue basis.

Elements live as per-prime residue rows (non-negative, branch-free modular
arithmetic) of uint32, the wire's form; a product widens explicitly to 64
bits, as a uint32 array times a Python int stays uint32 and wraps.
`from_coeffs` reduces int64 coefficient arrays, and no other form;
integers leave only through `crt_lift`, which returns the centered
representatives in (-q/2, q/2]: int64 when q < 2^62, Python ints above.
Products go through the NTT; the tests check them against a quadratic
schoolbook oracle (`tests/oracles.py`). `scale_down` rounds an element to
a leading sub-basis (modulus switching) exactly, through the Garner digits
of the dropped limbs. No per-coefficient Python integer is built on the
sampling or switching paths, nor by a lift at q < 2^62.

Residues may carry leading batch axes, shape (..., limbs, n): the ring
operations, the transforms, `from_coeffs` and `scale_down` act on every
entry of a batch at once (`unstack` takes one apart into views, which
`add_into` can add into in place), and so does `crt_lift`. A sampler
given B streams draws a batch of B, one entry per stream, each as a call
on that stream alone would draw it. A
sampler reads each of its streams front to back (`rng`), in one pass where
it can, and the stream's next reader continues after the sampler's bytes.
"""

from __future__ import annotations

import decimal
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

import numpy as np

from . import ntt
from .errors import ConfigError, DomainMismatchError, ParamsMismatchError
from .rng import Xof

COEFF = "coeff"
NTT = "ntt"


@dataclass(frozen=True)
class RingParams:
    """Ring degree, RNS prime basis, and the cached modulus bit length."""

    n: int
    primes: tuple[int, ...]
    q: int
    log2_q: int

    @classmethod
    def create(cls, n: int, primes: tuple[int, ...] | list[int]) -> "RingParams":
        primes = tuple(int(p) for p in primes)
        if n < 4 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 4, got {n}")
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be pairwise distinct")
        for p in primes:
            if p >> ntt.MAX_PRIME_BITS:
                raise ValueError(
                    f"prime {p} is not below 2^{ntt.MAX_PRIME_BITS}")
            if p % (2 * n) != 1:
                raise ValueError(f"prime {p} is not 1 mod 2n (n={n})")
            if not ntt.is_prime(p):
                raise ValueError(f"{p} is not prime")
        q = 1
        for p in primes:
            q *= p
        return cls(n=n, primes=primes, q=q, log2_q=q.bit_length())


@dataclass
class RingElement:
    """Residues of shape (..., limbs, n) plus the evaluation-domain flag;
    leading axes, if any, index a batch of elements."""

    params: RingParams
    residues: np.ndarray
    domain: str = COEFF

    def __post_init__(self):  # one form: other dtypes in [0, p) narrowed
        self.residues = self.residues.astype(np.uint32, copy=False)


# The largest floor(bound) the Gaussian sampler's table holds: 2^16 - 1
# values, so each k and the open-bucket mark -2^15 fit the int16 guide.
MAX_NOISE_BOUND = 2**15 - 1


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated discrete-Gaussian spec: width sigma, hard bound on |coeff|."""

    sigma: Fraction
    bound: Fraction

    @classmethod
    def create(cls, sigma, bound=None) -> "NoiseSpec":
        sigma = Fraction(sigma)
        bound = 6 * sigma if bound is None else Fraction(bound)
        if sigma < 0 or bound < sigma:
            raise ValueError("need bound >= sigma >= 0")
        return cls(sigma=sigma, bound=bound)


# ---------------------------------------------------------------------------
# construction and CRT


def _plan(params: RingParams) -> ntt.TransformPlan:
    return ntt.transform_plan(params.n, params.primes)


def zero(params: RingParams, domain: str = COEFF,
         lead: tuple[int, ...] = ()) -> RingElement:
    """The zero element, or a batch of zeros of leading shape `lead`."""
    res = np.zeros((*lead, len(params.primes), params.n), dtype=np.uint32)
    return RingElement(params, res, domain)


def from_coeffs(params: RingParams, coeffs: np.ndarray) -> RingElement:
    """RNS-decompose an int64 array of coefficients, shape (..., n), into
    residues of shape (..., limbs, n). Any other input raises TypeError."""
    if not isinstance(coeffs, np.ndarray) or coeffs.dtype != np.int64:
        raise TypeError("from_coeffs takes an int64 numpy array")
    if coeffs.shape[-1:] != (params.n,):
        raise ValueError(f"expected {params.n} coefficients, got shape "
                         f"{coeffs.shape}")
    p_col = prime_column(params.primes)
    arr = coeffs[..., None, :]  # a limb axis to broadcast against p_col
    sign = arr >> 63  # -1 where c < 0, else 0
    if (arr ^ sign).max() < min(params.primes):
        # every -p <= c < p: c mod 2^32, plus p where c < 0, wraps to c mod p;
        # built in place so only one (limbs, n) array is allocated
        res = p_col & sign.astype(np.uint32)
        res += arr.astype(np.uint32)
        return RingElement(params, res, COEFF)
    return RingElement(params, arr % p_col, COEFF)  # int64 % uint32: int64


@lru_cache(maxsize=None)
def prime_column(primes: tuple[int, ...]) -> np.ndarray:
    """The primes as a uint32 column, shape (limbs, 1), built once per basis."""
    return np.array(primes, dtype=np.uint32)[:, None]


def mul_scalar(a: RingElement, value: int) -> RingElement:
    """Multiply by a (possibly huge) integer scalar, reduced per limb."""
    p_col = prime_column(a.params.primes)
    k = np.array([value % p for p in a.params.primes], dtype=np.uint64)
    res = np.multiply(a.residues, k[:, None], dtype=np.uint64)
    res %= p_col
    return RingElement(a.params, res, a.domain)


def _reduce(x: np.ndarray, p) -> np.ndarray:
    """x mod p for 64-bit x >= 0 and p a scalar or a column, x - (x // p) * p:
    numpy divides by a divisor that is constant along a row with a
    precomputed multiplier, at less than half the cost of its `%`."""
    quot = x // p
    quot *= p
    return np.subtract(x, quot, out=quot)


def _dot_mod(rows, consts: tuple[int, ...], p: int) -> np.ndarray:
    """sum(row * c) mod p, as int64, for rows of uint32 (or bool) entries
    below 2^30 and constants 0 <= c < p. Each product is formed in int64
    and is below 2^60, so seven of them add up before a reduction is due."""
    acc = np.multiply(rows[0], consts[0], dtype=np.int64)
    for i in range(1, len(consts)):
        acc += np.multiply(rows[i], consts[i], dtype=np.int64)
        if i % 7 == 6:
            acc = _reduce(acc, p)
    return _reduce(acc, p)


@dataclass(frozen=True)
class _SwitchConsts:
    target: RingParams       # the first k primes, q' = p_0 ... p_{k-1}
    dropped: RingParams      # the rest, D = q / q'
    # per kept prime p: D^-1, then -r_i * D^-1 for the radix r_i of each
    # dropped digit, then 1 for the sign mask, all mod p
    rows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _switch_consts(params: RingParams, k: int) -> _SwitchConsts:
    def basis(primes):
        q = prod(primes)
        return RingParams(n=params.n, primes=primes, q=q, log2_q=q.bit_length())

    kept, dropped = basis(params.primes[:k]), basis(params.primes[k:])
    rows = []
    for p in kept.primes:
        d_inv, radix, row = pow(dropped.q, -1, p), 1, []
        for prime in dropped.primes:
            row.append(-radix * d_inv % p)
            radix *= prime
        rows.append((d_inv, *row, 1))
    return _SwitchConsts(kept, dropped, tuple(rows))


def leading_ring(params: RingParams, k: int) -> RingParams:
    """The ring of the first k primes of `params`, where `scale_down` lands."""
    if not 1 <= k <= len(params.primes):
        raise ValueError(f"need 1 <= k <= {len(params.primes)} limbs, got {k}")
    return params if k == len(params.primes) else _switch_consts(params, k).target


def scale_down(a: RingElement, target: RingParams) -> RingElement:
    """round(a * q'/q) mod q', exact, for q' = the product of the first k
    primes of a's basis (`target`, from `leading_ring`).

    With D = q/q' the product of the dropped primes and [a]_D the centered
    residue of a mod D, a - [a]_D is a multiple of D. D is odd, so
    |[a]_D| < D/2 and (a - [a]_D)/D is a/D rounded, with no ties. From the
    Garner digits d_i (radices r_i) of the dropped limbs,
    [a]_D = sum d_i r_i - D * neg, so per kept prime p the result is
    a_p D^-1 - sum d_i r_i D^-1 + neg mod p: one dot product and one
    reduction. With no limb dropped it returns a. A batch is switched
    entry by entry.
    """
    if a.domain != COEFF:
        raise DomainMismatchError("scale_down needs a coefficient-domain element")
    k = len(target.primes)
    if target.n != a.params.n or target.primes != a.params.primes[:k]:
        raise ParamsMismatchError("target basis is not a prefix of a's basis")
    if k == len(a.params.primes):
        return a
    consts = _switch_consts(a.params, k)
    rows = np.moveaxis(a.residues, -2, 0)  # limbs first, a view
    digits, neg = _garner(consts.dropped.primes, rows[k:])
    res = np.empty(a.residues.shape[:-2] + (k, a.params.n), dtype=np.uint32)
    out = np.moveaxis(res, -2, 0)
    for j, p in enumerate(target.primes):
        out[j] = _dot_mod((rows[j], *digits, neg), consts.rows[j], p)
    return RingElement(target, res, COEFF)


def crt_lift(a: RingElement) -> np.ndarray:
    """Centered integer representatives in (-q/2, q/2], one per coefficient,
    shape (..., n): int64 when q < 2^62, else Python ints (dtype object).

    Horner over the Garner digits (`_garner`), most significant first;
    subtracting q from [x]_q is subtracting the top prime from the top digit.
    """
    if a.domain != COEFF:
        raise DomainMismatchError("crt_lift needs a coefficient-domain element")
    primes = a.params.primes
    digits, neg = _garner(primes, np.moveaxis(a.residues, -2, 0))
    acc = digits[-1].astype(np.int64) - primes[-1] * neg
    if a.params.q >= 1 << 62:
        acc = acc.astype(object)
    for d, p in zip(digits[-2::-1], primes[-2::-1]):
        acc = acc * p + d
    return acc


@dataclass(frozen=True)
class _GarnerConsts:
    # per prime p_i: r_i^-1, then -r_j * r_i^-1 for j < i, all mod p_i, where
    # r_j = p_0 ... p_{j-1} is the radix of digit j
    mix: tuple[tuple[int, ...], ...]
    half: tuple[int, ...]      # mixed-radix digits of floor(q/2)


@lru_cache(maxsize=None)
def _garner_consts(primes: tuple[int, ...]) -> _GarnerConsts:
    mix, radix, prefix = [], [], 1
    for p in primes:
        inv = pow(prefix, -1, p)
        mix.append((inv, *(-r * inv % p for r in radix)))
        radix.append(prefix)
        prefix *= p
    half, rest = [], prefix // 2
    for p in primes:
        rest, digit = divmod(rest, p)
        half.append(digit)
    return _GarnerConsts(tuple(mix), tuple(half))


def _garner(primes: tuple[int, ...], rows: np.ndarray):
    """Garner mixed-radix digits of residue rows (limbs first: shape
    (limbs, ..., n)), in the same layout, and the mask of values above
    floor(q/2), whose centered value is [x]_q - q.

    [x]_q = d_0 + p_0 (d_1 + p_1 (d_2 + ...)). Digit i is
    (x_i - sum_{j<i} d_j r_j) * r_i^-1 mod p_i for the radices
    r_j = p_0 ... p_{j-1}: one dot product over the uint32 rows and one
    reduction. The digits compare lexicographically (most significant
    first) as the integers do.
    """
    consts = _garner_consts(primes)
    digits = np.empty_like(rows)
    digits[0] = rows[0]
    for i in range(1, len(primes)):
        digits[i] = _dot_mod((rows[i], *digits[:i]), consts.mix[i], primes[i])
    above = np.zeros(rows.shape[1:], dtype=bool)
    tied = np.ones(rows.shape[1:], dtype=bool)
    for i in range(len(primes) - 1, -1, -1):
        above |= tied & (digits[i] > consts.half[i])
        tied &= digits[i] == consts.half[i]
    return digits, above


# ---------------------------------------------------------------------------
# arithmetic


def _check_pair(a: RingElement, b: RingElement, *, same_domain: bool) -> None:
    if a.params != b.params:
        raise ParamsMismatchError("ring parameters differ")
    if same_domain and a.domain != b.domain:
        raise DomainMismatchError(f"domains differ: {a.domain} vs {b.domain}")


def _reduce_once(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Canonical residues of s in [0, 2p), a uint32 array the caller owns.
    Where s < p, s - p wraps above 2^31, so the minimum keeps s."""
    return np.minimum(s, s - p, out=s)


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    _check_pair(a, b, same_domain=True)
    p = prime_column(a.params.primes)
    return RingElement(a.params, _reduce_once(a.residues + b.residues, p),
                       a.domain)


def add_into(acc: RingElement, b: RingElement) -> None:
    """acc += b in R_q, in place: acc's residues are written, not replaced."""
    _check_pair(acc, b, same_domain=True)
    np.add(acc.residues, b.residues, out=acc.residues)
    _reduce_once(acc.residues, prime_column(acc.params.primes))


def ring_neg(a: RingElement) -> RingElement:
    p = prime_column(a.params.primes)
    return RingElement(a.params, _reduce_once(p - a.residues, p), a.domain)


def unstack(a: RingElement) -> list[RingElement]:
    """The entries of a batch along its first axis, as views."""
    return [RingElement(a.params, res, a.domain) for res in a.residues]


def to_ntt(a: RingElement) -> RingElement:
    if a.domain == NTT:
        return a
    return RingElement(a.params, ntt.forward(a.residues, _plan(a.params)), NTT)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Negacyclic product, per-prime NTT; result in coefficient domain."""
    _check_pair(a, b, same_domain=False)
    plan = _plan(a.params)
    fa = a.residues if a.domain == NTT else ntt.forward(a.residues, plan)
    fb = b.residues if b.domain == NTT else ntt.forward(b.residues, plan)
    return RingElement(a.params, ntt.inverse(ntt.pointwise(fa, fb, plan), plan), COEFF)


# ---------------------------------------------------------------------------
# samplers


_CHUNK = 30  # bits per piece of a wide draw; a piece times a residue fits int64


def _streams(rng: Xof | Sequence[Xof]) -> tuple[list[Xof], tuple[int, ...]]:
    """The streams of a sampler call, one per batch entry, and the leading
    shape of what it draws: (B,) for B streams, and () for a single stream,
    a batch of one without its batch axis."""
    if isinstance(rng, Xof):
        return [rng], ()
    rngs = list(rng)
    return rngs, (len(rngs),)


def _first_accepted(rng: Xof | Sequence[Xof], count: int, nbytes: int,
                    acc: int, span: int, parse) -> np.ndarray:
    """The first `count` accepted draws of each stream, shape
    (fields, *lead, count) (`_streams`).

    A draw is `nbytes` bytes, accepted with probability rho = acc/span
    exactly. `parse(buf, rows, m)` turns m draws of each of `rows` streams,
    read back to back (plus 8 bytes of padding), into a list of (rows, m)
    field arrays and the (rows, m) acceptance mask. Every stream reads
    m = ceil(count/rho) draws plus a margin of about four standard
    deviations, all in one pass, and keeps its first `count` accepted ones.
    The margin is part of the stream layout: whatever the stream is read
    for next starts after all m draws, kept or not. A stream short of
    `count` (rare) tops up, drawing the rest the same way after its m.
    """
    rngs, lead = _streams(rng)
    m = -(-count * span // acc)
    m += 4 * isqrt(m * (span - acc) // acc) + 1
    buf = b"".join([*(r.read(nbytes * m) for r in rngs), bytes(8)])
    fields, keep = parse(buf, len(rngs), m)
    at = np.flatnonzero(keep)  # accepted draws, stream after stream
    bounds = np.searchsorted(at, m * np.arange(len(rngs) + 1)).tolist()
    got = [at[lo : min(hi, lo + count)] for lo, hi in zip(bounds, bounds[1:])]
    pick = np.concatenate(got)
    kept = np.stack([f.ravel().take(pick) for f in fields])
    if pick.size < len(rngs) * count:
        rows = np.split(kept, np.cumsum([row.size for row in got[:-1]]),
                        axis=1)
        kept = np.concatenate([
            row if row.shape[1] == count else np.concatenate(
                [row, _first_accepted(rng_i, count - row.shape[1], nbytes,
                                      acc, span, parse)], axis=1)
            for row, rng_i in zip(rows, rngs)], axis=1)
    return kept.reshape((-1, *lead, count))


def _uniform_draws(rng: Xof | Sequence[Xof], count: int,
                   top: int) -> list[np.ndarray]:
    """`count` integers uniform on [0, top] from each stream, as 30-bit
    int64 pieces of shape (*lead, count), least significant first.

    A draw reads ceil(bits/8) bytes (bits = bit length of top), masks them
    to `bits` and is rejected above `top`, compared word by word up from
    the least significant 64-bit word (`_first_accepted`).
    """
    bits = top.bit_length()
    nbytes = (bits + 7) // 8
    nwords = (nbytes + 7) // 8
    mask = (1 << bits) - 1
    mask_w = [np.uint64((mask >> (64 * k)) & (2**64 - 1)) for k in range(nwords)]
    top_w = [np.uint64((top >> (64 * k)) & (2**64 - 1)) for k in range(nwords)]

    def parse(buf, rows, m):
        # word k of every draw, read in place; the pad covers the last draw
        words = [np.ndarray((rows, m), "<u8", buf, 8 * k, (nbytes * m, nbytes))
                 & mask_w[k] for k in range(nwords)]
        keep = words[0] <= top_w[0]
        for k in range(1, nwords):
            keep = (words[k] < top_w[k]) | ((words[k] == top_w[k]) & keep)
        return words, keep

    out = _first_accepted(rng, count, nbytes, top + 1, 1 << bits, parse)
    pieces = []
    for lo in range(0, max(bits, 1), _CHUNK):
        k, shift = divmod(lo, 64)
        piece = out[k] >> np.uint64(shift)
        if shift > 64 - _CHUNK and k + 1 < nwords:
            piece |= out[k + 1] << np.uint64(64 - shift)
        pieces.append((piece & np.uint64((1 << _CHUNK) - 1)).astype(np.int64))
    return pieces


def _pieces_mod(pieces: list[np.ndarray], params: RingParams,
                offset: int = 0) -> np.ndarray:
    """Residues of sum(piece_k * 2^(30k)) - offset, shape (..., limbs, count)
    for pieces of shape (..., count).

    The two lowest pieces form one value below 2^60; every further term
    piece_k * (2^(30k) mod p) is below 2^60 too, so six terms add up in
    int64 before a reduction is due."""
    low = pieces[0] if len(pieces) == 1 else pieces[0] + (pieces[1] << _CHUNK)
    res = np.empty(low.shape[:-1] + (len(params.primes), low.shape[-1]),
                   dtype=np.uint32)
    for j, p in enumerate(params.primes):
        acc = low - offset % p
        for k in range(2, len(pieces)):
            acc = acc + pieces[k] * pow(2, _CHUNK * k, p)
            if k % 6 == 0:
                acc = _reduce(acc, p)
        res[..., j, :] = _reduce(acc, p)
    return res


def sample_uniform(params: RingParams, rng: Xof | Sequence[Xof]) -> RingElement:
    """Each coefficient uniform mod q, drawn by rejection on (log2 q)-bit draws."""
    pieces = _uniform_draws(rng, params.n, params.q - 1)
    return RingElement(params, _pieces_mod(pieces, params), COEFF)


_TERNARY = np.arange(256, dtype=np.int64) % 3 - 1  # the value of each byte


def sample_ternary(params: RingParams, rng: Xof | Sequence[Xof]) -> RingElement:
    """Coefficients uniform in {-1, 0, 1}, stored centered: one byte per
    draw, rejected at 255 = 85 * 3 so that the map c % 3 - 1 is exact."""
    def parse(buf, rows, m):
        raw = np.ndarray((rows, m), np.uint8, buf)
        return [raw], raw < 255

    raw = _first_accepted(rng, params.n, 1, 255, 256, parse)[0]
    return from_coeffs(params, _TERNARY.take(raw))


_OPEN = -(2**15)  # guide entry of a bucket that holds a threshold
_LOW48 = np.uint64(2**48 - 1)  # the bits of u below its 2-byte prefix


@dataclass(frozen=True)
class _Cdt:
    # thresholds[j] = round(2^64 * P(k <= j - K)) for j < 2K, clipped to
    # 2^64 - 1; a 64-bit uniform u draws k = #{j : thresholds[j] <= u} - K
    thresholds: np.ndarray  # uint64, shape (2K,)
    # k for every u with these top 16 bits, or _OPEN where a threshold
    # falls strictly inside the bucket
    guide: np.ndarray  # int16, shape (2^16,)


@lru_cache(maxsize=None)
def _cdt(spec: NoiseSpec) -> _Cdt:
    """The discrete Gaussian P(k) ~ exp(-k^2 / 2 sigma^2) on |k| <= K =
    floor(bound), as a 64-bit cumulative table and its 16-bit guide.

    The weights w_k = exp(-k^2 / 2 sigma^2) follow the ratio recurrence
    w_{k+1} = w_k * a * b^k, a = e^(-1/2 sigma^2), b = e^(-1/sigma^2), at
    90 significant digits: two exp calls, errors far below 2^-64.
    """
    kmax = int(spec.bound)
    if kmax > MAX_NOISE_BOUND:
        raise ConfigError(
            f"noise bound {spec.bound} must be below {MAX_NOISE_BOUND + 1}, "
            f"the Gaussian sampler's table limit")
    with decimal.localcontext() as ctx:  # no keyword form before 3.11
        ctx.prec = 90
        s2 = decimal.Decimal(spec.sigma.numerator) / spec.sigma.denominator
        s2 *= s2
        ratio, step = (-1 / (2 * s2)).exp(), (-1 / s2).exp()
        weights = [decimal.Decimal(1)]  # w_0 .. w_K
        for _ in range(kmax):
            weights.append(weights[-1] * ratio)
            ratio *= step
        pmf = weights[:0:-1] + weights  # k = -K .. K
        scale = 2**64 / sum(pmf)
        cum, thresholds = decimal.Decimal(0), []
        for w in pmf[:-1]:
            cum += w
            t = int((cum * scale).to_integral_value(decimal.ROUND_HALF_EVEN))
            thresholds.append(min(t, 2**64 - 1))
    table = np.array(thresholds, dtype=np.uint64)
    low = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
    first = np.searchsorted(table, low, side="right")
    last = np.searchsorted(table, low | _LOW48, side="right")
    guide = np.where(first == last, first - kmax, _OPEN).astype(np.int16)
    return _Cdt(table, guide)


def sample_gaussian(params: RingParams, spec: NoiseSpec,
                    rng: Xof | Sequence[Xof]) -> RingElement:
    """Discrete Gaussian of width sigma on |c| <= floor(bound), exactly as a
    64-bit cumulative-table lookup draws it, with no float.

    Stream layout: n 2-byte little-endian prefixes, the top 16 bits of each
    sample's 64-bit uniform u. The guide table maps almost every prefix to
    its value. Then, for each sample whose bucket holds a threshold (28 of
    65,536 buckets at sigma = 3.2, bound 19.2), in index order, 6 more
    little-endian bytes give the low 48 bits of u, which is looked up in
    the full table: about 2.003 bytes per coefficient. A batch reads every
    stream's prefixes, then every stream's low bits, each in one pass.
    """
    rngs, lead = _streams(rng)
    if spec.sigma == 0:
        return zero(params, lead=lead)
    n = params.n
    cdt = _cdt(spec)
    prefix = np.frombuffer(b"".join([r.read(2 * n) for r in rngs]), "<u2")
    k = cdt.guide.take(prefix)
    open_at = np.flatnonzero(k == _OPEN)  # stream by stream, in index order
    if open_at.size:
        per_stream = np.bincount(open_at // n, minlength=len(rngs)).tolist()
        buf = b"".join([*(r.read(6 * c) for r, c in zip(rngs, per_stream) if c),
                        bytes(2)])  # pad the last word
        low = np.ndarray((open_at.size,), "<u8", buf, 0, (6,)) & _LOW48
        u = prefix[open_at].astype(np.uint64) << np.uint64(48) | low
        j = np.searchsorted(cdt.thresholds, u, side="right")
        k[open_at] = j - int(spec.bound)
    return from_coeffs(params, k.astype(np.int64).reshape(*lead, n))


def sample_smudging(params: RingParams, b_smg,
                    rng: Xof | Sequence[Xof]) -> RingElement:
    """Coefficients uniform on the integer interval [-b_smg, b_smg]."""
    b = int(b_smg)
    if b < 0:
        raise ValueError("smudging bound must be >= 0")
    if b == 0:
        return zero(params, lead=_streams(rng)[1])
    pieces = _uniform_draws(rng, params.n, 2 * b)
    return RingElement(params, _pieces_mod(pieces, params, offset=b), COEFF)
