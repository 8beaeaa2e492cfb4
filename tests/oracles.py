"""Reference implementations the tests check the protocol against.

Not a test module (pytest does not collect it); the test modules import it.
Each oracle takes its own route to its answer:

- the single-key BFV/CKKS path (`SecretKey`, `seckeygen`, `pubkeygen`,
  `bfv_plaintext`, `decryption_phase`, `dec_bfv`, `dec_ckks`) and the
  noise probe `noise_of`, which reads the secret key;
- `ring_mul_schoolbook`, the O(n^2) negacyclic convolution that never
  calls the NTT, and `inf_norm` over centered coefficients;
- `ring_sub`, `from_ntt` and `stack`, ring operations beside
  `ring.ring_add`, `ring.to_ntt` and `ring.unstack` that only the tests
  need;
- `from_ints`, a ring element from Python integers of any size, reduced
  one `int(c) % p` at a time (`ring.from_coeffs` takes int64 arrays only);
- `reconstruct_ideal_key`, the sum of all key shares, which no protocol
  party may ever hold;
- `chacha20_block` and `chacha20_keystream`, the ChaCha20 block function
  of RFC 8439 section 2.3 in plain Python integers, which the `Xof`
  stream must equal byte for byte;
- `uniform_below`, one exact rejection draw at a time from an `Xof`;
- `cdt_gaussian`, the plain 64-bit cumulative-table lookup one sample at
  a time, in the stream layout of `ring.sample_gaussian`, and
  `cdt_threshold_bounds`, the table's exact values bracketed by Taylor
  series in `Fraction`s; `box_muller_gaussian`, the rounded continuous
  Gaussian the table sampler replaced, kept as a moment reference.

`primes_for` picks a prime basis by bit length for tests that size q by
hand, and `budget` gives them plan bounds to set up with.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import tau

import numpy as np

from thagg import ntt
from thagg import ring as rg
from thagg.errors import DomainMismatchError, PlaintextRangeError
from thagg.exact import Ratios, int_array
from thagg.ntt import select_primes
from thagg.ring import COEFF, RingElement, _check_pair, _plan, _reduce_once
from thagg.rng import Xof
from thagg.planner import MCKKS_SMALLER, MpBounds, RegionGrid
from thagg.schemes import (
    BFV,
    Ciphertext,
    PublicKey,
    SchemeParams,
    bfv_round,
    ckks_scale_down,
)
from thagg.threshold import SecretShare


def primes_for(n: int, bits: int) -> tuple[int, ...]:
    """The fewest NTT-friendly primes for degree n whose product has at
    least `bits` bits."""
    return select_primes(n, min_product=(1 << (bits - 1)) - 1)


# ---------------------------------------------------------------------------
# ChaCha20 (RFC 8439, section 2.3)


def budget(b_ct, b_smg, b_ct_mp) -> MpBounds:
    """Plan bounds with the three terms `schemes.setup` reads (the fresh
    ones are 0): a round's sum, the smudging per party, and the aggregate."""
    return MpBounds(b_fresh=Fraction(0), b_fresh_mp=Fraction(0),
                    b_ct=Fraction(b_ct), b_smg=Fraction(b_smg),
                    b_ct_mp=Fraction(b_ct_mp))


def _rotl32(x: int, k: int) -> int:
    return ((x << k) | (x >> (32 - k))) & 0xFFFFFFFF


def _quarter_round(s: list[int], a: int, b: int, c: int, d: int) -> None:
    s[a] = (s[a] + s[b]) & 0xFFFFFFFF
    s[d] = _rotl32(s[d] ^ s[a], 16)
    s[c] = (s[c] + s[d]) & 0xFFFFFFFF
    s[b] = _rotl32(s[b] ^ s[c], 12)
    s[a] = (s[a] + s[b]) & 0xFFFFFFFF
    s[d] = _rotl32(s[d] ^ s[a], 8)
    s[c] = (s[c] + s[d]) & 0xFFFFFFFF
    s[b] = _rotl32(s[b] ^ s[c], 7)


def _words(raw: bytes) -> list[int]:
    return [int.from_bytes(raw[i : i + 4], "little")
            for i in range(0, len(raw), 4)]


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """The 64-byte ChaCha20 block for a 32-byte key, a 32-bit block counter
    and a 12-byte nonce: the constants, key, counter and nonce as sixteen
    little-endian words, twenty rounds (ten column-diagonal pairs), the
    input added back, serialized little-endian."""
    init = [*_words(b"expand 32-byte k"), *_words(key), counter,
            *_words(nonce)]
    s = list(init)
    for _ in range(10):
        _quarter_round(s, 0, 4, 8, 12)
        _quarter_round(s, 1, 5, 9, 13)
        _quarter_round(s, 2, 6, 10, 14)
        _quarter_round(s, 3, 7, 11, 15)
        _quarter_round(s, 0, 5, 10, 15)
        _quarter_round(s, 1, 6, 11, 12)
        _quarter_round(s, 2, 7, 8, 13)
        _quarter_round(s, 3, 4, 9, 14)
    return b"".join(((x + y) & 0xFFFFFFFF).to_bytes(4, "little")
                    for x, y in zip(s, init))


@lru_cache(maxsize=None)
def chacha20_keystream(key: bytes, length: int, nonce: bytes = bytes(12),
                       counter: int = 0) -> bytes:
    """The first `length` keystream bytes from block `counter` on."""
    blocks = (chacha20_block(key, counter + i, nonce)
              for i in range(-(-length // 64)))
    return b"".join(blocks)[:length]


def uniform_below(rng: Xof, m: int) -> int:
    """Uniform integer in [0, m), by rejection; exact for any m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 0
    bits = (m - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        v = int.from_bytes(rng.read(nbytes), "little") & mask
        if v < m:
            return v


# ---------------------------------------------------------------------------
# Gaussian noise


def exp_neg_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo <= e^-x <= hi for x >= 0, each within 2^-128 relative.

    e^x lies in [S, S + R] for the Taylor partial sum S of N terms and the
    tail R <= x^N/N! / (1 - x/(N+1)), valid once N + 1 > x."""
    s, term, i = Fraction(0), Fraction(1), 0
    while i < 2 * x + 2 or term > s / 2**128:
        s += term
        i += 1
        term = term * x / i
    tail = term / (1 - x / (i + 1))
    return 1 / (s + tail), 1 / s


def cdt_threshold_bounds(sigma, bound) -> list[tuple[Fraction, Fraction]]:
    """Bounds on 2^64 * P(k <= j - K), j < 2K, for the discrete Gaussian
    P(k) ~ exp(-k^2 / 2 sigma^2) on |k| <= K = floor(bound), sigma > 0."""
    sigma, kmax = Fraction(sigma), int(Fraction(bound))
    ws = [exp_neg_bounds(Fraction(k * k) / (2 * sigma * sigma))
          for k in range(-kmax, kmax + 1)]
    z_lo, z_hi = sum(w[0] for w in ws), sum(w[1] for w in ws)
    out, s_lo, s_hi = [], Fraction(0), Fraction(0)
    for w_lo, w_hi in ws[:-1]:
        s_lo, s_hi = s_lo + w_lo, s_hi + w_hi
        out.append((2**64 * s_lo / z_hi, 2**64 * s_hi / z_lo))
    return out


def cdt_gaussian(n: int, thresholds, kmax: int, rng: Xof) -> list[int]:
    """n draws of k = #{j : thresholds[j] <= u} - kmax, one 64-bit uniform
    u per draw: n 2-byte prefixes (the top 16 bits of each u) first, then,
    in order, 6 bytes (the low 48 bits) for each draw whose prefix alone
    leaves k open."""
    table = [int(t) for t in thresholds]
    prefixes = [int.from_bytes(rng.read(2), "little") for _ in range(n)]
    out = []
    for top in prefixes:
        lo, hi = top << 48, (top << 48) | (2**48 - 1)
        k = bisect_right(table, lo)
        if k != bisect_right(table, hi):
            k = bisect_right(table, lo | int.from_bytes(rng.read(6), "little"))
        out.append(k - kmax)
    return out


def box_muller_gaussian(n: int, spec: rg.NoiseSpec, rng: Xof) -> np.ndarray:
    """n draws of the rounded continuous Gaussian: Box-Muller on two 53-bit
    uniforms per candidate, rounded, resampled until |k| <= floor(bound)."""
    sigma, kmax = float(spec.sigma), int(spec.bound)
    vals = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        need = n - filled
        u1, u2 = rng.float_open01(need), rng.float_open01(need)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(tau * u2) * sigma
        k = np.rint(z).astype(np.int64)
        keep = k[np.abs(k) <= kmax]
        vals[filled : filled + keep.size] = keep
        filled += keep.size
    return vals


# ---------------------------------------------------------------------------
# ring


def from_ints(params: rg.RingParams, values) -> rg.RingElement:
    """The coefficient-domain element with these n integers (any size, any
    sign) as its coefficients."""
    if len(values) != params.n:
        raise ValueError(
            f"expected {params.n} coefficients, got {len(values)}")
    rows = [[int(c) % p for c in values] for p in params.primes]
    return rg.RingElement(params, np.array(rows, dtype=np.int64), rg.COEFF)


def half_q(params: rg.RingParams) -> int:
    """floor(q/2): centered representatives lie in (-q/2, q/2]."""
    return params.q // 2


def inf_norm(coeffs) -> int:
    """Max absolute value over centered coefficients."""
    m = 0
    for c in coeffs:
        a = -c if c < 0 else c
        if a > m:
            m = a
    return m


def ring_mul_schoolbook(a: rg.RingElement, b: rg.RingElement) -> rg.RingElement:
    """O(n^2) negacyclic convolution, no transforms; the independent oracle."""
    _check_pair(a, b, same_domain=False)
    if a.domain != rg.COEFF or b.domain != rg.COEFF:
        raise DomainMismatchError("schoolbook path works on coefficient domain")
    n = a.params.n
    rows = []
    for limb, p in enumerate(a.params.primes):
        av = [int(x) for x in a.residues[limb]]
        bv = [int(x) for x in b.residues[limb]]
        acc = [0] * n
        for i in range(n):
            ai = av[i]
            if ai == 0:
                continue
            for j in range(n):
                k = i + j
                if k >= n:
                    acc[k - n] -= ai * bv[j]
                else:
                    acc[k] += ai * bv[j]
        rows.append(np.array([v % p for v in acc], dtype=np.int64))
    return rg.RingElement(a.params, np.stack(rows), rg.COEFF)


def ring_sub(a: RingElement, b: RingElement) -> RingElement:
    _check_pair(a, b, same_domain=True)
    p = rg.prime_column(a.params.primes)
    return RingElement(a.params, _reduce_once(a.residues + (p - b.residues), p),
                       a.domain)


def stack(elements: list[RingElement]) -> RingElement:
    """Elements of one ring and domain as one batch, shape (B, limbs, n),
    copied: the batches the tests build by hand."""
    for el in elements[1:]:
        _check_pair(elements[0], el, same_domain=True)
    return RingElement(elements[0].params,
                       np.stack([el.residues for el in elements]),
                       elements[0].domain)


def from_ntt(a: RingElement) -> RingElement:
    if a.domain == COEFF:
        return a
    return RingElement(a.params, ntt.inverse(a.residues, _plan(a.params)), COEFF)


# ---------------------------------------------------------------------------
# single-key schemes


# Like every stored key, the secret key is kept in the NTT domain.
@dataclass(frozen=True)
class SecretKey:
    s: rg.RingElement


def seckeygen(params: SchemeParams, rng: Xof) -> SecretKey:
    return SecretKey(rg.to_ntt(rg.sample_ternary(params.ring, rng)))


def pubkeygen(params: SchemeParams, sk: SecretKey, rng: Xof, *,
              p1: rg.RingElement | None = None,
              e: rg.RingElement | None = None) -> PublicKey:
    """pk = (-s*p1 + e, p1) with p1 uniform and e from the noise distribution."""
    if p1 is None:
        p1 = rg.sample_uniform(params.ring, rng)
    if e is None:
        e = rg.sample_gaussian(params.ring, params.noise, rng)
    p1 = rg.to_ntt(p1)
    p0 = rg.ring_add(rg.ring_neg(rg.ring_mul(sk.s, p1)), e)
    return PublicKey(p0=rg.to_ntt(p0), p1=p1)


def bfv_plaintext(params: SchemeParams, values) -> rg.RingElement:
    """Integers (Python or numpy) as a BFV message; anything else, a float
    included, raises TypeError rather than being truncated."""
    t, n = params.t, params.ring.n
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not all(isinstance(v, (int, np.integer)) for v in items):
        raise TypeError("BFV plaintext values must be integers")
    vals = int_array(values)
    if vals.shape != (n,):
        raise PlaintextRangeError(f"need exactly n={n} values")
    outside = (vals <= -t // 2) | (vals > t // 2)  # centered window (-t/2, t/2]
    if outside.any():
        v = int(vals[outside.argmax()])
        raise PlaintextRangeError(f"value {v} outside (-t/2, t/2] for t={t}")
    return from_ints(params.ring, vals.tolist())


def bfv_round_rational(t: int, q: int, lifted: np.ndarray) -> np.ndarray:
    """[floor(t*x/q + 1/2)]_t, centered, of centered lifts x at q, as Python
    ints, for any t >= 2: the rational form `schemes.bfv_round` took for a
    t that is not a power of two, before setup took only t = 2^k."""
    m = (2 * t * lifted.astype(object) + q) // (2 * q) % t
    return np.where(m > t // 2, m - t, m)


def decryption_phase(params: SchemeParams, sk: SecretKey,
                     ct: Ciphertext) -> rg.RingElement:
    """[c0 + c1*s]_q, coefficient-domain: the shared first decryption stage,
    in the form `combine_decrypt` opens."""
    return rg.ring_add(ct.c0, rg.ring_mul(ct.c1, sk.s))


def dec_bfv(params: SchemeParams, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
    return bfv_round(params, decryption_phase(params, sk, ct))


def dec_ckks(params: SchemeParams, sk: SecretKey, ct: Ciphertext) -> Ratios:
    return ckks_scale_down(params, decryption_phase(params, sk, ct))


def noise_of(params: SchemeParams, sk: SecretKey, ct: Ciphertext,
             reference: rg.RingElement) -> int:
    """Infinity norm of [c0 + c1*s - delta*m]_q; reads the secret key."""
    lifted = rg.crt_lift(decryption_phase(params, sk, ct)).tolist()
    target = rg.crt_lift(reference).tolist()
    if params.scheme == BFV:
        target = [params.delta * v for v in target]
    q, half = params.ring.q, half_q(params.ring)
    worst = 0
    for x, m in zip(lifted, target):
        d = (x - m) % q
        if d > half:
            d -= q
        worst = max(worst, abs(d))
    return worst


# ---------------------------------------------------------------------------
# threshold


def reconstruct_ideal_key(params: SchemeParams,
                          shares: list[SecretShare]) -> rg.RingElement:
    """Sum of all shares. Test-only: no protocol party may ever hold this."""
    acc = rg.zero(params.ring, rg.NTT)
    for sh in shares:
        acc = rg.ring_add(acc, sh.s)
    return acc


# ---------------------------------------------------------------------------
# planner


def mckks_favorable(grid: RegionGrid) -> set:
    """The (log2 t, log2 eps_inv) cells where MCKKS needs the smaller q."""
    return {cell for cell, w in grid.winners.items() if w == MCKKS_SMALLER}
