"""Additive BFV and CKKS over the RNS ring, plus fixed-point encoders.

Only additions are supported homomorphically; both schemes share the
public-key and encryption shape, sampling encryption randomness u from the
ternary distribution. No slot packing: plaintext coefficients carry values
directly. The encoders turn float64 arrays, and only those, into a
`Plaintext`: one RNS element, built with exact vector steps. The
decryption tails work on the exact centered integers of the CRT lift
(`ring.crt_lift`); nothing in the decrypt path touches floats. Each takes
an element of its own parameters' ring or decryption ring, and no other.
`bfv_round` gives the centered integers mod t, and the opened value comes
out as `Ratios` (`decode_fixed` for BFV, `ckks_scale_down` for CKKS).

Keys and the opened value come from the threshold protocol (`threshold`).
The single-key generation and decryption path is a reference
implementation kept with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ring as rg
from .errors import (
    BoundViolationError,
    CapacityError,
    EncodingOverflowError,
    ParamsMismatchError,
    PlaintextRangeError,
)
from .exact import (
    Ratios,
    frac,
    frac_log2,
    scaled_round_array,
    scaled_round_residues,
)
from .planner import (fresh_bound, qmin_mbfv_bound, qmin_mckks_bound,
                      scale_from_eps)
from .rng import Xof

BFV = "bfv"
CKKS = "ckks"


@dataclass(frozen=True)
class SchemeParams:
    """Validated parameter set; the single source of truth after setup."""

    scheme: str
    ring: rg.RingParams
    noise: rg.NoiseSpec
    kappa: int                # homomorphic addition capacity
    delta: int                # BFV: floor(q/t); CKKS: scale kappa * 2^k
    # the ring partial decryptions are rounded to, sent in and combined in:
    # the first limbs of `ring` (`ring.scale_down`), or all of them
    dec_ring: rg.RingParams
    t: int | None = None      # BFV plaintext modulus, a power of two


# Keys are stored in the NTT domain only: every use of a key is a ring
# product. Ciphertexts and messages stay in the coefficient domain.
@dataclass(frozen=True)
class PublicKey:
    p0: rg.RingElement
    p1: rg.RingElement


@dataclass
class Plaintext:
    """The plaintext coefficients as one coefficient-domain RNS element.

    BFV: centered integers mod t. CKKS: round(delta * value). A batch from
    the encoders has an element of shape (B, limbs, n).
    """

    scheme: str
    element: rg.RingElement


@dataclass
class Ciphertext:
    # c0 at q, or at the decryption modulus q' once a client switched it
    # for collective decryption (`threshold.switch_c0`); c1 always at q.
    # Both may carry a batch axis, (B, limbs, n): one ciphertext per entry.
    # The protocol holds a group of chunks this way from encryption to the
    # combine (`harness.group_layout`); a message carries one entry.
    c0: rg.RingElement
    c1: rg.RingElement
    scheme: str
    adds_consumed: int
    kappa: int


# ---------------------------------------------------------------------------
# setup


def _fail(name: str, lhs: Fraction, rhs: Fraction) -> BoundViolationError:
    # log2 of the sides, never float(): a side may exceed the float range
    return BoundViolationError(
        f"{name}: need 2^{frac_log2(lhs):.2f} < 2^{frac_log2(rhs):.2f}; "
        f"short by {frac_log2(lhs / rhs):.2f} bits")


def decode_qmin(params: SchemeParams, b) -> Fraction:
    """The planner's exact minimum q at which a value opened with noise at
    most b still decodes under `params`; q must exceed it."""
    if params.scheme == BFV:
        return qmin_mbfv_bound(params.t, b)
    return qmin_mckks_bound(params.delta, b)


def setup(scheme: str, n: int, *, sigma, bound=None, t: int | None = None,
          eps_inv: int | None = None, primes, kappa: int = 1,
          mp_noise_bound=None, dec_limbs: int | None = None) -> SchemeParams:
    """Validate a parameter set and pin the RNS basis.

    Correctness preconditions are enforced exactly, each as q above the
    planner's minimum q for a noise bound (`decode_qmin`): the fresh
    ciphertext bound, the kappa-addition capacity bound, and (when the
    planner supplies it) the multiparty aggregate-noise bound, which also
    sets the CKKS scale (`planner.scale_from_eps`). `dec_limbs` keeps that
    many leading primes for collective decryption; the planner's bound must
    already carry the rounding it costs (`planner.switch_noise`).
    """
    if scheme not in (BFV, CKKS):
        raise ValueError(f"unknown scheme {scheme!r}")
    noise = rg.NoiseSpec.create(frac(sigma), None if bound is None else frac(bound))
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    ring_params = rg.RingParams.create(n, tuple(primes))
    dec_ring = rg.leading_ring(
        ring_params, len(ring_params.primes) if dec_limbs is None else dec_limbs)
    q = ring_params.q
    fresh = fresh_bound(n, noise.bound)
    capacity = (kappa + 1) * fresh
    mp = None if mp_noise_bound is None else frac(mp_noise_bound)

    if scheme == BFV:
        if t is None or t < 2 or t & (t - 1):
            raise ValueError("BFV needs a plaintext modulus t = 2^k >= 2")
        if q <= t:
            raise _fail("modulus ordering (t < q)", Fraction(t), Fraction(q))
        delta = q // t
    else:
        if eps_inv is None or eps_inv < 1:
            raise ValueError("CKKS needs eps_inv >= 1")
        t, delta = None, scale_from_eps(
            eps_inv, capacity if mp is None else mp, kappa)
    params = SchemeParams(scheme=scheme, ring=ring_params, noise=noise,
                          kappa=kappa, delta=delta, t=t, dec_ring=dec_ring)
    checks = [("fresh decryptability (kappa=1)", fresh),
              (f"addition capacity (kappa={kappa})", capacity)]
    if mp is not None:
        checks.append(("multiparty aggregate bound", mp))
    for name, b in checks:
        need = decode_qmin(params, b)
        if not q > need:
            raise _fail(name, need, Fraction(q))
    return params


# ---------------------------------------------------------------------------
# plaintext encoders


def _largest(values: np.ndarray, n: int) -> Fraction:
    """max |value|, exact, of an encoder input: a float64 array of finite
    values, of shape (n,) or (B, n) for a batch of B plaintexts. Float
    comparisons are exact, so only the maximum goes rational."""
    if getattr(values, "dtype", None) != np.float64:
        raise TypeError("the encoders take a float64 numpy array")
    if values.ndim not in (1, 2) or values.shape[-1] != n:
        raise PlaintextRangeError(f"need exactly n={n} values")
    if not np.isfinite(values).all():
        raise PlaintextRangeError("cannot encode NaN or an infinite value")
    return Fraction(float(np.abs(values).max(initial=0.0)))


def encode_fixed(values: np.ndarray, scale_bits: int,
                 params: SchemeParams) -> Plaintext:
    """Quantize reals onto the grid 2^-scale_bits as BFV plaintext integers.

    Rejects inputs that could wrap mod t once kappa clients' contributions
    are aggregated. Values whose scaled magnitude does not fit int64 go
    straight to their residues. A (B, n) array encodes a batch.
    """
    if params.scheme != BFV:
        raise PlaintextRangeError("fixed-point encoding targets BFV")
    t, width = params.t, params.kappa
    two_p = 1 << scale_bits
    biggest = _largest(values, params.ring.n)
    if width * two_p * biggest >= Fraction(t, 2):
        raise EncodingOverflowError(
            f"{width} * 2^{scale_bits} * |{float(biggest):.4g}| >= t/2; "
            "lower scale_bits or raise t")
    if two_p * biggest < 1 << 62:  # the range scaled_round_array needs
        return Plaintext(BFV, rg.from_coeffs(
            params.ring, scaled_round_array(values, scale_bits)))
    res = scaled_round_residues(values, scale_bits, params.ring.primes)
    return Plaintext(BFV, rg.RingElement(params.ring, res, rg.COEFF))


def decode_fixed(coeffs: np.ndarray, scale_bits: int, parties: int) -> Ratios:
    """Undo the fixed-point grid and the aggregation width (sum -> average)
    of opened plaintext integers (`bfv_round`)."""
    return Ratios(coeffs, (1 << scale_bits) * parties)


def encode_real(values: np.ndarray, params: SchemeParams) -> Plaintext:
    """CKKS encoding of one of kappa updates: integer coefficients
    round(delta/kappa * v), at the exact shift log2(delta/kappa).

    Rejects max|v| > 1: setup's headroom check sizes q for a sum of kappa
    such messages, at most delta, and larger inputs would wrap mod q
    silently. A (B, n) array encodes a batch.
    """
    if params.scheme != CKKS:
        raise PlaintextRangeError("real encoding targets CKKS")
    biggest = _largest(values, params.ring.n)
    if biggest > 1:
        raise EncodingOverflowError(
            f"|{float(biggest):.4g}| > 1: the aggregate would leave the "
            "message space setup sized q for")
    shift = (params.delta // params.kappa).bit_length() - 1
    res = scaled_round_residues(values, shift, params.ring.primes)
    return Plaintext(CKKS, rg.RingElement(params.ring, res, rg.COEFF))


# ---------------------------------------------------------------------------
# encrypt / add / decryption tails


def encrypt(params: SchemeParams, pk: PublicKey, pt: Plaintext,
            rng: Xof | Sequence[Xof] | None, *,
            u: rg.RingElement | None = None,
            e0: rg.RingElement | None = None,
            e1: rg.RingElement | None = None) -> Ciphertext:
    """ct = (delta*m + u*p0 + e0, u*p1 + e1); keyword hooks inject randomness.

    A batch of plaintexts with a batch of u, e0 and e1 (each of shape
    (B, limbs, n), one entry per ciphertext) gives a batch of ciphertexts:
    one forward transform, two inverse transforms and the sums for all of
    them. rng is a stream, or one per batch entry; each is read for u, then
    e0, then e1, and only for a hook not given.
    """
    if pt.scheme != params.scheme:
        raise PlaintextRangeError(
            f"plaintext is {pt.scheme}, params are {params.scheme}")
    msg = pt.element
    if params.scheme == BFV:
        msg = rg.mul_scalar(msg, params.delta)
    if u is None:
        u = rg.sample_ternary(params.ring, rng)
    if e0 is None:
        e0 = rg.sample_gaussian(params.ring, params.noise, rng)
    if e1 is None:
        e1 = rg.sample_gaussian(params.ring, params.noise, rng)
    u_ntt = rg.to_ntt(u)
    c0 = rg.ring_add(rg.ring_add(msg, e0), rg.ring_mul(u_ntt, pk.p0))
    c1 = rg.ring_add(e1, rg.ring_mul(u_ntt, pk.p1))
    return Ciphertext(c0=c0, c1=c1, scheme=params.scheme,
                      adds_consumed=0, kappa=params.kappa)


def adds_after(consumed: int, other: int, kappa: int) -> int:
    """adds_consumed of the sum of ciphertexts that consumed `consumed` and
    `other` additions: one more than both, or CapacityError above kappa."""
    spent = consumed + other + 1
    if spent > kappa:
        raise CapacityError(f"{spent} additions exceed capacity kappa={kappa}")
    return spent


def add(ct: Ciphertext, other: Ciphertext) -> Ciphertext:
    if ct.scheme != other.scheme:
        raise PlaintextRangeError("cannot add ciphertexts of different schemes")
    spent = adds_after(ct.adds_consumed, other.adds_consumed, ct.kappa)
    return Ciphertext(c0=rg.ring_add(ct.c0, other.c0),
                      c1=rg.ring_add(ct.c1, other.c1),
                      scheme=ct.scheme, adds_consumed=spent, kappa=ct.kappa)


def _check_decode_ring(params: SchemeParams, d: rg.RingElement) -> None:
    # the combine's output lives at dec_ring; a single-key decryption at ring
    if d.params not in (params.ring, params.dec_ring):
        raise ParamsMismatchError(
            "the element to decode is not on the parameters' ring or "
            "decryption ring")


def bfv_round(params: SchemeParams, d: rg.RingElement) -> np.ndarray:
    """[floor(t*x/q + 1/2)]_t, exact, centered output, for x the centered
    lift of d at its modulus q (a collective decryption's switched q'). The
    integers are int64, or Python ints (dtype object) for t > 2^63.

    t is a power of two (`setup`). Write t*x = q*k + r with r the centered
    [t*x]_q. Since q is odd, |r| < q/2, so k = round(t*x/q) and
    k = -r * q^-1 mod t, which the mask t - 1 takes. r is int64 while
    q < 2^62 and t <= 2^62, else Python ints; int64 products wrap mod 2^64,
    which t divides, so the mask is exact either way.
    """
    if params.scheme != BFV:
        raise PlaintextRangeError("bfv_round needs BFV parameters")
    _check_decode_ring(params, d)
    t, q = params.t, d.params.q
    r = rg.crt_lift(rg.mul_scalar(d, t))
    if t > 1 << 62:
        r = r.astype(object)
    m = -r * pow(q, -1, t) & (t - 1)
    m = np.where(m > t // 2, m - t, m)
    return m if t > 1 << 63 else m.astype(np.int64)


def ckks_scale_down(params: SchemeParams, d: rg.RingElement) -> Ratios:
    """The centered lift of d over delta, as the rationals it encodes.

    A lift x at a switched q' = q/D stands for x * D: the value is
    x * D / delta, kept as the lift (int64 below q' < 2^62) with the
    factor D over delta = kappa * 2^k, so no numerator widens.
    """
    if params.scheme != CKKS:
        raise PlaintextRangeError("ckks_scale_down needs CKKS parameters")
    _check_decode_ring(params, d)
    return Ratios(rg.crt_lift(d), params.delta, params.ring.q // d.params.q)
