"""Additive BFV and CKKS over the RNS ring, plus fixed-point encoders.

Only additions are supported homomorphically; both schemes share key
generation and encryption shape, sampling encryption randomness u from the
ternary distribution. No slot packing: plaintext coefficients carry values
directly. Decryption tails work on exact integers from the Garner digits of
the CRT lift; nothing in the decrypt path touches floats. The encoders turn
float64 arrays, and only those, into integers (or RNS residues) with exact
vector steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ring as rg
from .errors import (
    BoundViolationError,
    CapacityError,
    EncodingOverflowError,
    PlaintextRangeError,
    SecretAccessError,
)
from .exact import (
    Ratios,
    ceil_log2,
    frac,
    frac_log2,
    int_array,
    scaled_round_array,
    scaled_round_residues,
)
from .ntt import select_primes
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
    delta: int                # BFV: floor(q/t); CKKS: power-of-two scale
    t: int | None = None      # BFV plaintext modulus
    eps_inv: int | None = None  # CKKS target inverse error margin


# Keys are stored in the NTT domain only: every use of a key is a ring
# product. Ciphertexts and messages stay in the coefficient domain.
@dataclass(frozen=True)
class SecretKey:
    s: rg.RingElement


@dataclass(frozen=True)
class PublicKey:
    p0: rg.RingElement
    p1: rg.RingElement


@dataclass
class Plaintext:
    """Integer plaintext coefficients.

    BFV: centered integers mod t. CKKS: round(scale * value), so the values
    are coeffs / scale. `coeffs` is an int64 array, or Python ints
    (dtype object) when some value does not fit. An encoding of floats
    beyond int64 (always, for CKKS) is built straight as its RNS `element`;
    its integers are lifted from that on request.
    """

    scheme: str
    coeffs: np.ndarray | None = None
    scale: int = 1
    element: rg.RingElement | None = field(default=None, repr=False)

    def ints(self) -> np.ndarray:
        """The integer coefficients, lifted from `element` on first use."""
        if self.coeffs is None:
            self.coeffs = rg.crt_lift(self.element).ints()
        return self.coeffs

    @property
    def values(self) -> list | Ratios:
        """BFV: the integers as a list. CKKS: the rationals coeffs / scale."""
        if self.scheme == BFV:
            return [int(v) for v in self.ints()]
        return Ratios(self.ints(), self.scale)


@dataclass
class Ciphertext:
    c0: rg.RingElement
    c1: rg.RingElement
    scheme: str
    adds_consumed: int
    kappa: int


# ---------------------------------------------------------------------------
# setup


def _fail(name: str, lhs: Fraction, rhs: Fraction) -> BoundViolationError:
    if rhs <= 0:
        gap = "right side is not positive"
    else:
        gap = f"short by {frac_log2(lhs / rhs):.2f} bits"
    return BoundViolationError(
        f"{name}: need {float(lhs):.6g} < {float(rhs):.6g}; {gap}")


def setup(scheme: str, n: int, *, sigma, bound=None, t: int | None = None,
          eps_inv: int | None = None, log2_q: int | None = None,
          primes=None, kappa: int = 1, mp_noise_bound=None) -> SchemeParams:
    """Validate a parameter set and pin the RNS basis.

    Correctness preconditions are enforced exactly: the fresh-ciphertext
    bound, the kappa-addition capacity bound, and (when a multiparty
    aggregate-noise bound is supplied by the planner) the threshold variant
    of the same inequality.
    """
    if scheme not in (BFV, CKKS):
        raise ValueError(f"unknown scheme {scheme!r}")
    noise = rg.NoiseSpec.create(frac(sigma), None if bound is None else frac(bound))
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if primes is not None:
        ring_params = rg.RingParams.create(n, tuple(primes))
    else:
        if log2_q is None:
            raise ValueError("need log2_q or an explicit prime list")
        ring_params = rg.RingParams.create(n, select_primes(n, min_bits=log2_q))
    q = ring_params.q
    b = noise.bound
    fresh = (2 * n + 1) * b
    capacity = (kappa + 1) * fresh
    mp = None if mp_noise_bound is None else frac(mp_noise_bound)

    if scheme == BFV:
        if t is None or t < 2:
            raise ValueError("BFV needs plaintext modulus t >= 2")
        if q <= t:
            raise _fail("modulus ordering (t < q)", Fraction(t), Fraction(q))
        rhs = Fraction(q, 2 * t) - Fraction(t, 2)
        if not fresh < rhs:
            raise _fail("fresh decryptability (kappa=1)", fresh, rhs)
        if not capacity < rhs:
            raise _fail(f"addition capacity (kappa={kappa})", capacity, rhs)
        if mp is not None and not mp < rhs:
            raise _fail("multiparty aggregate bound", mp, rhs)
        return SchemeParams(scheme=BFV, ring=ring_params, noise=noise,
                            kappa=kappa, delta=q // t, t=t)

    if eps_inv is None or eps_inv < 1:
        raise ValueError("CKKS needs eps_inv >= 1")
    ref = mp if mp is not None else capacity
    delta = 1 << ceil_log2(ref * eps_inv)
    if delta < 1:
        raise _fail("scale (delta >= 1)", Fraction(delta), Fraction(1))
    rhs = Fraction(q, 2)
    if not delta + capacity < rhs:
        raise _fail(f"message headroom (kappa={kappa})", delta + capacity, rhs)
    if mp is not None and not delta + mp < rhs:
        raise _fail("multiparty message headroom", delta + mp, rhs)
    return SchemeParams(scheme=CKKS, ring=ring_params, noise=noise,
                        kappa=kappa, delta=delta, eps_inv=eps_inv)


# ---------------------------------------------------------------------------
# keys


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


# ---------------------------------------------------------------------------
# plaintext encoders


def bfv_plaintext(params: SchemeParams, values) -> Plaintext:
    t, n = params.t, params.ring.n
    vals = int_array(values)
    if vals.shape != (n,):
        raise PlaintextRangeError(f"need exactly n={n} values")
    outside = (vals <= -t // 2) | (vals > t // 2)  # centered window (-t/2, t/2]
    if outside.any():
        v = int(vals[outside.argmax()])
        raise PlaintextRangeError(f"value {v} outside (-t/2, t/2] for t={t}")
    return Plaintext(scheme=BFV, coeffs=vals)


def _largest(values: np.ndarray, n: int) -> Fraction:
    """max |value|, exact, of an encoder input: a length-n float64 array
    of finite values. Float comparisons are exact, so only the maximum goes
    rational."""
    if getattr(values, "dtype", None) != np.float64:
        raise TypeError("the encoders take a float64 numpy array")
    if values.shape != (n,):
        raise PlaintextRangeError(f"need exactly n={n} values")
    if not np.isfinite(values).all():
        raise PlaintextRangeError("cannot encode NaN or an infinite value")
    return Fraction(float(np.abs(values).max(initial=0.0)))


def encode_fixed(values: np.ndarray, scale_bits: int,
                 params: SchemeParams) -> Plaintext:
    """Quantize reals onto the grid 2^-scale_bits as BFV plaintext integers.

    Rejects inputs that could wrap mod t once kappa clients' contributions
    are aggregated. Values whose scaled magnitude does not fit int64 are
    built straight as their RNS `element`.
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
        return Plaintext(scheme=BFV,
                         coeffs=scaled_round_array(values, scale_bits))
    res = scaled_round_residues(values, scale_bits, params.ring.primes)
    return Plaintext(scheme=BFV,
                     element=rg.RingElement(params.ring, res, rg.COEFF))


def decode_fixed(pt: Plaintext, scale_bits: int, parties: int) -> Ratios:
    """Undo the fixed-point grid and the aggregation width (sum -> average)."""
    return Ratios(pt.ints(), (1 << scale_bits) * parties)


def encode_real(values: np.ndarray, params: SchemeParams) -> Plaintext:
    """CKKS coefficient-wise encoding: integer coefficients round(delta * v).

    Rejects kappa * max|v| > 1: setup's headroom check sizes q for an
    aggregate of kappa messages of at most 1/kappa each, and larger inputs
    would wrap mod q silently.
    """
    if params.scheme != CKKS:
        raise PlaintextRangeError("real encoding targets CKKS")
    biggest = _largest(values, params.ring.n)
    if params.kappa * biggest > 1:
        raise EncodingOverflowError(
            f"{params.kappa} * |{float(biggest):.4g}| > 1: the aggregate "
            "would leave the message space setup sized q for")
    shift = params.delta.bit_length() - 1  # delta is a power of two
    res = scaled_round_residues(values, shift, params.ring.primes)
    return Plaintext(scheme=CKKS, scale=params.delta,
                     element=rg.RingElement(params.ring, res, rg.COEFF))


def _message_element(params: SchemeParams, pt: Plaintext) -> rg.RingElement:
    """Delta*m as a ring element, without materializing big integers for BFV."""
    msg = pt.element
    if msg is None:
        msg = rg.from_coeffs(params.ring, pt.coeffs)
    if params.scheme == BFV:
        return rg.mul_scalar(msg, params.delta)
    return msg


# ---------------------------------------------------------------------------
# encrypt / add / decrypt


def encrypt(params: SchemeParams, pk: PublicKey, pt: Plaintext, rng: Xof, *,
            u: rg.RingElement | None = None,
            e0: rg.RingElement | None = None,
            e1: rg.RingElement | None = None) -> Ciphertext:
    """ct = (delta*m + u*p0 + e0, u*p1 + e1); keyword hooks inject randomness."""
    if pt.scheme != params.scheme:
        raise PlaintextRangeError(
            f"plaintext is {pt.scheme}, params are {params.scheme}")
    msg = _message_element(params, pt)
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


def add(ct: Ciphertext, other: Ciphertext) -> Ciphertext:
    if ct.scheme != other.scheme:
        raise PlaintextRangeError("cannot add ciphertexts of different schemes")
    spent = ct.adds_consumed + other.adds_consumed + 1
    if spent > ct.kappa:
        raise CapacityError(
            f"{spent} additions exceed capacity kappa={ct.kappa}")
    return Ciphertext(c0=rg.ring_add(ct.c0, other.c0),
                      c1=rg.ring_add(ct.c1, other.c1),
                      scheme=ct.scheme, adds_consumed=spent, kappa=ct.kappa)


def decryption_phase(params: SchemeParams, sk: SecretKey,
                     ct: Ciphertext) -> rg.Lifted:
    """Centered lift of [c0 + c1*s]_q, the shared first decryption stage."""
    return rg.crt_lift(rg.ring_add(ct.c0, rg.ring_mul(ct.c1, sk.s)))


def bfv_round(params: SchemeParams, lifted: rg.Lifted) -> Plaintext:
    """[floor(t*x/q + 1/2)]_t, exact, centered output.

    For power-of-two t <= 2^62, write t*x = q*k + r with r the centered
    [t*x]_q. Since q is odd, |r| < q/2, so k = round(t*x/q) and
    k = -r * q^-1 mod t. Only r mod t is needed: the Garner digits of [t*x]_q
    give it mod 2^64 without big integers. Other t take the rational form
    below, on Python integers.
    """
    t, q = params.t, params.ring.q
    if t & (t - 1) == 0 and t <= 1 << 62:
        ring = params.ring
        tx = rg.Lifted(ring, rg.mul_scalar(
            rg.RingElement(ring, lifted.residues), t).residues)
        k = (np.uint64(0) - tx.wrapped64()) * np.uint64(pow(q, -1, t))
        m = (k & np.uint64(t - 1)).astype(np.int64)
        return Plaintext(scheme=BFV, coeffs=np.where(m > t // 2, m - t, m))
    m = (2 * t * lifted.ints().astype(object) + q) // (2 * q) % t
    m = np.where(m > t // 2, m - t, m)
    return Plaintext(scheme=BFV, coeffs=m if t > 1 << 63 else m.astype(np.int64))


def ckks_scale_down(params: SchemeParams, lifted: rg.Lifted) -> Plaintext:
    """The lifted integers over delta; the values are their quotients."""
    return Plaintext(scheme=CKKS, coeffs=lifted.ints(), scale=params.delta)


def dec_bfv(params: SchemeParams, sk: SecretKey, ct: Ciphertext) -> Plaintext:
    if ct.scheme != BFV or params.scheme != BFV:
        raise PlaintextRangeError("dec_bfv needs a BFV ciphertext")
    return bfv_round(params, decryption_phase(params, sk, ct))


def dec_ckks(params: SchemeParams, sk: SecretKey, ct: Ciphertext) -> Plaintext:
    if ct.scheme != CKKS or params.scheme != CKKS:
        raise PlaintextRangeError("dec_ckks needs a CKKS ciphertext")
    return ckks_scale_down(params, decryption_phase(params, sk, ct))


# ---------------------------------------------------------------------------
# secret-key-gated probe


def noise_of(params: SchemeParams, sk: SecretKey, ct: Ciphertext,
             reference_pt: Plaintext, *, debug: bool = False) -> int:
    """Infinity norm of [c0 + c1*s - delta*m]_q; test facility, opt-in only."""
    if not debug:
        raise SecretAccessError("noise_of reads the secret key; pass debug=True")
    lifted = decryption_phase(params, sk, ct)
    if params.scheme == BFV:
        target = [params.delta * int(v) for v in reference_pt.ints()]
    else:
        target = [int(v) for v in reference_pt.ints()]
    q, half = params.ring.q, params.ring.half_q
    worst = 0
    for x, m in zip(lifted, target):
        d = (x - m) % q
        if d > half:
            d -= q
        worst = max(worst, abs(d))
    return worst
