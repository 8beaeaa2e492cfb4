"""Additive BFV and CKKS over the RNS ring, plus fixed-point encoders.

Only additions are supported homomorphically; both schemes share key
generation and encryption shape, sampling encryption randomness u from the
ternary distribution. No slot packing: plaintext coefficients carry values
directly. Decryption tails work on exact integers from the Garner digits of
the CRT lift; nothing in the decrypt path touches floats. The encoders turn
float arrays into integers (or RNS residues) with exact vector steps; other
rational inputs take the scalar exact path.
"""

from __future__ import annotations

import math
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
    round_half_up,
    scaled_round,
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
    are coeffs / scale. `coeffs` is an int64 array or a list of Python ints.
    A CKKS encoding of floats is built straight as its RNS `element`; its
    integers are lifted from that on request.
    """

    scheme: str
    coeffs: np.ndarray | list | None = None
    scale: int = 1
    error_bound: Fraction | None = None
    element: rg.RingElement | None = field(default=None, repr=False)

    def ints(self) -> np.ndarray | list:
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
    t = params.t
    vals = []
    for v in values:
        v = int(v)
        if not (-t < 2 * v <= t):  # centered window (-t/2, t/2]
            raise PlaintextRangeError(f"value {v} outside (-t/2, t/2] for t={t}")
        vals.append(v)
    if len(vals) != params.ring.n:
        raise PlaintextRangeError(f"need exactly n={params.ring.n} values")
    return Plaintext(scheme=BFV, coeffs=vals)


def _float_input(values) -> np.ndarray | None:
    """The values as a float64 array when they are all floats, else None.

    Rejects NaN and infinities, which have no integer encoding."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        arr = values.astype(np.float64, copy=False)
        ok = np.isfinite(arr).all()
    else:
        arr = None
        if all(isinstance(x, float) for x in values):
            arr = np.array(values, dtype=np.float64)
        ok = all(math.isfinite(x) for x in values if isinstance(x, float))
    if not ok:
        raise PlaintextRangeError("cannot encode NaN or an infinite value")
    return arr


def _largest(floats: np.ndarray | None, values) -> Fraction:
    """max |value|, exact; float comparisons are exact, so only it goes
    rational."""
    if floats is not None:
        return Fraction(float(np.abs(floats).max(initial=0.0)))
    return max((abs(frac(x)) for x in values), default=Fraction(0))


def encode_fixed(values, scale_bits: int, params: SchemeParams) -> Plaintext:
    """Quantize reals onto the grid 2^-scale_bits as BFV plaintext integers.

    Rejects inputs that could wrap mod t once kappa clients' contributions
    are aggregated.
    """
    if params.scheme != BFV:
        raise PlaintextRangeError("fixed-point encoding targets BFV")
    n, t, width = params.ring.n, params.t, params.kappa
    if len(values) != n:
        raise PlaintextRangeError(f"need exactly n={n} values")
    two_p = 1 << scale_bits
    floats = _float_input(values)
    biggest = _largest(floats, values)
    if width * two_p * biggest >= Fraction(t, 2):
        raise EncodingOverflowError(
            f"{width} * 2^{scale_bits} * |{float(biggest):.4g}| >= t/2; "
            "lower scale_bits or raise t")
    if floats is not None and t <= 1 << 63:  # so |value| < t/2 fits int64
        return Plaintext(scheme=BFV,
                         coeffs=scaled_round_array(floats, scale_bits))
    out = []
    for x in values:
        if isinstance(x, float):
            out.append(scaled_round(x, scale_bits))
        else:
            out.append(round_half_up(frac(x) * two_p))
    return Plaintext(scheme=BFV, coeffs=out)


def decode_fixed(pt: Plaintext, scale_bits: int, parties: int) -> Ratios:
    """Undo the fixed-point grid and the aggregation width (sum -> average)."""
    return Ratios(pt.ints(), (1 << scale_bits) * parties)


def encode_real(values, params: SchemeParams) -> Plaintext:
    """CKKS coefficient-wise encoding: integer coefficients round(delta * v).

    Rejects kappa * max|v| > 1: setup's headroom check sizes q for an
    aggregate of kappa messages of at most 1/kappa each, and larger inputs
    would wrap mod q silently.
    """
    if params.scheme != CKKS:
        raise PlaintextRangeError("real encoding targets CKKS")
    n, d = params.ring.n, params.delta
    if len(values) != n:
        raise PlaintextRangeError(f"need exactly n={n} values")
    floats = _float_input(values)
    biggest = _largest(floats, values)
    if params.kappa * biggest > 1:
        raise EncodingOverflowError(
            f"{params.kappa} * |{float(biggest):.4g}| > 1: the aggregate "
            "would leave the message space setup sized q for")
    shift = d.bit_length() - 1  # delta is a power of two
    if floats is not None:
        res = scaled_round_residues(floats, shift, params.ring.primes)
        return Plaintext(scheme=CKKS, scale=d,
                         element=rg.RingElement(params.ring, res, rg.COEFF))
    enc = []
    for x in values:
        if isinstance(x, float):
            enc.append(scaled_round(x, shift))
        else:
            enc.append(round_half_up(frac(x) * d))
    return Plaintext(scheme=CKKS, coeffs=enc, scale=d)


def _message_element(params: SchemeParams, pt: Plaintext) -> rg.RingElement:
    """Delta*m as a ring element, without materializing big integers for BFV."""
    if pt.element is not None:
        return pt.element
    if params.scheme == BFV:
        return rg.mul_scalar(rg.from_coeffs(params.ring, pt.coeffs), params.delta)
    return rg.from_coeffs(params.ring, pt.coeffs)


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


def bfv_round(params: SchemeParams, lifted) -> Plaintext:
    """[round_half_up(t*x/q)]_t, exact, centered output.

    For power-of-two t <= 2^62, write t*x = q*k + r with r the centered
    [t*x]_q. Since q is odd, |r| < q/2, so k = round(t*x/q) and
    k = -r * q^-1 mod t. Only r mod t is needed: the Garner digits of [t*x]_q
    give it mod 2^64 without big integers. Other t (or lifted values given
    as plain integers) take the rational form below, the reference.
    """
    t, q = params.t, params.ring.q
    if isinstance(lifted, rg.Lifted) and t & (t - 1) == 0 and t <= 1 << 62:
        ring = params.ring
        tx = rg.Lifted(ring, rg.mul_scalar(
            rg.RingElement(ring, lifted.residues), t).residues)
        k = (np.uint64(0) - tx.wrapped64()) * np.uint64(pow(q, -1, t))
        m = (k & np.uint64(t - 1)).astype(np.int64)
        return Plaintext(scheme=BFV, coeffs=np.where(m > t // 2, m - t, m))
    out = []
    for x in lifted:
        m = ((2 * t * x + q) // (2 * q)) % t
        if m > t // 2:
            m -= t
        out.append(m)
    return Plaintext(scheme=BFV, coeffs=out)


def ckks_scale_down(params: SchemeParams, lifted,
                    noise_bound: Fraction | None = None) -> Plaintext:
    """The lifted integers over delta; the values are their quotients."""
    coeffs = lifted.ints() if isinstance(lifted, rg.Lifted) else int_array(lifted)
    return Plaintext(scheme=CKKS, coeffs=coeffs, scale=params.delta,
                     error_bound=noise_bound)


def dec_bfv(params: SchemeParams, sk: SecretKey, ct: Ciphertext) -> Plaintext:
    if ct.scheme != BFV or params.scheme != BFV:
        raise PlaintextRangeError("dec_bfv needs a BFV ciphertext")
    return bfv_round(params, decryption_phase(params, sk, ct))


def dec_ckks(params: SchemeParams, sk: SecretKey, ct: Ciphertext) -> Plaintext:
    if ct.scheme != CKKS or params.scheme != CKKS:
        raise PlaintextRangeError("dec_ckks needs a CKKS ciphertext")
    n = params.ring.n
    bound = Fraction(ct.adds_consumed + 1) * (2 * n + 1) * params.noise.bound
    return ckks_scale_down(params, decryption_phase(params, sk, ct),
                           noise_bound=bound / params.delta)


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
