"""Vectorized per-round paths against the scalar code they replaced.

Each reference below is the per-coefficient Python implementation (or, for
the NTT, the `%` kernel) the fast path must reproduce exactly: same
integers, and for samplers the same bytes read from the stream.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thagg import exact, ntt, wire
from thagg import ring as rg
from thagg.config import ProtocolConfig
from thagg.errors import (
    EncodingOverflowError,
    ParamsMismatchError,
    PlaintextRangeError,
    ProtocolFailure,
)
from thagg.exact import (
    Ratios,
    binary_places,
    scaled_round_array,
    scaled_round_ints,
    scaled_round_residues,
)
from thagg.harness import cleartext_oracle
from thagg.planner import PlanInputs
from thagg.rng import Xof
from thagg.threshold import PartialDecryption, PkShare
from thagg.schemes import (
    BFV,
    CKKS,
    Ciphertext,
    PublicKey,
    SchemeParams,
    bfv_round,
    encode_fixed,
    encode_real,
    encrypt,
    setup,
)

from oracles import (bfv_round_rational, cdt_gaussian, from_ints, half_q,
                     primes_for, ring_mul_schoolbook, ring_sub, stack)

# ---------------------------------------------------------------------------
# scalar references


def ref_sample_uniform(params, rng):
    q = params.q
    bits = (q - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    coeffs = []
    for _ in range(params.n):
        while True:
            v = int.from_bytes(rng.read(nbytes), "little") & mask
            if v < q:
                break
        coeffs.append(v)
    return coeffs


def ref_sample_ternary(n, rng):
    out = []
    while len(out) < n:
        c = rng.read(1)[0]
        if c < 255:
            out.append(c % 3 - 1)
    return out


def ref_sample_smudging(n, b, rng):
    if b == 0:
        return [0] * n
    width = 2 * b + 1
    bits = (width - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    out = []
    while len(out) < n:
        block = rng.read(nbytes * (n - len(out)))
        for i in range(0, len(block), nbytes):
            v = int.from_bytes(block[i : i + nbytes], "little") & mask
            if v < width:
                out.append(v - b)
    return out


def ref_crt_lift(params, residues):
    q, half = params.q, half_q(params)
    v = [0] * params.n
    for row, p in zip(residues.tolist(), params.primes):
        qstar = q // p
        k = pow(qstar, -1, p)
        for i, r in enumerate(row):
            v[i] += (r * k % p) * qstar
    out = []
    for x in v:
        x %= q
        out.append(x - q if x > half else x)
    return out


def scaled_round(x, d):
    """floor(x * 2^d + 1/2) exactly, treating x as its exact binary value."""
    if x == 0.0:
        return 0
    m, e = math.frexp(x)
    big = int(m * (1 << 53))  # exact: x = big * 2^(e-53)
    s = e - 53 + d
    if s >= 0:
        return big << s
    k = -s
    return (2 * big + (1 << k)) >> (k + 1)


def ref_cleartext_oracle(cfg, updates):
    N, L = cfg.model_size, cfg.parties
    if cfg.scheme == "mbfv":
        p = cfg.fixed_point_bits
        return [Fraction(sum(scaled_round(float(w[j]), p) for w in updates),
                         (1 << p) * L) for j in range(N)]
    return [sum(Fraction(float(w[j])) for w in updates) / L for j in range(N)]


def ref_round_half_up(x):
    """floor(x + 1/2) of a Fraction, exact; ties go toward +infinity."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def ref_encode(xs, scale):
    """round(x * scale) per value, on the exact rational value of each float."""
    return [ref_round_half_up(Fraction(x) * scale) for x in xs]


def ref_bfv_round(t, q, lifted):
    """[round(t * x / q)]_t, centered, one Python integer at a time."""
    out = []
    for x in lifted:
        m = ((2 * t * x + q) // (2 * q)) % t
        out.append(m - t if m > t // 2 else m)
    return out


def ref_bitrev(n):
    bits = n.bit_length() - 1
    out = []
    for i in range(n):
        r, v = 0, i
        for _ in range(bits):
            r = (r << 1) | (v & 1)
            v >>= 1
        out.append(r)
    return out


def ref_limb_tables(n, p):
    psi = ntt._find_psi(p, n)
    inv = pow(psi, -1, p)
    pw, ipw = [1] * n, [1] * n
    for i in range(1, n):
        pw[i] = pw[i - 1] * psi % p
        ipw[i] = ipw[i - 1] * inv % p
    brv = ref_bitrev(n)
    return [pw[brv[i]] for i in range(n)], [ipw[brv[i]] for i in range(n)]


def p_col(plan):
    """The plan's primes as an int64 column, for the signed references."""
    return plan.p.astype(np.int64)


def _ref_tables(plan):
    tabs = [ntt.limb_tables(plan.n, p) for p in plan.primes]
    return (np.stack([t.psi_brv for t in tabs]),
            np.stack([t.psi_inv_brv for t in tabs]),
            np.array([t.n_inv for t in tabs], dtype=np.int64)[:, None])


def ref_forward(res, plan):
    """Negacyclic NTT with one int64 `%` per product, sum and difference."""
    k, n = res.shape
    psi = _ref_tables(plan)[0]
    a = res.copy()
    p3 = p_col(plan)[:, :, None]
    t, m = n, 1
    while m < n:
        t //= 2
        view = a.reshape(k, m, 2 * t)
        u = view[:, :, :t].copy()
        v = (view[:, :, t:] * psi[:, m : 2 * m, None]) % p3
        view[:, :, :t] = (u + v) % p3
        view[:, :, t:] = (u - v) % p3
        m *= 2
    return a


def ref_inverse(res, plan):
    k, n = res.shape
    _, psi_inv, n_inv = _ref_tables(plan)
    a = res.copy()
    p3 = p_col(plan)[:, :, None]
    t, m = 1, n
    while m > 1:
        h = m // 2
        view = a.reshape(k, h, 2 * t)
        u = view[:, :, :t].copy()
        v = view[:, :, t:].copy()
        view[:, :, :t] = (u + v) % p3
        view[:, :, t:] = ((u - v) * psi_inv[:, h : 2 * h, None]) % p3
        t *= 2
        m = h
    return (a * n_inv) % p_col(plan)


def ring_with(n, count, bits=30):
    primes = []
    while len(primes) < count:
        primes.append(ntt.prime_below(1 << bits, n, frozenset(primes)))
    return rg.RingParams.create(n, tuple(primes))


ONE_PRIME = ring_with(16, 1, bits=17)
TWO_PRIMES = ring_with(16, 2)
FIVE_PRIMES = ring_with(16, 5)


# ---------------------------------------------------------------------------
# encoders


def dyadic_floats(top=80):
    """Floats with |x| <= 2^top: any mantissa, ties k + 1/2, subnormals."""
    mant = st.integers(-(2**53) + 1, 2**53 - 1)
    specials = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                5e-324, -5e-324, 2.2250738585072014e-308]
    return st.one_of(
        st.builds(lambda m, e: math.ldexp(m, e - 53), mant,
                  st.integers(-1100, top)),
        # (2k + 1) * 2^e: an exact tie once scaled by 2^(-e-1)
        st.builds(lambda k, e: math.ldexp(2 * k + 1, e),
                  st.integers(-(2**19), 2**19), st.integers(-60, top - 21)),
        st.sampled_from([x for x in specials if abs(x) <= 2.0**top]),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(dyadic_floats(), min_size=1, max_size=12), st.integers(0, 70))
@example([0.5, -0.5, 1.5, -1.5, 0.0, -0.0, 5e-324], 0)
@example([0.25, -0.75, 1.0, -1.0], 1)
def test_scaled_round_array_matches_scalar(xs, d):
    xs = [x for x in xs if abs(x) * 2.0**d < 2.0**61]
    assume(xs)
    got = scaled_round_array(np.array(xs), d)
    assert got.dtype == np.int64
    assert got.tolist() == [scaled_round(x, d) for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.lists(dyadic_floats(top=900), min_size=1, max_size=12),
       st.integers(0, 140), st.sampled_from([ONE_PRIME, FIVE_PRIMES]))
@example([1.0, -1.0, 0.5, -0.0, 5e-324, 3.5], 0, FIVE_PRIMES)  # shift < 0
@example([1.0, -1.0, 2.0**52, -(2.0**52)], 53, FIVE_PRIMES)  # shift 0, > 0
@example([0.75, -1e300, 1e300, 2.0**-60], 131, FIVE_PRIMES)  # shift > 63
def test_scaled_round_residues_matches_scalar(xs, d, params):
    got = scaled_round_residues(np.array(xs), d, params.primes)
    want = [[scaled_round(x, d) % p for x in xs] for p in params.primes]
    assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(dyadic_floats(top=900), min_size=1, max_size=12),
       st.integers(0, 140))
@example([0.5, -0.5, 1.5, -1.5, 0.0, -0.0, 5e-324], 0)  # ties, shift < 0
@example([1.0, -1.0, 2.0**52, -(2.0**52)], 53)  # shift 0 and > 0
def test_scaled_round_ints_matches_scalar(xs, d):
    got = scaled_round_ints(np.array(xs), d)
    assert got.dtype == object
    assert got.tolist() == [scaled_round(x, d) for x in xs]
    assert all(type(v) is int for v in got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from([20, 61, 66, 90]), st.data())
def test_scaled_sum_matches_scalar_loop(clients, p, data):
    # the MBFV oracle's fold, one update at a time from an iterator: p = 20
    # stays on the int64 path; 61, 66 and 90 exceed 2^61 in total
    values = st.lists(dyadic_floats(top=0), min_size=1, max_size=12)
    xs = data.draw(values)
    updates = [np.array(data.draw(st.permutations(xs)))
               for _ in range(clients)]
    cfg = dataclasses.replace(oracle_cfg("mbfv", clients), model_size=len(xs),
                              fixed_point_bits=p)
    got = cleartext_oracle(cfg, iter(updates))
    want = [sum(scaled_round(float(w[j]), p) for w in updates)
            for j in range(len(xs))]
    assert got.numerators.tolist() == want
    assert got.numerators.dtype == (np.int64 if p == 20 else object)
    assert (got.denominator, got.factor) == (clients << p, 1)


def bfv_params(kappa=1, t=2**16, log2_q=60):
    return setup(BFV, 16, sigma="3.2", t=t,
                 primes=primes_for(16, log2_q), kappa=kappa)


def ckks_params(kappa=1):
    return setup(CKKS, 16, sigma="3.2", eps_inv=2**20,
                 primes=primes_for(16, 90), kappa=kappa)


def message_element(params, pt):
    """What `encrypt` adds to c0 for pt: delta * m for BFV, m for CKKS.
    With a zero key and zero randomness that is all of c0."""
    z = rg.zero(params.ring)
    zero_pk = PublicKey(p0=rg.to_ntt(z), p1=rg.to_ntt(z))
    return encrypt(params, zero_pk, pt, None, u=z, e0=z, e1=z).c0


@settings(max_examples=150, deadline=None)
@given(st.lists(dyadic_floats(top=3), min_size=16, max_size=16),
       st.integers(0, 12))
def test_encode_fixed_matches_scalar_path(xs, p):
    params = bfv_params()
    assume(max(abs(x) for x in xs) * 2.0**p < 2.0**14)
    pt = encode_fixed(np.array(xs), p, params)
    want = ref_encode(xs, 1 << p)
    # the values fit int64 and the element is their int64 decomposition
    ref = rg.from_coeffs(params.ring, np.array(want, dtype=np.int64))
    assert np.array_equal(pt.residues, ref.residues)
    assert rg.crt_lift(pt).tolist() == want == [
        scaled_round(x, p) for x in xs]


@settings(max_examples=100, deadline=None)
@given(st.lists(dyadic_floats(top=8), min_size=16, max_size=16),
       st.integers(0, 90))
@example([1.0 - 2.0**-53, -(1.0 - 2.0**-53)] + [0.0] * 14, 62)  # < 2^62
@example([1.0, -1.0] + [0.0] * 14, 62)  # scaled to 2^62: the residue route
@example([1.0 - 2.0**-53, -1.0] + [0.5] * 14, 90)
def test_encode_fixed_beyond_int64_matches_reference(xs, p):
    params = bfv_params(t=2**100, log2_q=240)
    assume(max(abs(x) for x in xs) * 2.0**p < 2.0**98)
    pt = encode_fixed(np.array(xs), p, params)
    want = ref_encode(xs, 1 << p)
    assert rg.crt_lift(pt).tolist() == want
    ref = rg.mul_scalar(from_ints(params.ring, want), params.delta)
    assert np.array_equal(message_element(params, pt).residues, ref.residues)


@settings(max_examples=150, deadline=None)
@given(st.lists(dyadic_floats(top=0), min_size=16, max_size=16),
       st.sampled_from([1, 3, 4]))
def test_encode_real_matches_scalar_path(xs, kappa):
    # one of kappa updates, at delta/kappa = 2^k
    params = ckks_params(kappa)
    step = params.delta // kappa
    assert step * kappa == params.delta and step & (step - 1) == 0
    pt = encode_real(np.array(xs), params)
    want = ref_encode(xs, Fraction(params.delta, kappa))
    assert rg.crt_lift(pt).tolist() == want == [
        scaled_round(x, step.bit_length() - 1) for x in xs]
    ref = from_ints(params.ring, want)
    assert np.array_equal(pt.residues, ref.residues)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_encoders_reject_non_finite_with_typed_error(bad):
    xs = np.array([0.0] * 15 + [bad])
    for call in (lambda v: encode_fixed(v, 4, bfv_params()),
                 lambda v: encode_real(v, ckks_params())):
        with pytest.raises(PlaintextRangeError):
            call(xs)
    assert issubclass(PlaintextRangeError, ProtocolFailure)  # CLI exit 3


def test_encoders_take_only_float64_arrays():
    floats = [0.25] * 16
    for call in (lambda v: encode_fixed(v, 4, bfv_params()),
                 lambda v: encode_real(v, ckks_params())):
        for values in (floats, np.ones(16, dtype=np.int64),
                       np.array([Fraction(1, 4)] * 16, dtype=object)):
            with pytest.raises(TypeError):
                call(values)
        for size in (15, 17):
            with pytest.raises(PlaintextRangeError):
                call(np.full(size, 0.25))
        call(np.array(floats))


def test_encode_real_rejects_wraparound():
    params = setup(CKKS, 64, sigma="3.2", eps_inv=2**10,
                   primes=primes_for(64, 60))
    with pytest.raises(EncodingOverflowError):
        encode_real(np.array([5.2e10] + [0.0] * 63), params)
    # the bound is max|x| <= 1 for each of kappa updates, compared exactly;
    # each is encoded at delta/kappa, so their sum is the average at delta
    four = setup(CKKS, 64, sigma="3.2", eps_inv=2**10,
                 primes=primes_for(64, 60), kappa=4)
    pt = encode_real(np.array([1.0, -1.0] + [0.0] * 62), four)
    assert rg.crt_lift(pt)[:3].tolist() == [
        four.delta // 4, -four.delta // 4, 0]
    for too_big in (math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0)):
        with pytest.raises(EncodingOverflowError):
            encode_real(np.array([too_big] + [0.0] * 63), four)


# ---------------------------------------------------------------------------
# samplers


class CountingXof(Xof):
    """A stream that counts its reads and the bytes they took."""

    def __init__(self, key):
        super().__init__(key)
        self.reads = self.taken = 0

    def read(self, n):
        self.reads += 1
        self.taken += n
        return super().read(n)


def continues_after_its_reads(rng: CountingXof) -> bool:
    """Whether the stream's next read returns the bytes right after those
    its reads so far took: no read went back."""
    fresh = Xof(rng.key)
    fresh.read(rng.taken)
    return rng.read(64) == fresh.read(64)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]),
       st.binary(min_size=1, max_size=8))
def test_sample_uniform_matches_reference(params, seed):
    fast_rng, ref_rng = CountingXof.from_seed(seed), Xof.from_seed(seed)
    fast = rg.sample_uniform(params, fast_rng)
    ref = from_ints(params, ref_sample_uniform(params, ref_rng))
    assert np.array_equal(fast.residues, ref.residues)
    assert continues_after_its_reads(fast_rng)


SMUDGE_BOUNDS = st.one_of(
    st.sampled_from([0, 1, 2, 127, 128, 2**31,
                     2**63 - 1,   # top = 2^64 - 2: eight-byte draws
                     2**63,       # top = 2^64: the first nine-byte width
                     2**63 + 1, 2**127, 2**200 + 3]),
    st.integers(0, 2**32), st.integers(2**32, 2**90))


@settings(max_examples=80, deadline=None)
@given(SMUDGE_BOUNDS, st.sampled_from([ONE_PRIME, FIVE_PRIMES]),
       st.binary(min_size=1, max_size=8))
def test_sample_smudging_matches_reference(b, params, seed):
    fast_rng, ref_rng = CountingXof.from_seed(seed), Xof.from_seed(seed)
    fast = rg.sample_smudging(params, b, fast_rng)
    ref = from_ints(params, ref_sample_smudging(params.n, b, ref_rng))
    assert np.array_equal(fast.residues, ref.residues)
    assert continues_after_its_reads(fast_rng)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 8]), st.sampled_from([ONE_PRIME, FIVE_PRIMES]),
       st.sampled_from([(0, 0), ("3.2", "19.2"), (100, 600)]),  # sigma, bound
       SMUDGE_BOUNDS, st.binary(min_size=1, max_size=8))
def test_batched_samplers_match_stacked_references(batch, params, noise, b,
                                                   seed):
    # one stream per entry: each entry is what one call on its stream draws,
    # and each stream's next read continues after the sampler's bytes
    spec = rg.NoiseSpec.create(*noise)
    n = params.n
    cases = [
        (lambda r: rg.sample_uniform(params, r),
         lambda r: ref_sample_uniform(params, r)),
        (lambda r: rg.sample_ternary(params, r),
         lambda r: ref_sample_ternary(n, r)),
        (lambda r: rg.sample_gaussian(params, spec, r),
         lambda r: cdt_gaussian(n, rg._cdt(spec).thresholds, int(spec.bound), r)
         if spec.sigma else [0] * n),
        (lambda r: rg.sample_smudging(params, b, r),
         lambda r: ref_sample_smudging(n, b, r)),
    ]
    for fast_fn, ref_fn in cases:
        fast_rngs = [CountingXof.from_seed(seed + bytes([i]))
                     for i in range(batch)]
        ref_rngs = [Xof.from_seed(seed + bytes([i])) for i in range(batch)]
        fast = fast_fn(fast_rngs)
        ref = np.stack([from_ints(params, ref_fn(r)).residues
                        for r in ref_rngs])
        assert fast.residues.shape == (batch, len(params.primes), n)
        assert np.array_equal(fast.residues, ref)
        assert all(continues_after_its_reads(r) for r in fast_rngs)


def test_batched_smudging_refills_a_short_stream():
    # width 2b + 1 = 257 on 9-bit draws: acceptance 257/512, about 1/2, so
    # at n = 4 a few of these streams fall short in the first pass
    params, b = ring_with(4, 1), 128
    labels = [f"refill-{i}" for i in range(1024)]
    fast_rngs = [CountingXof.from_seed(label) for label in labels]
    fast = rg.sample_smudging(params, b, fast_rngs)
    assert max(r.reads for r in fast_rngs) > 1  # the refill path ran
    ref_rngs = [Xof.from_seed(label) for label in labels]
    ref = [from_ints(params, ref_sample_smudging(4, b, r)).residues
           for r in ref_rngs]
    assert np.array_equal(fast.residues, np.stack(ref))
    assert all(continues_after_its_reads(r) for r in fast_rngs)


GAUSS_RINGS = {n: ring_with(n, 2) for n in (4, 8, 16, 1024, 16384)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 8, 16, 1024]),
       st.integers(1, 3000).map(lambda x: Fraction(x, 10)),  # sigma
       st.integers(0, 50).map(lambda x: 1 + Fraction(x, 10)),  # bound/sigma
       st.binary(min_size=1, max_size=8))
@example(16384, Fraction(16, 5), Fraction(6), b"open")  # ~7 open buckets
@example(16, Fraction(1, 2), Fraction(1), b"k0")  # floor(bound) = 0
def test_sample_gaussian_matches_plain_cdt(n, sigma, ratio, seed):
    # the guide table only skips work: the values and the bytes read are
    # those of a plain 64-bit table lookup, at any sigma and bound
    spec, params = rg.NoiseSpec.create(sigma, sigma * ratio), GAUSS_RINGS[n]
    fast_rng, ref_rng = Xof.from_seed(seed), Xof.from_seed(seed)
    fast = rg.sample_gaussian(params, spec, fast_rng)
    ref = cdt_gaussian(n, rg._cdt(spec).thresholds, int(spec.bound), ref_rng)
    assert np.array_equal(fast.residues, from_ints(params, ref).residues)
    assert fast_rng.read(64) == ref_rng.read(64)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ONE_PRIME, FIVE_PRIMES]), st.data())
def test_from_coeffs_matches_python_reduction(params, data):
    # all |c| <= p takes the sign-mask path; anything larger, the division
    p = min(params.primes)
    small = st.integers(-p, p - 1)
    wide = st.one_of(small, st.sampled_from([p, -p - 1, 2**63 - 1, -(2**63)]),
                     st.integers(-(2**63), 2**63 - 1))
    values = data.draw(st.sampled_from([small, wide]))
    coeffs = data.draw(st.lists(values, min_size=params.n, max_size=params.n))
    got = rg.from_coeffs(params, np.array(coeffs, dtype=np.int64))
    got = got.residues.tolist()
    assert got == [[c % q for c in coeffs] for q in params.primes]


def test_from_coeffs_uint64_above_int64_max():
    # from_coeffs takes int64 arrays only: uint64 values >= 2^63 would wrap
    # to negative int64, so a uint64 array is refused, as are a list and
    # integers beyond int64; the oracle reduces those one at a time
    params = rg.RingParams.create(8, (4193633, 4193569))
    coeffs = np.array([2**63 + 5, 2**64 - 1, 2**63, 7, 0, 0, 0, 0],
                      dtype=np.uint64)
    for bad in (coeffs, np.stack([coeffs, coeffs]), coeffs.tolist(),
                [7] * 8, np.array(coeffs.tolist(), dtype=object)):
        with pytest.raises(TypeError, match="int64"):
            rg.from_coeffs(params, bad)
    with pytest.raises(ValueError, match="expected 8 coefficients"):
        rg.from_coeffs(params, np.zeros(7, dtype=np.int64))
    got = from_ints(params, coeffs.tolist()).residues
    assert got[:, 0].tolist() == [545476, 4028114]
    assert got.tolist() == [[c % p for c in coeffs.tolist()]
                            for p in params.primes]


# ---------------------------------------------------------------------------
# CRT lift and BFV rounding


def edge_values(q):
    return [0, 1, q // 2, q // 2 + 1, q - 1]


def lifted_cases(params):
    q = params.q
    values = st.one_of(st.sampled_from(edge_values(q)), st.integers(0, q - 1))
    return st.lists(values, min_size=params.n, max_size=params.n)


@pytest.mark.parametrize("params", [ONE_PRIME, TWO_PRIMES, FIVE_PRIMES])
def test_crt_lift_edges(params):
    q = params.q
    values = (edge_values(q) * params.n)[: params.n]
    el = from_ints(params, values)
    lifted = rg.crt_lift(el)
    want = [v - q if v > q // 2 else v for v in values]
    assert lifted.tolist() == want == ref_crt_lift(params, el.residues)
    assert list(lifted) == want
    assert lifted.dtype == (np.int64 if q < 2**62 else object)
    assert rg.crt_lift(stack([el, el])).tolist() == [want, want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_crt_lift_matches_reference(data):
    params = data.draw(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]))
    values = data.draw(lifted_cases(params))
    el = from_ints(params, values)
    assert rg.crt_lift(el).tolist() == ref_crt_lift(params, el.residues)


# One prime = 1 mod 32 per size from 17 to 30 bits. With eight of them,
# digit 7 and a switch that drops seven limbs each sum more than seven
# products, so their dot products reduce midway.
GARNER_PRIMES = sorted({ntt.prime_below(1 << bits, 16) for bits in range(17, 31)})


def ref_garner_digits(primes, x):
    """Mixed-radix digits of 0 <= x < q, least significant first."""
    out = []
    for p in primes:
        x, digit = divmod(x, p)
        out.append(digit)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_garner_digits_match_python_integers(data):
    primes = tuple(data.draw(st.lists(st.sampled_from(GARNER_PRIMES),
                                      min_size=1, max_size=8, unique=True)))
    params = rg.RingParams.create(16, primes)
    q = params.q
    edge = st.sampled_from([0, 1, q // 2 - 1, q // 2, q // 2 + 1, q - 1])
    # random residues per prime, or an edge value's residues
    residues = st.tuples(*(st.integers(0, p - 1) for p in primes))
    cols = data.draw(st.lists(
        st.one_of(residues, edge.map(lambda v: tuple(v % p for p in primes))),
        min_size=16, max_size=16))
    res = np.array(cols, dtype=np.int64).T.copy()
    lifted = rg.crt_lift(rg.RingElement(params, res))
    want = ref_crt_lift(params, res)  # the Python-integer CRT oracle
    digits, neg = rg._garner(primes, res)
    for i, v in enumerate(want):
        x = v % q
        assert digits[:, i].tolist() == ref_garner_digits(primes, x)
        assert bool(neg[i]) == (x > q // 2)
        assert lifted[i] == v
    assert lifted.tolist() == want
    k = data.draw(st.integers(1, len(primes)))
    got = rg.scale_down(rg.RingElement(params, res), rg.leading_ring(params, k))
    assert got.residues.tolist() == ref_scale_down(
        params, k, [v % q for v in want])


# Leading primes 30-bit, then a 17-bit prime, then 30-bit: dropping 1 to 3
# limbs covers a dropped 17-bit prime alone, with others, and not at all.
MIXED = rg.RingParams.create(
    16, FIVE_PRIMES.primes[:2] + ONE_PRIME.primes + FIVE_PRIMES.primes[2:3])
SHORT_TAIL = rg.RingParams.create(16, FIVE_PRIMES.primes[:1] + ONE_PRIME.primes)
SWITCH_CASES = [(MIXED, 1), (MIXED, 2), (MIXED, 3), (SHORT_TAIL, 1),
                (FIVE_PRIMES, 2), (TWO_PRIMES, 1)]


def ref_scale_down(params, k, values):
    """round(x * q'/q) mod each kept prime, x the centered lift of each
    value in [0, q), one Python integer at a time."""
    q, kept = params.q, params.primes[:k]
    qk = math.prod(kept)
    out = []
    for x in values:
        x = x - q if x > q // 2 else x
        out.append((2 * x * qk + q) // (2 * q))
    return [[v % p for v in out] for p in kept]


def switch_inputs(params, fill, data):
    q = params.q
    if fill == "zero":
        return [0] * params.n
    if fill == "top":  # every residue p - 1: the value q - 1
        return [q - 1] * params.n
    edges = st.sampled_from([1, q // 2, q // 2 + 1, q - 1])
    return data.draw(st.lists(st.one_of(edges, st.integers(0, q - 1)),
                              min_size=params.n, max_size=params.n))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SWITCH_CASES),
       st.sampled_from(["zero", "top", "uniform"]), st.data())
def test_scale_down_matches_python_rounding(case, fill, data):
    params, k = case
    values = switch_inputs(params, fill, data)
    target = rg.leading_ring(params, k)
    assert target.primes == params.primes[:k]
    got = rg.scale_down(from_ints(params, values), target)
    assert got.params == target and got.domain == rg.COEFF
    assert got.residues.tolist() == ref_scale_down(params, k, values)


def test_scale_down_keeps_everything_when_no_limb_is_dropped():
    values = list(range(FIVE_PRIMES.n))
    el = from_ints(FIVE_PRIMES, values)
    assert rg.leading_ring(FIVE_PRIMES, 5) is FIVE_PRIMES
    assert rg.scale_down(el, FIVE_PRIMES) is el
    with pytest.raises(ValueError):
        rg.leading_ring(FIVE_PRIMES, 0)
    with pytest.raises(ProtocolFailure):  # not a prefix of the basis
        rg.scale_down(el, SHORT_TAIL)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWITCH_CASES), st.integers(0, 2**32))
def test_batched_switch_and_decomposition_match_per_entry(case, seed):
    params, k = case
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-(2**62), 2**62, (3, params.n))
    coeffs[0, :4] = [0, -1, min(params.primes) - 1, -min(params.primes)]
    batch = rg.from_coeffs(params, coeffs)
    assert batch.residues.shape == (3, len(params.primes), params.n)
    target = rg.leading_ring(params, k)
    switched = rg.scale_down(batch, target)
    for row, el, sw in zip(coeffs, rg.unstack(batch), rg.unstack(switched)):
        one = rg.from_coeffs(params, row)
        assert np.array_equal(el.residues, one.residues)
        assert np.array_equal(sw.residues, rg.scale_down(one, target).residues)


@pytest.mark.parametrize("scheme", [BFV, CKKS])
def test_batched_encoders_match_per_row(scheme):
    # BFV at t = 2^100 and p = 90 takes the residue route, as CKKS does
    params = (bfv_params(t=2**100, log2_q=240) if scheme == BFV
              else ckks_params())
    rows = Xof.from_seed("rows").float_open01(3 * 16).reshape(3, 16) - 0.5
    for p in (8, 90) if scheme == BFV else (None,):
        encode = ((lambda v: encode_fixed(v, p, params)) if scheme == BFV
                  else (lambda v: encode_real(v, params)))
        batch = message_element(params, encode(rows)).residues
        assert batch.shape == (3, len(params.ring.primes), 16)
        for got, row in zip(batch, rows):
            want = message_element(params, encode(row)).residues
            assert np.array_equal(got, want)


def bfv_scheme(params, t):
    return SchemeParams(scheme=BFV, ring=params,
                        noise=rg.NoiseSpec.create("3.2"), kappa=1,
                        delta=params.q // t, t=t, dec_ring=params)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bfv_round_matches_lifted_reference(data):
    params = data.draw(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]))
    t = data.draw(st.sampled_from([2, 4, 2**8, 2**16, 2**45, 2**62, 2**63,
                                   2**64, 2**70, 2**100]))
    assume(t < params.q)
    values = data.draw(lifted_cases(params))
    scheme = bfv_scheme(params, t)
    el = from_ints(params, values)
    fast = bfv_round(scheme, el)
    assert isinstance(fast, np.ndarray)
    assert fast.dtype == (np.int64 if t <= 2**63 else object)
    slow = ref_bfv_round(t, params.q, ref_crt_lift(params, el.residues))
    assert fast.tolist() == slow


def test_bfv_round_other_t_uses_reference():
    # setup takes t = 2^k only; the rational form for any t is the tests'
    # reference, which agrees with the per-value loop, and with bfv_round
    # where setup takes t
    values = (edge_values(FIVE_PRIMES.q) * 4)[: FIVE_PRIMES.n]
    el = from_ints(FIVE_PRIMES, values)
    lifted = rg.crt_lift(el)
    for t in (257, 4097, 2**100 + 1, 256, 2**100):
        want = ref_bfv_round(t, FIVE_PRIMES.q, lifted.tolist())
        assert bfv_round_rational(t, FIVE_PRIMES.q, lifted).tolist() == want
        if t & (t - 1):
            with pytest.raises(ValueError, match=r"t = 2\^k"):
                setup(BFV, 16, sigma="3.2", t=t, primes=FIVE_PRIMES.primes)
        else:
            assert bfv_round(bfv_scheme(FIVE_PRIMES, t), el).tolist() == want


# ---------------------------------------------------------------------------
# integer aggregates


BIG_INTS = st.one_of(st.integers(-(2**62), 2**62), st.integers(-(2**200), 2**200))


@settings(max_examples=150, deadline=None)
@given(st.lists(BIG_INTS, min_size=1, max_size=10),
       st.one_of(st.integers(1, 2**70), st.sampled_from([1, 3 << 40, 2**131])))
def test_ratios_terms_floats_match_fractions(nums, den):
    r = Ratios(nums, den)
    fr = [Fraction(v, den) for v in nums]
    assert list(r) == fr
    assert r.terms() == [f"{f.numerator}/{f.denominator}" for f in fr]
    want = np.array([float(f) for f in fr])
    assert r.to_floats().tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.builds(lambda v, s: v << s, BIG_INTS,
                                                 st.integers(0, 70))),
                min_size=1, max_size=10),
       st.integers(0, 80))
def test_ratios_terms_power_of_two_denominator(nums, k):
    # zero, negative and > 2^64 numerators, on both sides of den = 2^62
    want = [Fraction(v, 1 << k) for v in nums]
    assert Ratios(nums, 1 << k).terms() == [
        f"{f.numerator}/{f.denominator}" for f in want]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(BIG_INTS, BIG_INTS), min_size=1, max_size=10),
       st.integers(1, 2**64), st.integers(1, 2**64))
def test_ratios_max_abs_diff_matches_fractions(pairs, da, db):
    a = Ratios([x for x, _ in pairs], da)
    b = Ratios([y for _, y in pairs], db)
    want = max(abs(Fraction(x, da) - Fraction(y, db)) for x, y in pairs)
    assert a.max_abs_diff(b) == want
    assert (a == b) == (want == 0)


@st.composite
def scaled_ratios(draw):
    """Numerators (zero, negative, int64 or wider), a denominator and a
    factor that may share a prime, products past 2^64, and power-of-two
    denominators past 2^1000 as the oracle's binary places of denormal
    updates give."""
    nums = draw(st.lists(st.one_of(st.just(0), BIG_INTS), min_size=1,
                         max_size=12))
    shared = draw(st.sampled_from([1, 3, 5, 2**61 - 1]))
    factor = shared * draw(st.one_of(st.integers(1, 2**90),
                                     st.sampled_from([1, 2**83 + 1])))
    den = shared * draw(st.one_of(
        st.integers(1, 2**140),
        st.builds(lambda k, parties: parties << k, st.integers(1000, 1100),
                  st.integers(1, 6))))
    return nums, den, factor


@settings(max_examples=200, deadline=None)
@given(scaled_ratios(), st.lists(BIG_INTS, min_size=12, max_size=12),
       st.one_of(st.integers(1, 2**64),
                 st.builds(lambda k: 3 << k, st.integers(1000, 1100))),
       st.integers(1, 5), st.integers(0, 12))
def test_exact_scale_ratios_match_fractions(case, others, other_den,
                                            slice_len, cut):
    nums, den, factor = case
    r = Ratios(nums, den, factor)
    fr = [Fraction(v * factor, den) for v in nums]
    terms = [f"{f.numerator}/{f.denominator}" for f in fr]
    other = Ratios(others[: len(nums)], other_den)
    gap = max(abs(a - Fraction(b, other_den)) for a, b in zip(fr, others))
    saved = exact.SLICE
    exact.SLICE = slice_len  # several slices out of a short vector
    try:
        assert list(r) == fr
        assert r.terms() == terms
        assert r.to_floats().tobytes() == np.array(
            [float(f) for f in fr]).tobytes()
        assert r.max_abs_diff(other) == gap == other.max_abs_diff(r)
        wide = Ratios([v * factor for v in nums], den)  # factor 1
        assert r == wide and r.max_abs_diff(wide) == 0
        head, tail = r[:cut], r[cut:]
        assert list(head) == fr[:cut] and tail.terms() == terms[cut:]
        assert tail.to_floats().tobytes() == r.to_floats()[cut:].tobytes()
        joined = Ratios.concat([head, tail])
        assert (joined.factor, joined.terms()) == (factor, terms)
        with pytest.raises(ValueError, match="one factor"):
            Ratios.concat([r, Ratios(nums, den, factor + 1)])
    finally:
        exact.SLICE = saved


def oracle_cfg(scheme, parties):
    inputs = PlanInputs.create(16, parties, "3.2", 0, bound="19.2",
                               t_bits=16, eps_inv_bits=12)
    return ProtocolConfig(scheme=scheme, plan_inputs=inputs, model_size=16,
                          root_seed=1, fixed_point_bits=8, rounds=1,
                          enforce_security=False)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["mbfv", "mckks"]), st.integers(1, 5),
       st.lists(dyadic_floats(top=0), min_size=16, max_size=16))
def test_cleartext_oracle_matches_reference(scheme, parties, xs):
    updates = [np.array(xs[k:] + xs[:k]) for k in range(parties)]
    cfg = oracle_cfg(scheme, parties)
    assert list(cleartext_oracle(cfg, updates)) == ref_cleartext_oracle(
        cfg, updates)


def test_oracle_fold_rescales_to_a_finer_place():
    # each update needs a finer place than the last: the running MCKKS sum
    # is shifted exactly, and past 2^61 it continues in Python ints
    cfg = oracle_cfg("mckks", 3)
    updates = [np.full(16, 0.5), np.full(16, -(2.0**-57)), np.full(16, 5e-324)]
    got = cleartext_oracle(cfg, iter(updates))
    assert got.denominator == 3 << 1074
    assert got.numerators.dtype == object
    assert list(got) == ref_cleartext_oracle(cfg, updates)
    head = cleartext_oracle(cfg, iter(updates[:2]))
    assert head.numerators.dtype == np.int64 and head.denominator == 3 << 57
    for bad in (np.full(16, 1.5), np.full(1, 0.5)):  # a short one broadcasts
        with pytest.raises(ValueError, match=r"16 values in \[-1, 1\]"):
            cleartext_oracle(cfg, iter([bad]))


def test_binary_places():
    assert binary_places(np.array([0.0, -0.0])) == 0
    assert binary_places(np.array([3.0, 0.5])) == 1
    assert binary_places(np.array([5e-324])) == 1074
    assert binary_places(np.array([2.0**60, -0.75])) == 2


# ---------------------------------------------------------------------------
# transform tables


@pytest.mark.parametrize("n", [4, 16, 1024])
def test_transform_tables_match_loop_version(n):
    assert ntt._bitrev_indices(n).tolist() == ref_bitrev(n)
    for p in primes_for(n, 60):
        fwd, bwd = ref_limb_tables(n, p)
        tabs = ntt.limb_tables(n, p)
        assert tabs.psi_brv.tolist() == fwd
        assert tabs.psi_inv_brv.tolist() == bwd



# ---------------------------------------------------------------------------
# lazy NTT kernel


def ntt_plan(n, bits, limbs):
    """The `limbs` largest primes = 1 mod 2n below 2^bits."""
    primes = []
    while len(primes) < limbs:
        primes.append(ntt.prime_below(1 << bits, n, frozenset(primes)))
    return ntt.transform_plan(n, tuple(primes))


def residues(plan, fill, seed):
    rng = np.random.default_rng(seed)
    p = p_col(plan)
    shape = (len(plan.primes), plan.n)
    if fill == "top":
        return np.broadcast_to(p - 1, shape).copy()
    if fill == "zero":
        return np.zeros(shape, dtype=np.int64)
    if fill == "edges":
        return np.choose(rng.integers(0, 3, shape), [0 * p, 0 * p + 1, p - 1])
    return rng.integers(0, p, shape)


def check_transforms(plan, res):
    kept = res.copy()
    fwd = ntt.forward(res, plan)
    assert np.array_equal(res, kept), "forward wrote to its input"
    assert fwd.dtype == np.uint32
    assert np.array_equal(fwd, ref_forward(res, plan))
    inv = ntt.inverse(res, plan)
    assert np.array_equal(res, kept), "inverse wrote to its input"
    assert inv.dtype == np.uint32
    assert np.array_equal(inv, ref_inverse(res, plan))
    assert np.array_equal(ntt.inverse(fwd, plan), res)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]),
       st.sampled_from([17, 30]), st.integers(1, 3),
       st.sampled_from(["uniform", "top", "edges"]), st.integers(0, 2**32))
@example(4, 30, 1, "top", 0)
@example(16, 30, 3, "top", 0)
@example(4096, 30, 3, "top", 0)
@example(4096, 17, 2, "edges", 1)
def test_lazy_ntt_matches_reference(n, bits, limbs, fill, seed):
    plan = ntt_plan(n, bits, limbs)
    check_transforms(plan, residues(plan, fill, seed))


@pytest.mark.parametrize("fill", ["uniform", "top"])
def test_lazy_ntt_matches_reference_at_full_size(fill):
    plan = ntt_plan(16384, 30, 5)
    check_transforms(plan, residues(plan, fill, 5))


@pytest.mark.parametrize("n,limbs,batch", [
    (2048, 2, (8,)), (2048, 2, (12,)),  # at and above the protocol's cap
    (16384, 5, (1,)), (16384, 5, (2,)), (16, 3, (2, 3))])
def test_batched_transforms_match_per_chunk_calls(n, limbs, batch):
    plan = ntt_plan(n, 30, limbs)
    rng = np.random.default_rng(n + limbs)
    res = rng.integers(0, p_col(plan), (*batch, limbs, n))
    kept = res.copy()
    for fn in (ntt.forward, ntt.inverse):
        got = fn(res, plan)
        assert np.array_equal(res, kept), "the transform wrote to its input"
        want = [fn(chunk, plan) for chunk in res.reshape(-1, limbs, n)]
        assert np.array_equal(got.reshape(-1, limbs, n), np.stack(want))
    if n == 16:
        fwd = ntt.forward(res, plan).reshape(-1, limbs, n)
        for chunk, f in zip(res.reshape(-1, limbs, n), fwd):
            assert np.array_equal(f, ref_forward(chunk, plan))


@st.composite
def batched_residues(draw):
    """A plan and residues of shape (limbs, n), (B, limbs, n) or
    (B1, B2, limbs, n); the batch axes stay short enough that a call holds
    at most 2^15 residues, or one (limbs, n) entry where that is more."""
    n = 1 << draw(st.integers(2, 14))
    limbs = draw(st.integers(1, 3))
    cap = max(1, (1 << 15) // (limbs * n))
    lead = tuple(draw(st.integers(1, min(3, cap)))
                 for _ in range(draw(st.integers(0, 2))))
    plan = ntt_plan(n, 30, limbs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return plan, rng.integers(0, p_col(plan), (*lead, limbs, n))


@settings(max_examples=60, deadline=None)
@given(batched_residues(), st.sampled_from([16, 8192, 65536]))
@example((ntt_plan(16384, 30, 2), np.zeros((1, 2, 16384), dtype=np.int64)), 16)
def test_transforms_keep_the_callers_ufunc_buffer(case, bufsize):
    plan, res = case
    *lead, k, n = res.shape
    default = [ntt.forward(res, plan), ntt.inverse(res, plan)]
    old = np.setbufsize(bufsize)
    try:
        for fn, want, ref in zip((ntt.forward, ntt.inverse), default,
                                 (ref_forward, ref_inverse)):
            got = fn(res, plan)
            assert np.getbufsize() == bufsize
            assert np.array_equal(got, want)
            assert np.array_equal(
                got.reshape(-1, k, n),
                np.stack([ref(chunk, plan) for chunk in res.reshape(-1, k, n)]))
            with pytest.raises(ParamsMismatchError):
                fn(np.zeros((*lead, k, n + 2), dtype=np.int64), plan)
            assert np.getbufsize() == bufsize
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("fn", [ntt.forward, ntt.inverse])
def test_transforms_reject_residues_off_their_plan(fn):
    # a length-2n input was once transformed into a meaningless array, and
    # n + 2 or n - 1 raised a bare ValueError from numpy
    plan = ntt_plan(2048, 30, 2)
    for shape in ((2, 4096), (3, 2, 2050), (2, 2047), (1, 2048), (2048,)):
        with pytest.raises(ParamsMismatchError, match=re.escape(f"{shape} do")):
            fn(np.zeros(shape, dtype=np.int64), plan)


@pytest.mark.parametrize("n", [4, 2048])
def test_kernel_tables_hold_shoup_pairs(n):
    plan = ntt_plan(n, 30, 2)
    for table, shoup in ((plan.w, plan.w_shoup),
                         (plan.w_inv, plan.w_inv_shoup),
                         (plan.n_inv, plan.n_inv_shoup)):
        assert table.dtype == shoup.dtype == np.uint64
        for row, srow, p in zip(table.tolist(), shoup.tolist(), plan.primes):
            assert all(w < p for w in row)
            assert srow == [(w << 32) // p for w in row]


# ---------------------------------------------------------------------------
# ring addition, subtraction and negation


def ref_add(a, b, p_col):
    return (a + b) % p_col


def ref_sub(a, b, p_col):
    return (a - b) % p_col


def ref_neg(a, p_col):
    return (-a) % p_col


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]),
       st.sampled_from(["uniform", "top", "edges", "zero"]),
       st.sampled_from(["uniform", "top", "edges", "zero"]),
       st.integers(0, 2**32))
@example(FIVE_PRIMES, "top", "top", 0)
@example(FIVE_PRIMES, "zero", "top", 0)
@example(TWO_PRIMES, "zero", "zero", 0)
def test_ring_add_sub_neg_match_modulo(params, fill_a, fill_b, seed):
    plan = ntt.transform_plan(params.n, params.primes)
    p = p_col(plan)
    a = rg.RingElement(params, residues(plan, fill_a, seed))
    b = rg.RingElement(params, residues(plan, fill_b, seed + 1))
    kept_a, kept_b = a.residues.astype(np.int64), b.residues.astype(np.int64)
    for got, want in ((rg.ring_add(a, b), ref_add(kept_a, kept_b, p)),
                      (ring_sub(a, b), ref_sub(kept_a, kept_b, p)),
                      (rg.ring_neg(a), ref_neg(kept_a, p))):
        assert got.residues.dtype == np.uint32
        assert np.array_equal(got.residues, want)
    assert np.array_equal(a.residues, kept_a) and np.array_equal(b.residues, kept_b)


# ---------------------------------------------------------------------------
# one residue form: uint32 residues, widened where a product is formed
#
# Under NumPy 2 promotion a uint32 array times a Python int below 2^32 stays
# uint32 and wraps without a word, so every product site must widen first.
# Residues at p - 1 on every limb (the value -1) are the largest factors a
# site sees; each site is checked against its own Python-integer oracle.

TOP_CASES = [ONE_PRIME, TWO_PRIMES, FIVE_PRIMES, MIXED]


def top(params):
    """The element with every residue at p - 1: the value q - 1 = -1."""
    return from_ints(params, [params.q - 1] * params.n)


def ref_products(a, b, primes):
    """[[x * y mod p]] per limb, in Python integers."""
    return [[x * y % p for x, y in zip(ra, rb)]
            for ra, rb, p in zip(a.tolist(), b.tolist(), primes)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TOP_CASES), st.data())
def test_product_sites_widen_at_p_minus_1(params, data):
    q, n, primes = params.q, params.n, params.primes
    a = top(params)
    assert (a.residues == rg.prime_column(primes) - 1).all()
    b = from_ints(params, data.draw(st.lists(
        st.one_of(st.just(q - 1), st.integers(0, q - 1)),
        min_size=n, max_size=n)))
    plan = ntt.transform_plan(n, primes)
    for x, y in ((a, a), (a, b)):
        got = ntt.pointwise(x.residues, y.residues, plan)
        assert got.tolist() == ref_products(x.residues, y.residues, primes)
        want = ring_mul_schoolbook(x, y).residues
        assert np.array_equal(rg.ring_mul(x, y).residues, want)
        assert np.array_equal(rg.ring_mul(rg.to_ntt(x), y).residues, want)

    k = data.draw(st.one_of(st.sampled_from([2**64, 2**64 - 1, q - 1]),
                            st.integers(0, 2**64)))
    for x in (a, b):
        assert rg.mul_scalar(x, k).residues.tolist() == [
            [r * k % p for r in row]
            for row, p in zip(x.residues.tolist(), primes)]

    assert rg.crt_lift(a).tolist() == [-1] * n == ref_crt_lift(params,
                                                               a.residues)
    digits, neg = rg._garner(primes, a.residues)
    assert digits.T.tolist() == [ref_garner_digits(primes, q - 1)] * n
    assert neg.all()
    assert rg.crt_lift(b).tolist() == ref_crt_lift(params, b.residues)
    for keep in range(1, len(primes)):
        got = rg.scale_down(a, rg.leading_ring(params, keep))
        assert got.residues.tolist() == ref_scale_down(params, keep,
                                                       [q - 1] * n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1.0, -1.0, 1.0 - 2.0**-53,
                                 -(1.0 - 2.0**-53), 0.5, -0.5, 0.0]),
                min_size=16, max_size=16),
       st.integers(62, 90), st.sampled_from([1, 3, 4]))
def test_encoder_residue_paths_at_their_widest(xs, p, kappa):
    # mantissas of 53 bits at shifts past 2^62 take the residue route of
    # `encode_fixed`; -2^-k at the scale 2^k of `encode_real` is -1, every
    # residue p - 1
    bfv = bfv_params(t=2**100, log2_q=240)
    pt = encode_fixed(np.array(xs), p, bfv)
    want = ref_encode(xs, 1 << p)
    assert rg.crt_lift(pt).tolist() == want
    assert np.array_equal(pt.residues,
                          from_ints(bfv.ring, want).residues)
    ckks = ckks_params(kappa)
    step = ckks.delta // kappa
    vals = [x if abs(x) != 0.5 else -1.0 / step for x in xs]
    pt = encode_real(np.array(vals), ckks)
    want = ref_encode(vals, Fraction(step))
    assert rg.crt_lift(pt).tolist() == want
    assert np.array_equal(pt.residues,
                          from_ints(ckks.ring, want).residues)


def test_ring_operations_samplers_transforms_and_decoders_are_uint32():
    params = bfv_params()
    ring, n = params.ring, params.ring.n
    rng = Xof.from_seed("uint32")
    noise = rg.NoiseSpec.create(3)
    a = rg.sample_uniform(ring, rng)
    b = rg.from_coeffs(ring, np.arange(-n // 2, n // 2, dtype=np.int64))
    plan = ntt.transform_plan(n, ring.primes)
    fa = rg.to_ntt(a)
    into = rg.zero(ring)
    rg.add_into(into, b)
    made = {
        "zero": rg.zero(ring),
        "from_coeffs": b,
        "from_coeffs, wide": rg.from_coeffs(ring, np.full(n, -2**62)),
        "mul_scalar": rg.mul_scalar(a, 2**70 + 1),
        "ring_add": rg.ring_add(a, b),
        "ring_neg": rg.ring_neg(a),
        "ring_mul": rg.ring_mul(fa, b),
        "to_ntt": fa,
        "unstack": rg.unstack(stack([a, b]))[1],
        "add_into": into,
        "scale_down": rg.scale_down(a, rg.leading_ring(ring, 1)),
        "sample_uniform": a,
        "sample_ternary": rg.sample_ternary(ring, [rng, rng]),
        "sample_gaussian": rg.sample_gaussian(ring, noise, rng),
        "sample_gaussian, sigma 0": rg.sample_gaussian(
            ring, rg.NoiseSpec.create(0, 1), rng),
        "sample_smudging": rg.sample_smudging(ring, 2**40, rng),
        "sample_smudging, b 0": rg.sample_smudging(ring, 0, rng),
        "encode_fixed": encode_fixed(np.zeros(n), 8, params),
        "encode_fixed, residues": encode_fixed(np.ones(n), 70, bfv_params(
            t=2**100, log2_q=240)),
        "encode_real": encode_real(np.zeros(n), ckks_params()),
    }
    for name, el in made.items():
        assert el.residues.dtype == np.uint32, name
    for name, arr in (("forward", ntt.forward(a.residues, plan)),
                      ("inverse", ntt.inverse(a.residues, plan)),
                      ("pointwise", ntt.pointwise(fa.residues, fa.residues,
                                                  plan))):
        assert arr.dtype == np.uint32, name

    ct = Ciphertext(c0=a, c1=b, adds_consumed=0)
    blobs = [wire.serialize_ciphertext(ct, params),
             wire.serialize_pk_share(PkShare(index=1, p0=a)),
             wire.serialize_partial_dec(PartialDecryption(index=2, h=b))]
    got = wire.deserialize_ciphertext(blobs[0], params)
    decoded = [(blobs[0], got.c0, a), (blobs[0], got.c1, b),
               (blobs[1], wire.deserialize_pk_share(blobs[1], params).p0, a),
               (blobs[2], wire.deserialize_partial_dec(blobs[2], params).h,
                b)]
    for blob, el, want in decoded:
        assert el.residues.dtype == np.uint32
        assert np.array_equal(el.residues, want.residues)
        # a view into the message, not a copy, and read-only
        assert np.shares_memory(el.residues, np.frombuffer(blob, np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            el.residues[0, 0] = 0
