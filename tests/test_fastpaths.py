"""Vectorized per-round paths against the scalar code they replaced.

Each reference below is the per-coefficient Python implementation (or, for
the NTT, the `%` kernel) the fast path must reproduce exactly: same
integers, and for samplers the same bytes read from the stream.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thagg import ntt
from thagg import ring as rg
from thagg.config import ProtocolConfig
from thagg.errors import (
    EncodingOverflowError,
    PlaintextRangeError,
    ProtocolFailure,
)
from thagg.exact import (
    Ratios,
    binary_places,
    scaled_round,
    scaled_round_array,
    scaled_round_residues,
)
from thagg.harness import cleartext_oracle
from thagg.planner import PlanInputs
from thagg.rng import Xof
from thagg.schemes import (
    BFV,
    CKKS,
    SchemeParams,
    _message_element,
    bfv_round,
    encode_fixed,
    encode_real,
    setup,
)

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
    q, half = params.q, params.half_q
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
    p3 = plan.p_col[:, :, None]
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
    p3 = plan.p_col[:, :, None]
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
    return (a * n_inv) % plan.p_col


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


def bfv_params(kappa=1, t=2**16, log2_q=60):
    return setup(BFV, 16, sigma="3.2", t=t, log2_q=log2_q, kappa=kappa)


def ckks_params(kappa=1):
    return setup(CKKS, 16, sigma="3.2", eps_inv=2**20, log2_q=90, kappa=kappa)


@settings(max_examples=150, deadline=None)
@given(st.lists(dyadic_floats(top=3), min_size=16, max_size=16),
       st.integers(0, 12))
def test_encode_fixed_matches_scalar_path(xs, p):
    params = bfv_params()
    assume(max(abs(x) for x in xs) * 2.0**p < 2.0**14)
    pt = encode_fixed(np.array(xs), p, params)
    assert pt.coeffs.dtype == np.int64
    assert pt.values == ref_encode(xs, 1 << p) == [
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
    assert pt.values == want
    ref = rg.mul_scalar(rg.from_coeffs(params.ring, want), params.delta)
    assert np.array_equal(_message_element(params, pt).residues, ref.residues)


@settings(max_examples=150, deadline=None)
@given(st.lists(dyadic_floats(top=0), min_size=16, max_size=16))
def test_encode_real_matches_scalar_path(xs):
    params = ckks_params()
    pt = encode_real(np.array(xs), params)
    want = ref_encode(xs, params.delta)
    assert pt.ints().tolist() == want == [
        scaled_round(x, params.delta.bit_length() - 1) for x in xs]
    ref = rg.from_coeffs(params.ring, want)
    assert np.array_equal(pt.element.residues, ref.residues)


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
    params = setup(CKKS, 64, sigma="3.2", eps_inv=2**10, log2_q=60)
    with pytest.raises(EncodingOverflowError):
        encode_real(np.array([5.2e10] + [0.0] * 63), params)
    # the bound is kappa * max|x| <= 1, compared exactly
    four = setup(CKKS, 64, sigma="3.2", eps_inv=2**10, log2_q=60, kappa=4)
    encode_real(np.array([0.25, -0.25] + [0.0] * 62), four)
    for too_big in (math.nextafter(0.25, 1.0), -math.nextafter(0.25, 1.0)):
        with pytest.raises(EncodingOverflowError):
            encode_real(np.array([too_big] + [0.0] * 63), four)


# ---------------------------------------------------------------------------
# samplers


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]),
       st.binary(min_size=1, max_size=8))
def test_sample_uniform_matches_reference(params, seed):
    fast_rng, ref_rng = Xof.from_seed(seed), Xof.from_seed(seed)
    fast = rg.sample_uniform(params, fast_rng)
    ref = rg.from_coeffs(params, ref_sample_uniform(params, ref_rng))
    assert np.array_equal(fast.residues, ref.residues)
    assert fast_rng.read(64) == ref_rng.read(64)


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
    fast_rng, ref_rng = Xof.from_seed(seed), Xof.from_seed(seed)
    fast = rg.sample_smudging(params, b, fast_rng)
    ref = rg.from_coeffs(params, ref_sample_smudging(params.n, b, ref_rng))
    assert np.array_equal(fast.residues, ref.residues)
    assert fast_rng.read(64) == ref_rng.read(64)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ONE_PRIME, FIVE_PRIMES]), st.data())
def test_from_coeffs_matches_python_reduction(params, data):
    # all |c| <= p takes the sign-mask path; anything larger, the division
    p = min(params.primes)
    small = st.integers(-p, p - 1)
    wide = st.one_of(small, st.sampled_from([p, -p - 1, 2**63 - 1, -(2**63)]),
                     st.integers(-(2**200), 2**200))
    values = data.draw(st.sampled_from([small, wide]))
    coeffs = data.draw(st.lists(values, min_size=params.n, max_size=params.n))
    got = rg.from_coeffs(params, coeffs).residues.tolist()
    assert got == [[c % q for c in coeffs] for q in params.primes]


def test_from_coeffs_uint64_above_int64_max():
    # uint64 values >= 2^63 used to wrap to negative int64 silently
    params = rg.RingParams.create(8, (4193633, 4193569))
    coeffs = np.array([2**63 + 5, 2**64 - 1, 2**63, 7, 0, 0, 0, 0],
                      dtype=np.uint64)
    got = rg.from_coeffs(params, coeffs).residues
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
    lifted = rg.crt_lift(rg.from_coeffs(params, values))
    want = [v - q if v > q // 2 else v for v in values]
    assert lifted.tolist() == want == ref_crt_lift(params, lifted.residues)
    assert [lifted[i] for i in range(params.n)] == want
    assert lifted.ints().dtype == (np.int64 if q < 2**62 else object)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_crt_lift_matches_reference(data):
    params = data.draw(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]))
    values = data.draw(lifted_cases(params))
    el = rg.from_coeffs(params, values)
    assert rg.crt_lift(el).tolist() == ref_crt_lift(params, el.residues)


def bfv_scheme(params, t):
    return SchemeParams(scheme=BFV, ring=params,
                        noise=rg.NoiseSpec.create("3.2"), kappa=1,
                        delta=params.q // t, t=t)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bfv_round_matches_lifted_reference(data):
    params = data.draw(st.sampled_from([ONE_PRIME, TWO_PRIMES, FIVE_PRIMES]))
    t = data.draw(st.sampled_from([2, 4, 2**8, 2**16, 2**45, 2**62]))
    assume(t < params.q)
    values = data.draw(lifted_cases(params))
    scheme = bfv_scheme(params, t)
    lifted = rg.crt_lift(rg.from_coeffs(params, values))
    fast = bfv_round(scheme, lifted)
    assert isinstance(fast.coeffs, np.ndarray)
    slow = ref_bfv_round(t, params.q, ref_crt_lift(params, lifted.residues))
    assert fast.values == slow


def test_bfv_round_other_t_uses_reference():
    values = (edge_values(FIVE_PRIMES.q) * 4)[: FIVE_PRIMES.n]
    lifted = rg.crt_lift(rg.from_coeffs(FIVE_PRIMES, values))
    for t in (257, 4097, 2**70, 2**100 + 1):
        got = bfv_round(bfv_scheme(FIVE_PRIMES, t), lifted)
        assert got.values == ref_bfv_round(t, FIVE_PRIMES.q, lifted.tolist())
        assert got.coeffs.dtype == (np.int64 if t < 2**63 else object)


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
    for p in ntt.select_primes(n, min_bits=60):
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
    p = plan.p_col
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
    assert fwd.dtype == np.int64
    assert np.array_equal(fwd, ref_forward(res, plan))
    inv = ntt.inverse(res, plan)
    assert np.array_equal(res, kept), "inverse wrote to its input"
    assert inv.dtype == np.int64
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
    p_col = plan.p_col
    a = rg.RingElement(params, residues(plan, fill_a, seed))
    b = rg.RingElement(params, residues(plan, fill_b, seed + 1))
    kept_a, kept_b = a.residues.copy(), b.residues.copy()
    for got, want in ((rg.ring_add(a, b), ref_add(kept_a, kept_b, p_col)),
                      (rg.ring_sub(a, b), ref_sub(kept_a, kept_b, p_col)),
                      (rg.ring_neg(a), ref_neg(kept_a, p_col))):
        assert got.residues.dtype == np.int64
        assert np.array_equal(got.residues, want)
    assert np.array_equal(a.residues, kept_a) and np.array_equal(b.residues, kept_b)
