"""Ring arithmetic: oracle equivalence, CRT, samplers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagg import ntt
from thagg import ring as rg
from thagg import rng as rng_module
from thagg.errors import (
    ConfigError,
    DomainMismatchError,
    KeystreamError,
    LengthMismatchError,
    ParamsMismatchError,
)
from thagg.ring import (
    COEFF,
    NTT,
    NoiseSpec,
    RingParams,
    add_into,
    crt_lift,
    ring_add,
    ring_mul,
    ring_neg,
    sample_gaussian,
    sample_smudging,
    sample_ternary,
    sample_uniform,
    to_ntt,
    unstack,
    zero,
)
from thagg.rng import Xof

from oracles import (
    box_muller_gaussian,
    cdt_threshold_bounds,
    chacha20_block,
    chacha20_keystream,
    from_ints,
    from_ntt,
    half_q,
    inf_norm,
    ring_mul_schoolbook,
    ring_sub,
    stack,
    uniform_below,
)


def params_for(n, bits=17, count=1):
    primes = []
    limit = 1 << bits
    while len(primes) < count:
        p = ntt.prime_below(limit, n, frozenset(primes))
        assert p is not None
        primes.append(p)
    return RingParams.create(n, tuple(primes))


def rand_element(params, seed):
    return sample_uniform(params, Xof.from_seed(seed))


def big_convolution_oracle(params, a, b):
    """Integer negacyclic convolution of lifted representatives, mod (x^n+1, q)."""
    n, q = params.n, params.q
    av, bv = crt_lift(a).tolist(), crt_lift(b).tolist()
    acc = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k >= n:
                acc[k - n] -= av[i] * bv[j]
            else:
                acc[k] += av[i] * bv[j]
    return [v % q for v in acc]


# ---------------------------------------------------------------------------
# addition


def test_add_identity_and_inverse():
    params = params_for(8)
    a = rand_element(params, 1)
    assert np.array_equal(ring_add(a, zero(params)).residues, a.residues)
    s = ring_add(a, ring_neg(a))
    assert not s.residues.any()


def test_add_matches_bigint_oracle():
    params = params_for(8, bits=17, count=2)
    a, b = rand_element(params, 2), rand_element(params, 3)
    got = crt_lift(ring_add(a, b)).tolist()
    q, half = params.q, half_q(params)
    for g, x, y in zip(got, crt_lift(a).tolist(), crt_lift(b).tolist()):
        v = (x + y) % q
        if v > half:
            v -= q
        assert g == v


def test_add_rejects_mismatches():
    pa, pb = params_for(8), params_for(16)
    with pytest.raises(ParamsMismatchError):
        ring_add(rand_element(pa, 1), rand_element(pb, 1))
    a, b = rand_element(pa, 1), to_ntt(rand_element(pa, 2))
    with pytest.raises(DomainMismatchError):
        ring_add(a, b)


# ---------------------------------------------------------------------------
# multiplication


def test_mul_identity():
    params = params_for(8)
    a = rand_element(params, 4)
    identity = from_ints(params, [1] + [0] * (params.n - 1))
    assert np.array_equal(ring_mul(a, identity).residues, a.residues)


def test_negacyclic_wraparound():
    # x^3 * x = x^4 = -1 at n=4: the constant polynomial p-1 in each limb.
    params = params_for(4)
    x3 = from_ints(params, [0, 0, 0, 1])
    x1 = from_ints(params, [0, 1, 0, 0])
    prod = ring_mul(x3, x1)
    expect = np.zeros_like(prod.residues)
    expect[:, 0] = np.array(params.primes) - 1
    assert np.array_equal(prod.residues, expect)


def test_schoolbook_hand_convolution():
    # (1 + x) * x = x + x^2 at n=4 over the single prime 17.
    params = RingParams.create(4, (17,))
    a = from_ints(params, [1, 1, 0, 0])
    b = from_ints(params, [0, 1, 0, 0])
    c = ring_mul_schoolbook(a, b)
    assert c.residues.tolist() == [[0, 1, 1, 0]]


def test_schoolbook_zero_and_commutativity():
    params = params_for(8, count=2)
    a, b = rand_element(params, 5), rand_element(params, 6)
    assert not ring_mul_schoolbook(a, zero(params)).residues.any()
    ab = ring_mul_schoolbook(a, b)
    ba = ring_mul_schoolbook(b, a)
    assert np.array_equal(ab.residues, ba.residues)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_ntt_equals_schoolbook_and_bigint(n):
    # from n = 32 on, the largest primes below 2^30: the lazy kernel's edge
    params = params_for(n, bits=30 if n >= 32 else 17, count=2)
    rng = Xof.from_seed(f"mul-oracle-{n}")
    for _ in range(60):
        a = sample_uniform(params, rng)
        b = sample_uniform(params, rng)
        fast = ring_mul(a, b)
        slow = ring_mul_schoolbook(a, b)
        assert np.array_equal(fast.residues, slow.residues)
        lifted = [v % params.q for v in crt_lift(fast).tolist()]
        assert lifted == big_convolution_oracle(params, a, b)


@settings(max_examples=60, deadline=None)
@given(
    n_pow=st.sampled_from([4, 8, 16]),
    seed_a=st.integers(0, 2**32),
    seed_b=st.integers(0, 2**32),
)
def test_mul_oracle_property(n_pow, seed_a, seed_b):
    params = params_for(n_pow)
    a, b = rand_element(params, seed_a), rand_element(params, seed_b)
    assert np.array_equal(
        ring_mul(a, b).residues, ring_mul_schoolbook(a, b).residues
    )


@pytest.mark.parametrize("n", [4, 16, 64])
def test_batched_ring_ops_match_schoolbook_and_single_calls(n):
    params = params_for(n, bits=30 if n >= 32 else 17, count=2)
    rng = Xof.from_seed(f"batched-mul-{n}")
    a = [sample_uniform(params, rng) for _ in range(3)]
    b = [sample_uniform(params, rng) for _ in range(3)]
    got = ring_mul(stack(a), stack(b))
    assert got.residues.shape == (3, 2, n) and got.domain == COEFF
    for g, x, y in zip(unstack(got), a, b):
        assert np.array_equal(g.residues, ring_mul_schoolbook(x, y).residues)
    # a batch times one transformed element, as every key product is
    key = to_ntt(b[0])
    for g, x in zip(unstack(ring_mul(to_ntt(stack(a)), key)), a):
        want = ring_mul_schoolbook(x, b[0]).residues
        assert np.array_equal(g.residues, want)
    # and one element added to every entry of a batch
    for g, x in zip(unstack(ring_add(stack(a), b[0])), a):
        assert np.array_equal(g.residues, ring_add(x, b[0]).residues)
    for op, args in ((ring_add, (a, b)), (ring_sub, (a, b)), (ring_neg, (a,))):
        batched = unstack(op(*(stack(els) for els in args)))
        for g, *els in zip(batched, *args):
            assert np.array_equal(g.residues, op(*els).residues)


def test_add_into_matches_ring_add_in_place():
    # into a batch entry, as the aggregator folds a chunk into its row: the
    # batch's own array is written, every other entry is left as it was
    params = params_for(8, count=2)
    a, b, c = (rand_element(params, seed) for seed in (3, 4, 5))
    batch = stack([a, b])
    res = batch.residues
    add_into(unstack(batch)[1], c)
    assert batch.residues is res
    assert np.array_equal(res[0], a.residues)
    assert np.array_equal(res[1], ring_add(b, c).residues)
    with pytest.raises(DomainMismatchError):
        add_into(a, to_ntt(c))
    with pytest.raises(ParamsMismatchError):
        add_into(a, rand_element(params_for(8, count=1), 6))
    # an element into a batch would be added to every entry, and a batch
    # into an entry or into a batch of another size cannot fit: each is
    # refused by name, the accumulator left as it was
    three = stack([a, b, c])
    for acc, other in ((three, c), (a, three), (batch, three), (three, batch)):
        was = acc.residues.copy()
        with pytest.raises(LengthMismatchError, match="batch shapes"):
            add_into(acc, other)
        assert np.array_equal(acc.residues, was)


def test_batches_of_different_shapes_do_not_broadcast():
    # (1, k, n) against (3, k, n) and (2, k, n) against (3, k, n) are
    # refused by name (exit 3), whichever comes first, in either domain
    params = params_for(8, count=2)
    els = [rand_element(params, seed) for seed in range(3)]
    three = stack(els)
    for lead in (1, 2):
        other = stack(els[:lead])
        for op, x, y in ((ring_add, other, three), (ring_add, three, other),
                         (ring_mul, other, three), (ring_mul, three, other),
                         (ring_mul, to_ntt(other), to_ntt(three))):
            with pytest.raises(LengthMismatchError, match="batch shapes"):
                op(x, y)


def test_ntt_domain_flags_and_roundtrip():
    params = params_for(16, count=2)
    a = rand_element(params, 7)
    f = to_ntt(a)
    assert f.domain == NTT and a.domain == COEFF
    back = from_ntt(f)
    assert np.array_equal(back.residues, a.residues)
    # mul accepts mixed domains and returns coefficient domain
    b = rand_element(params, 8)
    assert np.array_equal(
        ring_mul(f, b).residues, ring_mul(a, b).residues
    )


def test_expansion_factor_bound():
    # ||a*b||_inf <= n * ||a||_inf * ||b||_inf for ternary * bounded inputs,
    # with q large enough that nothing wraps.
    params = params_for(16, bits=25, count=2)
    rng = Xof.from_seed("expansion")
    spec = NoiseSpec.create("3.2")
    for _ in range(50):
        a = sample_ternary(params, rng)
        b = sample_gaussian(params, spec, rng)
        prod = ring_mul(a, b)
        na, nb = inf_norm(crt_lift(a).tolist()), inf_norm(crt_lift(b).tolist())
        assert inf_norm(crt_lift(prod).tolist()) <= params.n * na * nb


# ---------------------------------------------------------------------------
# CRT lift


def test_crt_lift_roundtrip():
    params = params_for(8, count=3)
    rng = Xof.from_seed("crt")
    half = half_q(params)
    for _ in range(20):
        coeffs = [uniform_below(rng, params.q) - half for _ in range(params.n)]
        # shift into the canonical window (-q/2, q/2]
        coeffs = [c + params.q if c <= -half else c for c in coeffs]
        assert crt_lift(from_ints(params, coeffs)).tolist() == coeffs


def test_crt_lift_single_prime_is_center_shift():
    params = RingParams.create(4, (17,))
    el = from_ints(params, [0, 5, 9, 16])
    # 9 > 17/2 -> 9-17 = -8; 16 -> -1
    assert crt_lift(el).tolist() == [0, 5, -8, -1]


def test_crt_lift_two_prime_hand_case():
    # residues (16, 96) mod {17, 97} reconstruct to -1
    params = RingParams.create(4, (17, 97))
    el = zero(params)
    el.residues[0, 0] = 16
    el.residues[1, 0] = 96
    assert crt_lift(el).tolist()[0] == -1


def test_inf_norm():
    assert inf_norm([0, 0, 0]) == 0
    assert inf_norm([-3, 2, 1]) == 3
    params = params_for(8)
    t = sample_ternary(params, Xof.from_seed("t"))
    assert inf_norm(crt_lift(t).tolist()) <= 1
    rng = Xof.from_seed("norm")
    vals = [uniform_below(rng, 10**12) - 5 * 10**11 for _ in range(64)]
    assert inf_norm(vals) == max(abs(v) for v in vals)


# ---------------------------------------------------------------------------
# samplers


def test_xof_reads_in_pieces_equal_one_read():
    # pieces inside one 64-byte block, across block edges, and empty ones
    sizes = [0, 1, 7, 8184, 1, 3, 8192, 20000, 0, 5, 16383]
    whole = Xof.from_seed("pieces").read(sum(sizes))
    rng = Xof.from_seed("pieces")
    pieces = [rng.read(size) for size in sizes]
    assert [type(p) for p in pieces] == [bytearray] * len(sizes)
    assert [len(p) for p in pieces] == sizes
    assert b"".join(pieces) == whole
    # the ChaCha20 keystream under the stream's key
    assert whole == chacha20_keystream(rng.key, len(whole))


RFC_KEY = bytes(range(32))


def test_chacha20_oracle_matches_rfc8439_vectors():
    # section 2.3.2: one block at counter 1
    block = chacha20_block(RFC_KEY, 1, bytes.fromhex("000000090000004a00000000"))
    assert block == bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
    # section 2.4.2: the keystream from counter 1 encrypts the sunscreen text
    text = (b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it.")
    stream = chacha20_keystream(RFC_KEY, len(text),
                                bytes.fromhex("000000000000004a00000000"), 1)
    assert bytes(a ^ b for a, b in zip(text, stream)) == bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42874d")


WINDOW = 3 << 16  # three 64 KiB pieces of one stream, held by the oracle
EDGES = [0, 1, 63, 64, 65, 127, 128, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
         (1 << 16) + 63, (1 << 17) - 64, 1 << 17, (1 << 17) + 1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 1 << 17)),
                min_size=1, max_size=12))
def test_xof_reads_equal_the_oracle(sizes):
    # reads front to back, each starting where the one before it ended, at
    # and across the 64-byte block and 64 KiB piece edges
    rng = Xof.from_seed("reads")
    stream = chacha20_keystream(rng.key, WINDOW)
    pos = 0
    for size in sizes:
        size = min(size, WINDOW - pos)
        assert rng.read(size) == stream[pos : pos + size]
        pos += size


def test_xof_matches_cryptography_chacha20():
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    counter_and_nonce = bytes(16)  # block 0, zero nonce
    for label in ("a", "b"):
        rng = Xof.from_seed(label)
        algorithm = ciphers.algorithms.ChaCha20(rng.key, counter_and_nonce)
        stream = ciphers.Cipher(algorithm, None).encryptor()
        assert rng.read(200_000) == stream.update(bytes(200_000))


def test_missing_libcrypto_symbol_is_a_keystream_error(monkeypatch):
    monkeypatch.setitem(rng_module._PROTOTYPES, "EVP_no_such_cipher",
                        (None, []))
    with pytest.raises(KeystreamError, match="EVP_no_such_cipher"):
        rng_module._bind()


def test_xof_stream_ends_at_2_38_bytes():
    # the 32-bit block counter would wrap after 2^38 bytes
    rng = Xof.from_seed("end")
    rng._pos = 2**38 - 10
    assert len(rng.read(10)) == 10
    assert rng.read(0) == b""
    with pytest.raises(KeystreamError):
        rng.read(1)
    rng = Xof.from_seed("end")
    rng._pos = 2**38 - 10
    with pytest.raises(KeystreamError):
        rng.read(11)
    assert len(rng.read(10)) == 10  # the refused read took nothing
    with pytest.raises(KeystreamError):
        rng.read(-1)


def test_uniform_determinism_and_seed_separation():
    params = params_for(16, bits=20, count=2)
    a = sample_uniform(params, Xof.from_seed(99))
    b = sample_uniform(params, Xof.from_seed(99))
    c = sample_uniform(params, Xof.from_seed(100))
    assert np.array_equal(a.residues, b.residues)
    assert not np.array_equal(a.residues, c.residues)


def test_uniform_mean():
    # pooled mean over 10^4 draws at n=16, q ~ 2^40: within 3 standard errors
    # of q/2 (uniform on [0, q) has std q/sqrt(12)).
    primes = []
    for bits in (20, 21):
        primes.append(ntt.prime_below(1 << bits, 16, frozenset(primes)))
    params = RingParams.create(16, tuple(primes))
    assert 39 <= params.log2_q <= 41
    rng = Xof.from_seed("uniform-stats")
    total, count = 0, 0
    for _ in range(10_000 // 16):
        el = sample_uniform(params, rng)
        for v in crt_lift(el).tolist():
            total += v % params.q
            count += 1
    mean = total / count
    se = params.q / (12**0.5) / count**0.5
    assert abs(mean - params.q / 2) <= 3 * se


def test_ternary_support_and_frequencies():
    params = params_for(1024)
    rng = Xof.from_seed("ternary-stats")
    counts = {-1: 0, 0: 0, 1: 0}
    for _ in range(100_000 // 1024 + 1):
        for v in crt_lift(sample_ternary(params, rng)).tolist():
            assert v in counts
            counts[v] += 1
    total = sum(counts.values())
    for v in counts.values():
        assert abs(v / total - 1 / 3) < 0.02


def test_ternary_chi_square():
    # 262,144 draws against 1/3 each; 13.82 is the 0.999 quantile of
    # chi-square with 2 degrees of freedom
    params = params_for(16384)
    rng = Xof.from_seed("ternary-chi2")
    draws = np.concatenate([crt_lift(sample_ternary(params, rng))
                            for _ in range(16)])
    counts = np.bincount(draws + 1)
    expected = draws.size / 3
    assert counts.size == 3
    assert ((counts - expected) ** 2 / expected).sum() < 13.82


def test_gaussian_support_and_variance():
    params = params_for(1024)
    spec = NoiseSpec.create("3.2", "19.2")
    rng = Xof.from_seed("gauss-stats")
    total_sq, count, seen_max = 0, 0, 0
    for _ in range(100_000 // 1024 + 1):
        for v in crt_lift(sample_gaussian(params, spec, rng)).tolist():
            assert -19 <= v <= 19
            total_sq += v * v
            count += 1
            seen_max = max(seen_max, abs(v))
    var = total_sq / count
    assert abs(var - 3.2**2) / 3.2**2 < 0.05


def test_gaussian_sigma_zero():
    params = params_for(8)
    for bound in (0, 5):
        rng = Xof.from_seed(1)
        el = sample_gaussian(params, NoiseSpec.create(0, bound), rng)
        assert not el.residues.any()
        assert rng.read(8) == Xof.from_seed(1).read(8)  # reads nothing


def test_gaussian_bound_below_one_draws_zeros():
    # floor(bound) = 0 leaves one value; the n prefixes are still read
    params = params_for(16)
    rng = Xof.from_seed(2)
    el = sample_gaussian(params, NoiseSpec.create("0.5", "0.9"), rng)
    assert not el.residues.any()
    ref = Xof.from_seed(2)
    ref.read(2 * params.n)
    assert rng.read(8) == ref.read(8)


@pytest.mark.parametrize("sigma, bound", [
    ("3.2", "19.2"),  # every config's noise
    ("0.5", "3"),     # tails below 2^-64: thresholds that round to 0, 2^64
    ("1.5", "4.7"),   # a bound that is no integer
])
def test_cdt_thresholds_match_exact_cdf(sigma, bound):
    # each threshold is 2^64 * CDF rounded, so within one unit of the exact
    # value, which Taylor series in Fractions bracket to 2^-128
    got = rg._cdt(NoiseSpec.create(sigma, bound)).thresholds.tolist()
    exact = cdt_threshold_bounds(sigma, bound)
    assert len(got) == len(exact) == 2 * int(Fraction(bound))
    for t, (lo, hi) in zip(got, exact):
        assert hi - lo < Fraction(1, 2**40)
        assert hi - 1 <= t <= lo + 1 and t < 2**64


def test_cdt_guide_table_at_sigma_3_2():
    cdt = rg._cdt(NoiseSpec.create("3.2", "19.2"))
    assert cdt.guide.shape == (1 << 16,) and cdt.guide.dtype == np.int16
    assert (cdt.guide == rg._OPEN).sum() == 28
    # the distribution is symmetric, so u -> 2^64 - 1 - u mirrors the table
    mirror = cdt.guide[::-1]
    assert np.array_equal(cdt.guide,
                          np.where(mirror == rg._OPEN, rg._OPEN, -mirror))
    closed = cdt.guide[cdt.guide != rg._OPEN]
    # P(k <= -14) < 2^-16: no bucket lies wholly below k = -13
    assert closed.min() == -13 and closed.max() == 13


def test_gaussian_chi_square_against_table():
    # 262,144 draws against the table's own probabilities; |k| >= 13 are
    # pooled so every bin expects > 5. 54.05 is the 0.999 quantile of
    # chi-square with 26 degrees of freedom.
    spec = NoiseSpec.create("3.2", "19.2")
    edges = [0] + rg._cdt(spec).thresholds.tolist() + [2**64]
    probs = np.array([(b - a) / 2**64 for a, b in zip(edges, edges[1:])])
    params = params_for(16384)
    rng = Xof.from_seed("gauss-chi2")
    draws = np.concatenate([
        crt_lift(sample_gaussian(params, spec, rng))
        for _ in range(16)])
    counts = np.bincount(np.clip(draws, -13, 13) + 13, minlength=27)
    expected = np.concatenate([[probs[:7].sum()], probs[7:32],
                               [probs[32:].sum()]]) * draws.size
    assert counts.sum() == draws.size and expected.min() > 5
    assert ((counts - expected) ** 2 / expected).sum() < 54.05


def test_gaussian_moments_match_box_muller():
    # the rounded continuous Gaussian has variance sigma^2 + 1/12, the
    # discrete one sigma^2 (to 1e-80 at sigma = 3.2): close moments
    spec = NoiseSpec.create("3.2", "19.2")
    params = params_for(16384)
    rng = Xof.from_seed("gauss-moments")
    cdt = np.concatenate([
        crt_lift(sample_gaussian(params, spec, rng))
        for _ in range(8)]).astype(np.float64)
    bm = box_muller_gaussian(cdt.size, spec,
                             Xof.from_seed("bm-moments")).astype(np.float64)
    assert abs(cdt.mean()) < 0.03 and abs(bm.mean()) < 0.03
    assert abs(cdt.var() - 3.2**2) < 0.02 * 3.2**2
    assert abs(bm.var() - (3.2**2 + 1 / 12)) < 0.02 * 3.2**2
    assert abs((cdt**4).mean() / (bm**4).mean() - 1) < 0.05


def test_noise_spec_default_bound():
    spec = NoiseSpec.create("3.2")
    assert spec.bound == 6 * spec.sigma
    with pytest.raises(ValueError):
        NoiseSpec.create(2, 1)


def test_gaussian_table_cap():
    # the sampler's table holds |k| <= MAX_NOISE_BOUND; a wider spec is
    # still a spec (setup takes any bound), but sampling it is refused
    top = rg.MAX_NOISE_BOUND
    params = params_for(8)
    wide = NoiseSpec.create(1, Fraction(2 * top + 1, 2))  # floor = top
    drawn = crt_lift(sample_gaussian(params, wide, Xof.from_seed(3))).tolist()
    assert max(map(abs, drawn)) <= 10
    for sigma, bound in ((1, top + 1), (6000, None)):
        with pytest.raises(ConfigError, match="below 32768, the Gaussian "
                           "sampler's table limit"):
            sample_gaussian(params, NoiseSpec.create(sigma, bound),
                            Xof.from_seed(3))


def test_smudging_support_and_mean():
    # q > 2^91 > 2 * bound, so the lift returns the drawn integers
    params = params_for(16, bits=30, count=3)
    bound = 2**70
    rng = Xof.from_seed("smudge-stats")
    total, count = 0, 0
    for _ in range(10_000 // 16):
        for v in crt_lift(sample_smudging(params, bound, rng)).tolist():
            assert abs(v) <= bound
            total += v
            count += 1
    # uniform on [-b, b] has std b/sqrt(3)
    se = bound / (3**0.5) / count**0.5
    assert abs(total / count) <= 3 * se


@pytest.mark.parametrize("bound, bins, quantile", [
    (100, 201, 267.54),   # a bin per value, one-byte draws
    (2**70, 32, 61.10),   # equal-width bins, draws of two 64-bit words
])
def test_smudging_chi_square(bound, bins, quantile):
    # 65,536 draws uniform on [-b, b] in bins of exactly counted integers;
    # the quantile is chi-square's 0.999 one with bins - 1 degrees of freedom
    params = params_for(16384, bits=30, count=3)
    rng = Xof.from_seed("smudge-chi2")
    width = 2 * bound + 1
    values = [v for _ in range(4)
              for v in crt_lift(sample_smudging(params, bound, rng)).tolist()]
    counts = np.bincount([(v + bound) * bins // width for v in values])
    # bin k holds the x in [0, width) with x * bins // width = k
    edges = [-(-k * width // bins) for k in range(bins + 1)]
    expected = np.array([float(Fraction(hi - lo, width)) for lo, hi
                         in zip(edges, edges[1:])]) * len(values)
    assert counts.size == bins and expected.min() > 5
    assert ((counts - expected) ** 2 / expected).sum() < quantile


def test_smudging_zero_bound():
    params = params_for(8)
    zeros = sample_smudging(params, 0, Xof.from_seed(1))
    assert crt_lift(zeros).tolist() == [0] * 8


def test_sampler_reproducibility():
    params = params_for(32)
    spec = NoiseSpec.create("3.2")
    for fn in (
        lambda x: sample_ternary(params, x),
        lambda x: sample_gaussian(params, spec, x),
    ):
        a = fn(Xof.from_seed("rep"))
        b = fn(Xof.from_seed("rep"))
        assert np.array_equal(a.residues, b.residues)
    a = sample_smudging(params, 10**30, Xof.from_seed("s"))
    b = sample_smudging(params, 10**30, Xof.from_seed("s"))
    assert np.array_equal(a.residues, b.residues)


def test_ring_params_validation():
    with pytest.raises(ValueError):
        RingParams.create(3, (17,))
    with pytest.raises(ValueError):
        RingParams.create(4, (19,))  # 19 != 1 mod 8
    with pytest.raises(ValueError):
        RingParams.create(4, (17, 17))


def test_ring_params_rejects_primes_from_2_to_the_30():
    # 2147483713 = 1 mod 16 is prime, but above 2^30 the lazy NTT's values
    # leave 32 bits, so its products would be silently wrong.
    assert ntt.is_prime(2147483713) and 2147483713 % 16 == 1
    with pytest.raises(ValueError, match="2\\^30"):
        RingParams.create(8, (2147483713,))
    largest = ntt.prime_below(1 << 30, 8, frozenset())
    assert RingParams.create(8, (largest,)).primes == (largest,)


def test_sub():
    params = params_for(8)
    a, b = rand_element(params, 1), rand_element(params, 2)
    d = ring_sub(a, b)
    assert np.array_equal(ring_add(d, b).residues, a.residues)
