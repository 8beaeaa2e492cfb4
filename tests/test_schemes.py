"""Single-key BFV/CKKS: setup validation, round-trips, noise accounting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thagg import ring as rg
from thagg.errors import (
    BoundViolationError,
    CapacityError,
    ConfigError,
    EncodingOverflowError,
    ParamsMismatchError,
    PlaintextRangeError,
)
from thagg.ntt import prime_below
from thagg.rng import Xof
from thagg.schemes import (
    BFV,
    CKKS,
    add,
    bfv_round,
    ckks_scale_down,
    decode_fixed,
    encode_fixed,
    encode_real,
    encrypt,
    setup,
)

from oracles import (
    bfv_plaintext,
    dec_bfv,
    dec_ckks,
    from_ints,
    from_ntt,
    inf_norm,
    noise_of,
    primes_for,
    pubkeygen,
    seckeygen,
    uniform_below,
)


def decryptability_oracle_accepts(n, t, bound, q, kappa=1):
    """Independent exact evaluation of the decryptability inequality."""
    lhs = (kappa + 1) * (2 * n + 1) * Fraction(bound)
    rhs = Fraction(q, 2 * t) - Fraction(t, 2)
    return lhs < rhs


def small_bfv(n=64, t=256, log2_q=26, kappa=1):
    return setup(BFV, n, sigma="3.2", t=t,
                 primes=primes_for(n, log2_q), kappa=kappa)


def small_ckks(n=64, eps_inv=2**10, log2_q=40, kappa=1):
    return setup(CKKS, n, sigma="3.2", eps_inv=eps_inv,
                 primes=primes_for(n, log2_q), kappa=kappa)


def keypair(params, seed="keys"):
    rng = Xof.from_seed(seed)
    sk = seckeygen(params, rng.child("sk"))
    pk = pubkeygen(params, sk, rng.child("pk"))
    return sk, pk


# ---------------------------------------------------------------------------
# setup


def test_setup_accepts_reference_config():
    params = setup(BFV, 1024, sigma="3.2", bound="19.2", t=256,
                   primes=primes_for(1024, 30))
    q = params.ring.q
    assert q.bit_length() == 30
    assert params.delta == q // 256
    assert decryptability_oracle_accepts(1024, 256, "19.2", q)


def test_setup_rejects_oversized_plaintext_modulus():
    # t = 2^20 at 30-bit q: the right side of the inequality is negative.
    with pytest.raises(BoundViolationError):
        setup(BFV, 1024, sigma="3.2", t=2**20, primes=primes_for(1024, 30))


def test_setup_acceptance_matches_oracle_along_q_sizes():
    # agree with the independent oracle across a range of moduli
    n, t = 64, 256
    for bits in range(18, 30):
        primes = primes_for(n, bits)
        try:
            setup(BFV, n, sigma="3.2", t=t, primes=primes)
            accepted = True
        except BoundViolationError:
            accepted = False
        q = math.prod(primes)
        assert accepted == decryptability_oracle_accepts(n, t, "19.2", q)


def test_setup_reports_gap_in_bits():
    with pytest.raises(BoundViolationError, match="bits|not positive"):
        setup(BFV, 256, sigma="3.2", t=4096, primes=primes_for(256, 20))


def test_setup_default_bound_is_six_sigma():
    params = small_bfv()
    assert params.noise.bound == 6 * Fraction("3.2")


def test_ckks_delta_from_eps_inv():
    params = small_ckks(eps_inv=2**10)
    # delta is a power of two at least (kappa+1)(2n+1)B * eps_inv
    ref = 2 * (2 * 64 + 1) * Fraction("19.2") * 2**10
    assert params.delta >= ref
    assert params.delta & (params.delta - 1) == 0
    assert params.delta < 2 * ref


def test_ckks_rejects_when_scale_eats_modulus():
    with pytest.raises(BoundViolationError):
        setup(CKKS, 64, sigma="3.2", eps_inv=2**40, primes=primes_for(64, 30))


def old_setup_verdict(scheme, n, bound, q, kappa, *, t=None, eps_inv=None,
                      mp=None):
    """The room inequalities setup used to state itself, kept as the
    reference: delta if they accept, else None."""
    fresh = (2 * n + 1) * bound
    capacity = (kappa + 1) * fresh
    if scheme == BFV:
        if q <= t:
            return None
        rhs = Fraction(q, 2 * t) - Fraction(t, 2)
        ok = fresh < rhs and capacity < rhs and (mp is None or mp < rhs)
        return q // t if ok else None
    delta = kappa  # kappa * 2^k, each update encoded at the shift k
    while delta < (capacity if mp is None else mp) * eps_inv:
        delta *= 2
    rhs = Fraction(q, 2)
    ok = delta + capacity < rhs and (mp is None or delta + mp < rhs)
    return delta if ok else None


# NTT-friendly primes of 10 to 29 bits for each degree the property draws
SMALL_PRIMES = {n: sorted({prime_below(1 << bits, n) for bits in range(10, 30)})
                for n in (4, 16, 64)}


@st.composite
def setup_cases(draw):
    """A small-prime modulus, a scheme and its precision, and noise bounds
    drawn relative to the old room, so that both verdicts and the equality
    edge (ratio 1) come up."""
    scheme = draw(st.sampled_from([BFV, CKKS]))
    n = draw(st.sampled_from(sorted(SMALL_PRIMES)))
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES[n]), min_size=1,
                           max_size=3, unique=True))
    q = math.prod(primes)
    kappa = draw(st.integers(1, 8))
    ratio = st.builds(Fraction, st.integers(1, 64), st.just(32))
    if scheme == BFV:
        t = 1 << draw(st.integers(1, 40))
        eps_inv = None
        room = Fraction(q, 2 * t) - Fraction(t, 2)
    else:
        t = None
        eps_inv = 1 << draw(st.integers(0, 20))
        room = Fraction(q, 2) / (eps_inv + 1)
    if room <= 0:
        room = Fraction(q)
    bound = max(Fraction(1, 2),
                room / ((kappa + 1) * (2 * n + 1)) * draw(ratio))
    mp = draw(st.one_of(st.none(), ratio.map(lambda r: room * r)))
    return scheme, n, tuple(primes), q, kappa, t, eps_inv, bound, mp


@settings(max_examples=400, deadline=None)
@given(setup_cases())
# BFV with the multiparty bound exactly at the old room: both reject
@example((BFV, 4, (193,), 193, 1, 4, None, Fraction(1, 2), Fraction(177, 8)))
# CKKS with delta + mp exactly q/2: both reject
@example((CKKS, 4, (193,), 193, 1, None, 1, Fraction(1, 2), Fraction(65, 2)))
def test_setup_verdict_matches_old_room_inequalities(case):
    scheme, n, primes, q, kappa, t, eps_inv, bound, mp = case
    want = old_setup_verdict(scheme, n, bound, q, kappa, t=t,
                             eps_inv=eps_inv, mp=mp)
    try:
        params = setup(scheme, n, sigma="0.5", bound=bound, t=t,
                       eps_inv=eps_inv, primes=primes, kappa=kappa,
                       mp_noise_bound=mp)
    except BoundViolationError as exc:
        assert want is None, exc
        assert "short by" in str(exc)
        return
    assert want == params.delta


def test_bound_messages_take_values_beyond_the_float_range():
    # t = 2^1100 above q: float(t) would overflow; the message uses log2
    with pytest.raises(BoundViolationError,
                       match=r"need 2\^1100\.00 < 2\^\d+\.\d\d; short by"):
        setup(BFV, 64, sigma="3.2", t=2**1100, primes=primes_for(64, 20))


def test_setup_takes_a_bound_above_the_gaussian_table_that_sampling_rejects():
    # setup sizes q for any bound; the sampler's table stops at 32767, and
    # drawing from a wider spec is a typed config rejection (exit 2)
    params = setup(BFV, 64, sigma="3.2", bound=40000, t=16,
                   primes=primes_for(64, 60))
    assert params.noise.bound == 40000
    with pytest.raises(ConfigError, match="the Gaussian sampler's table limit"):
        rg.sample_gaussian(params.ring, params.noise, Xof.from_seed(1))


# ---------------------------------------------------------------------------
# keys


def test_pubkey_noise_bound_and_zero_noise_hook():
    params = small_bfv()
    rng = Xof.from_seed("pk")
    sk = seckeygen(params, rng.child("sk"))
    pk = pubkeygen(params, sk, rng.child("pk"))
    resid = rg.ring_add(from_ntt(pk.p0), rg.ring_mul(sk.s, pk.p1))
    assert inf_norm(rg.crt_lift(resid).tolist()) <= int(params.noise.bound)

    quiet = pubkeygen(params, sk, rng.child("pk2"), e=rg.zero(params.ring))
    resid0 = rg.ring_add(from_ntt(quiet.p0), rg.ring_mul(sk.s, quiet.p1))
    assert not resid0.residues.any()


def test_pubkey_p1_is_uniformish():
    params = small_bfv(n=16, log2_q=22)
    total, count = 0, 0
    for i in range(200):
        rng = Xof.from_seed(f"pk-uniform-{i}")
        sk = seckeygen(params, rng.child("sk"))
        pk = pubkeygen(params, sk, rng.child("pk"))
        for v in rg.crt_lift(from_ntt(pk.p1)).tolist():
            total += v % params.ring.q
            count += 1
    q = params.ring.q
    se = q / (12**0.5) / count**0.5
    assert abs(total / count - q / 2) <= 3 * se


# ---------------------------------------------------------------------------
# encrypt / decrypt


def test_encrypt_zero_message_zero_randomness_gives_zero_ct():
    params = small_bfv()
    sk, pk = keypair(params)
    zpt = bfv_plaintext(params, [0] * params.ring.n)
    z = rg.zero(params.ring)
    ct = encrypt(params, pk, zpt, Xof.from_seed(0), u=z, e0=z, e1=z)
    assert not ct.c0.residues.any() and not ct.c1.residues.any()


def test_fresh_noise_within_worst_case_bound():
    params = small_bfv()
    sk, pk = keypair(params)
    rng = Xof.from_seed("fresh-noise")
    limit = (2 * params.ring.n + 1) * params.noise.bound
    for i in range(50):
        vals = [uniform_below(rng, params.t) - params.t // 2 + 1
                for _ in range(params.ring.n)]
        pt = bfv_plaintext(params, vals)
        ct = encrypt(params, pk, pt, rng.child(f"enc{i}"))
        assert noise_of(params, sk, ct, pt) <= limit


def test_bfv_roundtrip():
    params = small_bfv()
    sk, pk = keypair(params)
    rng = Xof.from_seed("roundtrip")
    for i in range(50):
        vals = [uniform_below(rng, params.t) - params.t // 2 + 1
                for _ in range(params.ring.n)]
        pt = bfv_plaintext(params, vals)
        ct = encrypt(params, pk, pt, rng.child(f"e{i}"))
        assert (dec_bfv(params, sk, ct).tolist()
                == rg.crt_lift(pt.element).tolist())


def test_bfv_noiseless_ciphertext_decrypts_exactly():
    params = small_bfv()
    sk, _ = keypair(params)
    vals = [5, -3] + [0] * (params.ring.n - 2)
    msg = rg.mul_scalar(from_ints(params.ring, vals), params.delta)
    from thagg.schemes import Ciphertext

    ct = Ciphertext(c0=msg, c1=rg.zero(params.ring), scheme=BFV,
                    adds_consumed=0, kappa=params.kappa)
    assert dec_bfv(params, sk, ct).tolist() == vals


def test_planted_noise_boundary_is_tight():
    # dec of (delta*0 + e, 0) flips from 0 to 1 within one unit of q/(2t)
    params = small_bfv()
    sk, _ = keypair(params)
    q, t, n = params.ring.q, params.t, params.ring.n
    from thagg.schemes import Ciphertext

    def dec_first(e):
        c0 = from_ints(params.ring, [e] + [0] * (n - 1))
        ct = Ciphertext(c0=c0, c1=rg.zero(params.ring), scheme=BFV,
                        adds_consumed=0, kappa=params.kappa)
        return dec_bfv(params, sk, ct).tolist()[0]

    below = q // (2 * t)          # t*e/q < 1/2 -> still decrypts to 0
    above = q // (2 * t) + 1      # t*e/q >= 1/2 -> rounds away
    assert dec_first(below) == 0
    assert dec_first(above) == 1


def test_bfv_exhaustive_tiny_plaintext_space():
    # every single-coefficient message for t <= 32 at n = 4
    for t in (2, 4, 16, 32):
        params = setup(BFV, 4, sigma="3.2", t=t, primes=primes_for(4, 16))
        sk, pk = keypair(params, seed=f"tiny-{t}")
        rng = Xof.from_seed(f"tiny-enc-{t}")
        lo = -(t // 2) + (1 if t % 2 == 0 else 0)
        for m in range(lo, t // 2 + 1):
            pt = bfv_plaintext(params, [m, 0, 0, 0])
            ct = encrypt(params, pk, pt, rng.child(str(m)))
            assert (dec_bfv(params, sk, ct).tolist()
                    == rg.crt_lift(pt.element).tolist())


def test_ckks_noiseless_roundtrip_and_fresh_error():
    params = small_ckks()
    sk, pk = keypair(params, seed="ckks")
    rng = Xof.from_seed("ckks-enc")
    w = np.array([(-1) ** i * (i / 100.0) for i in range(params.ring.n)])
    pt = encode_real(w, params)

    z = rg.zero(params.ring)
    quiet = encrypt(params, pk, pt, rng.child("q"), u=z, e0=z, e1=z)
    got = dec_ckks(params, sk, quiet)
    for v, x in zip(got, w):
        # only quantization remains
        assert abs(v - Fraction(x)) <= Fraction(1, 2 * params.delta)

    noisy = encrypt(params, pk, pt, rng.child("n"))
    got = dec_ckks(params, sk, noisy)
    eps = (2 * params.ring.n + 1) * params.noise.bound / params.delta
    for v, x in zip(got, w):
        assert abs(v - Fraction(x)) < eps + Fraction(1, 2 * params.delta)


def test_ckks_doubling_delta_halves_residual():
    # same ring, same keys, same injected randomness; only delta changes
    p1 = setup(CKKS, 64, sigma="3.2", eps_inv=2**8, primes=primes_for(64, 40))
    p2 = setup(CKKS, 64, sigma="3.2", eps_inv=2**9, primes=primes_for(64, 40))
    assert p2.delta == 2 * p1.delta and p1.ring == p2.ring
    sk, pk = keypair(p1, seed="dd")
    rng = Xof.from_seed("dd-draws")
    u = rg.sample_ternary(p1.ring, rng)
    e0 = rg.sample_gaussian(p1.ring, p1.noise, rng)
    e1 = rg.sample_gaussian(p1.ring, p1.noise, rng)
    w = np.full(64, 0.25)

    errs = []
    for params in (p1, p2):
        pt = encode_real(w, params)
        ct = encrypt(params, pk, pt, rng, u=u, e0=e0, e1=e1)
        got = dec_ckks(params, sk, ct)
        errs.append(max(abs(v - Fraction(1, 4)) for v in got))
    ratio = errs[1] / errs[0]
    assert Fraction(2, 5) < ratio < Fraction(3, 5)


@pytest.mark.parametrize("entries", [None, 3])
def test_encrypt_draws_u_then_e0_then_e1_from_each_stream(entries):
    # The harness passes encrypt its streams, so encrypt alone fixes the
    # draw order. No transcript shows it: MBFV opens exactly, and MCKKS
    # rounds fresh noise away at q'. One stream, or one per batch entry.
    params = small_bfv()
    _, pk = keypair(params, seed="order")
    n = params.ring.n
    shape = (n,) if entries is None else (entries, n)
    pt = encode_fixed(np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape),
                      4, params)

    def streams():
        root = Xof.from_seed("order-draws")
        return (root.child("enc") if entries is None
                else [root.child(f"enc/{c}") for c in range(entries)])

    got = encrypt(params, pk, pt, streams())
    rng = streams()
    u = rg.sample_ternary(params.ring, rng)
    e0 = rg.sample_gaussian(params.ring, params.noise, rng)
    e1 = rg.sample_gaussian(params.ring, params.noise, rng)
    want = encrypt(params, pk, pt, None, u=u, e0=e0, e1=e1)
    assert np.array_equal(got.c0.residues, want.c0.residues)
    assert np.array_equal(got.c1.residues, want.c1.residues)


# ---------------------------------------------------------------------------
# additions


def test_add_identity_at_plaintext_level():
    params = small_bfv(kappa=2)
    sk, pk = keypair(params)
    rng = Xof.from_seed("addid")
    vals = [7, -2] + [0] * (params.ring.n - 2)
    ct = encrypt(params, pk, bfv_plaintext(params, vals), rng.child("a"))
    zero_ct = encrypt(params, pk, bfv_plaintext(params, [0] * params.ring.n),
                      rng.child("b"))
    assert dec_bfv(params, sk, add(ct, zero_ct)).tolist() == vals


def test_sum_of_eight_decrypts_to_mod_t_sum():
    L = 8
    params = small_bfv(n=64, t=256, log2_q=28, kappa=L)
    sk, pk = keypair(params, seed="sum8")
    rng = Xof.from_seed("sum8-enc")
    n, t = params.ring.n, params.t
    msgs, cts = [], []
    for i in range(L):
        vals = [uniform_below(rng, t) - t // 2 + 1 for _ in range(n)]
        msgs.append(vals)
        cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                           rng.child(f"e{i}")))
    acc = cts[0]
    for ct in cts[1:]:
        acc = add(acc, ct)
    got = dec_bfv(params, sk, acc).tolist()
    for j in range(n):
        expect = sum(m[j] for m in msgs) % t
        if expect > t // 2:
            expect -= t
        assert got[j] == expect


def test_noise_subadditivity():
    params = small_bfv(kappa=4)
    sk, pk = keypair(params, seed="sub")
    rng = Xof.from_seed("sub-enc")
    n, t = params.ring.n, params.t
    pts = [bfv_plaintext(params, [uniform_below(rng, t) - t // 2 + 1
                                  for _ in range(n)])
           for _ in range(2)]
    cts = [encrypt(params, pk, pt, rng.child(str(i))) for i, pt in enumerate(pts)]
    summed = add(cts[0], cts[1])
    # reference is the integer sum: the homomorphic identity lives above the
    # mod-t reduction, so no range check applies here
    from thagg.schemes import Plaintext

    sum_pt = Plaintext(BFV, rg.ring_add(pts[0].element, pts[1].element))
    lhs = noise_of(params, sk, summed, sum_pt)
    rhs = sum(noise_of(params, sk, ct, pt)
              for ct, pt in zip(cts, pts))
    assert lhs <= rhs


def test_capacity_enforced():
    params = small_bfv(kappa=1)
    sk, pk = keypair(params, seed="cap")
    rng = Xof.from_seed("cap-enc")
    zpt = bfv_plaintext(params, [0] * params.ring.n)
    a = encrypt(params, pk, zpt, rng.child("a"))
    b = encrypt(params, pk, zpt, rng.child("b"))
    ab = add(a, b)  # one addition: allowed
    with pytest.raises(CapacityError):
        add(ab, a)


def test_exact_correctness_up_to_capacity():
    # any fold of kappa additions over fresh ciphertexts decrypts exactly
    kappa = 4
    params = small_bfv(n=64, t=256, log2_q=28, kappa=kappa)
    sk, pk = keypair(params, seed="cap-prop")
    rng = Xof.from_seed("cap-prop-enc")
    n, t = params.ring.n, params.t
    for trial in range(10):
        msgs, cts = [], []
        for i in range(kappa + 1):
            vals = [uniform_below(rng, t) - t // 2 + 1 for _ in range(n)]
            msgs.append(vals)
            cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                               rng.child(f"{trial}/{i}")))
        acc = cts[0]
        for ct in cts[1:]:
            acc = add(acc, ct)
        assert acc.adds_consumed == kappa
        got = dec_bfv(params, sk, acc).tolist()
        for j in range(n):
            expect = sum(m[j] for m in msgs) % t
            if expect > t // 2:
                expect -= t
            assert got[j] == expect


# ---------------------------------------------------------------------------
# fixed-point encoding


def test_encode_fixed_zero_and_dyadic():
    params = small_bfv(n=64, t=2**12, log2_q=28)
    zpt = encode_fixed(np.zeros(64), 10, params)
    assert rg.crt_lift(zpt.element).tolist() == [0] * 64
    pt = encode_fixed(np.full(64, 0.5), 10, params)
    assert rg.crt_lift(pt.element).tolist() == [512] * 64
    back = decode_fixed(rg.crt_lift(pt.element), 10, 1)
    assert list(back) == [Fraction(1, 2)] * 64


def test_encode_fixed_quantization_error_bound():
    params = small_bfv(n=64, t=2**12, log2_q=28)
    rng = Xof.from_seed("quant")
    w = np.array([(uniform_below(rng, 2_000_001) - 1_000_000) / 1_000_000
                  for _ in range(64)])
    p = 9
    pt = encode_fixed(w, p, params)
    back = decode_fixed(rg.crt_lift(pt.element), p, 1)
    for x, v in zip(w, back):
        assert abs(Fraction(x) - v) <= Fraction(1, 2 ** (p + 1))


def test_encode_fixed_overflow_rejected():
    params = small_bfv(n=64, t=256, log2_q=26, kappa=4)
    with pytest.raises(EncodingOverflowError):
        encode_fixed(np.ones(64), 8, params)  # 4 * 256 * 1 >= 256/2


def test_plaintext_range_checked():
    params = small_bfv()
    with pytest.raises(PlaintextRangeError):
        bfv_plaintext(params, [params.t] + [0] * (params.ring.n - 1))


@pytest.mark.parametrize("scheme", [BFV, CKKS])
def test_decoders_take_only_their_own_rings(scheme):
    # two limbs, one kept for collective decryption: a decoder takes an
    # element of either ring, and nothing else. On another ring of the same
    # n it would read that ring's modulus and open its 5s to garbage.
    n = 64
    primes = primes_for(n, 56)
    kw = {"t": 256} if scheme == BFV else {"eps_inv": 2**10}
    params = setup(scheme, n, sigma="3.2", primes=primes, dec_limbs=1, **kw)
    assert len(params.dec_ring.primes) == 1 < len(primes)
    decode = bfv_round if scheme == BFV else ckks_scale_down
    for ring in (params.ring, params.dec_ring):
        assert len(decode(params, from_ints(ring, [5] * n))) == n
    other = rg.RingParams.create(n, (prime_below(1 << 20, n),))
    assert other.primes[0] not in primes
    with pytest.raises(ParamsMismatchError):
        decode(params, from_ints(other, [5] * n))


def test_bfv_plaintext_rejects_non_integers():
    params = small_bfv(n=16, t=256, log2_q=26)
    for bad in ([2.7] * 16, np.full(16, 2.7), np.zeros(16),
                [Fraction(1, 2)] + [0] * 15, [2] * 15 + [2.0]):
        with pytest.raises(TypeError):
            bfv_plaintext(params, bad)
    ints = [2, -3, np.int64(128), 2**70 % 5] + [0] * 12
    assert (rg.crt_lift(bfv_plaintext(params, ints).element).tolist()
            == [2, -3, 128, 4] + [0] * 12)
    assert (rg.crt_lift(bfv_plaintext(params, np.arange(16)).element).tolist()
            == list(range(16)))


# ---------------------------------------------------------------------------
# noise probe


def test_noise_probe_examples():
    params = small_bfv(kappa=8)
    sk, pk = keypair(params, seed="probe")
    rng = Xof.from_seed("probe-enc")
    n, t = params.ring.n, params.t
    zpt = bfv_plaintext(params, [0] * n)
    z = rg.zero(params.ring)
    quiet = encrypt(params, pk, zpt, rng.child("q"), u=z, e0=z, e1=z)
    assert noise_of(params, sk, quiet, zpt) == 0

    fresh_limit = (2 * n + 1) * params.noise.bound
    L = 4
    cts = [encrypt(params, pk, zpt, rng.child(f"s{i}")) for i in range(L)]
    acc = cts[0]
    for ct in cts[1:]:
        acc = add(acc, ct)
    assert noise_of(params, sk, acc, zpt) <= L * fresh_limit
