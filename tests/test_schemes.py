"""Single-key BFV/CKKS: setup validation, round-trips, noise accounting."""

from fractions import Fraction

import numpy as np
import pytest

from thagg import ring as rg
from thagg.errors import (
    BoundViolationError,
    CapacityError,
    EncodingOverflowError,
    PlaintextRangeError,
    SecretAccessError,
)
from thagg.rng import Xof
from thagg.schemes import (
    BFV,
    CKKS,
    add,
    bfv_plaintext,
    dec_bfv,
    dec_ckks,
    decode_fixed,
    encode_fixed,
    encode_real,
    encrypt,
    noise_of,
    pubkeygen,
    seckeygen,
    setup,
)


def decryptability_oracle_accepts(n, t, bound, q, kappa=1):
    """Independent exact evaluation of the decryptability inequality."""
    lhs = (kappa + 1) * (2 * n + 1) * Fraction(bound)
    rhs = Fraction(q, 2 * t) - Fraction(t, 2)
    return lhs < rhs


def small_bfv(n=64, t=257, log2_q=26, kappa=1):
    return setup(BFV, n, sigma="3.2", t=t, log2_q=log2_q, kappa=kappa)


def small_ckks(n=64, eps_inv=2**10, log2_q=40, kappa=1):
    return setup(CKKS, n, sigma="3.2", eps_inv=eps_inv, log2_q=log2_q, kappa=kappa)


def keypair(params, seed="keys"):
    rng = Xof.from_seed(seed)
    sk = seckeygen(params, rng.child("sk"))
    pk = pubkeygen(params, sk, rng.child("pk"))
    return sk, pk


# ---------------------------------------------------------------------------
# setup


def test_setup_accepts_reference_config():
    params = setup(BFV, 1024, sigma="3.2", bound="19.2", t=257, log2_q=30)
    q = params.ring.q
    assert q.bit_length() == 30
    assert params.delta == q // 257
    assert decryptability_oracle_accepts(1024, 257, "19.2", q)


def test_setup_rejects_oversized_plaintext_modulus():
    # t = 2^20 at 30-bit q: the right side of the inequality is negative.
    with pytest.raises(BoundViolationError):
        setup(BFV, 1024, sigma="3.2", t=2**20, log2_q=30)


def test_setup_acceptance_matches_oracle_along_q_sizes():
    # agree with the independent oracle across a range of moduli
    n, t = 64, 257
    for bits in range(18, 30):
        try:
            params = setup(BFV, n, sigma="3.2", t=t, log2_q=bits)
            accepted, q = True, params.ring.q
        except BoundViolationError:
            accepted = False
            from thagg.ntt import select_primes

            q = 1
            for p in select_primes(n, min_bits=bits):
                q *= p
        assert accepted == decryptability_oracle_accepts(n, t, "19.2", q)


def test_setup_reports_gap_in_bits():
    with pytest.raises(BoundViolationError, match="bits|not positive"):
        setup(BFV, 256, sigma="3.2", t=4097, log2_q=20)


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
        setup(CKKS, 64, sigma="3.2", eps_inv=2**40, log2_q=30)


# ---------------------------------------------------------------------------
# keys


def test_pubkey_noise_bound_and_zero_noise_hook():
    params = small_bfv()
    rng = Xof.from_seed("pk")
    sk = seckeygen(params, rng.child("sk"))
    pk = pubkeygen(params, sk, rng.child("pk"))
    resid = rg.ring_add(rg.from_ntt(pk.p0), rg.ring_mul(sk.s, pk.p1))
    assert rg.inf_norm(rg.crt_lift(resid)) <= int(params.noise.bound)

    quiet = pubkeygen(params, sk, rng.child("pk2"), e=rg.zero(params.ring))
    resid0 = rg.ring_add(rg.from_ntt(quiet.p0), rg.ring_mul(sk.s, quiet.p1))
    assert not resid0.residues.any()


def test_pubkey_p1_is_uniformish():
    params = small_bfv(n=16, log2_q=22)
    total, count = 0, 0
    for i in range(200):
        rng = Xof.from_seed(f"pk-uniform-{i}")
        sk = seckeygen(params, rng.child("sk"))
        pk = pubkeygen(params, sk, rng.child("pk"))
        for v in rg.crt_lift(rg.from_ntt(pk.p1)):
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
        vals = [rng.uniform_below(params.t) - params.t // 2 for _ in range(params.ring.n)]
        pt = bfv_plaintext(params, vals)
        ct = encrypt(params, pk, pt, rng.child(f"enc{i}"))
        assert noise_of(params, sk, ct, pt, debug=True) <= limit


def test_bfv_roundtrip():
    params = small_bfv()
    sk, pk = keypair(params)
    rng = Xof.from_seed("roundtrip")
    for i in range(50):
        vals = [rng.uniform_below(params.t) - params.t // 2 for _ in range(params.ring.n)]
        pt = bfv_plaintext(params, vals)
        ct = encrypt(params, pk, pt, rng.child(f"e{i}"))
        assert dec_bfv(params, sk, ct).values == pt.values


def test_bfv_noiseless_ciphertext_decrypts_exactly():
    params = small_bfv()
    sk, _ = keypair(params)
    vals = [5, -3] + [0] * (params.ring.n - 2)
    msg = rg.mul_scalar(rg.from_coeffs(params.ring, vals), params.delta)
    from thagg.schemes import Ciphertext

    ct = Ciphertext(c0=msg, c1=rg.zero(params.ring), scheme=BFV,
                    adds_consumed=0, kappa=params.kappa)
    assert dec_bfv(params, sk, ct).values == vals


def test_planted_noise_boundary_is_tight():
    # dec of (delta*0 + e, 0) flips from 0 to 1 within one unit of q/(2t)
    params = small_bfv()
    sk, _ = keypair(params)
    q, t, n = params.ring.q, params.t, params.ring.n
    from thagg.schemes import Ciphertext

    def dec_first(e):
        c0 = rg.from_coeffs(params.ring, [e] + [0] * (n - 1))
        ct = Ciphertext(c0=c0, c1=rg.zero(params.ring), scheme=BFV,
                        adds_consumed=0, kappa=params.kappa)
        return dec_bfv(params, sk, ct).values[0]

    below = q // (2 * t)          # t*e/q < 1/2 -> still decrypts to 0
    above = q // (2 * t) + 1      # t*e/q >= 1/2 -> rounds away
    assert dec_first(below) == 0
    assert dec_first(above) == 1


def test_bfv_exhaustive_tiny_plaintext_space():
    # every single-coefficient message for t <= 17 at n = 4
    for t in (2, 3, 16, 17):
        params = setup(BFV, 4, sigma="3.2", t=t, log2_q=16)
        sk, pk = keypair(params, seed=f"tiny-{t}")
        rng = Xof.from_seed(f"tiny-enc-{t}")
        lo = -(t // 2) + (1 if t % 2 == 0 else 0)
        for m in range(lo, t // 2 + 1):
            pt = bfv_plaintext(params, [m, 0, 0, 0])
            ct = encrypt(params, pk, pt, rng.child(str(m)))
            assert dec_bfv(params, sk, ct).values == pt.values


def test_ckks_noiseless_roundtrip_and_fresh_error():
    params = small_ckks()
    sk, pk = keypair(params, seed="ckks")
    rng = Xof.from_seed("ckks-enc")
    w = np.array([(-1) ** i * (i / 100.0) for i in range(params.ring.n)])
    pt = encode_real(w, params)

    z = rg.zero(params.ring)
    quiet = encrypt(params, pk, pt, rng.child("q"), u=z, e0=z, e1=z)
    got = dec_ckks(params, sk, quiet)
    for v, x in zip(got.values, w):
        # only quantization remains
        assert abs(v - Fraction(x)) <= Fraction(1, 2 * params.delta)

    noisy = encrypt(params, pk, pt, rng.child("n"))
    got = dec_ckks(params, sk, noisy)
    eps = (2 * params.ring.n + 1) * params.noise.bound / params.delta
    for v, x in zip(got.values, w):
        assert abs(v - Fraction(x)) < eps + Fraction(1, 2 * params.delta)


def test_ckks_doubling_delta_halves_residual():
    # same ring, same keys, same injected randomness; only delta changes
    p1 = setup(CKKS, 64, sigma="3.2", eps_inv=2**8, log2_q=40)
    p2 = setup(CKKS, 64, sigma="3.2", eps_inv=2**9, log2_q=40)
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
        errs.append(max(abs(v - Fraction(1, 4)) for v in got.values))
    ratio = errs[1] / errs[0]
    assert Fraction(2, 5) < ratio < Fraction(3, 5)


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
    assert dec_bfv(params, sk, add(ct, zero_ct)).values == vals


def test_sum_of_eight_decrypts_to_mod_t_sum():
    L = 8
    params = small_bfv(n=64, t=257, log2_q=28, kappa=L)
    sk, pk = keypair(params, seed="sum8")
    rng = Xof.from_seed("sum8-enc")
    n, t = params.ring.n, params.t
    msgs, cts = [], []
    for i in range(L):
        vals = [rng.uniform_below(t) - t // 2 for _ in range(n)]
        msgs.append(vals)
        cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                           rng.child(f"e{i}")))
    acc = cts[0]
    for ct in cts[1:]:
        acc = add(acc, ct)
    got = dec_bfv(params, sk, acc).values
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
    pts = [bfv_plaintext(params, [rng.uniform_below(t) - t // 2 for _ in range(n)])
           for _ in range(2)]
    cts = [encrypt(params, pk, pt, rng.child(str(i))) for i, pt in enumerate(pts)]
    summed = add(cts[0], cts[1])
    # reference is the integer sum: the homomorphic identity lives above the
    # mod-t reduction, so no range check applies here
    from thagg.schemes import Plaintext

    sum_pt = Plaintext(scheme=BFV, coeffs=pts[0].coeffs + pts[1].coeffs)
    lhs = noise_of(params, sk, summed, sum_pt, debug=True)
    rhs = sum(noise_of(params, sk, ct, pt, debug=True)
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
    params = small_bfv(n=64, t=257, log2_q=28, kappa=kappa)
    sk, pk = keypair(params, seed="cap-prop")
    rng = Xof.from_seed("cap-prop-enc")
    n, t = params.ring.n, params.t
    for trial in range(10):
        msgs, cts = [], []
        for i in range(kappa + 1):
            vals = [rng.uniform_below(t) - t // 2 for _ in range(n)]
            msgs.append(vals)
            cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                               rng.child(f"{trial}/{i}")))
        acc = cts[0]
        for ct in cts[1:]:
            acc = add(acc, ct)
        assert acc.adds_consumed == kappa
        got = dec_bfv(params, sk, acc).values
        for j in range(n):
            expect = sum(m[j] for m in msgs) % t
            if expect > t // 2:
                expect -= t
            assert got[j] == expect


# ---------------------------------------------------------------------------
# fixed-point encoding


def test_encode_fixed_zero_and_dyadic():
    params = small_bfv(n=64, t=2**12 + 3, log2_q=28)
    zpt = encode_fixed(np.zeros(64), 10, params)
    assert zpt.values == [0] * 64
    pt = encode_fixed(np.full(64, 0.5), 10, params)
    assert pt.values == [512] * 64
    back = decode_fixed(pt, 10, 1)
    assert back == [Fraction(1, 2)] * 64


def test_encode_fixed_quantization_error_bound():
    params = small_bfv(n=64, t=2**12 + 3, log2_q=28)
    rng = Xof.from_seed("quant")
    w = np.array([(rng.uniform_below(2_000_001) - 1_000_000) / 1_000_000
                  for _ in range(64)])
    p = 9
    pt = encode_fixed(w, p, params)
    back = decode_fixed(pt, p, 1)
    for x, v in zip(w, back):
        assert abs(Fraction(x) - v) <= Fraction(1, 2 ** (p + 1))


def test_encode_fixed_overflow_rejected():
    params = small_bfv(n=64, t=257, log2_q=26, kappa=4)
    with pytest.raises(EncodingOverflowError):
        encode_fixed(np.ones(64), 8, params)  # 4 * 256 * 1 >= 257/2


def test_plaintext_range_checked():
    params = small_bfv()
    with pytest.raises(PlaintextRangeError):
        bfv_plaintext(params, [params.t] + [0] * (params.ring.n - 1))


# ---------------------------------------------------------------------------
# probe gating


def test_noise_probe_requires_debug_flag():
    params = small_bfv()
    sk, pk = keypair(params)
    pt = bfv_plaintext(params, [0] * params.ring.n)
    ct = encrypt(params, pk, pt, Xof.from_seed("g"))
    with pytest.raises(SecretAccessError):
        noise_of(params, sk, ct, pt)


def test_noise_probe_examples():
    params = small_bfv(kappa=8)
    sk, pk = keypair(params, seed="probe")
    rng = Xof.from_seed("probe-enc")
    n, t = params.ring.n, params.t
    zpt = bfv_plaintext(params, [0] * n)
    z = rg.zero(params.ring)
    quiet = encrypt(params, pk, zpt, rng.child("q"), u=z, e0=z, e1=z)
    assert noise_of(params, sk, quiet, zpt, debug=True) == 0

    fresh_limit = (2 * n + 1) * params.noise.bound
    L = 4
    cts = [encrypt(params, pk, zpt, rng.child(f"s{i}")) for i in range(L)]
    acc = cts[0]
    for ct in cts[1:]:
        acc = add(acc, ct)
    assert noise_of(params, sk, acc, zpt, debug=True) <= L * fresh_limit
