"""Threshold protocol pieces: CRS, shared keys, collective decryption."""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagg import ring as rg
from thagg.errors import ShareSetError, SmudgeBoundError
from thagg.planner import MBFV, MCKKS, PlanInputs, plan, smudge_bound
from thagg.rng import Xof
from thagg.schemes import (
    BFV,
    CKKS,
    PublicKey,
    SecretKey,
    add,
    bfv_plaintext,
    decryption_phase,
    encode_real,
    encrypt,
    pubkeygen,
    seckeygen,
)
from thagg.threshold import (
    SecretShare,
    SmudgeParams,
    combine_decrypt,
    combine_pk,
    crs_expand,
    finalize_bfv,
    finalize_ckks,
    gen_share,
    partial_decrypt,
    pk_share,
    reconstruct_ideal_key,
)
from thagg.schemes import setup

B192 = Fraction("19.2")


def mk_session(scheme, n, parties, lam, *, t_bits=8, eps_inv_bits=10,
               seed="session"):
    kwargs = {"t_bits": t_bits} if scheme == MBFV else {}
    if scheme == MCKKS:
        kwargs["eps_inv_bits"] = eps_inv_bits
    inputs = PlanInputs.create(n, parties, "3.2", lam, bound="19.2", **kwargs)
    report = plan(inputs, scheme, enforce_security=False)
    if scheme == MBFV:
        params = setup(BFV, n, sigma="3.2", bound="19.2", t=1 << t_bits,
                       primes=report.primes, kappa=parties,
                       mp_noise_bound=report.bounds.b_ct_mp)
    else:
        params = setup(CKKS, n, sigma="3.2", bound="19.2",
                       eps_inv=1 << eps_inv_bits, primes=report.primes,
                       kappa=parties, mp_noise_bound=report.bounds.b_ct_mp)
    root = Xof.from_seed(seed)
    crs = crs_expand(root.child("crs").read(32), params.ring)
    shares = [gen_share(params, i, root.child(f"share/{i}"))
              for i in range(1, parties + 1)]
    pkshares = [pk_share(params, sh, crs, root.child(f"pkshare/{sh.index}"))
                for sh in shares]
    cpk = combine_pk(params, pkshares, crs, parties)
    b = report.bounds
    smudge = SmudgeParams(parties=parties, b_ct=b.b_ct, b_smg=b.b_smg)
    return SimpleNamespace(params=params, report=report, root=root, crs=crs,
                           shares=shares, pkshares=pkshares, cpk=cpk,
                           smudge=smudge, parties=parties)


def no_smudging(sess):
    return replace(sess.smudge, b_ct=Fraction(0), b_smg=Fraction(0))


def open_ciphertext(sess, ct, label="dec"):
    partials = [
        partial_decrypt(sess.params, sh, ct, sess.smudge,
                        sess.root.child(f"{label}/{sh.index}"))
        for sh in sess.shares
    ]
    return combine_decrypt(sess.params, ct, partials, sess.parties), partials


# ---------------------------------------------------------------------------
# CRS


def test_crs_deterministic_across_parties():
    params = setup(BFV, 64, sigma="3.2", t=257, log2_q=26).ring
    seed = Xof.from_seed("crs-test").read(32)
    a = crs_expand(seed, params)
    b = crs_expand(seed, params)  # a second party expands independently
    assert np.array_equal(a.p1.residues, b.p1.residues)
    other = crs_expand(Xof.from_seed("other").read(32), params)
    assert not np.array_equal(a.p1.residues, other.p1.residues)


def test_crs_seed_length_checked():
    params = setup(BFV, 64, sigma="3.2", t=257, log2_q=26).ring
    with pytest.raises(ValueError):
        crs_expand(b"short", params)


def test_crs_p1_uniformish():
    params = setup(BFV, 16, sigma="3.2", t=17, log2_q=22).ring
    total, count = 0, 0
    for i in range(300):
        crs = crs_expand(Xof.from_seed(f"crs-{i}").read(32), params)
        for v in rg.crt_lift(rg.from_ntt(crs.p1)):
            total += v % params.q
            count += 1
    se = params.q / (12**0.5) / count**0.5
    assert abs(total / count - params.q / 2) <= 3 * se


# ---------------------------------------------------------------------------
# key shares


def test_pk_share_zero_noise_hook():
    sess = mk_session(MBFV, 64, 2, 0)
    sh = sess.shares[0]
    quiet = pk_share(sess.params, sh, sess.crs, Xof.from_seed("x"),
                     e=rg.zero(sess.params.ring))
    expect = rg.ring_neg(rg.ring_mul(sess.crs.p1, sh.s))
    assert np.array_equal(quiet.p0.residues, expect.residues)


def test_pk_share_noise_bound():
    sess = mk_session(MBFV, 64, 2, 0)
    bound = int(sess.params.noise.bound)
    for sh, pks in zip(sess.shares, sess.pkshares):
        resid = rg.ring_add(pks.p0, rg.ring_mul(sh.s, sess.crs.p1))
        assert rg.inf_norm(rg.crt_lift(resid)) <= bound


@pytest.mark.parametrize("parties", [2, 4, 8])
def test_combined_pk_noise_scales_with_parties(parties):
    sess = mk_session(MBFV, 64, parties, 0, seed=f"combine-{parties}")
    ideal = reconstruct_ideal_key(sess.params, sess.shares)
    resid = rg.ring_add(rg.from_ntt(sess.cpk.p0),
                        rg.ring_mul(ideal, sess.cpk.p1))
    assert rg.inf_norm(rg.crt_lift(resid)) <= parties * int(sess.params.noise.bound)


def test_combine_pk_single_party_degenerates_to_single_key():
    sess = mk_session(MBFV, 64, 1, 0, seed="solo")
    assert isinstance(sess.cpk, PublicKey)
    assert np.array_equal(rg.from_ntt(sess.cpk.p0).residues,
                          sess.pkshares[0].p0.residues)
    assert np.array_equal(sess.cpk.p1.residues, sess.crs.p1.residues)


def test_combine_pk_order_invariant():
    sess = mk_session(MBFV, 64, 4, 0, seed="perm")
    swapped = combine_pk(sess.params, list(reversed(sess.pkshares)), sess.crs,
                         sess.parties)
    assert np.array_equal(swapped.p0.residues, sess.cpk.p0.residues)


def test_combine_pk_rejects_bad_share_sets():
    sess = mk_session(MBFV, 64, 3, 0, seed="bad")
    with pytest.raises(ShareSetError):
        combine_pk(sess.params, sess.pkshares[:2], sess.crs, 3)
    dup = [sess.pkshares[0], sess.pkshares[0], sess.pkshares[1]]
    with pytest.raises(ShareSetError):
        combine_pk(sess.params, dup, sess.crs, 3)


def test_encrypt_under_cpk_ideal_key_roundtrip():
    sess = mk_session(MBFV, 64, 3, 0, seed="ideal")
    params = sess.params
    vals = [9, -4] + [0] * (params.ring.n - 2)
    pt = bfv_plaintext(params, vals)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("enc"))
    ideal = SecretKey(reconstruct_ideal_key(params, sess.shares))
    from thagg.schemes import dec_bfv

    assert dec_bfv(params, ideal, ct).values == vals


def test_every_key_is_returned_in_ntt_domain():
    sess = mk_session(MBFV, 64, 2, 0, seed="domains")
    params = sess.params
    sk = seckeygen(params, sess.root.child("sk"))
    pk = pubkeygen(params, sk, sess.root.child("pk"))
    keys = [sk.s, pk.p0, pk.p1, sess.crs.p1, sess.cpk.p0, sess.cpk.p1]
    keys += [sh.s for sh in sess.shares]
    assert all(k.domain == rg.NTT for k in keys)
    assert sess.cpk.p1 is sess.crs.p1
    # the messages stay in the coefficient domain
    assert all(pks.p0.domain == rg.COEFF for pks in sess.pkshares)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scheme=st.sampled_from([MBFV, MCKKS]))
def test_ntt_keys_match_their_coefficient_copies(seed, scheme):
    """Encryption, partial decryption and decryption give the same residues
    with the stored NTT-domain keys as with their coefficient-domain copies,
    which serve as the oracle."""
    sess = mk_session(scheme, 64, 2, 8, seed=f"copies-{seed}")
    params, rng = sess.params, Xof.from_seed(seed)
    sk = seckeygen(params, rng.child("sk"))
    pk = pubkeygen(params, sk, rng.child("pk"))
    if scheme == MBFV:
        t = params.t
        pt = bfv_plaintext(params, [rng.uniform_below(t) - t // 2 + 1
                                    for _ in range(params.ring.n)])
    else:
        pt = encode_real(rng.child("w").float_open01(params.ring.n) - 0.5,
                         params)

    def encrypt_both(key):
        ct = encrypt(params, key, pt, rng.child("e"))
        copy = PublicKey(p0=rg.from_ntt(key.p0), p1=rg.from_ntt(key.p1))
        want = encrypt(params, copy, pt, rng.child("e"))
        assert np.array_equal(ct.c0.residues, want.c0.residues)
        assert np.array_equal(ct.c1.residues, want.c1.residues)
        return ct

    ct = encrypt_both(pk)
    assert decryption_phase(params, sk, ct) == decryption_phase(
        params, SecretKey(rg.from_ntt(sk.s)), ct)
    ct = encrypt_both(sess.cpk)
    ct_ntt = replace(ct, c1=rg.to_ntt(ct.c1))  # as output_step uses it
    for sh in sess.shares:
        label = f"pdec/{sh.index}"
        got = partial_decrypt(params, sh, ct_ntt, sess.smudge,
                              rng.child(label))
        copy = SecretShare(index=sh.index, s=rg.from_ntt(sh.s))
        want = partial_decrypt(params, copy, ct, sess.smudge, rng.child(label))
        assert np.array_equal(got.h.residues, want.h.residues)


# ---------------------------------------------------------------------------
# smudging bounds


def test_smudge_bound_examples():
    assert smudge_bound(0, 100) == 100
    assert smudge_bound(32, Fraction(7)) == 65536 * 7
    b_ct = 16 * B192 * (2 * 16384 * 16 + 1)
    assert b_ct == Fraction(805307904, 5)
    b_smg = smudge_bound(128, b_ct)
    assert b_smg == 2**64 * b_ct
    assert float(b_smg) == pytest.approx(2.971e27, rel=1e-3)
    # odd lambda rounds the exponent up
    assert smudge_bound(31, 1) == 2**16


# ---------------------------------------------------------------------------
# partial and collective decryption


def test_partial_decrypt_zero_hook():
    sess = mk_session(MBFV, 64, 2, 0)
    params = sess.params
    zero_share = SecretShare(index=1, s=rg.zero(params.ring))
    pt = bfv_plaintext(params, [0] * params.ring.n)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("e"))
    h = partial_decrypt(params, zero_share, ct, no_smudging(sess),
                        Xof.from_seed("z"))
    assert not h.h.residues.any()


def test_partial_decrypt_rejects_oversized_smudging():
    sess = mk_session(MBFV, 64, 2, 0)
    params = sess.params
    pt = bfv_plaintext(params, [0] * params.ring.n)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("e"))
    huge = replace(sess.smudge, b_smg=smudge_bound(4 * params.ring.log2_q,
                                                   sess.smudge.b_ct))
    with pytest.raises(SmudgeBoundError):
        partial_decrypt(params, sess.shares[0], ct, huge, Xof.from_seed("s"))


def test_partial_decrypt_counts_parties_not_kappa():
    # kappa = 1, four shares, b_smg = 3/5 of the room under q: one smudging
    # term fits, four do not, so the check must count the parties
    params = setup(BFV, 64, sigma="3.2", t=257, log2_q=40, kappa=1)
    root = Xof.from_seed("four-shares")
    crs = crs_expand(root.child("crs").read(32), params.ring)
    shares = [gen_share(params, i, root.child(f"share/{i}"))
              for i in range(1, 5)]
    cpk = combine_pk(params, [pk_share(params, sh, crs, root.child(f"pk/{i}"))
                              for i, sh in enumerate(shares, 1)], crs, 4)
    ct = encrypt(params, cpk, bfv_plaintext(params, [0] * 64),
                 root.child("e"))
    room = Fraction(params.ring.q, 2 * params.t) - Fraction(params.t, 2)
    smudge = SmudgeParams(parties=4, b_ct=Fraction(0), b_smg=room * 3 / 5)
    for sh in shares:
        with pytest.raises(SmudgeBoundError, match="4\\*b_smg"):
            partial_decrypt(params, sh, ct, smudge, root.child("p"))
    alone = replace(smudge, parties=1)
    partial_decrypt(params, shares[0], ct, alone, root.child("p"))


def test_combine_decrypt_single_party_no_smudging_matches_single_key():
    sess = mk_session(MBFV, 64, 1, 0, seed="collapse")
    params = sess.params
    vals = [3] + [0] * (params.ring.n - 1)
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, vals),
                 sess.root.child("e"))
    part = partial_decrypt(params, sess.shares[0], ct, no_smudging(sess),
                           Xof.from_seed("p"), e_smg=[0] * params.ring.n)
    d = combine_decrypt(params, ct, [part], 1)
    single = decryption_phase(params, SecretKey(sess.shares[0].s), ct)
    assert d == single


def test_combine_decrypt_order_invariant_and_checked():
    sess = mk_session(MBFV, 64, 3, 8, seed="order")
    params = sess.params
    pt = bfv_plaintext(params, [1] * params.ring.n)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("e"))
    d, partials = open_ciphertext(sess, ct)
    d_rev = combine_decrypt(params, ct, list(reversed(partials)), 3)
    assert d == d_rev
    with pytest.raises(ShareSetError):
        combine_decrypt(params, ct, partials[:2], 3)
    with pytest.raises(ShareSetError):
        combine_decrypt(params, ct, [partials[0]] * 3, 3)


def test_opened_noise_within_aggregate_bound():
    sess = mk_session(MBFV, 64, 4, 8, seed="noise-bound")
    params = sess.params
    pk = sess.cpk
    t, n = params.t, params.ring.n
    rng = sess.root.child("msgs")
    cts, total = [], [0] * n
    for i in range(sess.parties):
        vals = [rng.uniform_below(t // 4) for _ in range(n)]
        total = [a + b for a, b in zip(total, vals)]
        cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                           sess.root.child(f"enc/{i}")))
    acc = cts[0]
    for ct in cts[1:]:
        acc = add(acc, ct)
    d, _ = open_ciphertext(sess, acc)
    q, half = params.ring.q, params.ring.half_q
    worst = 0
    for x, m in zip(d, total):
        diff = (x - params.delta * m) % q
        if diff > half:
            diff -= q
        worst = max(worst, abs(diff))
    assert worst <= sess.report.bounds.b_ct_mp


def test_share_subset_does_not_reconstruct_ideal_key():
    sess = mk_session(MBFV, 64, 4, 0, seed="subset")
    params = sess.params
    ideal = reconstruct_ideal_key(params, sess.shares)
    partial = reconstruct_ideal_key(params, sess.shares[:3])
    assert not np.array_equal(partial.residues, ideal.residues)


def test_ideal_functionality_equivalence():
    # combine_decrypt differs from the single-key pre-rounding value by
    # exactly the sum of the injected smudging terms; zero smudging: equal
    sess = mk_session(MBFV, 64, 3, 8, seed="ideal-eq")
    params = sess.params
    n, q, half = params.ring.n, params.ring.q, params.ring.half_q
    pk = sess.cpk
    pt = bfv_plaintext(params, [2] * n)
    ct = encrypt(params, pk, pt, sess.root.child("e"))
    d, partials = open_ciphertext(sess, ct)
    ideal = SecretKey(reconstruct_ideal_key(params, sess.shares))
    base = decryption_phase(params, ideal, ct)

    # recover each party's smudging from its message and secret share
    smg_total = [0] * n
    for sh, part in zip(sess.shares, partials):
        e = rg.ring_sub(part.h, rg.ring_mul(sh.s, ct.c1))
        smg_total = [a + b for a, b in zip(smg_total, rg.crt_lift(e))]
    for x, y, s in zip(d, base, smg_total):
        diff = (x - y - s) % q
        assert diff == 0

    quiet = [partial_decrypt(params, sh, ct, no_smudging(sess),
                             Xof.from_seed("q"), e_smg=[0] * n)
             for sh in sess.shares]
    assert combine_decrypt(params, ct, quiet, 3) == base


# ---------------------------------------------------------------------------
# finalize


def test_finalize_bfv_noiseless_and_scheme_guard():
    sess = mk_session(MBFV, 64, 2, 0)
    params = sess.params
    vals = [7, -7] + [0] * (params.ring.n - 2)
    d = rg.crt_lift(rg.from_coeffs(params.ring,
                                   [params.delta * v for v in vals]))
    assert finalize_bfv(params, d).values == vals
    with pytest.raises(ShareSetError):
        finalize_ckks(params, d)


def test_finalize_ckks_noiseless_exact():
    sess = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=12)
    params = sess.params
    # setup's headroom covers |m| <= 1, so +-delta is a value d can take
    d = rg.crt_lift(rg.from_coeffs(
        params.ring, [params.delta, -params.delta] + [0] * (params.ring.n - 2)))
    pt = finalize_ckks(params, d)
    assert pt.values[0] == 1 and pt.values[1] == -1


def test_finalize_ckks_doubling_delta_halves_residual():
    sess = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=12)
    params = sess.params
    noise = list(range(1000, 1000 + params.ring.n))
    d1 = rg.crt_lift(rg.from_coeffs(params.ring,
                                    [params.delta * 1 + e for e in noise]))
    err1 = max(abs(v - 1) for v in finalize_ckks(params, d1).values)
    # same additive noise at twice the scale
    sess2 = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=13)
    params2 = sess2.params
    assert params2.delta == 2 * params.delta
    d2 = rg.crt_lift(rg.from_coeffs(params2.ring,
                                    [params2.delta * 1 + e for e in noise]))
    err2 = max(abs(v - 1) for v in finalize_ckks(params2, d2).values)
    assert err2 == err1 / 2


def test_threshold_bfv_exact_small_sweep():
    # lam=16, n=1024, L=2: opened plaintext is exactly the mod-t sum
    sess = mk_session(MBFV, 1024, 2, 16, seed="bfv-e2e")
    params = sess.params
    pk = sess.cpk
    t, n = params.t, params.ring.n
    def centered(r):
        return r - t if r > t // 2 else r

    for run in range(20):
        rng = sess.root.child(f"run/{run}")
        msgs, cts = [], []
        for i in range(2):
            vals = [centered(rng.uniform_below(t)) for _ in range(n)]
            msgs.append(vals)
            cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                               rng.child(f"e{i}")))
        agg = add(cts[0], cts[1])
        partials = [partial_decrypt(params, sh, agg, sess.smudge,
                                    rng.child(f"p{sh.index}"))
                    for sh in sess.shares]
        d = combine_decrypt(params, agg, partials, 2)
        got = finalize_bfv(params, d).values
        for j in range(n):
            expect = (msgs[0][j] + msgs[1][j]) % t
            if expect > t // 2:
                expect -= t
            assert got[j] == expect


def test_threshold_ckks_accuracy_small_sweep():
    # lam=16, L=4, n=1024: per-coordinate error below b_ct_mp / delta
    parties = 4
    sess = mk_session(MCKKS, 1024, parties, 16, eps_inv_bits=10,
                      seed="ckks-e2e")
    params = sess.params
    pk = sess.cpk
    n = params.ring.n
    eps = sess.report.bounds.b_ct_mp / params.delta
    for run in range(10):
        rng = sess.root.child(f"run/{run}")
        streams = [rng.child(f"w{i}").float_open01(n) * 2.0 - 1.0
                   for i in range(parties)]
        cts = []
        for i, w in enumerate(streams):
            pt = encode_real(w / parties, params)
            cts.append(encrypt(params, pk, pt, rng.child(f"e{i}")))
        acc = cts[0]
        for ct in cts[1:]:
            acc = add(acc, ct)
        partials = [partial_decrypt(params, sh, acc, sess.smudge,
                                    rng.child(f"p{sh.index}"))
                    for sh in sess.shares]
        d = combine_decrypt(params, acc, partials, parties)
        got = finalize_ckks(params, d)
        for j in range(n):
            truth = sum(Fraction(w[j]) for w in streams) / parties
            assert abs(got.values[j] - truth) < eps
