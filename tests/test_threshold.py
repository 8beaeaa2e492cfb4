"""Threshold protocol pieces: CRS, shared keys, collective decryption."""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thagg import ring as rg
from thagg.errors import (
    ParamsMismatchError,
    PlaintextRangeError,
    ProtocolFailure,
    ShareSetError,
    SmudgeBoundError,
)
from thagg.ntt import prime_below
from thagg.planner import (MBFV, MCKKS, PlanInputs, mp_bounds, plan,
                           smudge_bound, switch_noise)
from thagg.rng import Xof
from thagg.schemes import (
    BFV,
    CKKS,
    PublicKey,
    SchemeParams,
    add,
    bfv_round,
    ckks_scale_down,
    encode_real,
    encrypt,
    setup,
)
from thagg.threshold import (
    SecretShare,
    SmudgeParams,
    _check_smudge_fits,
    check_parties,
    combine_decrypt,
    combine_pk,
    crs_expand,
    gen_share,
    partial_decrypt,
    pk_share,
    switch_c0,
)

from oracles import (
    SecretKey,
    bfv_plaintext,
    dec_bfv,
    decryption_phase,
    from_ints,
    from_ntt,
    half_q,
    inf_norm,
    primes_for,
    pubkeygen,
    reconstruct_ideal_key,
    ring_sub,
    seckeygen,
    uniform_below,
)

B192 = Fraction("19.2")


def mk_session(scheme, n, parties, lam, *, t_bits=8, eps_inv_bits=10,
               seed="session", switched=False):
    kwargs = {"t_bits": t_bits} if scheme == MBFV else {}
    if scheme == MCKKS:
        kwargs["eps_inv_bits"] = eps_inv_bits
    inputs = PlanInputs.create(n, parties, "3.2", lam, bound="19.2", **kwargs)
    report = plan(inputs, scheme, enforce_security=False)
    # switched: partial decryptions at the plan's q', as the harness runs them
    dec_limbs = len(report.dec_primes) if switched else None
    if scheme == MBFV:
        params = setup(BFV, n, sigma="3.2", bound="19.2", t=1 << t_bits,
                       primes=report.primes, kappa=parties,
                       mp_noise_bound=report.bounds.b_ct_mp,
                       dec_limbs=dec_limbs)
    else:
        params = setup(CKKS, n, sigma="3.2", bound="19.2",
                       eps_inv=1 << eps_inv_bits, primes=report.primes,
                       kappa=parties, mp_noise_bound=report.bounds.b_ct_mp,
                       dec_limbs=dec_limbs)
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
        partial_decrypt(sess.params, sh, ct.c1, sess.smudge,
                        sess.root.child(f"{label}/{sh.index}"))
        for sh in sess.shares
    ]
    return (combine_decrypt(sess.params, ct.c0, partials, sess.parties),
            partials)


# ---------------------------------------------------------------------------
# CRS


def test_crs_deterministic_across_parties():
    params = setup(BFV, 64, sigma="3.2", t=256, primes=primes_for(64, 26)).ring
    seed = Xof.from_seed("crs-test").read(32)
    a = crs_expand(seed, params)
    b = crs_expand(seed, params)  # a second party expands independently
    assert np.array_equal(a.residues, b.residues)
    other = crs_expand(Xof.from_seed("other").read(32), params)
    assert not np.array_equal(a.residues, other.residues)


def test_crs_seed_length_checked():
    params = setup(BFV, 64, sigma="3.2", t=256, primes=primes_for(64, 26)).ring
    with pytest.raises(ValueError):
        crs_expand(b"short", params)


def test_crs_p1_uniformish():
    params = setup(BFV, 16, sigma="3.2", t=16, primes=primes_for(16, 22)).ring
    total, count = 0, 0
    for i in range(300):
        crs = crs_expand(Xof.from_seed(f"crs-{i}").read(32), params)
        for v in rg.crt_lift(from_ntt(crs)).tolist():
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
    expect = rg.ring_neg(rg.ring_mul(sess.crs, sh.s))
    assert np.array_equal(quiet.p0.residues, expect.residues)


def test_pk_share_noise_bound():
    sess = mk_session(MBFV, 64, 2, 0)
    bound = int(sess.params.noise.bound)
    for sh, pks in zip(sess.shares, sess.pkshares):
        resid = rg.ring_add(pks.p0, rg.ring_mul(sh.s, sess.crs))
        assert inf_norm(rg.crt_lift(resid).tolist()) <= bound


@pytest.mark.parametrize("parties", [2, 4, 8])
def test_combined_pk_noise_scales_with_parties(parties):
    sess = mk_session(MBFV, 64, parties, 0, seed=f"combine-{parties}")
    ideal = reconstruct_ideal_key(sess.params, sess.shares)
    resid = rg.ring_add(from_ntt(sess.cpk.p0),
                        rg.ring_mul(ideal, sess.cpk.p1))
    assert (inf_norm(rg.crt_lift(resid).tolist())
            <= parties * int(sess.params.noise.bound))


def test_combine_pk_single_party_degenerates_to_single_key():
    sess = mk_session(MBFV, 64, 1, 0, seed="solo")
    assert isinstance(sess.cpk, PublicKey)
    assert np.array_equal(from_ntt(sess.cpk.p0).residues,
                          sess.pkshares[0].p0.residues)
    assert np.array_equal(sess.cpk.p1.residues, sess.crs.residues)


def test_combine_pk_order_invariant():
    sess = mk_session(MBFV, 64, 4, 0, seed="perm")
    swapped = combine_pk(sess.params, list(reversed(sess.pkshares)), sess.crs,
                         sess.parties)
    assert np.array_equal(swapped.p0.residues, sess.cpk.p0.residues)


# Party sets other than {1, 2, 3} for L = 3, by party index: out of range,
# a duplicate, a missing party, and one too many.
BAD_PARTY_SETS = [(1, 2, 4), (1, 1, 2), (1, 2), (1, 2, 3, 3)]


def pick(items, indices):
    """The contributions of the parties `indices`, relabelled where an
    index has no contribution of its own."""
    by_index = {it.index: it for it in items}
    return [by_index.get(i, replace(items[-1], index=i)) for i in indices]


def test_check_parties_accepts_exactly_one_of_each():
    check_parties([3, 1, 2], 3, "share")
    check_parties([1], 1, "share")
    for bad in BAD_PARTY_SETS + [(0, 1, 2), (), (2, 3, 1, 3)]:
        with pytest.raises(ShareSetError) as info:
            check_parties(bad, 3, "share")
        assert isinstance(info.value, ProtocolFailure)  # exit 3
        assert str(info.value) == (
            f"need one share from each of parties 1..3, got {sorted(bad)}")


def test_combine_pk_rejects_bad_share_sets():
    sess = mk_session(MBFV, 64, 3, 0, seed="bad")
    for indices in BAD_PARTY_SETS:
        with pytest.raises(ShareSetError):
            combine_pk(sess.params, pick(sess.pkshares, indices), sess.crs, 3)


def test_encrypt_under_cpk_ideal_key_roundtrip():
    sess = mk_session(MBFV, 64, 3, 0, seed="ideal")
    params = sess.params
    vals = [9, -4] + [0] * (params.ring.n - 2)
    pt = bfv_plaintext(params, vals)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("enc"))
    ideal = SecretKey(reconstruct_ideal_key(params, sess.shares))
    assert dec_bfv(params, ideal, ct).tolist() == vals


def test_every_key_is_returned_in_ntt_domain():
    sess = mk_session(MBFV, 64, 2, 0, seed="domains")
    params = sess.params
    sk = seckeygen(params, sess.root.child("sk"))
    pk = pubkeygen(params, sk, sess.root.child("pk"))
    keys = [sk.s, pk.p0, pk.p1, sess.crs, sess.cpk.p0, sess.cpk.p1]
    keys += [sh.s for sh in sess.shares]
    assert all(k.domain == rg.NTT for k in keys)
    assert sess.cpk.p1 is sess.crs
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
        pt = bfv_plaintext(params, [uniform_below(rng, t) - t // 2 + 1
                                    for _ in range(params.ring.n)])
    else:
        pt = encode_real(rng.child("w").float_open01(params.ring.n) - 0.5,
                         params)

    def encrypt_both(key):
        ct = encrypt(params, key, pt, rng.child("e"))
        copy = PublicKey(p0=from_ntt(key.p0), p1=from_ntt(key.p1))
        want = encrypt(params, copy, pt, rng.child("e"))
        assert np.array_equal(ct.c0.residues, want.c0.residues)
        assert np.array_equal(ct.c1.residues, want.c1.residues)
        return ct

    ct = encrypt_both(pk)
    stored = decryption_phase(params, sk, ct)
    copied = decryption_phase(params, SecretKey(from_ntt(sk.s)), ct)
    assert rg.crt_lift(stored).tolist() == rg.crt_lift(copied).tolist()
    ct = encrypt_both(sess.cpk)
    c1_ntt = rg.to_ntt(ct.c1)  # as output_step uses it
    for sh in sess.shares:
        label = f"pdec/{sh.index}"
        got = partial_decrypt(params, sh, c1_ntt, sess.smudge,
                              rng.child(label))
        copy = SecretShare(index=sh.index, s=from_ntt(sh.s))
        want = partial_decrypt(params, copy, ct.c1, sess.smudge,
                               rng.child(label))
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
    h = partial_decrypt(params, zero_share, ct.c1, no_smudging(sess),
                        Xof.from_seed("z"))
    assert not h.h.residues.any()


def test_unsmudged_share_gives_away_the_key_share():
    # the premise of smudging: with every limb kept (no modulus switch) and
    # no smudging noise, h_i = s_i * c1, so anyone holding the share and the
    # ciphertext divides c1 out pointwise in the NTT domain. With the
    # planner's b_smg the same division gives no ternary element.
    sess = mk_session(MBFV, 1024, 2, 16, seed="recover")
    params, share = sess.params, sess.shares[0]
    ring = params.ring
    assert params.dec_ring == ring
    pt = bfv_plaintext(params, [1] * ring.n)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("e"))
    c1_hat = rg.to_ntt(ct.c1).residues
    assert c1_hat.all()  # no NTT value of c1 is zero at this seed
    c1_inv = np.array([[pow(int(v), -1, p) for v in row]
                       for row, p in zip(c1_hat, ring.primes)], dtype=np.int64)

    def divide_out_c1(h):
        h_hat = rg.to_ntt(h).residues
        quot = rg.RingElement(ring, h_hat * c1_inv % rg.prime_column(ring.primes),
                              rg.NTT)
        return rg.crt_lift(from_ntt(quot))

    bare = partial_decrypt(params, share, ct.c1, sess.smudge, None,
                           e_smg=rg.zero(ring))
    s = divide_out_c1(bare.h)
    assert set(s.tolist()) == {-1, 0, 1}
    assert np.array_equal(s, rg.crt_lift(from_ntt(share.s)))
    assert sess.smudge.b_smg > 1
    smudged = partial_decrypt(params, share, ct.c1, sess.smudge,
                              sess.root.child("pd"))
    assert np.abs(divide_out_c1(smudged.h)).max() > 1


@pytest.mark.parametrize("switched", [False, True])
def test_smudging_width_of_a_share(switched):
    # the same share with and without its smudging e: at q (D = 1) the two
    # differ by e exactly; rounded to q' = q/D they differ by e/D +- 1, and
    # somewhere by at least b_smg/(2D) - 1, which fails with probability at
    # most 2^-n (each |e_j| < b_smg/2 with probability 1/2)
    sess = mk_session(MBFV, 1024, 3, 16, seed=f"width-{switched}",
                      switched=switched)
    params, share, b_smg = sess.params, sess.shares[0], sess.smudge.b_smg
    drop = params.ring.q // params.dec_ring.q
    assert (drop > 1) == switched
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, [1] * 1024),
                 sess.root.child("e"))
    e = rg.sample_smudging(params.ring, b_smg, sess.root.child("smg"))
    h = partial_decrypt(params, share, ct.c1, sess.smudge, None, e_smg=e).h
    h0 = partial_decrypt(params, share, ct.c1, sess.smudge, None,
                         e_smg=rg.zero(params.ring)).h
    diff = rg.crt_lift(ring_sub(h, h0)).tolist()
    if not switched:
        assert diff == rg.crt_lift(e).tolist()
        return
    assert all(-b_smg / drop - 1 <= Fraction(v) <= b_smg / drop + 1
               for v in diff)
    assert max(abs(v) for v in diff) >= b_smg / (2 * drop) - 1


def test_partial_decrypt_rejects_oversized_smudging():
    sess = mk_session(MBFV, 64, 2, 0)
    params = sess.params
    pt = bfv_plaintext(params, [0] * params.ring.n)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("e"))
    huge = replace(sess.smudge, b_smg=smudge_bound(4 * params.ring.log2_q,
                                                   sess.smudge.b_ct))
    with pytest.raises(SmudgeBoundError):
        partial_decrypt(params, sess.shares[0], ct.c1, huge,
                        Xof.from_seed("s"))


def test_partial_decrypt_counts_parties_not_kappa():
    # kappa = 1, four shares, b_smg = 3/5 of the room under q: one smudging
    # term fits, four do not, so the check must count the parties
    params = setup(BFV, 64, sigma="3.2", t=256,
                   primes=primes_for(64, 40), kappa=1)
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
            partial_decrypt(params, sh, ct.c1, smudge, root.child("p"))
    alone = replace(smudge, parties=1)
    partial_decrypt(params, shares[0], ct.c1, alone, root.child("p"))


def test_smudge_message_takes_values_beyond_the_float_range():
    # t = 2^1100: the decode bound 2 t b + t^2 is far beyond a float
    ring = setup(BFV, 16, sigma="3.2", t=256, primes=primes_for(16, 40)).ring
    params = SchemeParams(scheme=BFV, ring=ring,
                          noise=rg.NoiseSpec.create("3.2"), kappa=1,
                          delta=1, t=2**1100, dec_ring=ring)
    smudge = SmudgeParams(parties=2, b_ct=Fraction(0), b_smg=Fraction(1))
    with pytest.raises(SmudgeBoundError, match=r"2\*b_smg .*q > 2\^2200\.00"):
        _check_smudge_fits(params, smudge)


SMUDGE_PRIMES = sorted({prime_below(1 << bits, 16) for bits in range(8, 30)})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_smudge_check_matches_old_room_inequality(data):
    # reference: the per-scheme room the check used to state itself
    scheme = data.draw(st.sampled_from([BFV, CKKS]))
    primes = tuple(data.draw(st.lists(st.sampled_from(SMUDGE_PRIMES),
                                      min_size=1, max_size=3, unique=True)))
    ring = rg.RingParams.create(16, primes)
    q = ring.q
    if scheme == BFV:
        t = data.draw(st.integers(2, 1 << data.draw(st.integers(1, 40))))
        delta = q // t
        room = Fraction(q, 2 * t) - Fraction(t, 2)
    else:
        t = None
        delta = 1 << data.draw(st.integers(0, q.bit_length()))
        room = Fraction(q, 2) - delta
    params = SchemeParams(scheme=scheme, ring=ring,
                          noise=rg.NoiseSpec.create("3.2"), kappa=1,
                          delta=delta, t=t, dec_ring=ring)
    parties = data.draw(st.integers(1, 16))
    scale = room if room > 0 else Fraction(q)
    b_ct = scale * Fraction(data.draw(st.integers(0, 64)), 64)
    b_smg = scale * Fraction(data.draw(st.integers(0, 64)), 64 * parties)
    smudge = SmudgeParams(parties=parties, b_ct=b_ct, b_smg=b_smg)
    if b_ct + parties * b_smg < room:
        _check_smudge_fits(params, smudge)
    else:
        with pytest.raises(SmudgeBoundError, match=f"{parties}\\*b_smg"):
            _check_smudge_fits(params, smudge)


def test_combine_decrypt_single_party_no_smudging_matches_single_key():
    sess = mk_session(MBFV, 64, 1, 0, seed="collapse")
    params = sess.params
    vals = [3] + [0] * (params.ring.n - 1)
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, vals),
                 sess.root.child("e"))
    part = partial_decrypt(params, sess.shares[0], ct.c1, no_smudging(sess),
                           Xof.from_seed("p"), e_smg=rg.zero(params.ring))
    d = combine_decrypt(params, ct.c0, [part], 1)
    single = decryption_phase(params, SecretKey(sess.shares[0].s), ct)
    assert rg.crt_lift(d).tolist() == rg.crt_lift(single).tolist()


def test_combine_decrypt_order_invariant_and_checked():
    sess = mk_session(MBFV, 64, 3, 8, seed="order")
    params = sess.params
    pt = bfv_plaintext(params, [1] * params.ring.n)
    ct = encrypt(params, sess.cpk, pt, sess.root.child("e"))
    d, partials = open_ciphertext(sess, ct)
    d_rev = combine_decrypt(params, ct.c0, list(reversed(partials)), 3)
    assert rg.crt_lift(d).tolist() == rg.crt_lift(d_rev).tolist()
    with pytest.raises(ShareSetError):
        combine_decrypt(params, ct.c0, partials[:2], 3)
    with pytest.raises(ShareSetError):
        combine_decrypt(params, ct.c0, [partials[0]] * 3, 3)
    for indices in BAD_PARTY_SETS:
        with pytest.raises(ShareSetError):
            combine_decrypt(params, ct.c0, pick(partials, indices), 3)


def test_opened_noise_within_aggregate_bound():
    sess = mk_session(MBFV, 64, 4, 8, seed="noise-bound")
    params = sess.params
    pk = sess.cpk
    t, n = params.t, params.ring.n
    rng = sess.root.child("msgs")
    cts, total = [], [0] * n
    for i in range(sess.parties):
        vals = [uniform_below(rng, t // 4) for _ in range(n)]
        total = [a + b for a, b in zip(total, vals)]
        cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                           sess.root.child(f"enc/{i}")))
    acc = cts[0]
    for ct in cts[1:]:
        acc = add(acc, ct)
    d, _ = open_ciphertext(sess, acc)
    q, half = params.ring.q, half_q(params.ring)
    worst = 0
    for x, m in zip(rg.crt_lift(d).tolist(), total):
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
    n, q, half = params.ring.n, params.ring.q, half_q(params.ring)
    pk = sess.cpk
    pt = bfv_plaintext(params, [2] * n)
    ct = encrypt(params, pk, pt, sess.root.child("e"))
    d, partials = open_ciphertext(sess, ct)
    ideal = SecretKey(reconstruct_ideal_key(params, sess.shares))
    base = rg.crt_lift(decryption_phase(params, ideal, ct))

    # recover each party's smudging from its message and secret share
    smg_total = [0] * n
    for sh, part in zip(sess.shares, partials):
        e = ring_sub(part.h, rg.ring_mul(sh.s, ct.c1))
        smg_total = [a + b for a, b in zip(smg_total, rg.crt_lift(e).tolist())]
    for x, y, s in zip(rg.crt_lift(d).tolist(), base.tolist(), smg_total):
        diff = (x - y - s) % q
        assert diff == 0

    quiet = [partial_decrypt(params, sh, ct.c1, no_smudging(sess),
                             Xof.from_seed("q"), e_smg=rg.zero(params.ring))
             for sh in sess.shares]
    assert (rg.crt_lift(combine_decrypt(params, ct.c0, quiet, 3)).tolist()
            == base.tolist())


# ---------------------------------------------------------------------------
# finalize


def test_finalize_bfv_noiseless_and_scheme_guard():
    sess = mk_session(MBFV, 64, 2, 0)
    params = sess.params
    vals = [7, -7] + [0] * (params.ring.n - 2)
    d = from_ints(params.ring, [params.delta * v for v in vals])
    assert bfv_round(params, d).tolist() == vals
    with pytest.raises(PlaintextRangeError):
        ckks_scale_down(params, d)


def test_bfv_round_rejects_ckks_params():
    sess = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=12)
    d = rg.zero(sess.params.ring)
    with pytest.raises(PlaintextRangeError) as info:
        bfv_round(sess.params, d)
    assert isinstance(info.value, ProtocolFailure)  # exit 3


def test_finalize_ckks_noiseless_exact():
    sess = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=12)
    params = sess.params
    # setup's headroom covers |m| <= 1, so +-delta is a value d can take
    d = from_ints(
        params.ring, [params.delta, -params.delta] + [0] * (params.ring.n - 2))
    got = ckks_scale_down(params, d)
    assert got[0] == 1 and got[1] == -1


def test_finalize_ckks_doubling_delta_halves_residual():
    sess = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=12)
    params = sess.params
    noise = list(range(1000, 1000 + params.ring.n))
    d1 = from_ints(params.ring, [params.delta * 1 + e for e in noise])
    err1 = max(abs(v - 1) for v in ckks_scale_down(params, d1))
    # same additive noise at twice the scale
    sess2 = mk_session(MCKKS, 64, 2, 0, eps_inv_bits=13)
    params2 = sess2.params
    assert params2.delta == 2 * params.delta
    d2 = from_ints(params2.ring, [params2.delta * 1 + e for e in noise])
    err2 = max(abs(v - 1) for v in ckks_scale_down(params2, d2))
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
            vals = [centered(uniform_below(rng, t)) for _ in range(n)]
            msgs.append(vals)
            cts.append(encrypt(params, pk, bfv_plaintext(params, vals),
                               rng.child(f"e{i}")))
        agg = add(cts[0], cts[1])
        partials = [partial_decrypt(params, sh, agg.c1, sess.smudge,
                                    rng.child(f"p{sh.index}"))
                    for sh in sess.shares]
        d = combine_decrypt(params, agg.c0, partials, 2)
        got = bfv_round(params, d).tolist()
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
            pt = encode_real(w, params)
            cts.append(encrypt(params, pk, pt, rng.child(f"e{i}")))
        acc = cts[0]
        for ct in cts[1:]:
            acc = add(acc, ct)
        partials = [partial_decrypt(params, sh, acc.c1, sess.smudge,
                                    rng.child(f"p{sh.index}"))
                    for sh in sess.shares]
        d = combine_decrypt(params, acc.c0, partials, parties)
        got = ckks_scale_down(params, d)
        for j in range(n):
            truth = sum(Fraction(w[j]) for w in streams) / parties
            assert abs(got[j] - truth) < eps


def centered_mod(v, q):
    v = v % q
    return np.where(v > q // 2, v - q, v)


def open_switched_session(sess, rng):
    """Clients encrypt, round c0 to q' and are summed; the sum is opened
    collectively. Checks the opened value against the full-q value through
    the test-only ideal key, and the decoded result; returns D = q/q'."""
    params, b, parties = sess.params, sess.report.bounds, sess.parties
    q, n = params.ring.q, params.ring.n
    drop = q // params.dec_ring.q
    rounding = switch_noise(parties, drop)
    assert b.b_ct_mp == mp_bounds(sess.report.inputs).b_ct_mp + rounding

    if params.scheme == BFV:
        msgs = [[uniform_below(rng, params.t // (2 * parties))
                 for _ in range(n)] for _ in range(parties)]
        pts = [bfv_plaintext(params, m) for m in msgs]
    else:
        streams = [rng.child(f"w{i}").float_open01(n) * 2.0 - 1.0
                   for i in range(parties)]
        pts = [encode_real(w, params) for w in streams]
    acc = full_acc = None
    for i, pt in enumerate(pts):
        ct = encrypt(params, sess.cpk, pt, rng.child(f"e{i}"))
        sent = switch_c0(params, ct)
        assert sent.c0.params == params.dec_ring
        assert sent.c1 is ct.c1
        acc = sent if acc is None else add(acc, sent)
        full_acc = ct if full_acc is None else add(full_acc, ct)
    smudging = [rg.sample_smudging(params.ring, b.b_smg,
                                   rng.child(f"s{sh.index}"))
                for sh in sess.shares]
    partials = [partial_decrypt(params, sh, acc.c1, sess.smudge, rng, e_smg=e)
                for sh, e in zip(sess.shares, smudging)]
    assert all(part.h.params == params.dec_ring for part in partials)
    d = combine_decrypt(params, acc.c0, partials, parties)
    assert d.params == params.dec_ring

    # the full-q opened value, through the test-only ideal key
    ideal = SecretKey(reconstruct_ideal_key(params, sess.shares))
    full = rg.crt_lift(
        decryption_phase(params, ideal, full_acc)).astype(object)
    full = full + sum(rg.crt_lift(e).astype(object) for e in smudging)
    message = sum(rg.crt_lift(pt.element).astype(object) for pt in pts)
    if params.scheme == BFV:
        message = message * params.delta
    opened = rg.crt_lift(d).astype(object) * drop  # d' read back at q
    # L c0 roundings and L share roundings, each at most D/2
    assert max(abs(centered_mod(opened - full, q))) <= rounding
    # opened noise at q' within b_ct_mp' * q'/q, i.e. within b_ct_mp' at q
    assert max(abs(centered_mod(opened - message, q))) <= b.b_ct_mp

    if params.scheme == BFV:
        got = bfv_round(params, d).tolist()
        assert got == [sum(col) for col in zip(*msgs)]
    else:
        got = ckks_scale_down(params, d)
        eps = b.b_ct_mp / params.delta
        for j in range(n):
            truth = sum(Fraction(w[j]) for w in streams) / parties
            assert abs(got[j] - truth) < eps
    return drop


@pytest.mark.parametrize("scheme", [MBFV, MCKKS])
def test_switched_session_opens_within_switched_bound(scheme):
    # n = 1024, L = 3, lam = 16: the plan keeps 1 of 2 limbs for decryption
    sess = mk_session(scheme, 1024, 3, 16, eps_inv_bits=10,
                      seed=f"switch-{scheme}", switched=True)
    assert len(sess.params.dec_ring.primes) == 1 < len(sess.params.ring.primes)
    assert sess.report.bounds.b_ct_mp == (
        mp_bounds(sess.report.inputs).b_ct_mp + 3 * sess.params.ring.primes[1])
    assert open_switched_session(sess, sess.root.child("msgs")) > 1


@settings(max_examples=20, deadline=None)
@given(scheme=st.sampled_from([MBFV, MCKKS]), parties=st.integers(1, 5),
       lam=st.sampled_from([0, 7, 16, 30, 61]), seed=st.integers(0, 2**32))
def test_switched_sessions_open_within_plan_bound(scheme, parties, lam, seed):
    # n = 256: plans keep 1 to all of their limbs for decryption
    sess = mk_session(scheme, 256, parties, lam, t_bits=10, eps_inv_bits=10,
                      seed=f"switch-prop-{seed}", switched=True)
    open_switched_session(sess, Xof.from_seed(f"msgs-{seed}"))


def test_combine_decrypt_refuses_full_q_c0():
    sess = mk_session(MBFV, 1024, 3, 16, seed="full-q-c0", switched=True)
    params = sess.params
    assert params.dec_ring != params.ring
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, [1] * 1024),
                 sess.root.child("e"))
    partials = [partial_decrypt(params, sh, ct.c1, sess.smudge,
                                sess.root.child(f"p{sh.index}"))
                for sh in sess.shares]
    with pytest.raises(ParamsMismatchError, match="c0 is on 2 limbs") as info:
        combine_decrypt(params, ct.c0, partials, 3)
    assert isinstance(info.value, ProtocolFailure)  # exit 3
    d = combine_decrypt(params, switch_c0(params, ct).c0, partials, 3)
    assert bfv_round(params, d).tolist() == [1] * 1024
