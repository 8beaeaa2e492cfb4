"""Threshold protocol pieces: CRS, shared keys, collective decryption."""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thagg import ring as rg
from thagg.errors import (
    BoundViolationError,
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
    add,
    bfv_round,
    ckks_scale_down,
    encode_real,
    encrypt,
    setup,
)
from thagg.threshold import (
    SecretShare,
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
    budget,
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
                       bounds=report.bounds, dec_limbs=dec_limbs)
    else:
        params = setup(CKKS, n, sigma="3.2", bound="19.2",
                       eps_inv=1 << eps_inv_bits, primes=report.primes,
                       kappa=parties, bounds=report.bounds,
                       dec_limbs=dec_limbs)
    root = Xof.from_seed(seed)
    crs = crs_expand(root.child("crs").read(32), params.ring)
    shares = [gen_share(params, i, root.child(f"share/{i}"))
              for i in range(1, parties + 1)]
    pkshares = [pk_share(params, sh, crs, root.child(f"pkshare/{sh.index}"))
                for sh in shares]
    cpk = combine_pk(params, pkshares, crs, parties)
    return SimpleNamespace(params=params, report=report, root=root, crs=crs,
                           shares=shares, pkshares=pkshares, cpk=cpk,
                           parties=parties)


def open_ciphertext(sess, ct, label="dec"):
    partials = [
        partial_decrypt(sess.params, sh, ct.c1,
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
        got = partial_decrypt(params, sh, c1_ntt, rng.child(label))
        copy = SecretShare(index=sh.index, s=from_ntt(sh.s))
        want = partial_decrypt(params, copy, ct.c1, rng.child(label))
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
    h = partial_decrypt(params, zero_share, ct.c1, None,
                        e_smg=rg.zero(params.ring))
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

    bare = partial_decrypt(params, share, ct.c1, None, e_smg=rg.zero(ring))
    s = divide_out_c1(bare.h)
    assert set(s.tolist()) == {-1, 0, 1}
    assert np.array_equal(s, rg.crt_lift(from_ntt(share.s)))
    assert params.bounds.b_smg > 1
    smudged = partial_decrypt(params, share, ct.c1, sess.root.child("pd"))
    assert np.abs(divide_out_c1(smudged.h)).max() > 1


@pytest.mark.parametrize("switched", [False, True])
def test_smudging_width_of_a_share(switched):
    # the same share with and without its smudging e: at q (D = 1) the two
    # differ by e exactly; rounded to q' = q/D they differ by e/D +- 1, and
    # somewhere by at least b_smg/(2D) - 1, which fails with probability at
    # most 2^-n (each |e_j| < b_smg/2 with probability 1/2)
    sess = mk_session(MBFV, 1024, 3, 16, seed=f"width-{switched}",
                      switched=switched)
    params, share = sess.params, sess.shares[0]
    b_smg = params.bounds.b_smg
    drop = params.ring.q // params.dec_ring.q
    assert (drop > 1) == switched
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, [1] * 1024),
                 sess.root.child("e"))
    e = rg.sample_smudging(params.ring, b_smg, sess.root.child("smg"))
    h = partial_decrypt(params, share, ct.c1, None, e_smg=e).h
    h0 = partial_decrypt(params, share, ct.c1, None,
                         e_smg=rg.zero(params.ring)).h
    diff = rg.crt_lift(ring_sub(h, h0)).tolist()
    if not switched:
        assert diff == rg.crt_lift(e).tolist()
        return
    assert all(-b_smg / drop - 1 <= Fraction(v) <= b_smg / drop + 1
               for v in diff)
    assert max(abs(v) for v in diff) >= b_smg / (2 * drop) - 1


def test_partial_decrypt_rejects_oversized_smudging():
    # an oversized b_smg never reaches a partial decryption: setup refuses
    # plan bounds whose b_ct_mp does not hold it, and bounds that do hold
    # it need a larger q; parameters without the plan's bounds have no
    # smudging level to draw at, and only a given e_smg decrypts with them
    sess = mk_session(MBFV, 64, 2, 0)
    params, b = sess.params, sess.report.bounds
    huge = replace(b, b_smg=smudge_bound(4 * params.ring.log2_q, b.b_ct))
    again = dict(sigma="3.2", bound="19.2", t=params.t,
                 primes=params.ring.primes, kappa=2)
    assert setup(BFV, 64, **again, bounds=b) == params
    with pytest.raises(SmudgeBoundError, match=r"2\*b_smg exceeds b_ct_mp"):
        setup(BFV, 64, **again, bounds=huge)
    held = replace(huge, b_ct_mp=huge.b_ct + 2 * huge.b_smg)
    with pytest.raises(BoundViolationError, match="multiparty aggregate"):
        setup(BFV, 64, **again, bounds=held)
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, [0] * 64),
                 sess.root.child("e"))
    bare = replace(params, bounds=None)
    with pytest.raises(SmudgeBoundError, match="no smudging bound"):
        partial_decrypt(bare, sess.shares[0], ct.c1, Xof.from_seed("s"))
    quiet = partial_decrypt(bare, sess.shares[0], ct.c1, None,
                            e_smg=rg.zero(params.ring))
    assert quiet.h.params == params.dec_ring


def test_setup_counts_kappa_smudging_terms():
    # b_ct_mp holds one smudging term on top of b_ct but not four: a run of
    # one party passes and one of four (kappa = L) is refused, so setup
    # counts a term per partial decryption; the parameters keep the bounds
    bounds = budget(b_ct=10, b_smg=100, b_ct_mp=300)
    solo = setup(BFV, 64, sigma="3.2", t=256, primes=primes_for(64, 40),
                 kappa=1, bounds=bounds)
    assert solo.bounds is bounds
    for kappa in (3, 4):
        with pytest.raises(SmudgeBoundError, match=f"{kappa}\\*b_smg"):
            setup(BFV, 64, sigma="3.2", t=256, primes=primes_for(64, 40),
                  kappa=kappa, bounds=bounds)
    setup(BFV, 64, sigma="3.2", t=256, primes=primes_for(64, 40), kappa=2,
          bounds=bounds)  # 10 + 2 * 100 <= 300


def test_smudge_message_takes_values_beyond_the_float_range():
    # b_smg = 2^1100: two smudging terms are far beyond a float, and the
    # message states them in log2
    with pytest.raises(SmudgeBoundError,
                       match=r"2\*b_smg exceeds b_ct_mp by 2\^1101\.00"):
        setup(BFV, 16, sigma="3.2", t=256, primes=primes_for(16, 40),
              kappa=2, bounds=budget(0, 2**1100, 1))


SMUDGE_PRIMES = sorted({prime_below(1 << bits, 16) for bits in range(8, 30)})


def old_room(scheme, q, t, delta):
    """The per-scheme room the per-call smudging check used to state
    itself, kept as the reference: a bound b decodes iff b < room."""
    if scheme == BFV:
        return Fraction(q, 2 * t) - Fraction(t, 2)
    return Fraction(q, 2) - delta


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_smudge_check_matches_old_room_inequality(data):
    # setup's two checks, b_ct + kappa * b_smg <= b_ct_mp and b_ct_mp under
    # the room, take exactly the plans the old per-call check took: a plan
    # whose kappa smudging terms overflow b_ct_mp is a SmudgeBoundError, any
    # other is accepted iff every bound setup checks is below the room, and
    # an accepted one fits the old inequality b_ct + kappa * b_smg < room
    scheme = data.draw(st.sampled_from([BFV, CKKS]))
    primes = tuple(data.draw(st.lists(st.sampled_from(SMUDGE_PRIMES),
                                      min_size=1, max_size=3, unique=True)))
    q = rg.RingParams.create(16, primes).q
    kappa = data.draw(st.integers(1, 16), label="kappa")
    if scheme == BFV:
        t, eps_inv = 1 << data.draw(st.integers(1, 40)), None
        scale = old_room(BFV, q, t, None)
    else:
        t, eps_inv = None, 1 << data.draw(st.integers(0, 20))
        scale = Fraction(q, 2) / (eps_inv + 1)
    scale = scale if scale > 0 else Fraction(q)
    b_ct = scale * Fraction(data.draw(st.integers(0, 64)), 64)
    b_smg = scale * Fraction(data.draw(st.integers(0, 64)), 64 * kappa)
    smudged = b_ct + kappa * b_smg
    b_ct_mp = smudged + scale * Fraction(data.draw(st.integers(-4, 4)), 64)
    assume(b_ct_mp > 0)
    if scheme == BFV:
        delta = q // t
    else:  # kappa * 2^k, the least at or above b_ct_mp * eps_inv
        delta = kappa
        while delta < b_ct_mp * eps_inv:
            delta *= 2
    room = old_room(scheme, q, t, delta)
    fresh = (2 * 16 + 1) * Fraction("19.2")
    fits = max((kappa + 1) * fresh, b_ct_mp) < room
    try:
        params = setup(scheme, 16, sigma="3.2", t=t, eps_inv=eps_inv,
                       primes=primes, kappa=kappa,
                       bounds=budget(b_ct, b_smg, b_ct_mp))
    except SmudgeBoundError as exc:
        assert smudged > b_ct_mp, exc
        assert f"{kappa}*b_smg" in str(exc)
        return
    except BoundViolationError as exc:
        assert smudged <= b_ct_mp and not fits, exc
        return
    assert smudged <= b_ct_mp and fits
    assert params.delta == delta
    assert smudged < room


def test_combine_decrypt_single_party_no_smudging_matches_single_key():
    sess = mk_session(MBFV, 64, 1, 0, seed="collapse")
    params = sess.params
    vals = [3] + [0] * (params.ring.n - 1)
    ct = encrypt(params, sess.cpk, bfv_plaintext(params, vals),
                 sess.root.child("e"))
    part = partial_decrypt(params, sess.shares[0], ct.c1, None,
                           e_smg=rg.zero(params.ring))
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
        acc = add(params, acc, ct)
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

    quiet = [partial_decrypt(params, sh, ct.c1, None,
                             e_smg=rg.zero(params.ring))
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
        agg = add(params, cts[0], cts[1])
        partials = [partial_decrypt(params, sh, agg.c1,
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
            acc = add(params, acc, ct)
        partials = [partial_decrypt(params, sh, acc.c1,
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
        acc = sent if acc is None else add(params, acc, sent)
        full_acc = ct if full_acc is None else add(params, full_acc, ct)
    smudging = [rg.sample_smudging(params.ring, b.b_smg,
                                   rng.child(f"s{sh.index}"))
                for sh in sess.shares]
    partials = [partial_decrypt(params, sh, acc.c1, rng, e_smg=e)
                for sh, e in zip(sess.shares, smudging)]
    assert all(part.h.params == params.dec_ring for part in partials)
    d = combine_decrypt(params, acc.c0, partials, parties)
    assert d.params == params.dec_ring

    # the full-q opened value, through the test-only ideal key
    ideal = SecretKey(reconstruct_ideal_key(params, sess.shares))
    full = rg.crt_lift(
        decryption_phase(params, ideal, full_acc)).astype(object)
    full = full + sum(rg.crt_lift(e).astype(object) for e in smudging)
    message = sum(rg.crt_lift(pt).astype(object) for pt in pts)
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
    partials = [partial_decrypt(params, sh, ct.c1,
                                sess.root.child(f"p{sh.index}"))
                for sh in sess.shares]
    with pytest.raises(ParamsMismatchError, match="c0 is on 2 limbs") as info:
        combine_decrypt(params, ct.c0, partials, 3)
    assert isinstance(info.value, ProtocolFailure)  # exit 3
    d = combine_decrypt(params, switch_c0(params, ct).c0, partials, 3)
    assert bfv_round(params, d).tolist() == [1] * 1024
