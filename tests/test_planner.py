"""Planner bounds, verdicts, grids, and security checks."""

import io
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from thagg.config import parse_config
from thagg.errors import ConfigError, UnknownRingDegreeError
from thagg.planner import (
    MBFV,
    MBFV_SMALLER_OR_EQUAL,
    MCKKS,
    MCKKS_SMALLER,
    PlanInputs,
    fresh_bound,
    grid_to_csv,
    interval_approx_check,
    mp_bounds,
    plan,
    qmin_mbfv,
    qmin_mbfv_bound,
    qmin_mckks,
    qmin_mckks_bound,
    region_grid,
    scale_from_eps,
    security_check,
    switch_noise,
    winner,
)

from oracles import mckks_favorable

B192 = Fraction("19.2")


def inputs_for(n=1024, parties=2, lam=0, **kw):
    return PlanInputs.create(n, parties, "3.2", lam, bound="19.2", **kw)


# ---------------------------------------------------------------------------
# bounds


def test_fresh_bound_exact():
    # (2*1024+1) * 96/5, evaluated independently
    assert fresh_bound(1024, "19.2") == 2049 * Fraction(96, 5)
    assert fresh_bound(1024, 0) == 0


def test_mp_bounds_small_case():
    got = mp_bounds(inputs_for(n=1024, parties=2, lam=0))
    assert got.b_ct == 2 * B192 * 4097 == Fraction("157324.8")
    assert got.b_smg == got.b_ct  # lambda = 0
    assert got.b_ct_mp == 3 * got.b_ct + 1 == Fraction("471975.4")


def test_mp_bounds_collapse_single_party():
    got = mp_bounds(inputs_for(n=512, parties=1, lam=0))
    assert got.b_ct_mp == 2 * got.b_ct + Fraction(1, 2) == (
        2 * B192 * (2 * 512 + 1) + Fraction(1, 2))


def test_mp_bounds_paper_scale():
    got = mp_bounds(inputs_for(n=16384, parties=16, lam=128))
    assert got.b_ct == 16 * B192 * 524289 == Fraction(805307904, 5)
    assert float(got.b_ct) == pytest.approx(1.611e8, rel=1e-3)
    assert got.b_ct_mp == (1 + 16 * 2**64) * got.b_ct + 8
    assert got.b_smg == 2**64 * got.b_ct
    assert float(got.b_smg) == pytest.approx(2.971e27, rel=1e-3)


def test_b_ct_mp_strictly_increasing_in_each_input():
    base = inputs_for(n=1024, parties=4, lam=16)
    ref = mp_bounds(base).b_ct_mp
    assert mp_bounds(inputs_for(n=2048, parties=4, lam=16)).b_ct_mp > ref
    assert mp_bounds(inputs_for(n=1024, parties=5, lam=16)).b_ct_mp > ref
    assert mp_bounds(inputs_for(n=1024, parties=4, lam=17)).b_ct_mp > ref
    bigger_b = PlanInputs.create(1024, 4, "3.2", 16, bound="19.3")
    assert mp_bounds(bigger_b).b_ct_mp > ref


def test_smudge_exponent_rounds_up_for_odd_lambda():
    even = mp_bounds(inputs_for(lam=16))
    odd = mp_bounds(inputs_for(lam=15))
    assert odd.b_smg == even.b_smg  # ceil(15/2) = 8 = 16/2


# ---------------------------------------------------------------------------
# minimum q


def test_qmin_mbfv_tiny_case_by_hand():
    assert qmin_mbfv_bound(2, 1) == 8
    assert qmin_mbfv(2, 1) == 4  # smallest q > 8 needs 4 bits


def test_qmin_mbfv_exact_rational_case():
    bound = qmin_mbfv_bound(256, Fraction("471974.4"))
    assert bound == Fraction("241716428.8")
    assert qmin_mbfv(256, Fraction("471974.4")) == 28


def test_qmin_monotone_nondecreasing():
    b = Fraction("471974.4")
    prev = 0
    for t_bits in range(2, 40):
        bits = qmin_mbfv(1 << t_bits, b)
        assert bits >= prev
        prev = bits
    prev = 0
    for extra in range(0, 40):
        bits = qmin_mbfv(256, b * 2**extra)
        assert bits >= prev
        prev = bits


def test_qmin_mckks_formula_collapse():
    b = Fraction(1000)
    assert qmin_mckks_bound(0, b) == 2 * b
    # eps_inv = 1, b_m = 1: delta = b, so q > 4b
    assert qmin_mckks_bound(b, b) == 4 * b


def test_scale_from_eps():
    # delta = L * 2^k for the smallest k >= 0 with delta >= b * eps_inv
    for parties in (1, 2, 3, 5, 6, 16):
        for b in (Fraction("471974.4"), Fraction(9, 500), Fraction(3)):
            for eps_bits in (0, 1, 7, 33, 70):
                target = b * (1 << eps_bits)
                d = scale_from_eps(1 << eps_bits, b, parties)
                step = d // parties
                assert d % parties == 0 and step & (step - 1) == 0  # 2^k
                assert d >= target  # realized b/delta <= 1/eps_inv
                if step > 1:  # k > 0 is the smallest k
                    assert d / 2 < target
    assert scale_from_eps(1, Fraction(9, 500), 1) == 1  # k = 0, no shift < 0
    assert scale_from_eps(1, Fraction("471974.4"), 1) == 2**19
    assert scale_from_eps(1, Fraction("471974.4"), 3) == 3 * 2**18


# ---------------------------------------------------------------------------
# winner


def test_winner_examples():
    assert winner(2**20, 2**19, Fraction(2**50)) == MCKKS_SMALLER
    # boundary: lhs = 2^-11 + 2^20 - 1 < 2^20
    assert winner(2**20, 2**20, Fraction(2**50)) == MBFV_SMALLER_OR_EQUAL


def test_precision_inequality_matches_modulus_ordering():
    # with b_m = 1 and delta = b * eps_inv, the precision inequality holds
    # exactly when the modulus bound for MCKKS is below the one for MBFV
    rnd = random.Random(20240814)
    for _ in range(1000):
        t = rnd.randrange(2, 1 << 40)
        eps_inv = rnd.randrange(1, 1 << 40)
        b = Fraction(rnd.randrange(1, 1 << 60), rnd.randrange(1, 1 << 8))
        delta = b * eps_inv
        via_bound_algebra = (b > (2 * delta * 1 - t * t) / (2 * (t - 1))
                             if t > 1 else False)
        via_precision = winner(t, eps_inv, b) == MCKKS_SMALLER
        direct = qmin_mckks_bound(delta, b) < qmin_mbfv_bound(t, b)
        assert via_bound_algebra == via_precision == direct


# ---------------------------------------------------------------------------
# grids


def small_grid(lam, n=256, parties=4):
    return region_grid(inputs_for(n=n, parties=parties, lam=lam),
                       range(8, 40), range(8, 40))


def test_grid_verdict_matches_direct_bound_comparison():
    grid = small_grid(lam=8)
    b = grid.b_ct_mp
    for (tb, eb), verdict in grid.winners.items():
        direct = qmin_mckks_bound(b * (1 << eb), b) < qmin_mbfv_bound(1 << tb, b)
        assert (verdict == MCKKS_SMALLER) == direct


def test_grid_shrinks_as_lambda_grows():
    g_small = small_grid(lam=8)
    g_large = small_grid(lam=24)
    fav_small = mckks_favorable(g_small)
    fav_large = mckks_favorable(g_large)
    assert fav_large < fav_small  # proper subset: monotone and strict


def test_grid_rejects_empty_range():
    with pytest.raises(ConfigError):
        region_grid(inputs_for(), [], range(8, 10))


def test_grid_csv_format():
    grid = region_grid(inputs_for(lam=4), range(8, 10), range(8, 10))
    buf = io.StringIO()
    grid_to_csv(grid, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "log2_t,log2_eps_inv,winner,qmin_mbfv_bits,qmin_mckks_bits"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "8" and first[1] == "8"
    assert first[2] in (MCKKS_SMALLER, MBFV_SMALLER_OR_EQUAL)


def test_interval_approximation_quality():
    inputs = inputs_for(n=8192, parties=10, lam=32)
    grid = region_grid(inputs, range(8, 121), range(8, 121))
    report = interval_approx_check(inputs, grid)
    # spot-check deep in each interval
    from thagg.exact import frac_log2

    center = report.window_center_bits
    for tb, dev in report.deviations.items():
        if abs(tb - center) > 2:
            assert dev < 1.0
    assert report.max_deviation_outside < 1.0
    # crossover abscissa sits near log2(b_ct_mp) + 1
    assert abs(report.crossover_bits - (frac_log2(grid.b_ct_mp) + 1)) <= 2.0


# ---------------------------------------------------------------------------
# security


def test_prime_selection_failure_is_reported():
    from thagg.errors import NoPrimesFoundError
    from thagg.ntt import select_primes

    # 2n = 2^29 leaves no room for primes = 1 mod 2n below 2^30
    with pytest.raises(NoPrimesFoundError):
        select_primes(1 << 28, min_product=1 << 59)


def test_prime_selection_stops_at_the_wire_limb_limit():
    from math import prod

    from thagg.errors import NoPrimesFoundError
    from thagg.ntt import MAX_LIMBS, prime_below, select_primes

    top = []
    while len(top) < MAX_LIMBS:
        top.append(prime_below(1 << 30, 1024, frozenset(top)))
    # the 255 largest primes clear any product below theirs, and none above
    assert len(select_primes(1024, min_product=prod(top) - 1)) == MAX_LIMBS
    with pytest.raises(NoPrimesFoundError, match="more than 255 primes"):
        select_primes(1024, min_product=prod(top))
    with pytest.raises(NoPrimesFoundError, match="more than 255 primes"):
        select_primes(1024, min_product=1 << (30 * MAX_LIMBS))


def test_security_table_defaults():
    assert security_check(16384, 240)
    assert not security_check(1024, 1000)
    assert security_check(1024, 27)
    assert not security_check(1024, 28)


def test_security_override_respected():
    # the shipped table is the only one; a degree outside it can run only
    # without enforcement
    with pytest.raises(UnknownRingDegreeError, match="enforce_security = false"):
        security_check(999, 10)


# ---------------------------------------------------------------------------
# plan


def test_plan_small_runnable_config():
    inputs = inputs_for(n=1024, parties=2, lam=16, t_bits=8)
    report = plan(inputs, MBFV, enforce_security=False)
    q = 1
    for p in report.primes:
        q *= p
    assert q > qmin_mbfv_bound(256, report.bounds.b_ct_mp)
    assert report.log2_q == q.bit_length()
    assert not report.security_ok  # 1024 cannot carry this q at 128-bit level


def test_plan_rejects_insecure_when_enforcing():
    inputs = inputs_for(n=1024, parties=2, lam=16, t_bits=8)
    with pytest.raises(ConfigError):
        plan(inputs, MBFV, enforce_security=True)


def test_plan_deterministic_and_golden_text():
    inputs = inputs_for(n=1024, parties=2, lam=0, t_bits=8, eps_inv_bits=8)
    a = plan(inputs, MBFV, enforce_security=False)
    b = plan(inputs, MBFV, enforce_security=False)
    assert a == b
    text = a.to_text()
    assert text == b.to_text()
    assert "format = thagg-plan-v3" in text
    assert "b_ct = 786624/5" in text  # 157324.8 exactly
    assert f"qmin_mbfv_bits = {a.qmin_mbfv_bits}" in text
    assert "winner = " in text


def test_plan_includes_reference_annotations_for_known_sets():
    inputs = inputs_for(n=16384, parties=32, lam=128, t_bits=60)
    report = plan(inputs, MBFV, enforce_security=True)
    assert report.reference == {
        "reported_limbs": 10,
        "reported_q_bits": 300,
        "reported_q_mbfv_bits": 280,
    }
    assert "reference.reported_q_bits = 300" in report.to_text()
    # never asserted equal: our bound is its own figure
    assert report.log2_q != report.reference["reported_q_bits"] or True


def test_plan_set3_reports_reference_alongside_own_bits():
    inputs = inputs_for(n=16384, parties=32, lam=128, eps_inv_bits=60)
    report = plan(inputs, MCKKS, enforce_security=True)
    # both figures present; only recorded, never asserted equal
    assert report.qmin_mckks_bits is not None
    assert report.reference["reported_q_mckks_bits"] == 259
    text = report.to_text()
    assert f"qmin_mckks_bits = {report.qmin_mckks_bits}" in text
    assert "reference.reported_q_mckks_bits = 259" in text


@pytest.mark.parametrize("n, parties, lam, t_bits, eps_inv_bits, columns", [
    (16384, 16, 128, 45, 45, None),  # a known parameter set
    # the verdict is taken at the exact scale b_ct_mp * eps_inv, where both
    # need 71 bits; qmin_mckks_bits at the realised delta_ckks = L * 2^k
    (4096, 32, 0, 35, 37, (71, 72)),
], ids=["known-set", "exact-scale"])
def test_plan_known_set_winner_matches_direct_ordering(
        n, parties, lam, t_bits, eps_inv_bits, columns):
    inputs = inputs_for(n=n, parties=parties, lam=lam, t_bits=t_bits,
                        eps_inv_bits=eps_inv_bits)
    report = plan(inputs, MBFV, enforce_security=True)
    b = report.bounds.b_ct_mp
    exact = b * 2**eps_inv_bits
    direct = qmin_mckks_bound(exact, b) < qmin_mbfv_bound(2**t_bits, b)
    assert (report.winner == MCKKS_SMALLER) == direct
    if columns is None:
        assert report.reference is not None
    else:
        assert report.winner == MCKKS_SMALLER
        assert qmin_mckks(exact, b) == qmin_mbfv(2**t_bits, b) == columns[0]
        assert (report.qmin_mbfv_bits, report.qmin_mckks_bits) == columns


def test_plan_requires_matching_precision_field():
    with pytest.raises(ConfigError):
        plan(inputs_for(n=1024, parties=2, lam=0, eps_inv_bits=8), MBFV,
             enforce_security=False)
    with pytest.raises(ConfigError):
        plan(inputs_for(n=1024, parties=2, lam=0, t_bits=8), MCKKS,
             enforce_security=False)


def test_plan_mckks_path():
    inputs = inputs_for(n=2048, parties=2, lam=0, eps_inv_bits=10)
    report = plan(inputs, MCKKS, enforce_security=False)
    assert report.delta_ckks is not None
    q = 1
    for p in report.primes:
        q *= p
    assert q > qmin_mckks_bound(report.delta_ckks, report.bounds.b_ct_mp)


# ---------------------------------------------------------------------------
# decryption sub-basis (modulus switching)


def workload_inputs(scheme, n, parties, lam, bits):
    key = "t_bits" if scheme == MBFV else "eps_inv_bits"
    return PlanInputs.create(n, parties, "3.2", lam, bound="19.2",
                             **{key: bits})


def golden_plan(name):
    path = Path(__file__).parent / "data" / f"golden_{name}.ini"
    cfg = parse_config(path.read_text())
    return plan(cfg.plan_inputs, cfg.scheme,
                enforce_security=cfg.enforce_security)


# the benchmark workloads' plan inputs (deep-mbfv, deep-mckks, wide-mbfv)
WORKLOAD_PLANS = {
    "deep-mbfv": (MBFV, 16384, 4, 128, 45),
    "deep-mckks": (MCKKS, 16384, 4, 128, 45),
    "wide-mbfv": (MBFV, 2048, 16, 16, 16),
}


def workload_plan(name):
    scheme, *rest = WORKLOAD_PLANS[name]
    return plan(workload_inputs(scheme, *rest), scheme)


def passes_checks(report, b):
    """Every minimum-q check of `plan` at the report's q, with bound b."""
    i, q = report.inputs, math.prod(report.primes)
    if report.scheme == MBFV:
        return q > qmin_mbfv_bound(1 << i.t_bits, b)
    return (scale_from_eps(1 << i.eps_inv_bits, b, i.parties)
            == report.delta_ckks
            and q > qmin_mckks_bound(report.delta_ckks, b))


ALL_PLANS = [("workload", name, want) for name, want in
             (("deep-mbfv", (2, 5)), ("deep-mckks", (2, 5)),
              ("wide-mbfv", (2, 2)))] + [
    ("golden", name, want) for name, want in
    (("mbfv", (1, 3)), ("mckks", (1, 3)), ("mbfv_bigt", (3, 5)))]


def plan_of(kind, name):
    return workload_plan(name) if kind == "workload" else golden_plan(name)


@pytest.mark.parametrize("kind,name,want", ALL_PLANS)
def test_dec_limbs_pinned(kind, name, want):
    report = plan_of(kind, name)
    assert (len(report.dec_primes), len(report.primes)) == want
    assert report.dec_primes == report.primes[: want[0]]
    text = report.to_text()
    assert f"dec_limbs = {want[0]}" in text
    q_dec = math.prod(report.dec_primes)
    assert f"log2_q_dec = {q_dec.bit_length()}" in text
    assert "dec_primes = " + ",".join(map(str, report.dec_primes)) in text


@pytest.mark.parametrize("kind,name,want", ALL_PLANS)
def test_dec_limbs_minimal_and_rounding_term_exact(kind, name, want):
    report = plan_of(kind, name)
    L, q = report.inputs.parties, math.prod(report.primes)
    base = mp_bounds(report.inputs).b_ct_mp
    drop = q // math.prod(report.dec_primes)
    added = report.bounds.b_ct_mp - base
    assert added == (L * drop if drop > 1 else 0)
    assert added == switch_noise(L, drop)
    assert passes_checks(report, report.bounds.b_ct_mp)
    k = len(report.dec_primes)
    if k > 1:  # one limb fewer fails a check
        fewer = q // math.prod(report.primes[: k - 1])
        assert not passes_checks(report, base + switch_noise(L, fewer))


@pytest.mark.parametrize("parties", [1, 2, 4, 16])
def test_switch_noise_is_one_unit_per_client(parties):
    # L client c0 roundings plus L share roundings, each at most D/2
    for drop in (3, 12289, 2**60 + 1):
        assert switch_noise(parties, drop) == parties * drop
    assert switch_noise(parties, 1) == 0


def test_deep_workload_bounds_and_switched_share_bytes():
    report = workload_plan("deep-mbfv")
    assert math.prod(report.dec_primes).bit_length() == 60
    # 32 switched shares of 8 + 8k' + 4k'n bytes
    k, n = len(report.dec_primes), report.inputs.n
    assert 32 * (8 + 8 * k + 4 * k * n) == 4_195_072
    # 32 ciphertexts of 17 + 8k + 4(k + k')n bytes: c1 on the k limbs of q,
    # c0 on the k' limbs of q'
    k_all = len(report.primes)
    assert 32 * (17 + 8 * k_all + 4 * (k_all + k) * n) == 14_681_888
    wide = workload_plan("wide-mbfv")
    assert wide.bounds.b_ct_mp == mp_bounds(wide.inputs).b_ct_mp
