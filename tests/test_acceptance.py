"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end sweeps and the full-scale run make this module the
slow part of the suite (several minutes).
"""

import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thagg import ntt, wire
from thagg import ring as rg
from thagg.config import ProtocolConfig
from thagg.harness import Aggregator, run_protocol
from thagg.planner import (
    MBFV,
    MCKKS,
    MCKKS_SMALLER,
    PlanInputs,
    interval_approx_check,
    plan,
    qmin_mbfv_bound,
    qmin_mckks_bound,
    region_grid,
)
from thagg.rng import Xof
from thagg.schemes import BFV, encrypt, setup

from oracles import (
    bfv_plaintext,
    dec_bfv,
    mckks_favorable,
    noise_of,
    primes_for,
    pubkeygen,
    ring_mul_schoolbook,
    seckeygen,
    uniform_below,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] C{num:02d} {name}: FAIL")
        raise
    print(f"\n[acceptance] C{num:02d} {name}: PASS")


def big_convolution(params, a, b):
    n, q = params.n, params.q
    av, bv = rg.crt_lift(a).tolist(), rg.crt_lift(b).tolist()
    acc = [0] * n
    for i in range(n):
        ai = av[i]
        for j in range(n):
            k = i + j
            if k >= n:
                acc[k - n] -= ai * bv[j]
            else:
                acc[k] += ai * bv[j]
    return [v % q for v in acc]


def test_c1_oracle_equivalence():
    with criterion(1, "NTT = schoolbook = bigint convolution, 1000x3 pairs"):
        start = time.perf_counter()
        for n in (4, 8, 16):
            primes = []
            for bits in (17, 18):
                primes.append(ntt.prime_below(1 << bits, n, frozenset(primes)))
            params = rg.RingParams.create(n, tuple(primes))
            rng = Xof.from_seed(f"acceptance-c1-{n}")
            for _ in range(1000):
                a = rg.sample_uniform(params, rng)
                b = rg.sample_uniform(params, rng)
                fast = rg.ring_mul(a, b)
                slow = ring_mul_schoolbook(a, b)
                assert np.array_equal(fast.residues, slow.residues)
                lifted = [v % params.q for v in rg.crt_lift(fast).tolist()]
                assert lifted == big_convolution(params, a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"


def test_c2_fresh_noise_bound():
    with criterion(2, "1000 fresh BFV ciphertexts, noise <= 39321"):
        params = setup(BFV, 1024, sigma="3.2", bound="19.2", t=256,
                       primes=primes_for(1024, 30))
        root = Xof.from_seed("acceptance-c2")
        sk = seckeygen(params, root.child("sk"))
        pk = pubkeygen(params, sk, root.child("pk"))
        t, n = params.t, params.ring.n
        rng = root.child("msgs")
        worst = 0
        for i in range(1000):
            vals = [r - t if (r := uniform_below(rng, t)) > t // 2 else r
                    for _ in range(n)]
            pt = bfv_plaintext(params, vals)
            ct = encrypt(params, pk, pt, root.child(f"enc/{i}"))
            measured = noise_of(params, sk, ct, pt)
            worst = max(worst, measured)
            assert measured <= 39_321
        print(f"  (worst observed noise {worst})", end="")


def test_c3_single_key_roundtrips():
    with criterion(3, "1000 BFV encrypt/decrypt round-trips, exact"):
        inputs = PlanInputs.create(2048, 1, "3.2", 0, bound="19.2", t_bits=8)
        report = plan(inputs, MBFV, enforce_security=True)
        params = setup(BFV, 2048, sigma="3.2", bound="19.2", t=256,
                       primes=report.primes, kappa=1,
                       bounds=report.bounds)
        root = Xof.from_seed("acceptance-c3")
        sk = seckeygen(params, root.child("sk"))
        pk = pubkeygen(params, sk, root.child("pk"))
        t, n = params.t, params.ring.n
        rng = root.child("msgs")
        for i in range(1000):
            vals = [r - t if (r := uniform_below(rng, t)) > t // 2 else r
                    for _ in range(n)]
            pt = bfv_plaintext(params, vals)
            ct = encrypt(params, pk, pt, root.child(f"enc/{i}"))
            assert dec_bfv(params, sk, ct).tolist() == vals


SWEEP = [(n, parties, lam)
         for n in (1024, 4096)
         for parties in (2, 4, 8)
         for lam in (0, 16, 32)]
RUNS_PER_COMBO = 12  # 18 combos x 12 = 216 >= 200 runs


def sweep_seed(*label) -> int:
    """A 32-bit root seed fixed by the label alone (sha256 of its repr), so
    every process runs the same sweep and a failing run can be replayed."""
    return int.from_bytes(hashlib.sha256(repr(label).encode()).digest()[:4],
                          "little")


def sweep_config(scheme, n, parties, lam, seed):
    inputs = PlanInputs.create(n, parties, "3.2", lam, bound="19.2",
                               t_bits=13, eps_inv_bits=10)
    return ProtocolConfig(scheme=scheme, plan_inputs=inputs, model_size=n,
                          root_seed=seed, fixed_point_bits=8,
                          enforce_security=False)


def test_c4_threshold_mbfv_exactness_sweep():
    with criterion(4, "216 MBFV runs over (n, L, lambda) sweep, exact"):
        start = time.perf_counter()
        runs = 0
        for n, parties, lam in SWEEP:
            for i in range(RUNS_PER_COMBO):
                seed = sweep_seed("bfv", n, parties, lam, i)
                transcript = run_protocol(
                    sweep_config(MBFV, n, parties, lam, seed))
                assert transcript.max_error == 0, (n, parties, lam, i)
                runs += 1
        elapsed = time.perf_counter() - start
        assert runs == 216
        assert elapsed < 300.0, f"took {elapsed:.1f} s, budget 5 min"
        print(f"  ({runs} runs in {elapsed:.1f} s)", end="")


def test_c5_threshold_mckks_accuracy_sweep():
    with criterion(5, "216 MCKKS runs over the sweep, error < eps"):
        start = time.perf_counter()
        runs = 0
        for n, parties, lam in SWEEP:
            inputs = PlanInputs.create(n, parties, "3.2", lam, bound="19.2",
                                       t_bits=13, eps_inv_bits=10)
            report = plan(inputs, MCKKS, enforce_security=False)
            eps = report.bounds.b_ct_mp / report.delta_ckks
            assert eps <= Fraction(1, 1 << 10)  # realized <= target margin
            for i in range(RUNS_PER_COMBO):
                seed = sweep_seed("ckks", n, parties, lam, i)
                transcript = run_protocol(
                    sweep_config(MCKKS, n, parties, lam, seed))
                assert transcript.max_error < eps, (n, parties, lam, i)
                runs += 1
        elapsed = time.perf_counter() - start
        assert runs == 216
        assert elapsed < 300.0, f"took {elapsed:.1f} s, budget 5 min"
        print(f"  ({runs} runs in {elapsed:.1f} s)", end="")


FIG_LAMBDAS = (32, 64, 96, 128)
GRID_RANGE = range(8, 121)


@pytest.fixture(scope="module")
def fig_grids():
    grids = {}
    for lam in FIG_LAMBDAS:
        inputs = PlanInputs.create(8192, 10, "3.2", lam, bound="19.2")
        grids[lam] = region_grid(inputs, GRID_RANGE, GRID_RANGE)
    return grids


def test_c6_verdict_equals_direct_comparison_on_full_grid(fig_grids):
    with criterion(6, "precision verdict = minimum-q order, every cell"):
        start = time.perf_counter()
        cells = 0
        for lam in FIG_LAMBDAS:
            grid = fig_grids[lam]
            b = grid.b_ct_mp
            for tb in GRID_RANGE:
                mbfv = qmin_mbfv_bound(1 << tb, b)
                for eb in GRID_RANGE:
                    mckks = qmin_mckks_bound(b * (1 << eb), b)
                    direct = mckks < mbfv
                    verdict = grid.winners[(tb, eb)] == MCKKS_SMALLER
                    assert verdict == direct, (lam, tb, eb)
                    cells += 1
        elapsed = time.perf_counter() - start
        assert cells == 4 * 113 * 113
        assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"
        print(f"  ({cells} cells in {elapsed:.1f} s)", end="")


def test_c7_region_shrinks_with_lambda_and_parties(fig_grids):
    with criterion(7, "MCKKS region shrinks in lambda and L; boundary shift"):
        favorable = {lam: mckks_favorable(fig_grids[lam])
                     for lam in FIG_LAMBDAS}
        for lo, hi in zip(FIG_LAMBDAS, FIG_LAMBDAS[1:]):
            assert favorable[hi] <= favorable[lo]  # cell-wise non-increasing
        assert favorable[128] < favorable[32]      # and strictly smaller

        # same qualitative shrink when L rises at lambda = 128
        by_parties = {}
        for parties in (8, 128):
            inputs = PlanInputs.create(8192, parties, "3.2", 128,
                                       bound="19.2")
            by_parties[parties] = mckks_favorable(region_grid(
                inputs, GRID_RANGE, GRID_RANGE))
        assert by_parties[128] < by_parties[8]

        # interval-2 boundary abscissa moves by (lam2-lam1)/2 +- 2 bits
        crossings = {}
        for lam in FIG_LAMBDAS:
            inputs = PlanInputs.create(8192, 10, "3.2", lam, bound="19.2")
            rep = interval_approx_check(inputs, fig_grids[lam])
            crossings[lam] = rep.crossover_bits
        for lo, hi in [(32, 64), (64, 96), (96, 128), (32, 128)]:
            shift = crossings[hi] - crossings[lo]
            assert abs(shift - (hi - lo) / 2) <= 2.0, (lo, hi, shift)


def test_c8_piecewise_approximation(fig_grids):
    with criterion(8, "piecewise-linear boundary within 1 bit outside window"):
        for lam in FIG_LAMBDAS:
            inputs = PlanInputs.create(8192, 10, "3.2", lam, bound="19.2")
            rep = interval_approx_check(inputs, fig_grids[lam],
                                        window_halfwidth=2.0)
            assert rep.max_deviation_outside < 1.0, (lam, rep)


def test_c9a_reference_set_ordering_consistent():
    with criterion(9, "substitute checks (a): reference-set ordering"):
        inputs = PlanInputs.create(16384, 16, "3.2", 128, bound="19.2",
                                   t_bits=45, eps_inv_bits=45)
        report = plan(inputs, MBFV, enforce_security=True)
        b = report.bounds.b_ct_mp
        direct = (qmin_mckks_bound(b * (1 << 45), b)
                  < qmin_mbfv_bound(1 << 45, b))
        assert (report.winner == MCKKS_SMALLER) == direct
        assert report.reference is not None  # reported figures as annotation
        assert report.reference["reported_q_bits"] == 240


# The c9b run, in a fresh interpreter so that its peak RSS is its own.
C9B_RUN = """
import json, resource
from thagg.config import ProtocolConfig
from thagg.harness import run_protocol
from thagg.planner import MBFV, PlanInputs

inputs = PlanInputs.create(16384, 16, "3.2", 128, bound="19.2", t_bits=45)
cfg = ProtocolConfig(scheme=MBFV, plan_inputs=inputs, model_size=1_638_400,
                     root_seed=2024, fixed_point_bits=20,
                     enforce_security=True)
transcript = run_protocol(cfg)
print(json.dumps({
    "rows": transcript.timings_text().strip().split("\\n"),
    "coordinates": len(transcript.aggregate),
    "max_error": str(transcript.max_error),
    "ciphertexts": sum(m.kind == "ciphertext" for m in transcript.messages),
    "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""

C9B_PEAK_MIB = 200


@pytest.mark.slow
def test_c9b_full_scale_run_emits_timing_rows():
    with criterion(9, "substitute checks (b): full 1.6M-parameter run"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", C9B_RUN], env=env,
                              capture_output=True, text=True, timeout=1800)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout)
        rows = result["rows"]
        assert len(rows) == 5
        for label in ("Col. Key Gen.", "Encryption", "Aggregation",
                      "Col. Dec.", "Total runtime"):
            assert any(r.startswith(label) for r in rows), label
        assert result["coordinates"] == 1_638_400
        assert result["max_error"] == "0"
        # ceil(N/n) = 100 chunks per client
        assert result["ciphertexts"] == 16 * 100
        peak_mib = result["peak_kib"] / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mib <= C9B_PEAK_MIB, f"peak RSS {peak_mib:.1f} MiB"
        print("  " + " | ".join(rows) + f" | peak {peak_mib:.1f} MiB",
              end="")


def test_c9c_aggregation_time_linear_in_parties():
    with criterion(9, "substitute checks (c): aggregation linear in L"):
        inputs = PlanInputs.create(1024, 16, "3.2", 16, bound="19.2",
                                   t_bits=14)
        report = plan(inputs, MBFV, enforce_security=False)
        params = setup(BFV, 1024, sigma="3.2", bound="19.2", t=1 << 14,
                       primes=report.primes, kappa=16,
                       bounds=report.bounds)
        root = Xof.from_seed("acceptance-c9c")
        sk = seckeygen(params, root.child("sk"))
        pk = pubkeygen(params, sk, root.child("pk"))
        pt = bfv_plaintext(params, [1] * params.ring.n)
        ct = encrypt(params, pk, pt, root.child("e"))
        chunks = 400
        messages = [wire.serialize_ciphertext(ct, params)] * chunks
        sizes = [2, 4, 8, 16]
        best = dict.fromkeys(sizes, float("inf"))
        # best of 7, the sizes interleaved so that a slow spell of the
        # machine does not fall on one size alone, and (as timeit does) no
        # garbage collection inside a timed run
        gc.collect()
        gc.disable()
        try:
            for _ in range(7):
                for parties in sizes:
                    agg = Aggregator(parties, params, chunks)
                    t0 = time.perf_counter()
                    for i in range(1, parties + 1):
                        agg.receive(i, messages)
                    best[parties] = min(best[parties],
                                        time.perf_counter() - t0)
        finally:
            gc.enable()
        times = [best[parties] for parties in sizes]

        mx = sum(sizes) / len(sizes)
        my = sum(times) / len(times)
        sxx = sum((x - mx) ** 2 for x in sizes)
        sxy = sum((x - mx) * (y - my) for x, y in zip(sizes, times))
        slope = sxy / sxx
        intercept = my - slope * mx
        ss_res = sum((y - (slope * x + intercept)) ** 2
                     for x, y in zip(sizes, times))
        ss_tot = sum((y - my) ** 2 for y in times)
        r2 = 1.0 - ss_res / ss_tot
        assert slope > 0
        assert r2 > 0.95, f"R^2 = {r2:.4f}, times {times}"
        print(f"  (R^2 = {r2:.4f})", end="")


def test_c10_transcript_determinism(tmp_path):
    with criterion(10, "fixed seed gives byte-identical transcripts"):
        from thagg import cli

        cfg_text = """\
[protocol]
scheme = mbfv
model_size = 2048
root_seed = 314159
fixed_point_bits = 8
enforce_security = false

[plan]
n = 1024
parties = 2
sigma = 3.2
noise_bound = 19.2
lambda = 16
t_bits = 12
"""
        cfg_path = tmp_path / "det.ini"
        cfg_path.write_text(cfg_text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "-c", str(cfg_path), "-o", str(out_a)]) == 0
        assert cli.main(["run", "-c", str(cfg_path), "-o", str(out_b)]) == 0
        blob_a = (out_a / "transcript.txt").read_bytes()
        blob_b = (out_b / "transcript.txt").read_bytes()
        assert blob_a == blob_b
        agg_a = (out_a / "aggregate.npy").read_bytes()
        agg_b = (out_b / "aggregate.npy").read_bytes()
        assert agg_a == agg_b
