"""Parameter planner: exact noise/modulus bounds, scheme comparison, grids.

Every bound is evaluated on exact rationals; bit counts come from integer
bit lengths. The multiparty aggregate noise bound drives the minimum
modulus for both scheme variants:

    b_fresh     = (2n+1) B             fresh single-key ciphertext noise
    b_fresh_mp  = B (2nL+1)            fresh noise under the collective key
    b_ct        = L B (2nL+1)          a sum of L fresh ciphertexts, one
                                       a party (`harness.Aggregator`
                                       refuses any other submission)
    b_smg       = 2^ceil(lam/2) b_ct   per-party smudging bound
    b_ct_mp     = b_ct + L b_smg + L/2 what collective decryption must absorb

The L/2 is the MCKKS encoding rounding: each of the L clients rounds
delta/L times its update to integers, each at most 1/2 off, so the opened
sum is off by up to L/2 more. It matters only when B is far below 1. MBFV,
whose oracle is the fixed-point grid itself, has no such error but carries
the term too: one b_ct_mp serves both schemes.

Minimum-q conditions:  MBFV  q > 2 t b_ct_mp + t^2
                       MCKKS q > 2 (delta + b_ct_mp)

These are the only statement of the decode condition (`qmin_mbfv_bound`,
`qmin_mckks_bound`): `schemes.setup` and the smudging check of
`threshold.partial_decrypt` evaluate the same two functions. An MCKKS
aggregate is at most delta = L * 2^k: each of the L clients encodes an
update of magnitude at most 1 at the exact shift 2^k (`scale_from_eps`,
`schemes.encode_real`), and nothing divides by L.

Collective decryption then runs at q' = the product of the fewest leading
primes of q whose rounding still passes the same conditions at the same q.
Each of the L clients rounds its c0 from q to q' = q/D before sending it,
and each of the L partial decryptions is rounded the same way; every
rounding adds at most 1/2 in q' units, L in all, so the plan's b_ct_mp
becomes

    b_ct_mp'    = b_ct_mp + L D            (D > 1; b_ct_mp when D = 1)

The comparison verdict uses the normalized precision inequality
t^2/(2 b_ct_mp) + t - 1 > 1/eps, which is equivalent (for
delta = b_ct_mp/eps) to MCKKS needing the smaller modulus.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import prod

from .errors import ConfigError, UnknownRingDegreeError
from .exact import ceil_log2, frac, frac_log2, floor_frac, min_q_bits
from .ntt import select_primes
from .ring import MAX_NOISE_BOUND

MBFV = "mbfv"
MCKKS = "mckks"

MCKKS_SMALLER = "MCKKS_smaller_q"
MBFV_SMALLER_OR_EQUAL = "MBFV_smaller_or_equal"

# Maximum modulus bits per ring degree at 128-bit classical security,
# following the community HE standard; data, not code.
SECURITY_MAX_Q_BITS = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
}

# Well-known parameter sets with independently reported modulus sizes.
# Informational annotations only; the planner never asserts against them.
KNOWN_PARAMETER_SETS = [
    {"match": {"n": 16384, "parties": 16, "lam": 128, "t_bits": 45,
               "eps_inv_bits": 45},
     "note": {"reported_limbs": 4, "reported_q_bits": 240,
              "reported_q_mbfv_bits": 232, "reported_q_mckks_bits": 238}},
    {"match": {"n": 16384, "parties": 32, "lam": 128, "t_bits": 60,
               "eps_inv_bits": None},
     "note": {"reported_limbs": 10, "reported_q_bits": 300,
              "reported_q_mbfv_bits": 280}},
    {"match": {"n": 16384, "parties": 32, "lam": 128, "t_bits": None,
               "eps_inv_bits": 60},
     "note": {"reported_limbs": 9, "reported_q_bits": 270,
              "reported_q_mckks_bits": 259}},
]


@dataclass(frozen=True)
class PlanInputs:
    """Inputs the planner needs; sigma and bound are exact rationals."""

    n: int
    parties: int
    sigma: Fraction
    bound: Fraction
    lam: int
    t_bits: int | None = None
    eps_inv_bits: int | None = None

    @classmethod
    def create(cls, n, parties, sigma, lam, *, bound=None, t_bits=None,
               eps_inv_bits=None) -> "PlanInputs":
        sigma = frac(sigma)
        bound = 6 * sigma if bound is None else frac(bound)
        if n < 4 or parties < 1 or sigma < 0 or bound <= 0 or lam < 0:
            raise ConfigError("plan inputs must be positive")
        if bound < sigma:  # the sampler's `ring.NoiseSpec` needs it too
            raise ConfigError(
                f"noise_bound {bound} must be >= sigma {sigma}")
        if bound >= MAX_NOISE_BOUND + 1:  # and so does its table
            raise ConfigError(
                f"noise_bound {bound} must be below {MAX_NOISE_BOUND + 1}, "
                f"the Gaussian sampler's table limit")
        return cls(n=n, parties=parties, sigma=sigma, bound=bound, lam=lam,
                   t_bits=t_bits, eps_inv_bits=eps_inv_bits)


@dataclass(frozen=True)
class MpBounds:
    b_fresh: Fraction
    b_fresh_mp: Fraction
    b_ct: Fraction
    b_smg: Fraction
    b_ct_mp: Fraction


def fresh_bound(n: int, bound) -> Fraction:
    """Fresh single-key ciphertext noise bound (2n+1)B."""
    return (2 * n + 1) * frac(bound)


def smudge_bound(lam: int, b_ct) -> Fraction:
    """b_smg = 2^ceil(lam/2) * b_ct; odd lam rounds the exponent up."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return (1 << ((lam + 1) // 2)) * frac(b_ct)


def mp_bounds(inputs: PlanInputs) -> MpBounds:
    n, L, B = inputs.n, inputs.parties, inputs.bound
    b_fresh_mp = B * (2 * n * L + 1)
    b_ct = L * b_fresh_mp
    b_smg = smudge_bound(inputs.lam, b_ct)
    return MpBounds(
        b_fresh=fresh_bound(n, B),
        b_fresh_mp=b_fresh_mp,
        b_ct=b_ct,
        b_smg=b_smg,
        b_ct_mp=b_ct + L * b_smg + Fraction(L, 2),
    )


def switch_noise(parties: int, drop: int) -> Fraction:
    """Opened-noise term, at full-q scale, of rounding from q to q/drop the
    c0 of each of the `parties` clients and each of their partial
    decryptions: 2L roundings of at most 1/2 in q/drop units, L * D in all,
    or 0 when no prime is dropped (D = 1, nothing is rounded)."""
    return Fraction(parties * drop) if drop > 1 else Fraction(0)


def qmin_mbfv_bound(t: int, b_ct_mp) -> Fraction:
    """Exact lower bound on q for correct threshold-BFV decryption."""
    return 2 * t * frac(b_ct_mp) + t * t


def qmin_mbfv(t: int, b_ct_mp) -> int:
    """Smallest bit length admitting a q above the exact bound."""
    return min_q_bits(qmin_mbfv_bound(t, b_ct_mp))


def qmin_mckks_bound(delta, b_ct_mp) -> Fraction:
    """Exact lower bound on q for threshold-CKKS message headroom, for an
    opened message of at most delta (an average of magnitude at most 1)."""
    return 2 * (frac(delta) + frac(b_ct_mp))


def qmin_mckks(delta, b_ct_mp) -> int:
    return min_q_bits(qmin_mckks_bound(delta, b_ct_mp))


def scale_from_eps(eps_inv: int, b_ct_mp, parties: int) -> int:
    """delta = L * 2^k, for L = `parties` and the smallest k >= 0 with
    delta >= b_ct_mp * eps_inv: each client encodes at the exact shift k.

    The realized error margin b_ct_mp/delta never exceeds the 1/eps_inv
    target because the ceiling only enlarges delta.
    """
    if eps_inv < 1:
        raise ConfigError("eps_inv must be >= 1")
    return parties << max(0, ceil_log2(frac(b_ct_mp) * eps_inv / parties))


def winner(t: int, eps_inv: int, b_ct_mp) -> str:
    """Scheme with the smaller modulus at equal bit precision.

    Exact evaluation of t^2/(2 b) + t - 1 > eps_inv; strictly greater means
    MCKKS gets away with a smaller q than MBFV.
    """
    b = frac(b_ct_mp)
    lhs = Fraction(t * t, 1) / (2 * b) + t - 1
    return MCKKS_SMALLER if lhs > eps_inv else MBFV_SMALLER_OR_EQUAL


# ---------------------------------------------------------------------------
# region grids


@dataclass
class RegionGrid:
    """Winner verdicts over an integer grid of (log2 t, log2 eps_inv).

    Both minimum-q columns use the exact scale delta = b_ct_mp * eps_inv,
    matching the verdict inequality, so the verdict and the direct
    comparison agree cell by cell.
    """

    n: int
    parties: int
    lam: int
    noise_bound: Fraction
    b_ct_mp: Fraction
    t_bits: list[int]
    eps_bits: list[int]
    winners: dict = field(default_factory=dict)      # (tb, eb) -> str
    mbfv_bits: dict = field(default_factory=dict)    # tb -> int
    mckks_bits: dict = field(default_factory=dict)   # eb -> int


def region_grid(inputs: PlanInputs, t_bits_range, eps_bits_range) -> RegionGrid:
    t_bits = list(t_bits_range)
    eps_bits = list(eps_bits_range)
    if not t_bits or not eps_bits:
        raise ConfigError("empty grid range")
    if min(t_bits) < 1:
        raise ConfigError(f"log2 t must be >= 1 (t >= 2), got {min(t_bits)}")
    if min(eps_bits) < 0:
        raise ConfigError(f"log2 eps_inv must be >= 0, got {min(eps_bits)}")
    b = mp_bounds(inputs).b_ct_mp
    grid = RegionGrid(n=inputs.n, parties=inputs.parties, lam=inputs.lam,
                      noise_bound=inputs.bound, b_ct_mp=b,
                      t_bits=t_bits, eps_bits=eps_bits)
    for tb in t_bits:
        grid.mbfv_bits[tb] = qmin_mbfv(1 << tb, b)
    for eb in eps_bits:
        grid.mckks_bits[eb] = qmin_mckks(b * (1 << eb), b)
    for tb in t_bits:
        t = 1 << tb
        # the verdict threshold in eps is monotone per column; still evaluate
        # each cell exactly to keep the contract simple
        for eb in eps_bits:
            grid.winners[(tb, eb)] = winner(t, 1 << eb, b)
    return grid


def grid_to_csv(grid: RegionGrid, fh) -> None:
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(["log2_t", "log2_eps_inv", "winner",
                  "qmin_mbfv_bits", "qmin_mckks_bits"])
    for tb in grid.t_bits:
        for eb in grid.eps_bits:
            out.writerow([tb, eb, grid.winners[(tb, eb)],
                          grid.mbfv_bits[tb], grid.mckks_bits[eb]])


@dataclass(frozen=True)
class IntervalApproxReport:
    """Exact comparison boundary vs the two-piece linear approximation."""

    window_center_bits: float       # log2(b_ct_mp) + 1
    window_halfwidth_bits: float
    max_deviation_outside: float    # bits, excluding the transition window
    crossover_bits: float           # measured abscissa where piece 2 takes over
    deviations: dict                # tb -> |exact - approx| in bits


def interval_approx_check(inputs: PlanInputs, grid: RegionGrid,
                          window_halfwidth: float = 2.0) -> IntervalApproxReport:
    b = grid.b_ct_mp
    log_b = frac_log2(b)
    center = log_b + 1.0
    devs = {}
    crossover = None
    worst = 0.0
    for tb in grid.t_bits:
        t = 1 << tb
        exact = frac_log2(Fraction(t * t, 1) / (2 * b) + t - 1)
        piece1 = frac_log2(t - 1) if t > 1 else float("-inf")
        piece2 = 2.0 * tb - log_b - 1.0
        if crossover is None and piece2 >= piece1:
            crossover = float(tb)
        dev = abs(exact - max(piece1, piece2))
        devs[tb] = dev
        if abs(tb - center) > window_halfwidth:
            worst = max(worst, dev)
    if crossover is None:
        crossover = float(grid.t_bits[-1])
    return IntervalApproxReport(window_center_bits=center,
                                window_halfwidth_bits=window_halfwidth,
                                max_deviation_outside=worst,
                                crossover_bits=crossover,
                                deviations=devs)


# ---------------------------------------------------------------------------
# security and the full plan


def security_check(n: int, log2_q: int) -> bool:
    """log2 q within the shipped per-degree maximum."""
    if n not in SECURITY_MAX_Q_BITS:
        raise UnknownRingDegreeError(
            f"no security entry for n={n}; set enforce_security = false "
            "to run without a security verdict")
    return log2_q <= SECURITY_MAX_Q_BITS[n]


@dataclass(frozen=True)
class PlanReport:
    """What `plan` found. `winner` compares the schemes at the exact scale
    delta = b_ct_mp * eps_inv, as `region_grid` does; `qmin_mckks_bits` is
    the q for the realised `delta_ckks` = L * 2^k >= that scale. So the
    verdict can favour MCKKS next to a larger MCKKS column: n = 4096,
    L = 32, lambda = 0, t_bits = 35, eps_inv_bits = 37 gives MCKKS_smaller_q
    with 71 and 72 bits, where both are 71 bits at the exact scale."""

    scheme: str
    inputs: PlanInputs
    bounds: MpBounds
    qmin_mbfv_bits: int | None
    qmin_mckks_bits: int | None
    delta_ckks: int | None
    winner: str | None
    primes: tuple[int, ...]
    log2_q: int
    dec_primes: tuple[int, ...]   # leading primes collective decryption keeps
    security_ok: bool
    security_required: bool
    reference: dict | None

    def to_text(self) -> str:
        """Canonical plan text; rationals print as `Fraction` prints them."""
        i, b = self.inputs, self.bounds
        lines = [
            "format = thagg-plan-v3",
            f"scheme = {self.scheme}",
            f"n = {i.n}",
            f"parties = {i.parties}",
            f"sigma = {i.sigma}",
            f"noise_bound = {i.bound}",
            f"lambda = {i.lam}",
            f"t_bits = {i.t_bits if i.t_bits is not None else '-'}",
            f"eps_inv_bits = "
            f"{i.eps_inv_bits if i.eps_inv_bits is not None else '-'}",
            f"b_fresh = {b.b_fresh}",
            f"b_fresh_mp = {b.b_fresh_mp}",
            f"b_ct = {b.b_ct}",
            f"b_smg = {b.b_smg}",
            f"b_ct_mp = {b.b_ct_mp}",
            f"qmin_mbfv_bits = "
            f"{self.qmin_mbfv_bits if self.qmin_mbfv_bits is not None else '-'}",
            f"qmin_mckks_bits = "
            f"{self.qmin_mckks_bits if self.qmin_mckks_bits is not None else '-'}",
            f"delta_ckks = "
            f"{self.delta_ckks if self.delta_ckks is not None else '-'}",
            f"winner = {self.winner if self.winner is not None else '-'}",
            f"primes = {','.join(str(p) for p in self.primes)}",
            f"limbs = {len(self.primes)}",
            f"log2_q = {self.log2_q}",
            f"dec_primes = {','.join(str(p) for p in self.dec_primes)}",
            f"dec_limbs = {len(self.dec_primes)}",
            f"log2_q_dec = {prod(self.dec_primes).bit_length()}",
            f"security_ok = {'true' if self.security_ok else 'false'}",
            f"security_required = "
            f"{'true' if self.security_required else 'false'}",
        ]
        if self.reference:
            for k in sorted(self.reference):
                lines.append(f"reference.{k} = {self.reference[k]}")
        return "\n".join(lines) + "\n"


def _decryption_primes(inputs: PlanInputs, scheme: str,
                      primes: tuple[int, ...], b_ct_mp,
                      delta: int | None) -> tuple[int, ...]:
    """Fewest leading primes q' such that, with b_ct_mp + `switch_noise`,
    every minimum-q check still holds at q = prod(primes) (MCKKS: with the
    same delta). Keeping all of them adds no noise, so that always holds.
    """
    q, L = prod(primes), inputs.parties
    for k in range(1, len(primes)):
        b = frac(b_ct_mp) + switch_noise(L, q // prod(primes[:k]))
        if scheme == MBFV:
            fits = q > qmin_mbfv_bound(1 << inputs.t_bits, b)
        else:
            fits = (scale_from_eps(1 << inputs.eps_inv_bits, b, L) == delta
                    and q > qmin_mckks_bound(delta, b))
        if fits:
            return primes[:k]
    return primes


def _reference_note(inputs: PlanInputs) -> dict | None:
    probe = {"n": inputs.n, "parties": inputs.parties, "lam": inputs.lam,
             "t_bits": inputs.t_bits, "eps_inv_bits": inputs.eps_inv_bits}
    for entry in KNOWN_PARAMETER_SETS:
        if entry["match"] == probe:
            return dict(entry["note"])
    return None


def plan(inputs: PlanInputs, scheme: str, *,
         enforce_security: bool = True) -> PlanReport:
    """Evaluate all bounds, select the RNS basis and the decryption
    sub-basis, and check security.

    The report's b_ct_mp includes the decryption rounding (`switch_noise`);
    the minimum-q columns and the verdict use the bound before it.
    Deterministic: identical inputs give an identical report.
    """
    if scheme not in (MBFV, MCKKS):
        raise ConfigError(f"unknown scheme {scheme!r}")
    bounds = mp_bounds(inputs)
    b = bounds.b_ct_mp

    mbfv_bits = mckks_bits = delta = None
    verdict = None
    if inputs.t_bits is not None:
        mbfv_bits = qmin_mbfv(1 << inputs.t_bits, b)
    if inputs.eps_inv_bits is not None:
        delta = scale_from_eps(1 << inputs.eps_inv_bits, b, inputs.parties)
        mckks_bits = qmin_mckks(delta, b)
    if inputs.t_bits is not None and inputs.eps_inv_bits is not None:
        verdict = winner(1 << inputs.t_bits, 1 << inputs.eps_inv_bits, b)

    if scheme == MBFV:
        if inputs.t_bits is None:
            raise ConfigError("MBFV plan needs t_bits")
        target = qmin_mbfv_bound(1 << inputs.t_bits, b)
    else:
        if inputs.eps_inv_bits is None:
            raise ConfigError("MCKKS plan needs eps_inv_bits")
        target = qmin_mckks_bound(delta, b)

    primes = select_primes(inputs.n, min_product=floor_frac(target))
    q = prod(primes)
    log2_q = q.bit_length()
    dec_primes = _decryption_primes(inputs, scheme, primes, b, delta)
    bounds = replace(bounds, b_ct_mp=b + switch_noise(
        inputs.parties, q // prod(dec_primes)))

    try:
        sec_ok = security_check(inputs.n, log2_q)
    except UnknownRingDegreeError:
        if enforce_security:
            raise
        sec_ok = False
    if enforce_security and not sec_ok:
        raise ConfigError(
            f"security check failed: log2 q = {log2_q} exceeds the maximum "
            f"for n = {inputs.n}; relax enforcement or change parameters")

    return PlanReport(scheme=scheme, inputs=inputs, bounds=bounds,
                      qmin_mbfv_bits=mbfv_bits, qmin_mckks_bits=mckks_bits,
                      delta_ckks=delta, winner=verdict, primes=primes,
                      log2_q=log2_q, dec_primes=dec_primes,
                      security_ok=sec_ok,
                      security_required=enforce_security,
                      reference=_reference_note(inputs))
