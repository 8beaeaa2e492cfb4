"""L-out-of-L threshold variant: additive shares of the ideal secret key,
collective public key under a common reference polynomial, and two-phase
collective decryption with smudging noise.

The ideal key sum(sk_i) never exists in one place; every partial decryption
adds noise drawn uniformly from [-b_smg, b_smg], sized so the combined term
stays below the planner's aggregate bound. Shares, the CRS polynomial and
the collective public key are stored in the NTT domain; the messages
(public-key shares, partial decryptions) are coefficient-domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ring as rg
from .errors import ShareSetError, SmudgeBoundError
from .rng import Xof
from .schemes import (
    BFV,
    CKKS,
    Ciphertext,
    Plaintext,
    PublicKey,
    SchemeParams,
    bfv_round,
    ckks_scale_down,
)

CRS_SEED_BYTES = 32


@dataclass(frozen=True)
class Crs:
    """Common reference polynomial, expanded deterministically from a seed."""

    seed: bytes
    p1: rg.RingElement


@dataclass(frozen=True)
class SecretShare:
    index: int          # party index in 1..L
    s: rg.RingElement   # ternary share of the ideal key


@dataclass(frozen=True)
class PkShare:
    index: int
    p0: rg.RingElement


@dataclass(frozen=True)
class PartialDecryption:
    index: int
    h: rg.RingElement


@dataclass(frozen=True)
class SmudgeParams:
    """Per-party smudging bound b_smg (`planner.smudge_bound`) for `parties`
    partial decryptions of a ciphertext with noise at most b_ct."""

    parties: int
    b_ct: Fraction
    b_smg: Fraction


def crs_expand(seed: bytes, params: rg.RingParams) -> Crs:
    """Pure function of (seed, params); every party derives the same p1."""
    seed = bytes(seed)
    if len(seed) != CRS_SEED_BYTES:
        raise ValueError(f"CRS seed must be {CRS_SEED_BYTES} bytes")
    stream = Xof.from_seed(seed).child("crs/p1")
    return Crs(seed=seed, p1=rg.to_ntt(rg.sample_uniform(params, stream)))


def gen_share(params: SchemeParams, index: int, rng: Xof) -> SecretShare:
    if index < 1:
        raise ValueError("party indices start at 1")
    return SecretShare(index=index,
                       s=rg.to_ntt(rg.sample_ternary(params.ring, rng)))


def pk_share(params: SchemeParams, share: SecretShare, crs: Crs, rng: Xof, *,
             e: rg.RingElement | None = None) -> PkShare:
    """p0_i = -p1 * sk_i + e_i with fresh noise e_i."""
    if e is None:
        e = rg.sample_gaussian(params.ring, params.noise, rng)
    p0 = rg.ring_add(rg.ring_neg(rg.ring_mul(crs.p1, share.s)), e)
    return PkShare(index=share.index, p0=p0)


def _check_indices(items, parties: int, what: str) -> None:
    seen = set()
    for it in items:
        if it.index in seen:
            raise ShareSetError(f"duplicate {what} from party {it.index}")
        seen.add(it.index)
    if len(seen) != parties:
        missing = sorted(set(range(1, parties + 1)) - seen)
        raise ShareSetError(f"expected {parties} {what}s, missing {missing}")


def combine_pk(params: SchemeParams, shares: list[PkShare], crs: Crs,
               parties: int) -> PublicKey:
    """cpk = (sum p0_i, p1); valid for the ideal key with noise sum e_i."""
    _check_indices(shares, parties, "public-key share")
    acc = rg.zero(params.ring)
    for sh in shares:
        acc = rg.ring_add(acc, sh.p0)
    return PublicKey(p0=rg.to_ntt(acc), p1=crs.p1)


def partial_decrypt(params: SchemeParams, share: SecretShare, ct: Ciphertext,
                    smudge: SmudgeParams, rng: Xof, *,
                    e_smg: list[int] | None = None) -> PartialDecryption:
    """h_i = sk_i * c1 + e_smg,i with e_smg,i uniform on [-b_smg, b_smg].

    Rejects configurations where the combined smudging of all parties cannot
    fit under the modulus; that means the planner and the runtime disagree
    about q.
    """
    _check_smudge_fits(params, smudge)
    if e_smg is None:
        noise = rg.sample_smudging(params.ring, smudge.b_smg, rng)
    else:
        noise = rg.from_coeffs(params.ring, e_smg)
    h = rg.ring_add(rg.ring_mul(share.s, ct.c1), noise)
    return PartialDecryption(index=share.index, h=h)


def _check_smudge_fits(params: SchemeParams, smudge: SmudgeParams) -> None:
    # the opened value carries one smudging term per party on top of the
    # ciphertext noise
    total = smudge.b_ct + smudge.parties * smudge.b_smg
    q = params.ring.q
    if params.scheme == BFV:
        room = Fraction(q, 2 * params.t) - Fraction(params.t, 2)
    else:
        room = Fraction(q, 2) - params.delta
    if not total < room:
        raise SmudgeBoundError(
            f"b_ct + {smudge.parties}*b_smg = {float(total):.4g} does not fit "
            f"under q (room {float(room):.4g}); q was not sized for this "
            "smudging level")


def combine_decrypt(params: SchemeParams, ct: Ciphertext,
                    partials: list[PartialDecryption],
                    parties: int) -> rg.Lifted:
    """d = [c0 + sum h_i]_q as centered coefficients."""
    _check_indices(partials, parties, "partial decryption")
    acc = ct.c0
    for part in partials:
        acc = rg.ring_add(acc, part.h)
    return rg.crt_lift(acc)


def finalize_bfv(params: SchemeParams, d: rg.Lifted) -> Plaintext:
    if params.scheme != BFV:
        raise ShareSetError("finalize_bfv needs BFV parameters")
    return bfv_round(params, d)


def finalize_ckks(params: SchemeParams, d: rg.Lifted) -> Plaintext:
    if params.scheme != CKKS:
        raise ShareSetError("finalize_ckks needs CKKS parameters")
    return ckks_scale_down(params, d)


def reconstruct_ideal_key(params: SchemeParams,
                          shares: list[SecretShare]) -> rg.RingElement:
    """Sum of all shares. Test-only: no protocol party may ever hold this."""
    acc = rg.zero(params.ring, rg.NTT)
    for sh in shares:
        acc = rg.ring_add(acc, sh.s)
    return acc
