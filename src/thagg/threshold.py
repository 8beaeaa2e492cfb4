"""L-out-of-L threshold variant: additive shares of the ideal secret key,
collective public key under a common reference polynomial, and two-phase
collective decryption with smudging noise.

The ideal key sum(sk_i) never exists in one place; every partial decryption
adds noise drawn uniformly from [-b_smg, b_smg] at the full modulus q, with
b_smg the plan's (`SchemeParams.bounds`), whose aggregate bound b_ct_mp
`schemes.setup` already checked holds all L smudging terms. The
smudged share is then rounded from q to the decryption modulus q' of
`SchemeParams.dec_ring` (modulus switching, `ring.scale_down`): public
post-processing of an already smudged value, so it costs no security, and
the share is sent on the limbs of q' only.

c0 is only ever used at q', so each client rounds its fresh c0 there
(`switch_c0`) before sending it; c1 stays at q, where s_i * c1 and the
smudging are computed. The aggregator sums c0 at q' and the combiner adds
the shares to it, and the decoders lift that sum at q'. Shares, the CRS
polynomial and the collective public key are stored in the NTT domain; the
messages (public-key shares, partial decryptions, ciphertexts) are
coefficient-domain. Every combine takes one contribution from each of the
parties 1..L (`check_parties`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from . import ring as rg
from .errors import ParamsMismatchError, ShareSetError, SmudgeBoundError
from .rng import Xof
from .schemes import Ciphertext, PublicKey, SchemeParams

CRS_SEED_BYTES = 32


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


def crs_expand(seed: bytes, params: rg.RingParams) -> rg.RingElement:
    """The common reference polynomial p1, NTT-domain: a pure function of
    (seed, params), so every party derives the same p1."""
    seed = bytes(seed)
    if len(seed) != CRS_SEED_BYTES:
        raise ValueError(f"CRS seed must be {CRS_SEED_BYTES} bytes")
    stream = Xof.from_seed(seed).child("crs/p1")
    return rg.to_ntt(rg.sample_uniform(params, stream))


def gen_share(params: SchemeParams, index: int, rng: Xof) -> SecretShare:
    if index < 1:
        raise ValueError("party indices start at 1")
    return SecretShare(index=index,
                       s=rg.to_ntt(rg.sample_ternary(params.ring, rng)))


def pk_share(params: SchemeParams, share: SecretShare, p1: rg.RingElement,
             rng: Xof, *, e: rg.RingElement | None = None) -> PkShare:
    """p0_i = -p1 * sk_i + e_i with fresh noise e_i."""
    if e is None:
        e = rg.sample_gaussian(params.ring, params.noise, rng)
    p0 = rg.ring_add(rg.ring_neg(rg.ring_mul(p1, share.s)), e)
    return PkShare(index=share.index, p0=p0)


def check_parties(indices, parties: int, what: str) -> None:
    """Raise ShareSetError unless `indices` are 1..parties, each once."""
    got = sorted(indices)
    if got != list(range(1, parties + 1)):
        raise ShareSetError(
            f"need one {what} from each of parties 1..{parties}, got {got}")


def combine_pk(params: SchemeParams, shares: list[PkShare],
               p1: rg.RingElement, parties: int) -> PublicKey:
    """cpk = (sum p0_i, p1); valid for the ideal key with noise sum e_i."""
    check_parties([sh.index for sh in shares], parties, "public-key share")
    acc = rg.zero(params.ring)
    for sh in shares:
        rg.add_into(acc, sh.p0)
    return PublicKey(p0=rg.to_ntt(acc), p1=p1)


def switch_c0(params: SchemeParams, ct: Ciphertext) -> Ciphertext:
    """The ciphertext with c0 rounded from q to q' (`params.dec_ring`), as a
    client sends it; c1 stays at q. Public post-processing of the
    ciphertext: the rounding adds at most 1/2 in q' units to what it opens
    to (`planner.switch_noise`)."""
    return replace(ct, c0=rg.scale_down(ct.c0, params.dec_ring))


def partial_decrypt(params: SchemeParams, share: SecretShare,
                    c1: rg.RingElement, rng: Xof | Sequence[Xof] | None, *,
                    e_smg: rg.RingElement | None = None) -> PartialDecryption:
    """h_i = round((sk_i * c1 + e_smg,i) * q'/q) for the summed c1 at q, in
    either domain, with e_smg,i uniform on [-b_smg, b_smg]; in q' (dec_ring).

    e_smg is drawn from rng, a stream or one per batch entry, unless given,
    at the plan's b_smg (`params.bounds`): parameters set up without the
    plan's bounds raise SmudgeBoundError. A batch of summed c1s (shape
    (B, limbs, n)) with a batch of smudging noise, one entry per c1, gives
    a batch of shares in one product, one inverse transform and one
    addition.
    """
    if e_smg is None:
        if params.bounds is None:
            raise SmudgeBoundError("no smudging bound: set the parameters "
                                   "up with the plan's bounds")
        e_smg = rg.sample_smudging(params.ring, params.bounds.b_smg, rng)
    h = rg.ring_add(rg.ring_mul(share.s, c1), e_smg)
    return PartialDecryption(index=share.index,
                             h=rg.scale_down(h, params.dec_ring))


def combine_decrypt(params: SchemeParams, c0: rg.RingElement,
                    partials: list[PartialDecryption],
                    parties: int) -> rg.RingElement:
    """d' = [c0 + sum h_i]_q', coefficient-domain, for a chunk's summed c0,
    which the clients already rounded to q' (`switch_c0`);
    `schemes.bfv_round` or `schemes.ckks_scale_down` decodes it."""
    check_parties([part.index for part in partials], parties,
                  "partial decryption")
    if c0.params != params.dec_ring:
        raise ParamsMismatchError(
            f"c0 is on {len(c0.params.primes)} limbs; collective "
            f"decryption needs it rounded to the {len(params.dec_ring.primes)} "
            "limbs of q' (switch_c0)")
    acc = replace(c0, residues=c0.residues.copy())  # the combine's own
    for part in partials:
        rg.add_into(acc, part.h)
    return acc
