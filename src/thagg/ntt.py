"""Negacyclic number-theoretic transforms and NTT-friendly prime selection.

Transforms are batched over RNS limbs: a residue matrix of shape
(limbs, n) is transformed in place of n separate calls. Primes are kept
below 2**30 so that butterfly products of two residues fit in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoPrimesFoundError

MAX_PRIME_BITS = 30

# Deterministic Miller-Rabin witness set, valid for all p < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_below(limit: int, n: int, exclude: frozenset[int] = frozenset()) -> int | None:
    """Largest prime p < limit with p = 1 (mod 2n), skipping excluded ones."""
    step = 2 * n
    k = (limit - 2) // step
    while k >= 1:
        p = k * step + 1
        if p not in exclude and is_prime(p):
            return p
        k -= 1
    return None


def prime_at_least(lo: int, n: int, exclude: frozenset[int] = frozenset(),
                   limit: int | None = None) -> int | None:
    """Smallest prime p >= lo with p = 1 (mod 2n), below an optional limit."""
    step = 2 * n
    k = max(1, -(-(lo - 1) // step))
    while True:
        p = k * step + 1
        if limit is not None and p >= limit:
            return None
        if p >= lo and p not in exclude and is_prime(p):
            return p
        k += 1


def select_primes(n: int, *, min_product: int | None = None,
                  min_bits: int | None = None,
                  max_prime_bits: int = MAX_PRIME_BITS) -> tuple[int, ...]:
    """Fewest distinct NTT-friendly primes whose product clears the target.

    When min_product is given the product must strictly exceed it; when
    min_bits is given the product's bit length must reach it. Uses the
    largest admissible primes for the head of the list, then shrinks the
    last prime to the smallest one that still clears the bound, so the
    modulus does not overshoot more than necessary.
    """
    if min_product is None and min_bits is None:
        raise ValueError("need min_product or min_bits")
    limit = 1 << max_prime_bits

    def met(q: int) -> bool:
        if min_product is not None and q <= min_product:
            return False
        if min_bits is not None and q.bit_length() < min_bits:
            return False
        return True

    picked: list[int] = []
    product = 1
    while not met(product):
        p = prime_below(limit, n, frozenset(picked))
        if p is None:
            raise NoPrimesFoundError(
                f"no unused prime = 1 mod {2 * n} below 2^{max_prime_bits}")
        picked.append(p)
        product *= p

    # Shrink the last prime to the smallest one that still clears the bound.
    if picked:
        head = product // picked[-1]
        needed = 1
        if min_product is not None:
            needed = max(needed, int(min_product) // head + 1)
        if min_bits is not None:
            needed = max(needed, -(-(1 << (min_bits - 1)) // head))
        # picked[-1] itself qualifies, so the scan always terminates at or
        # below it.
        tight = prime_at_least(needed, n, frozenset(picked[:-1]), limit)
        picked[-1] = tight
    return tuple(picked)


def _bitrev_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of range(n), n a power of two."""
    idx = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for _ in range(n.bit_length() - 1):
        out = (out << 1) | (idx & 1)
        idx >>= 1
    return out


def _powers(base: int, n: int, p: int) -> np.ndarray:
    """base^i mod p for i < n: each pass extends the table by doubling."""
    out = np.ones(1, dtype=np.int64)
    while out.size < n:
        step = pow(base, out.size, p)
        out = np.concatenate([out, out * step % p])
    return out[:n]


def _find_psi(p: int, n: int) -> int:
    """A primitive 2n-th root of unity mod p (p = 1 mod 2n, n a power of two)."""
    e = (p - 1) // (2 * n)
    for c in range(2, 1 << 20):
        psi = pow(c, e, p)
        if pow(psi, n, p) == p - 1:
            return psi
    raise NoPrimesFoundError(f"no primitive 2n-th root found mod {p}")


@dataclass(frozen=True)
class LimbTables:
    psi_brv: np.ndarray      # psi^bitrev(i), forward twiddles
    psi_inv_brv: np.ndarray  # psi^-bitrev(i), inverse twiddles
    n_inv: int


@lru_cache(maxsize=None)
def limb_tables(n: int, p: int) -> LimbTables:
    psi = _find_psi(p, n)
    brv = _bitrev_indices(n)
    fwd = _powers(psi, n, p)[brv]
    bwd = _powers(pow(psi, -1, p), n, p)[brv]
    return LimbTables(fwd, bwd, pow(n, -1, p))


@dataclass(frozen=True)
class TransformPlan:
    """Per-parameter-set transform context, batched over limbs."""

    n: int
    primes: tuple[int, ...]
    p_col: np.ndarray        # shape (limbs, 1)
    psi: np.ndarray          # shape (limbs, n)
    psi_inv: np.ndarray      # shape (limbs, n)
    n_inv_col: np.ndarray    # shape (limbs, 1)


@lru_cache(maxsize=None)
def transform_plan(n: int, primes: tuple[int, ...]) -> TransformPlan:
    tabs = [limb_tables(n, p) for p in primes]
    return TransformPlan(
        n=n,
        primes=primes,
        p_col=np.array(primes, dtype=np.int64)[:, None],
        psi=np.stack([t.psi_brv for t in tabs]),
        psi_inv=np.stack([t.psi_inv_brv for t in tabs]),
        n_inv_col=np.array([t.n_inv for t in tabs], dtype=np.int64)[:, None],
    )


def forward(res: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Forward negacyclic NTT of all limbs; output in bit-reversed order."""
    k, n = res.shape
    a = res.copy()
    p3 = plan.p_col[:, :, None]
    t, m = n, 1
    while m < n:
        t //= 2
        view = a.reshape(k, m, 2 * t)
        u = view[:, :, :t].copy()
        v = (view[:, :, t:] * plan.psi[:, m : 2 * m, None]) % p3
        view[:, :, :t] = (u + v) % p3
        view[:, :, t:] = (u - v) % p3
        m *= 2
    return a


def inverse(res: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Inverse of `forward`; input bit-reversed, output natural order."""
    k, n = res.shape
    a = res.copy()
    p3 = plan.p_col[:, :, None]
    t, m = 1, n
    while m > 1:
        h = m // 2
        view = a.reshape(k, h, 2 * t)
        u = view[:, :, :t].copy()
        v = view[:, :, t:].copy()
        view[:, :, :t] = (u + v) % p3
        view[:, :, t:] = ((u - v) * plan.psi_inv[:, h : 2 * h, None]) % p3
        t *= 2
        m = h
    return (a * plan.n_inv_col) % plan.p_col


def pointwise(a: np.ndarray, b: np.ndarray, plan: TransformPlan) -> np.ndarray:
    return (a * b) % plan.p_col
