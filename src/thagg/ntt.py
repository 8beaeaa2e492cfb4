"""Negacyclic number-theoretic transforms and NTT-friendly prime selection.

Transforms are batched over RNS limbs and over any leading axes: residues
of shape (..., limbs, n), such as the chunks of one client's update
stacked on a batch axis, are transformed in one call. The twiddle tables
hold one row per limb and broadcast over the leading axes; they are never
copied per batch entry. Primes are kept below 2**30: the butterflies
reduce lazily, keeping values below 4p < 2**32 between stages, and every
product they form stays below 2**64 in uint64. Inputs and outputs are
canonical uint32 residues in [0, p).

The kernels run with numpy's ufunc buffer cut to one twiddle tile
(`_BUFSIZE`). At numpy's default of 8192 elements, every strided operand
of a small ring's stages, whose contiguous rows are shorter than that, was
copied through the buffer, which doubled the cost of a 2 x 2048 stage.
Rows of 8192 or more residues, as on 5 x 16384, are never buffered.

A call also has a fixed cost, about ten ufunc calls per stage whatever the
array size, so batching pays on small rings and not on large ones. An
inverse per chunk, default buffer -> tile buffer (5 interleaved rounds of
the minimum of 9 calls, best of 3 processes, 2 vCPUs): on 2 x 2048,
0.43 -> 0.37 ms alone and 0.43 -> 0.23, 0.36 -> 0.21 and 0.46 -> 0.30 ms
with 8, 16 and 32 chunks per call; on 5 x 16384, 5.4 -> 5.3 ms alone and
5.0-7.0 ms with 2 chunks per call, either way. The protocol therefore
stacks at most 128 KiB of uint32 residues per call (`harness.BATCH_BYTES`,
`harness.group_layout`): 8 chunks of 2 x 2048, one chunk of 5 x 16384.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import NoPrimesFoundError, ParamsMismatchError

MAX_PRIME_BITS = 30
# The wire formats carry the prime count of a ring in one byte.
MAX_LIMBS = 255

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


def select_primes(n: int, *, min_product: int) -> tuple[int, ...]:
    """Fewest distinct NTT-friendly primes whose product exceeds min_product.

    Uses the largest admissible primes for the head of the list, then
    shrinks the last prime to the smallest one that still clears the bound,
    so the modulus does not overshoot more than necessary. A target that
    needs more than MAX_LIMBS primes is rejected.
    """
    limit = 1 << MAX_PRIME_BITS
    picked: list[int] = []
    product = 1
    while product <= min_product:
        if len(picked) == MAX_LIMBS:
            raise NoPrimesFoundError(
                f"the modulus needs more than {MAX_LIMBS} primes below "
                f"2^{MAX_PRIME_BITS}; the wire formats count a ring's "
                "primes in one byte")
        p = prime_below(limit, n, frozenset(picked))
        if p is None:
            raise NoPrimesFoundError(
                f"no unused prime = 1 mod {2 * n} below 2^{MAX_PRIME_BITS}")
        picked.append(p)
        product *= p

    # Shrink the last prime to the smallest one that still clears the bound.
    if picked:
        head = product // picked[-1]
        # picked[-1] itself qualifies, so the scan always terminates at or
        # below it.
        picked[-1] = prime_at_least(min_product // head + 1, n,
                                    frozenset(picked[:-1]), limit)
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


def limb_tables(n: int, p: int) -> LimbTables:
    psi = _find_psi(p, n)
    brv = _bitrev_indices(n)
    fwd = _powers(psi, n, p)[brv]
    bwd = _powers(pow(psi, -1, p), n, p)[brv]
    return LimbTables(fwd, bwd, pow(n, -1, p))


# Shortest twiddle tile: a stage with m < _TILE butterfly groups repeats its
# m twiddles to _TILE entries, so its ufuncs broadcast over long rows. Of
# 64 ... 1024, 256 was fastest at both 5 x 16384 and 2 x 2048.
_TILE = 256

# numpy's ufunc buffer, in elements, while a kernel runs. numpy copies a
# strided operand through the buffer (8192 by default) when its rows are
# shorter than the buffer: an add of the two halves of a (R, 2L) uint64
# array, 16384 elements per half, took 17-24 us for L <= 2048 and 7-13 us
# for L >= 4096, and 8-14 us at every L with a 256-element buffer (numpy
# 2.4, 2 vCPUs, two sessions). From n = 512 up no kernel row is shorter
# than a tile, so a buffer of one tile leaves every operand unbuffered.
_BUFSIZE = _TILE


def _tiles(n: int) -> tuple[slice, ...]:
    """Where each stage's twiddle tile sits in a kernel table, stage m = 1
    first; the tile of stage m has max(m, _TILE) entries (at most n/2)."""
    out, start, m = [], 0, 1
    while m < n:
        width = max(m, min(_TILE, n // 2))
        out.append(slice(start, start + width))
        start += width
        m *= 2
    return tuple(out)


def _kernel_layout(table: np.ndarray, n: int) -> np.ndarray:
    """Stage twiddles table[:, m:2m], each repeated to its tile, end to end."""
    tiles = []
    for i, tile in enumerate(_tiles(n)):
        m = 1 << i
        tiles.append(np.tile(table[:, m : 2 * m], (tile.stop - tile.start) // m))
    return np.concatenate(tiles, axis=1).astype(np.uint64)


@dataclass(frozen=True)
class TransformPlan:
    """Per-parameter-set transform context, batched over limbs.

    The kernel tables are uint64, laid out by `_kernel_layout`: for each
    stage, the twiddles psi^bitrev(m + j) of its m groups, as a tile. Each
    twiddle w comes with its Shoup companion w' = floor(w * 2^32 / p).
    """

    n: int
    primes: tuple[int, ...]
    p: np.ndarray            # uint64, shape (limbs, 1)
    tiles: tuple[slice, ...]
    w: np.ndarray            # uint64, shape (limbs, sum of tile widths)
    w_shoup: np.ndarray
    w_inv: np.ndarray        # the same for psi^-1
    w_inv_shoup: np.ndarray
    n_inv: np.ndarray        # uint64, shape (limbs, 1)
    n_inv_shoup: np.ndarray


def _shoup(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    return (w << np.uint64(32)) // p


@lru_cache(maxsize=None)
def transform_plan(n: int, primes: tuple[int, ...]) -> TransformPlan:
    tabs = [limb_tables(n, p) for p in primes]
    p = np.array(primes, dtype=np.uint64)[:, None]
    w = _kernel_layout(np.stack([t.psi_brv for t in tabs]), n)
    w_inv = _kernel_layout(np.stack([t.psi_inv_brv for t in tabs]), n)
    n_inv = np.array([t.n_inv for t in tabs], dtype=np.uint64)[:, None]
    return TransformPlan(
        n=n, primes=primes, p=p, tiles=_tiles(n),
        w=w, w_shoup=_shoup(w, p), w_inv=w_inv, w_inv_shoup=_shoup(w_inv, p),
        n_inv=n_inv, n_inv_shoup=_shoup(n_inv, p))


# The kernel: Harvey's lazy butterflies on uint64, with no division and no
# float. With p < 2^30 every value stays below 4p < 2^32 between stages, a
# Shoup product w*y - floor(w'*y / 2^32)*p of y < 2^32 lies in [0, 2p), and
# every intermediate product is below 2^64.
#
# Data flow (Pease's constant geometry): before stage s (m = 2^s groups)
# the residue of natural index i sits at position rotl(i, s) of log2(n)
# bits. Each butterfly's inputs are then the two contiguous halves x = a[i],
# y = a[i + n/2], its group is i mod m, and its outputs go to b[2i] and
# b[2i + 1], which is position rotl(i, s + 1). After log2(n) stages the
# order is natural again.


def _mul_shoup(y, w, ws, p, out, tmp):
    """out = w*y - floor(ws*y / 2^32)*p, in [0, 2p) for y < 2^32.

    out may be y itself; tmp must be a separate buffer.
    """
    np.multiply(y, ws, out=tmp)
    tmp >>= np.uint64(32)
    tmp *= p
    np.multiply(y, w, out=out)
    out -= tmp


def _by_tile(half: np.ndarray, tile: slice) -> np.ndarray:
    """A (..., limbs, n/2) half as rows of one tile's width."""
    *lead, k, h = half.shape
    return half.reshape(*lead, k, h // (tile.stop - tile.start), -1)


def _unbuffered(kernel):
    """Run kernel with the ufunc buffer at _BUFSIZE, then restore the
    caller's setting, also when kernel raises. Residues must be shaped
    (..., limbs, n) for the plan."""
    @wraps(kernel)
    def run(res: np.ndarray, plan: TransformPlan) -> np.ndarray:
        old = np.setbufsize(_BUFSIZE)
        try:
            if res.shape[-2:] != (len(plan.primes), plan.n):
                raise ParamsMismatchError(
                    f"residues of shape {res.shape} do not fit a transform "
                    f"of {len(plan.primes)} limbs of n = {plan.n}")
            return kernel(res, plan)
        finally:
            np.setbufsize(old)
    return run


@_unbuffered
def forward(res: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Forward negacyclic NTT of all limbs of res, shape (..., limbs, n);
    output in bit-reversed order.

    Cooley-Tukey butterflies x, y -> x + wy, x - wy with inputs in [0, 4p):
    x drops to [0, 2p) by one conditional subtraction of 2p, wy is a Shoup
    product in [0, 2p), and x - wy is formed as x + 2p - wy. The result is
    reduced to canonical residues in [0, p). The input is not modified.
    """
    *lead, k, n = res.shape
    h = n // 2
    a = res.astype(np.uint64, order="C")
    b = np.empty_like(a)
    wy = np.empty((*lead, k, h), dtype=np.uint64)
    tmp = np.empty_like(wy)
    p = plan.p
    two_p = p + p
    p_rows = p[:, :, None]
    for tile in plan.tiles:
        x, y = a[..., :h], a[..., h:]
        _mul_shoup(_by_tile(y, tile), plan.w[:, None, tile],
                   plan.w_shoup[:, None, tile], p_rows,
                   _by_tile(wy, tile), _by_tile(tmp, tile))
        np.subtract(x, two_p, out=tmp)
        np.minimum(x, tmp, out=x)
        pairs = b.reshape(*lead, k, h, 2)
        np.add(x, wy, out=pairs[..., 0])
        x += two_p
        np.subtract(x, wy, out=pairs[..., 1])
        a, b = b, a
    np.subtract(a, two_p, out=b)
    np.minimum(a, b, out=a)
    np.subtract(a, p, out=b)
    return np.minimum(a, b, out=a).astype(np.uint32)


@_unbuffered
def inverse(res: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Inverse of `forward`; input bit-reversed, output natural order.

    Gentleman-Sande butterflies x, y -> x + y, w(x - y), the stages of
    `forward` undone in reverse order, keep values in [0, 2p): x + y by one
    conditional subtraction of 2p, w(x + 2p - y) as a Shoup product. The
    input is not modified.
    """
    *lead, k, n = res.shape
    h = n // 2
    a = res.astype(np.uint64, order="C")
    b = np.empty_like(a)
    tmp = np.empty((*lead, k, h), dtype=np.uint64)
    p = plan.p
    two_p = p + p
    p_rows = p[:, :, None]
    for tile in reversed(plan.tiles):
        pairs = a.reshape(*lead, k, h, 2)
        x, y = pairs[..., 0], pairs[..., 1]
        s, d = b[..., :h], b[..., h:]
        np.add(x, y, out=s)
        np.subtract(x, y, out=d)
        d += two_p
        np.subtract(s, two_p, out=tmp)
        np.minimum(s, tmp, out=s)
        d_rows = _by_tile(d, tile)
        _mul_shoup(d_rows, plan.w_inv[:, None, tile],
                   plan.w_inv_shoup[:, None, tile], p_rows,
                   d_rows, _by_tile(tmp, tile))
        a, b = b, a
    _mul_shoup(a, plan.n_inv, plan.n_inv_shoup, p, a, b)
    np.subtract(a, p, out=b)
    return np.minimum(a, b, out=a).astype(np.uint32)


def pointwise(a: np.ndarray, b: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """a * b mod p per limb; shapes (..., limbs, n) broadcast as numpy's do."""
    prod = np.multiply(a, b, dtype=np.uint64)
    return np.remainder(prod, plan.p, out=prod).astype(np.uint32)
