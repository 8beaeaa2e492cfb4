"""Exact rational helpers shared by scheme setup and the parameter planner.

All correctness inequalities are evaluated on Fractions; bit counts come
from integer bit lengths. Floats appear only in the logarithm helper used
for reporting and in exact conversions between floats and integers (the
encoders' rounding, the correctly rounded `Ratios.to_floats`), never in
accept/reject decisions.

`Ratios` is the one integer form of a vector of rationals: numerators over
a shared denominator, compared and reduced on integers only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

INT64_MAX = (1 << 63) - 1


def frac(x) -> Fraction:
    """Exact Fraction from int, str ("19.2" stays 96/5), Fraction, or float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x)  # exact value of the float
    return Fraction(str(x)) if isinstance(x, str) else Fraction(x)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def pow2_ge(k: int, x: Fraction) -> bool:
    """2^k >= x, exact for any integer k."""
    num, den = x.numerator, x.denominator
    if k >= 0:
        return (den << k) >= num
    return den >= (num << -k)


def ceil_log2(x: Fraction | int) -> int:
    """Smallest k with 2^k >= x; x must be positive."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ceil_log2 needs x > 0")
    k = x.numerator.bit_length() - x.denominator.bit_length()
    while not pow2_ge(k, x):
        k += 1
    while k > -(10**9) and pow2_ge(k - 1, x):
        k -= 1
    return k


def min_q_bits(bound: Fraction | int) -> int:
    """Bit length of the smallest integer q with q > bound."""
    return (floor_frac(Fraction(bound)) + 1).bit_length()


def frac_log2(x: Fraction | int) -> float:
    """log2 of a positive rational, accurate to ~1 ulp of float."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("frac_log2 needs x > 0")
    num, den = x.numerator, x.denominator
    a = max(0, num.bit_length() - 53)
    b = max(0, den.bit_length() - 53)
    return (math.log2(num >> a) + a) - (math.log2(den >> b) + b)


def scaled_round(x: float, d: int) -> int:
    """floor(x * 2^d + 1/2) exactly, treating x as its exact binary value."""
    if x == 0.0:
        return 0
    m, e = math.frexp(x)
    big = int(m * (1 << 53))  # exact: x = big * 2^(e-53)
    s = e - 53 + d
    if s >= 0:
        return big << s
    k = -s
    return (2 * big + (1 << k)) >> (k + 1)


def scaled_round_array(x: np.ndarray, d: int) -> np.ndarray:
    """`scaled_round` of every element of a finite float64 array, as int64.

    Needs d >= 0 and |x| * 2^d < 2^62. Multiplying by 2^d only moves the
    exponent, so y = x * 2^d is exact; y - floor(y) is exact too, so the
    comparison with 1/2 rounds exactly as floor(y + 1/2).
    """
    y = np.ldexp(x, d)
    low = np.floor(y)
    return low.astype(np.int64) + (y - low >= 0.5)


def scaled_round_residues(x: np.ndarray, d: int,
                          primes: tuple[int, ...]) -> np.ndarray:
    """Residues mod each prime of `scaled_round(x, d)`, shape (limbs, len(x)).

    Finite float64 x, d >= 0, no size limit. Each x is M * 2^s with an
    integer |M| < 2^53 (frexp). Where s + d >= 0 the rounded value is
    M * 2^(s+d) and its residue is (M mod p) * (2^(s+d) mod p); elsewhere it
    is below 2^53 and `scaled_round_array` gives it as int64.
    """
    frac_part, exp = np.frexp(x)
    mant = np.ldexp(frac_part, 53).astype(np.int64)
    shift = exp.astype(np.int64) + (d - 53)
    whole = shift >= 0
    small = scaled_round_array(np.where(whole, 0.0, x), d)
    shifts, index = np.unique(np.where(whole, shift, 0), return_inverse=True)
    rows = np.empty((len(primes), x.size), dtype=np.int64)
    for j, p in enumerate(primes):
        pow2 = np.array([pow(2, int(k), p) for k in shifts], dtype=np.int64)
        rows[j] = np.where(whole, (mant % p) * pow2[index] % p, small % p)
    return rows


def binary_places(x: np.ndarray) -> int:
    """Smallest k >= 0 with every x * 2^k an integer (finite float64 x)."""
    frac_part, exp = np.frexp(x[x != 0])
    if frac_part.size == 0:
        return 0
    mant = np.ldexp(frac_part, 53).astype(np.int64)
    lowest_bit = mant & -mant  # a power of two, exact as a float
    zeros = np.frexp(lowest_bit.astype(np.float64))[1] - 1
    return max(0, int((53 - exp - zeros).max()))


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as Python ints (dtype object) when
    some value does not fit."""
    if isinstance(values, np.ndarray) and values.dtype == object:
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _times(a: np.ndarray, k: int) -> np.ndarray:
    """Exact a * k; int64 while the product fits, Python ints beyond."""
    if k == 1:
        return a
    if a.dtype != object and k <= INT64_MAX and _max_abs(a) * k <= INT64_MAX:
        return a * k
    return a.astype(object) * k


def _gcd_pow2(num: np.ndarray, den: int) -> np.ndarray:
    """gcd(num, den) for Python-int numerators and den a power of two.

    It is the lowest set bit of num (sign aside), capped at den. Unless
    num = 0 mod 2^64 that bit lies in the low 64-bit word, where uint64
    arithmetic isolates it; the rest take np.gcd.
    """
    low = (num & (2**64 - 1)).astype(np.uint64)
    g = (low & (~low + np.uint64(1))).astype(object)
    wide = low == 0
    g[wide] = np.gcd(num[wide], den)
    return np.minimum(g, den)


class Ratios(Sequence):
    """Rationals numerators[i] / denominator over one positive denominator.

    Numerators are int64, or Python ints (dtype object) when they do not
    fit. Indexing gives a Fraction; comparison, reduction and the largest
    gap to another vector work on the integers.
    """

    def __init__(self, numerators, denominator: int):
        if denominator < 1:
            raise ValueError("denominator must be positive")
        self.numerators = int_array(numerators)
        self.denominator = int(denominator)

    @classmethod
    def concat(cls, parts: list["Ratios"]) -> "Ratios":
        dens = {r.denominator for r in parts}
        if len(dens) != 1:
            raise ValueError("concatenated ratios need one denominator")
        return cls(np.concatenate([r.numerators for r in parts]), dens.pop())

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ratios(self.numerators[i], self.denominator)
        return Fraction(int(self.numerators[i]), self.denominator)

    def __eq__(self, other):
        if isinstance(other, Ratios):
            return len(self) == len(other) and self.max_abs_diff(other) == 0
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def max_abs_diff(self, other: "Ratios") -> Fraction:
        """max |self[i] - other[i]|, exact."""
        if len(self) != len(other):
            raise ValueError("ratio vectors differ in length")
        den = math.lcm(self.denominator, other.denominator)
        a = _times(self.numerators, den // self.denominator)
        b = _times(other.numerators, den // other.denominator)
        if (a.dtype != object and b.dtype != object
                and _max_abs(a) + _max_abs(b) > INT64_MAX):
            a = a.astype(object)
        return Fraction(_max_abs(a - b), den)

    def terms(self) -> list[str]:
        """Each value as `num/den` in lowest terms, as `Fraction` prints it."""
        num, den = self.numerators, self.denominator
        if num.dtype != object and den > INT64_MAX:
            num = num.astype(object)
        if num.dtype == object and den & (den - 1) == 0:
            g = _gcd_pow2(num, den)
        else:
            g = np.gcd(num, den)
        return [f"{a}/{b}" for a, b in zip((num // g).tolist(),
                                           (den // g).tolist())]

    def to_floats(self) -> np.ndarray:
        """float64 values, each the correctly rounded quotient."""
        num, den = self.numerators, self.denominator
        limit = 1 << 53  # both sides exact as floats: one rounding, in `/`
        if num.dtype != object and den <= limit and _max_abs(num) <= limit:
            return num.astype(np.float64) / den
        return np.array([v / den for v in num.tolist()], dtype=np.float64)
