"""Certified reference arithmetic written independently of tuatara.

Every reference value the checker compares against is an interval of
rationals that provably contains the true value.  Intervals are plain
``(lo, hi)`` tuples; ``hi`` is ``None`` for a value known to be infinite.
Irrational endpoints come from a float guess that is then verified with
exact integer arithmetic, so no float ever decides a bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

GRID_BITS = 256  # dyadic grid for long reference sums
_GRID = 1 << GRID_BITS


def pow_bracket(n: int, s: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo <= n^(-s) <= hi for an integer n >= 1 and rational s >= 0."""
    s = Fraction(s)
    if n == 1 or s == 0:
        return Fraction(1), Fraction(1)
    if s.denominator == 1:
        v = Fraction(1, n ** s.numerator)
        return v, v
    a, b = s.numerator, s.denominator
    guess = Fraction(math.exp(-float(s) * math.log(n)))
    if guess == 0:
        raise ArithmeticError(f"{n}^-{s} underflows a float")
    eps = Fraction(1, 1 << 40)
    na = n ** a
    while eps < Fraction(1, 4):
        lo = guess * (1 - eps)
        hi = guess * (1 + eps)
        # lo <= n^(-a/b)  <=>  lo^b * n^a <= 1, checked on integers
        lo_ok = lo.numerator ** b * na <= lo.denominator ** b
        hi_ok = hi.numerator ** b * na >= hi.denominator ** b
        if lo_ok and hi_ok:
            return lo, hi
        eps *= 16
    raise ArithmeticError(f"float guess for {n}^-{s} is off")


def sqrt_bracket(q: Fraction, bits: int = 200) -> tuple[Fraction, Fraction]:
    """Rationals bracketing sqrt(q) for rational q >= 0, width 2^-bits."""
    scale = 1 << (2 * bits)
    r = math.isqrt(q.numerator * scale // q.denominator)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


class DyadicSum:
    """Sum of nonnegative term intervals, rounded outward on a 2^-256 grid."""

    def __init__(self) -> None:
        self.lo = 0
        self.hi = 0

    def add(self, lo: Fraction, hi: Fraction) -> None:
        self.lo += (lo.numerator << GRID_BITS) // lo.denominator
        self.hi += -((-hi.numerator << GRID_BITS) // hi.denominator)

    def interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.lo, _GRID), Fraction(self.hi, _GRID)


def exact_unit_sum(dens: list[int]) -> Fraction:
    """Exact sum of 1/d over the list, by balanced pairwise combination."""
    parts = [(1, d) for d in dens]
    if not parts:
        return Fraction(0)
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            (a, b), (c, d) = parts[i], parts[i + 1]
            nxt.append((a * d + b * c, b * d))
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return Fraction(*parts[0])


def iv_mul(x, y):
    """Product of nonnegative intervals."""
    hi = None if x[1] is None or y[1] is None else x[1] * y[1]
    return x[0] * y[0], hi


def iv_div(x, y):
    """Quotient of a nonnegative interval by a strictly positive bounded one."""
    hi = None if x[1] is None else x[1] / y[0]
    return x[0] / y[1], hi


def intersects(a, b) -> bool:
    """True when the closed intervals a and b (hi None = +inf) share a point."""
    if a[1] is not None and a[1] < b[0]:
        return False
    if b[1] is not None and b[1] < a[0]:
        return False
    return True


def sieve(limit: int) -> list[int]:
    """Primes up to limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def first_primes(k: int) -> list[int]:
    limit = 32
    while True:
        primes = sieve(limit)
        if len(primes) >= k:
            return primes[:k]
        limit *= 2


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def bits_of(n: int) -> str:
    """String of the index n >= 1: its binary numeral without the leading 1."""
    return bin(n)[3:]


def index_of(w: str) -> int:
    return int("1" + w, 2)


def certified_bits(lo: Fraction, hi: Fraction | None) -> float:
    """min(256, -log2(hi - lo)); 256 for an exact answer, 0 for a one-sided one."""
    if hi is None:
        return 0.0
    width = hi - lo
    if width == 0:
        return 256.0
    return min(256.0, math.log2(width.denominator) - math.log2(width.numerator))
