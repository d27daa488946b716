"""Exact rational enclosures and certified elementary bounds.

Everything here returns rational numbers or closed rational intervals that
provably contain the target value. No floats participate in any bound; the
only approximation mechanism is outward dyadic rounding, which can widen an
interval but never lets the target escape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import compress
from math import comb, gcd, isqrt, lcm, log, log2

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b', a decimal literal, or an integer, exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def frac_text(x: Fraction) -> str:
    """Exact text of x, also for integers past str()'s digit limit."""
    try:
        return str(x)
    except ValueError:
        parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
        return "/".join(_int_text(n) for n in parts)


def _int_text(n: int) -> str:
    """Decimal text of an integer of any size. Decimal(n) alone takes time
    quadratic in the length; splitting n in halves at bit w and joining
    them as hi * 2^w + lo in exact Decimal arithmetic, whose products of
    long operands are subquadratic, is far faster past a few thousand
    digits. The Inexact trap turns any rounding into an error."""
    powers: dict[int, Decimal] = {}

    def dec(m: int, bits: int) -> Decimal:
        if bits <= 1 << 12:
            return Decimal(m)
        w = bits >> 1
        if w not in powers:
            powers[w] = Decimal(2) ** w
        return dec(m >> w, bits - w) * powers[w] + dec(m & ((1 << w) - 1), w)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return ("-" if n < 0 else "") + str(dec(abs(n), abs(n).bit_length()))


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with rational endpoints; hi=None means unbounded above."""

    lo: Fraction
    hi: Fraction | None

    def __post_init__(self) -> None:
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty enclosure: [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(v: Fraction) -> "Enclosure":
        return Enclosure(v, v)

    @property
    def bounded(self) -> bool:
        return self.hi is not None

    @property
    def width(self) -> Fraction | None:
        return None if self.hi is None else self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.hi is not None and self.hi == self.lo

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v and (self.hi is None or v <= self.hi)

    def encloses(self, other: "Enclosure") -> bool:
        """True when every point of `other` lies in this interval."""
        if other.hi is None:
            return False if self.hi is not None else self.lo <= other.lo
        return self.lo <= other.lo and (self.hi is None or other.hi <= self.hi)

    def midpoint(self) -> Fraction:
        if self.hi is None:
            raise ValueError("midpoint of an unbounded enclosure")
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Enclosure") -> "Enclosure":
        hi = None if (self.hi is None or other.hi is None) else self.hi + other.hi
        return Enclosure(self.lo + other.lo, hi)

    def shift(self, c: Fraction) -> "Enclosure":
        return Enclosure(self.lo + c, None if self.hi is None else self.hi + c)

    def scale(self, c: Fraction) -> "Enclosure":
        # nonnegative scalars only, which is all the accumulation code needs
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if c == 0:
            return Enclosure(_ZERO, _ZERO)
        return Enclosure(self.lo * c, None if self.hi is None else self.hi * c)

    def mul(self, other: "Enclosure") -> "Enclosure":
        """Interval product; both operands must be nonnegative."""
        if self.lo < 0 or other.lo < 0:
            raise ValueError("mul requires nonnegative intervals")
        if self.hi is None or other.hi is None:
            hi = None
            if (self.hi == self.lo == _ZERO) or (other.hi == other.lo == _ZERO):
                hi = _ZERO
            return Enclosure(self.lo * other.lo, hi)
        return Enclosure(self.lo * other.lo, self.hi * other.hi)

    def div(self, other: "Enclosure") -> "Enclosure":
        """Interval quotient; numerator nonnegative, denominator strictly positive."""
        if other.lo <= 0:
            raise ValueError("div requires a strictly positive denominator interval")
        if self.lo < 0:
            raise ValueError("div requires a nonnegative numerator interval")
        lo = _ZERO if other.hi is None else self.lo / other.hi
        hi = None if self.hi is None else self.hi / other.lo
        return Enclosure(lo, hi)


def _round_dyadic(f: Fraction, sig: int, up: bool = False) -> Fraction:
    """The largest dyadic with about `sig` significant bits that is <= f
    (f >= 0), or with up the least that is >= f: -x rounded down, negated."""
    g = -1 if up else 1
    n, d = g * f.numerator, f.denominator
    shift = sig - (n.bit_length() - d.bit_length())
    if shift >= 0:
        return Fraction(g * ((n << shift) // d), 1 << shift)
    return Fraction(g * (n // (d << -shift))) * (1 << -shift)


# ---------------------------------------------------------------------------
# harmonic segments, Catalan numbers and primes


def harmonic_segment(i: int, j: int) -> Fraction:
    """Sum of 1/m for m in [i, j]; empty when j < i. Requires i >= 1."""
    if i < 1:
        raise ValueError("harmonic_segment requires i >= 1")
    return sum((Fraction(1, m) for m in range(i, j + 1)), _ZERO)


def catalan(n: int) -> int:
    """n-th Catalan number, C_0 = 1."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    return comb(2 * n, n) // (n + 1)


def first_primes(count: int) -> list[int]:
    """The first `count` primes, from a sieve of Eratosthenes."""
    limit = 100
    if count >= 6:
        # Rosser: p_n < n (ln n + ln ln n) for n >= 6, so one sieve suffices
        limit = int(count * (log(count) + log(log(count)))) + 10
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return list(compress(range(limit + 1), flags))[:count]


# ---------------------------------------------------------------------------
# certified exponentials and logarithms


def e_bounds(terms: int = 25) -> Enclosure:
    """Rational interval around e from the factorial series.

    The tail past 1/terms! is below 2/(terms+1)!.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    acc = _ZERO
    fact = 1
    for k in range(terms + 1):
        if k:
            fact *= k
        acc += Fraction(1, fact)
    rem = Fraction(2, fact * (terms + 1))
    return Enclosure(acc, acc + rem)


def exp_bounds(w: Fraction, prec: int = 64) -> Enclosure:
    """Interval containing e^w for rational w >= 0, width about 2^-prec relative."""
    if w < 0:
        raise ValueError("exp_bounds requires w >= 0")
    if w == 0:
        return Enclosure.exact(_ONE)
    # argument reduction: square t times so the series runs on r <= 1/2
    t = 0
    r = w
    while r > Fraction(1, 2):
        r /= 2
        t += 1
    guard = prec + 2 * t + 8
    cutoff = Fraction(1, 1 << (guard + 1))
    acc = _ONE
    term = _ONE
    k = 0
    while True:
        k += 1
        term *= r / k
        acc += term
        # geometric tail: remaining sum < 2 * next term once r <= 1/2
        if 2 * term * r / (k + 1) <= cutoff:
            break
    lo = acc
    hi = acc + 2 * term * r / (k + 1)
    sig = guard + 8
    for _ in range(t):
        lo = _round_dyadic(lo * lo, sig)
        hi = _round_dyadic(hi * hi, sig, up=True)
    return Enclosure(lo, hi)


def _atanh_bounds(z: Fraction, prec: int) -> Enclosure:
    """Interval for atanh(z), 0 <= z <= 1/3."""
    if not (0 <= z <= Fraction(1, 3)):
        raise ValueError("series valid for 0 <= z <= 1/3")
    if z == 0:
        return Enclosure.exact(_ZERO)
    cutoff = Fraction(1, 1 << (prec + 2))
    acc = _ZERO
    zz = z * z
    power = z
    j = 0
    while True:
        acc += power / (2 * j + 1)
        power *= zz
        j += 1
        rem = power / ((2 * j + 1) * (1 - zz))
        if rem <= cutoff:
            return Enclosure(acc, acc + rem)


@functools.lru_cache(maxsize=None)
def ln2_bounds(prec: int = 64) -> Enclosure:
    """Interval for ln 2 = 2 atanh(1/3)."""
    a = _atanh_bounds(Fraction(1, 3), prec + 2)
    return Enclosure(2 * a.lo, 2 * a.hi)


def ln_bounds(x: Fraction, prec: int = 64) -> Enclosure:
    """Interval for ln x, rational x > 0."""
    if x <= 0:
        raise ValueError("ln_bounds requires x > 0")
    if x == 1:
        return Enclosure.exact(_ZERO)
    if x < 1:
        inner = ln_bounds(1 / x, prec)
        return Enclosure(-inner.hi, -inner.lo)
    # normalize to m = x / 2^k in [1, 2)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** k > x:
        k -= 1
    m = x / Fraction(2) ** k
    if not 1 <= m < 2:
        raise ArithmeticError(f"ln_bounds reduced {x} to {m}, outside [1, 2)")
    z = (m - 1) / (m + 1)
    a = _atanh_bounds(z, prec + 2)
    body = Enclosure(2 * a.lo, 2 * a.hi)
    l2 = ln2_bounds(prec + 2)
    if k >= 0:
        return Enclosure(body.lo + k * l2.lo, body.hi + k * l2.hi)
    return Enclosure(body.lo + k * l2.hi, body.hi + k * l2.lo)


def log2_bounds(x: Fraction, prec: int = 64) -> Enclosure:
    """Interval for log2 x, rational x > 0; exact when x is a power of two."""
    n, d = x.as_integer_ratio()
    if n > 0 and not n & (n - 1) and not d & (d - 1):  # x = 2^k, k of either sign
        return Enclosure.exact(Fraction(n.bit_length() - d.bit_length()))
    num = ln_bounds(x, prec + 4)
    den = ln2_bounds(prec + 4)
    if x > 1:
        return Enclosure(num.lo / den.hi, num.hi / den.lo)
    return Enclosure(num.lo / den.lo, num.hi / den.hi)


# ---------------------------------------------------------------------------
# roots and rational powers


class PrecisionLimit(Exception):
    """A certified root would need an operand past ROOT_BITS_CAP bits, or an
    exact power more than POWER_BITS_CAP bits."""


# cap on k * prec, the scaling bits of a k-th root operand. A root costs Newton
# steps on cut mantissas and, at large k, two cut powers for its certificate;
# the exact power r^(k-1) of about k prec bits is left for operands next to a
# perfect power. On a 2-core x86-64 host a zeta term (prec 164) takes 0.02 ms
# at k = 100, 0.10 ms at k = 1000 and 0.18 ms at k = 1598, the largest
# denominator under this cap
ROOT_BITS_CAP = 1 << 18

# cap on e floor(log2 b) for an exact power b^e, such as a term n^s or a tail's
# 2^(1-s) at an integer s: a sum at s = 10^9 would build billion-bit integers
POWER_BITS_CAP = 1 << 23

# _ikroot estimates a k-th root by isqrt at k = 2, 4 and 8, by Newton on exact
# powers at k = 3 and 5, and by Newton steps on cut mantissas at every other k
# from this one on, whichever measured fastest (per-k timings in CHANGES.md)
_MANTISSA_K = 6
# from this k on, cut powers try the mantissa estimate's certificate before
# the exact power r^(k-1), which measured faster from about k = 18 on
_CUT_CERT_K = 18
# the cut powers' bits past the root's: n falls within their rounding of r^k
# or (r+1)^k, where the exact power must decide, about once in 2^30
_CERT_GUARD = 32
# the estimate's bits below the unit, which keep its floor off by one rarely
_FRACTION_BITS = 8


def _newton_root(n: int, k: int) -> tuple[int, int]:
    """(floor(n^(1/k)), its (k-1)-th power) for n >= 2 by integer Newton,
    which falls strictly from any overestimate to the root, the first r with
    r**k <= n. The float estimate of n^(1/k), off by about e 2^-51 relative
    for e = log2(n)/k, is padded by 8 times that to start above the root."""
    e = log2(n) / k
    shift = max(int(e) - 48, 0)
    r = (int(2.0 ** (e - shift) * (1 + (e + 16) * 2.0 ** -48)) + 1) << shift
    while True:
        q = r ** (k - 1)
        if r * q <= n:
            return r, q
        r = ((k - 1) * r + n // q) // k


def _cut_pow(y: int, e: int, w: int, up: bool = False) -> tuple[int, int]:
    """(m, c) with m 2^c close below y^e (above it when up), m cut to w bits
    after each product, rounded down (up)."""
    m, c = y, 0
    for bit in bin(e)[3:]:
        m *= m
        c *= 2
        if bit == "1":
            m *= y
        cut = m.bit_length() - w
        if cut > 0:
            m = -(-m >> cut) if up else m >> cut
            c += cut
    return m, c


def _cut_certified(n: int, r: int, k: int) -> bool:
    """True when cut powers show r^k <= n < (r+1)^k: r^k <= m 2^c <= n,
    with m 2^c rounded up, and n < m' 2^c' <= (r+1)^k, rounded down. For
    integer m, m 2^c <= n exactly when m <= n >> c. False says nothing."""
    w = r.bit_length() + _CERT_GUARD
    m, c = _cut_pow(r, k, w, up=True)
    if m > n >> c:
        return False
    m, c = _cut_pow(r + 1, k, w)
    return m > n >> c


def _mantissa_root(n: int, k: int) -> int:
    """An estimate of floor(n^(1/k)), n >= 2, that is exact or off by one
    but for rare operands: Newton's step y' = ((k-1) y + n / y^(k-1)) / k on
    y, the root's top p bits, with y^(k-1) cut to p plus guard bits and n to
    the bits the quotient needs. A step from p good bits gives about
    2p - log2 k, so p doubles from the float estimate's good bits to the
    root's bit length plus _FRACTION_BITS (R. Brent and P. Zimmermann,
    Modern Computer Arithmetic, 2010, §1.5 and §4.2)."""
    e = log2(n) / k
    p = 47 - (int(e) + 16).bit_length()  # the float's good bits, as padded in _newton_root
    if e < p:
        return max(int(2.0 ** e), 1)
    top = int(e) + 1  # the root's bit length, give or take one
    # y 2^t is the estimate, y of p bits, until t = -_FRACTION_BITS
    t = top - p
    y = int(2.0 ** (e - t))
    guard = k.bit_length() + 4
    while t > -_FRACTION_BITS:
        p = min(2 * p - guard, top + _FRACTION_BITS)
        y <<= t - (top - p)
        t = top - p
        m, c = _cut_pow(y, k - 1, p + guard)
        u = c + k * t  # n / y^(k-1) in units of 2^t is (n >> u) / m
        y = ((k - 1) * y + (n >> u if u >= 0 else n << -u) // m) // k
    return y >> _FRACTION_BITS


def _ikroot(n: int, k: int) -> int:
    """Integer k-th root: the largest r with r**k <= n, certified. From
    k = _CUT_CERT_K on, cut powers first try to show r^k <= n < (r+1)^k.
    Otherwise the estimate r is checked with one exact power q = r**(k-1):
    since (r+1)^k >= r^k + k r^(k-1), low = r q <= n < low + k q proves it.
    An estimate that fails is never used: integer Newton on exact powers
    finds the root, checked against (r+1)**k."""
    if n < 0 or k < 1:
        raise ValueError("_ikroot requires n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    if k == 2:
        r = q = isqrt(n)
    elif k in (4, 8):
        # floor(floor(x)^(1/2))^(1/j) = floor(x^(1/(2j)))
        r = isqrt(isqrt(n))
        if k == 8:
            r = isqrt(r)
        q = r ** (k - 1)
    elif k < _MANTISSA_K:
        r, q = _newton_root(n, k)
    else:
        r = _mantissa_root(n, k)
        if k >= _CUT_CERT_K and _cut_certified(n, r, k):
            return r
        q = r ** (k - 1)
    low = r * q
    if not low <= n < low + k * q:
        # a wrong estimate, or a root too small for the binomial bound
        r = _newton_root(n, k)[0]
        if not n < (r + 1) ** k:
            raise ArithmeticError(f"integer {k}-th root of a {n.bit_length()}-bit operand failed")
    return r


def check_power(base: int, e: int) -> None:
    """Refuse base^e, base >= 1 and e >= 0, past POWER_BITS_CAP, before it is built."""
    bits = e * (base.bit_length() - 1)
    if bits > POWER_BITS_CAP:
        raise PrecisionLimit(f"a power needs {_int_text(bits)} bits, over {POWER_BITS_CAP}")


def check_root_cap(k: int, prec: int) -> None:
    """Refuse a k-th root at prec bits past ROOT_BITS_CAP, before its operand is built."""
    if k * prec > ROOT_BITS_CAP:
        k_text, bits = _int_text(k), _int_text(k * prec)
        raise PrecisionLimit(f"a {k_text}-th root needs {bits} operand bits, over {ROOT_BITS_CAP}")


def _scaled_root(num: int, den: int, k: int, prec: int) -> int:
    """floor(2^prec (num/den)^(1/k)); the caller checks ROOT_BITS_CAP."""
    # floor(x^(1/k)) == floor(floor(x)^(1/k)), so the quotient may be floored first
    n = num << (k * prec)
    return _ikroot(n if den == 1 else n // den, k)


def inverse_root(num: int, den: int, a: int, k: int, prec: int) -> tuple[int, int]:
    """(p, r) with 2^p / (r + 1) < (num/den)^(-a/k) <= 2^p / r: r is
    floor(2^p (num/den)^(a/k)), and p doubles from prec + 4 while it is 0.
    The root cap at prec + 4, then the power cap for num^a and den^a, refuse
    before either is built; a doubled p is checked as it doubles."""
    p = prec + 4
    check_root_cap(k, p)
    check_power(max(num, den), a)
    num, den = num ** a, den ** a
    while (r := _scaled_root(num, den, k, p)) == 0:
        p *= 2
        check_root_cap(k, p)
    return p, r


def root_bounds(v: Fraction, k: int, prec: int = 64) -> Enclosure:
    """Interval of width <= 2^-prec around v^(1/k), v >= 0 rational, k >= 1."""
    if v < 0:
        raise ValueError("root_bounds requires v >= 0")
    if k < 1:
        raise ValueError("root_bounds requires k >= 1")
    if v == 0:
        return Enclosure.exact(_ZERO)
    if k == 1:
        return Enclosure.exact(v)
    check_root_cap(k, prec)
    s = _scaled_root(v.numerator, v.denominator, k, prec)
    return Enclosure(Fraction(s, 1 << prec), Fraction(s + 1, 1 << prec))


def pow_bounds(v: Fraction, e: Fraction, prec: int = 64) -> Enclosure:
    """Interval around v^e for rational v > 0 and rational e, refused past
    the root cap, then the power cap, before v^a is built: by inverse_root
    at a negative non-integer e, else here."""
    if v <= 0:
        raise ValueError("pow_bounds requires v > 0")
    a, b = e.numerator, e.denominator
    if b > 1 and a < 0:
        p, r = inverse_root(v.numerator, v.denominator, -a, b, prec)
        return Enclosure(Fraction(1 << p, r + 1), Fraction(1 << p, r))
    if b > 1:
        check_root_cap(b, prec)
    check_power(max(v.numerator, v.denominator), abs(a))
    if b == 1:
        return Enclosure.exact(v ** a)
    return root_bounds(v ** a, b, prec)


# a sum at s = a/b takes 2^(f/b) for each length's weight and tail, and f
# repeats with period b in the length; the root cap allows b up to
# ROOT_BITS_CAP // prec, so one sum's residues all fit at 64 bits or more.
# A PrecisionLimit is never cached
@functools.lru_cache(maxsize=ROOT_BITS_CAP // 64)
def _pow2_root(f: int, b: int, prec: int) -> int:
    """floor(2^prec 2^(f/b)), refused before 2^f is built, as f < b."""
    check_root_cap(b, prec)
    return _ikroot(1 << (f + b * prec), b)


def pow2_dyadic(n: int, b: int, prec: int) -> tuple[int, int, int]:
    """(m, m', x) with m 2^x <= 2^(n/b) <= m' 2^x, for b >= 1 and the
    exponent's integer part c checked against the power cap: m = m' = 1 and
    x = c where n/b is an integer, else m = floor(2^prec 2^(f/b)) for its
    fraction f/b in lowest terms, m' = m + 1 and x = c - prec."""
    g = gcd(n, b)
    c, f = divmod(n // g, b // g)
    check_power(2, abs(c))
    if f == 0:
        return 1, 1, c
    m = _pow2_root(f, b // g, prec)
    return m, m + 1, c - prec


def dyadic(m: int, x: int, d: int = 1) -> Fraction:
    """m 2^x / d as one Fraction, d >= 1; every power-of-two bound is built here."""
    return Fraction(m << x, d) if x >= 0 else Fraction(m, d << -x)


def pow2_bounds(e: Fraction, prec: int = 64) -> Enclosure:
    """Interval around 2^e with relative width about 2^-prec; e any rational."""
    m, m_hi, x = pow2_dyadic(e.numerator, e.denominator, prec)
    lo = dyadic(m, x)
    return Enclosure(lo, lo if m == m_hi else dyadic(m_hi, x))


# ---------------------------------------------------------------------------
# Bernoulli numbers and Euler–Maclaurin tails of the zeta series


@functools.cache
def _tangent_numbers(m: int) -> tuple[int, ...]:
    """The tangent numbers T_1, ..., T_m (tan x is the sum of
    T_k x^(2k-1)/(2k-1)!), in about m^2/2 integer steps (R. Brent and
    P. Zimmermann, Modern Computer Arithmetic, 2010, §4.7.2)."""
    t = [1] * m
    for k in range(1, m):
        t[k] = k * t[k - 1]
    for k in range(1, m):
        for j in range(k, m):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


@functools.cache
def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2): B_2k is
    (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for the tangent number T_k, from a
    table of a power of two entries; each is computed on first use and kept."""
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    if n < 2:
        return _ONE if n == 0 else Fraction(-1, 2)
    if n % 2:
        return _ZERO
    k = n // 2
    t = _tangent_numbers(1 << (k - 1).bit_length())[k - 1]
    return Fraction((-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1))


def zeta_tail_factor(s: Fraction, n: int, terms: int) -> Enclosure:
    """Enclosure of n^(s-1) times the sum over m >= n of m^-s, for rational
    s > 1 and n >= 1, by Euler–Maclaurin summation: the factor is
    1/(s-1) + 1/(2n) + sum over k <= terms of B_2k/(2k)! s(s+1)...(s+2k-2) n^-2k
    up to a remainder. For real s > 1 the remainder is at most the first
    omitted term (k = terms + 1) in magnitude (H. M. Edwards, Riemann's Zeta
    Function, 1974, §6.4), and it is taken on both sides. At s = a/b every
    term is an integer over 2 (a-b) L W b n^2, L the least common multiple of
    the Bernoulli denominators and W the product of w_k = (2k+1)(2k+2)(nb)^2;
    term k's is (a-b) L B_2k a(a+b)...(a+(2k-2)b) w_k...w_terms, by Horner."""
    if s <= 1 or n < 1 or terms < 0:
        raise ValueError("zeta_tail_factor requires s > 1, n >= 1 and terms >= 0")
    a, b = s.numerator, s.denominator
    bs = [bernoulli(2 * k) for k in range(terms + 2)]
    big_l = lcm(*(x.denominator for x in bs))
    c = [big_l // x.denominator * x.numerator for x in bs]
    nb2, acc, w, p = (n * b) ** 2, 0, 1, a
    for k in range(1, terms + 1):
        wk = (2 * k + 1) * (2 * k + 2) * nb2
        acc = (acc + c[k] * p) * wk
        w *= wk
        p *= (a + (2 * k - 1) * b) * (a + 2 * k * b)
    num = w * big_l * n * b * (2 * n * b + a - b) + (a - b) * acc
    rem = (a - b) * abs(c[terms + 1] * p)
    den = 2 * (a - b) * big_l * w * b * n * n
    return Enclosure(Fraction(max(num - rem, 0), den), Fraction(num + rem, den))


# ---------------------------------------------------------------------------
# Lambert W


def lambert_w(x: Fraction | Enclosure, tol: Fraction) -> Enclosure:
    """Interval of width <= tol around the principal W(x), x >= 0.

    Bisection on w * e^w - x. A midpoint sign test uses exp_bounds at
    increasing precision until decisive; for rational w > 0 the product
    w * e^w is irrational, so ties cannot occur and every test terminates.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(x, Enclosure):
        if x.hi is None:
            raise ValueError("lambert_w needs a bounded argument")
        lo_side = lambert_w(x.lo, tol / 2)
        hi_side = lambert_w(x.hi, tol / 2)
        return Enclosure(lo_side.lo, hi_side.hi)
    if x < 0:
        raise ValueError("lambert_w requires x >= 0")
    if x == 0:
        return Enclosure.exact(_ZERO)

    def above(w: Fraction) -> bool:
        # True when w * e^w > x, certified
        if w == 0:
            return x < 0
        prec = 64
        while True:
            ex = exp_bounds(w, prec)
            if w * ex.lo > x:
                return True
            if w * ex.hi < x:
                return False
            prec *= 2

    hi = _ONE
    while not above(hi):
        hi *= 2
    lo = _ZERO
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return Enclosure(lo, hi)


def w_ratio(m: int, tol: Fraction = Fraction(1, 10 ** 6)) -> Enclosure:
    """Interval of width <= tol around W(2^m) / (m ln 2), m >= 1."""
    if m < 1:
        raise ValueError("w_ratio requires m >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    w_tol = tol * m / 4
    prec = 96
    while True:
        w = lambert_w(Fraction(2) ** m, w_tol)
        l2 = ln2_bounds(prec)
        out = Enclosure(w.lo / (m * l2.hi), w.hi / (m * l2.lo))
        if out.width is not None and out.width <= tol:
            return out
        w_tol /= 4
        prec += 32


# ---------------------------------------------------------------------------
# certified binary digits


@dataclass(frozen=True)
class DigitResult:
    """Certified fractional binary digits shared by every point of an enclosure."""

    digits: str
    determined: int


def digits(e: Enclosure, n: int) -> DigitResult:
    """First n binary digits after the point, as far as the enclosure pins them down.

    Expansions use the convention that dyadic rationals other than 0 take the
    trailing-ones form, so the digit-string classes at depth k are the
    half-open cells ((j)/2^k, (j+1)/2^k], with the leftmost cell closed at 0.
    Digits are reported only while a single cell contains the whole interval.
    """
    if n < 0:
        raise ValueError("digit count must be >= 0")
    if e.hi is None:
        raise ValueError("digits requires a bounded enclosure")
    if e.lo < 0 or e.hi > 1:
        raise ValueError("digits requires an enclosure inside [0, 1]")
    # the cell of x at depth n is ceil(x 2^n) - 1 (0 for x = 0); cells nest, so
    # its depth-k cell is that index shifted right by n - k, and lo and hi
    # share their cells down to the depth of the highest bit where they differ
    scale = 1 << n
    j, h = (
        -((-x.numerator * scale) // x.denominator) - 1 if x else 0 for x in (e.lo, e.hi)
    )
    determined = n - (j ^ h).bit_length()
    text = format(j >> (n - determined), f"0{determined}b") if determined else ""
    return DigitResult(text, determined)
