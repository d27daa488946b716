"""Property and differential tests of the integer root kernel.

`_ikroot` estimates the root by isqrt, by Newton on exact powers or by
Newton on cut mantissas, by k, and certifies the estimate with cut powers
rounded up and down (from k = 18 on) or one exact power, mending it when it
fails. At and beside perfect powers, for k from 2 to 1,638, it must equal
integer Newton on exact powers, and the cut certificate must refuse every
root one off. A reference kept here runs Newton from a power of two and
builds the rational powers through Fraction roots and reciprocals; every
endpoint of `root_bounds`, `pow_bounds` and `pow2_bounds` must equal the
reference's exactly.

`digits` reads its certified binary digits off two cell indices at the
deepest level; a copy of the depth-by-depth loop it replaced is kept here,
and both must agree on every enclosure.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from tuatara import numerics
from tuatara.numerics import (
    ROOT_BITS_CAP,
    DigitResult,
    Enclosure,
    PrecisionLimit,
    _ikroot,
    digits,
    pow2_bounds,
    pow_bounds,
    root_bounds,
)


def _ref_ikroot(n: int, k: int) -> int:
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _ref_root(v: F, k: int, prec: int) -> Enclosure:
    if v == 0:
        return Enclosure.exact(F(0))
    if k == 1:
        return Enclosure.exact(v)
    s = _ref_ikroot((v.numerator << (k * prec)) // v.denominator, k)
    lo, hi = F(s, 1 << prec), F(s + 1, 1 << prec)
    if not lo ** k <= v < hi ** k:
        raise AssertionError("reference root failed its check")
    return Enclosure(lo, hi)


def _ref_pow(v: F, e: F, prec: int) -> Enclosure:
    if e.denominator == 1:
        return Enclosure.exact(v ** e.numerator)
    if e < 0:
        p = prec + 4
        inner = _ref_pow(v, -e, p)
        while inner.lo == 0:
            p *= 2
            inner = _ref_pow(v, -e, p)
        return Enclosure(1 / inner.hi, 1 / inner.lo)
    return _ref_root(v ** e.numerator, e.denominator, prec)


def _ref_pow2(e: F, prec: int) -> Enclosure:
    if e.denominator == 1:
        return Enclosure.exact(F(2) ** e.numerator)
    c = e.numerator // e.denominator
    f = e - c
    r = _ref_root(F(2) ** f.numerator, f.denominator, prec)
    return Enclosure(r.lo * F(2) ** c, r.hi * F(2) ** c)


def _same(a: Enclosure, b: Enclosure) -> bool:
    return (a.lo, a.hi) == (b.lo, b.hi)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 300])
def test_ikroot_edges(k):
    for n in (0, 1, 2, 3, 2 ** k - 1, 2 ** k, 2 ** k + 1, 3 ** k - 1, 3 ** k):
        assert _ikroot(n, k) == _ref_ikroot(n, k)
    with pytest.raises(ValueError):
        _ikroot(-1, k)
    with pytest.raises(ValueError):
        _ikroot(5, 0)


# both sides of the mantissa crossover (k = 6), the denominators of the
# benchmark's exponents, and the widest ones under the cap
_PLAIN_KS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 59, 60, 73, 84, 1000, 1638)


def _term_operand(key: int, k: int) -> int:
    """An operand shaped like a term root's, key^(k+1) scaled by 2^(k prec);
    prec falls below a term's 164 at large k, where the reference is slow."""
    return key ** (k + 1) << (k * min(164, 20_000 // k))


@pytest.mark.parametrize("k", _PLAIN_KS)
def test_ikroot_term_operands(k):
    for key in (2, 3, 12345, (1 << 40) + 15):
        n = _term_operand(key, k)
        assert _ikroot(n, k) == _ref_ikroot(n, k)


@pytest.mark.parametrize("k", _PLAIN_KS)
def test_ikroot_around_perfect_powers(k):
    # r^k - 1, r^k and r^k + 1, checked against r itself (the reference is
    # slow on operands this size at k = 1638)
    for r in (2, 3, 255, (1 << 40) + 1, (1 << 164) - 3):
        n = r ** k
        assert (_ikroot(n - 1, k), _ikroot(n, k), _ikroot(n + 1, k)) == (r - 1, r, r)


@pytest.mark.parametrize("k", (6, 10, 73, 1000))
def test_a_wrong_estimate_is_mended(monkeypatch, k):
    n = _term_operand(12345, k)
    want = _ref_ikroot(n, k)
    for guess in [want + d for d in range(-2, 3)] + [1, want >> 20, want << 20]:
        monkeypatch.setattr(numerics, "_mantissa_root", lambda n, k, g=guess: g)
        assert _ikroot(n, k) == want


def test_a_failed_certificate_raises(monkeypatch):
    # a float estimate below the root spoils the mantissa estimate and stops
    # integer Newton at once, below the root, so the certificate refuses it
    monkeypatch.setattr(numerics, "log2", lambda n: math.log2(n) - 8)
    for k in (3, 5, 6, 73):
        with pytest.raises(ArithmeticError):
            _ikroot(_term_operand(12345, k), k)
    # isqrt needs no float estimate
    for k in (2, 4, 8):
        n = _term_operand(12345, k)
        assert _ikroot(n, k) == _ref_ikroot(n, k)
    # at n = r^k the root one short has (r - 1 + 1)^k = n, not above it
    r, k = (1 << 40) + 1, 73
    monkeypatch.setattr(numerics, "_mantissa_root", lambda n, k: r - 1)
    monkeypatch.setattr(numerics, "_newton_root", lambda n, k: (r - 1, (r - 1) ** (k - 1)))
    with pytest.raises(ArithmeticError):
        _ikroot(r ** k, k)


# every k to 130, then a spread to the widest omega denominator under the
# cap at 160 bits; the cut certificate serves k >= _CUT_CERT_K
_SWEEP_KS = sorted({*range(2, 131), *range(131, 1639, 61), 1597, 1598, 1638})


def _sweep_roots(k):
    """Roots whose k-th powers stay within the root cap: small ones, a power
    of two (whose cut powers are exact) and its neighbours."""
    j = min(160, ROOT_BITS_CAP // k - 1)
    return (2, 3, 1 << j, (1 << j) - 3, (1 << j) + 1)


@pytest.mark.parametrize("k", _SWEEP_KS)
def test_ikroot_matches_newton_at_and_beside_perfect_powers(k):
    for r in _sweep_roots(k):
        n = r ** k
        for m in (n - 1, n, n + 1, (r + 1) ** k - 1):
            assert _ikroot(m, k) == numerics._newton_root(m, k)[0], (k, r, m - n)


@pytest.mark.parametrize("k", _SWEEP_KS)
def test_cut_certificate_refuses_every_neighbour(k):
    # at and beside r^k only r certifies (r - 1 for n - 1); the neighbours
    # one off never do, even where the cut powers are exact
    for r in _sweep_roots(k):
        n = r ** k
        for m, root in ((n - 1, r - 1), (n, r), (n + 1, r)):
            for guess in (root - 1, root + 1):
                assert not numerics._cut_certified(m, guess, k), (k, r, m - n, guess - root)


def test_cut_certificate_decides_term_operands():
    # operands away from a perfect power: the cut powers alone decide them
    for k in (numerics._CUT_CERT_K, 40, 59, 73, 1000):
        for key in (3, 12345, (1 << 40) + 15):
            n = _term_operand(key, k)
            assert numerics._cut_certified(n, _ref_ikroot(n, k), k), (k, key)


def test_widest_accepted_roots():
    # the largest denominators a zeta term and an omega term accept at the
    # term precision (160 bits, padded to 164 for the reciprocal)
    b = ROOT_BITS_CAP // 164
    term = pow_bounds(F(12345), F(-(b + 1), b), 160)
    assert 0 < term.lo < term.hi <= term.lo * (1 + F(1, 1 << 140))
    b = ROOT_BITS_CAP // 160
    half = pow2_bounds(F(-1, b), 160)
    assert 0 < half.lo < half.hi <= half.lo * (1 + F(1, 1 << 150))


def test_root_operands_past_the_cap_are_refused():
    b = ROOT_BITS_CAP // 164 + 1
    with pytest.raises(PrecisionLimit):
        pow_bounds(F(3), F(-(b + 1), b), 160)
    for _ in range(2):  # pow2_bounds keeps its roots, never a refusal
        with pytest.raises(PrecisionLimit):
            pow2_bounds(F(-1, ROOT_BITS_CAP // 160 + 1), 160)
    with pytest.raises(PrecisionLimit):
        root_bounds(F(2), ROOT_BITS_CAP + 1, 1)
    # the same denominator is accepted at a lower precision
    assert pow_bounds(F(3), F(-(b + 1), b), 60).lo > 0


def _ref_digits(e: Enclosure, n: int) -> DigitResult:
    out = 0
    determined = 0
    for k in range(1, n + 1):
        scale = 1 << k
        if e.lo == 0:
            j = 0
        else:
            # cell containing lo is (j/2^k, (j+1)/2^k] with j = ceil(lo 2^k) - 1
            j = -((-e.lo.numerator * scale) // e.lo.denominator) - 1
        if e.hi > F(j + 1, scale):
            break
        out = j
        determined = k
    text = format(out, f"0{determined}b") if determined else ""
    return DigitResult(text, determined)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _ks = st.integers(min_value=1, max_value=ROOT_BITS_CAP // 160)

    @st.composite
    def _root_operands(draw):
        """(n, k): arbitrary n of up to ~30k bits, or a perfect power, or one off."""
        k = draw(_ks)
        if draw(st.booleans()):
            n = draw(st.integers(min_value=0, max_value=(1 << draw(st.integers(0, 30_000))) - 1))
        else:
            r = draw(st.integers(min_value=0, max_value=(1 << min(30_000 // k, 2_000)) - 1))
            n = max(r ** k + draw(st.sampled_from((-1, 0, 1))), 0)
        return n, k

    @settings(max_examples=300, deadline=None)
    @given(_root_operands())
    def test_ikroot_certificate(case):
        n, k = case
        r = _ikroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    @settings(max_examples=150, deadline=None)
    @given(_root_operands())
    def test_ikroot_matches_reference(case):
        n, k = case
        assert _ikroot(n, k) == _ref_ikroot(n, k)

    _dens = st.sampled_from((2, 3, 4, 5, 7, 12, 16, 17, 50, 64, 101, 257))

    _precs = st.sampled_from((1, 8, 64, 160))

    _bases = st.one_of(
        st.integers(min_value=1, max_value=10 ** 12).map(F),
        st.fractions(min_value=F(1, 10 ** 9), max_value=10 ** 9),
    )

    @st.composite
    def _exponents(draw):
        b = draw(_dens)
        return F(draw(st.integers(min_value=-5 * b, max_value=5 * b)), b)

    @settings(max_examples=300, deadline=None)
    @given(_bases, _exponents(), _precs)
    def test_pow_bounds_matches_reference(v, e, prec):
        got = pow_bounds(v, e, prec)
        assert _same(got, _ref_pow(v, e, prec))

    @settings(max_examples=200, deadline=None)
    @given(_exponents(), _precs)
    def test_pow2_bounds_matches_reference(e, prec):
        assert _same(pow2_bounds(e, prec), _ref_pow2(e, prec))

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=10 ** 9),
        st.integers(min_value=1, max_value=64),
        _precs,
    )
    def test_root_bounds_matches_reference(v, k, prec):
        assert _same(root_bounds(v, k, prec), _ref_root(v, k, prec))

    # points of [0, 1], dyadic ones and the endpoints among them
    _unit_points = st.one_of(
        st.sampled_from((F(0), F(1))),
        st.builds(lambda a, k: F(a % (2 ** k + 1), 2 ** k), st.integers(0), st.integers(0, 64)),
        st.fractions(min_value=0, max_value=1, max_denominator=2 ** 70),
    )

    @settings(max_examples=500, deadline=None)
    @given(_unit_points, _unit_points, st.integers(0, 80))
    def test_digits_matches_depth_loop(a, b, n):
        for e in (Enclosure(min(a, b), max(a, b)), Enclosure.exact(a)):
            assert digits(e, n) == _ref_digits(e, n)
