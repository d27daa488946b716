"""Enclosure arithmetic and the certified elementary bounds."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from tuatara.numerics import (
    DigitResult,
    Enclosure,
    PrecisionLimit,
    catalan,
    digits,
    e_bounds,
    exp_bounds,
    first_primes,
    harmonic_segment,
    lambert_w,
    ln2_bounds,
    ln_bounds,
    log2_bounds,
    parse_rational,
    pow2_bounds,
    pow_bounds,
    root_bounds,
    w_ratio,
)

F = Fraction

# reference constants, correct to the digits shown
E_LO, E_HI = F("2.718281828459045"), F("2.718281828459046")
LN2_LO, LN2_HI = F("0.693147180559945"), F("0.693147180559946")
SQRT2_LO, SQRT2_HI = F("1.414213562373095"), F("1.414213562373096")
W1_LO, W1_HI = F("0.567143290409783"), F("0.567143290409784")


def _brackets(e: Enclosure, lo: Fraction, hi: Fraction) -> bool:
    """The enclosure contains the true value pinned inside [lo, hi]."""
    return e.lo <= hi and (e.hi is None or e.hi >= lo)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(" 7 ") == 7
    with pytest.raises(ValueError):
        parse_rational("seven")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_enclosure_basics():
    e = Enclosure(F(1, 3), F(1, 2))
    assert e.bounded and not e.is_exact
    assert e.width == F(1, 6)
    assert e.contains(F(2, 5)) and not e.contains(F(3, 5))
    assert e.midpoint() == F(5, 12)
    assert Enclosure.exact(F(2)).is_exact
    with pytest.raises(ValueError):
        Enclosure(F(1), F(0))


def test_enclosure_unbounded():
    e = Enclosure(F(3), None)
    assert not e.bounded
    assert e.width is None
    assert e.contains(F(1000)) and not e.contains(F(2))
    with pytest.raises(ValueError):
        e.midpoint()


def test_enclosure_encloses():
    outer = Enclosure(F(0), F(1))
    assert outer.encloses(Enclosure(F(1, 4), F(1, 2)))
    assert not outer.encloses(Enclosure(F(1, 4), F(2)))
    assert not outer.encloses(Enclosure(F(1, 4), None))
    assert Enclosure(F(0), None).encloses(Enclosure(F(1), None))


def test_enclosure_arithmetic():
    a = Enclosure(F(1), F(2))
    b = Enclosure(F(3), F(5))
    assert (a + b) == Enclosure(F(4), F(7))
    assert a.shift(F(1, 2)) == Enclosure(F(3, 2), F(5, 2))
    assert a.scale(F(3)) == Enclosure(F(3), F(6))
    assert a.scale(F(0)) == Enclosure(F(0), F(0))
    with pytest.raises(ValueError):
        a.scale(F(-1))
    assert a.mul(b) == Enclosure(F(3), F(10))
    assert b.div(a) == Enclosure(F(3, 2), F(5))
    with pytest.raises(ValueError):
        a.div(Enclosure(F(0), F(1)))
    # unbounded operands propagate
    assert (a + Enclosure(F(0), None)).hi is None
    assert a.mul(Enclosure(F(1), None)).hi is None


def test_harmonic_segment():
    assert harmonic_segment(2, 2) == F(1, 2)
    assert harmonic_segment(2, 3) == F(5, 6)
    assert harmonic_segment(1, 4) == F(25, 12)
    assert harmonic_segment(5, 4) == 0
    with pytest.raises(ValueError):
        harmonic_segment(0, 3)


def test_catalan():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert catalan(10) == 16796
    with pytest.raises(ValueError):
        catalan(-1)


def test_first_primes():
    assert first_primes(0) == [] and first_primes(1) == [2]
    assert first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    trial = [p for p in range(2, 30_000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    for count in (5, 6, 7, 100, 1000, len(trial)):
        assert first_primes(count) == trial[:count]
    # no cap here: prime_product caps the indices it takes from machine files
    assert first_primes((1 << 20) + 1)[-1] == 16_290_073


def test_e_bounds():
    e = e_bounds()
    assert _brackets(e, E_LO, E_HI)
    assert e.width < F(1, 10**20)
    rough = e_bounds(3)
    assert rough.encloses(Enclosure(E_LO, E_HI)) or _brackets(rough, E_LO, E_HI)


def test_exp_bounds():
    assert exp_bounds(F(0)).is_exact and exp_bounds(F(0)).lo == 1
    one = exp_bounds(F(1), 80)
    assert _brackets(one, E_LO, E_HI) and one.width < F(1, 1 << 70)
    two = exp_bounds(F(2), 64)
    # e^2 = 7.3890560989306502...
    assert _brackets(two, F("7.389056098930650"), F("7.389056098930651"))
    with pytest.raises(ValueError):
        exp_bounds(F(-1))


def test_log_family():
    l2 = ln2_bounds(96)
    assert _brackets(l2, LN2_LO, LN2_HI) and l2.width < F(1, 1 << 90)
    assert ln_bounds(F(1)).is_exact
    ln10 = ln_bounds(F(10), 64)
    # ln 10 = 2.3025850929940456...
    assert _brackets(ln10, F("2.302585092994045"), F("2.302585092994046"))
    half = ln_bounds(F(1, 2), 64)
    assert _brackets(half, -F("0.693147180559946"), -F("0.693147180559945"))
    assert log2_bounds(F(1)).is_exact
    assert log2_bounds(F(8), 64).contains(F(3))
    # log2 3 = 1.5849625007211561...
    assert _brackets(log2_bounds(F(3), 64), F("1.584962500721156"), F("1.584962500721157"))
    assert log2_bounds(F(1, 4), 64).contains(F(-2))
    with pytest.raises(ValueError):
        ln_bounds(F(0))


def test_root_and_pow():
    r = root_bounds(F(2), 2, 80)
    assert _brackets(r, SQRT2_LO, SQRT2_HI) and r.width <= F(1, 1 << 80)
    assert root_bounds(F(0), 5).is_exact
    assert root_bounds(F(27), 1).lo == 27
    assert pow_bounds(F(3, 2), F(3)).is_exact
    assert pow_bounds(F(3, 2), F(3)).lo == F(27, 8)
    assert pow_bounds(F(2), F(1, 2), 80).contains(SQRT2_LO) or _brackets(
        pow_bounds(F(2), F(1, 2), 80), SQRT2_LO, SQRT2_HI
    )
    neg = pow_bounds(F(2), F(-1, 2), 80)
    # 1/sqrt(2) = 0.7071067811865475...
    assert _brackets(neg, F("0.707106781186547"), F("0.707106781186548"))
    assert pow2_bounds(F(-3)).is_exact and pow2_bounds(F(-3)).lo == F(1, 8)
    assert _brackets(pow2_bounds(F(1, 2), 80), SQRT2_LO, SQRT2_HI)
    with pytest.raises(ValueError):
        pow_bounds(F(0), F(1, 2))


def test_pow2_refuses_a_huge_denominator():
    # 2^(f/b) with f = b - 1 would build 2^(10^30) before the cap check
    with pytest.raises(PrecisionLimit):
        pow2_bounds(F(-1, 10**30), 160)


def test_pow2_refuses_before_building_two_to_the_f():
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionLimit):
            pow2_bounds(F(-1, 10**8), 160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pow2_monotone_spot():
    xs = [F(-5, 2), F(-1, 3), F(0), F(2, 3), F(7, 2)]
    vals = [pow2_bounds(x, 64) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert a.hi < b.lo


def test_lambert_w():
    assert lambert_w(F(0), F(1, 100)).is_exact
    w1 = lambert_w(F(1), F(1, 10**8))
    assert _brackets(w1, W1_LO, W1_HI)
    assert w1.width <= F(1, 10**8)
    # W(e) = 1; feed the e enclosure through the interval entry point
    we = lambert_w(e_bounds(), F(1, 10**6))
    assert we.contains(F(1))
    with pytest.raises(ValueError):
        lambert_w(F(-1), F(1, 10))
    with pytest.raises(ValueError):
        lambert_w(F(1), F(0))


def test_w_ratio():
    r1 = w_ratio(1)
    # W(2)/ln 2 = 1.2300497... with W(2) = 0.8526055020137254...
    assert _brackets(r1, F("1.230049"), F("1.230050"))
    r64 = w_ratio(64)
    assert _brackets(r64, F("0.916478"), F("0.916479"))
    assert r64.width <= F(1, 10**6)
    with pytest.raises(ValueError):
        w_ratio(0)


def test_digits_examples():
    # [5/16, 3/8]: trailing-ones cells pin three digits, the fourth splits it
    d = digits(Enclosure(F(5, 16), F(3, 8)), 8)
    assert d == DigitResult("010", 3)
    # exact dyadic point in trailing-ones form: 3/8 = 0.010111...
    assert digits(Enclosure.exact(F(3, 8)), 4) == DigitResult("0101", 4)
    assert digits(Enclosure.exact(F(3, 8)), 1) == DigitResult("0", 1)
    # non-dyadic exact point
    assert digits(Enclosure.exact(F(1, 3)), 4) == DigitResult("0101", 4)
    # zero keeps the all-zeros expansion
    assert digits(Enclosure.exact(F(0)), 3) == DigitResult("000", 3)
    assert digits(Enclosure.exact(F(1)), 3) == DigitResult("111", 3)
    # a wide interval determines nothing
    assert digits(Enclosure(F(1, 4), F(3, 4)), 5) == DigitResult("", 0)
    assert digits(Enclosure(F(1, 3), F(1, 2)), 6) == DigitResult("01", 2)


def test_digits_guards():
    with pytest.raises(ValueError):
        digits(Enclosure(F(0), None), 3)
    with pytest.raises(ValueError):
        digits(Enclosure(F(-1, 2), F(0)), 3)
    with pytest.raises(ValueError):
        digits(Enclosure(F(1, 2), F(2)), 3)
    with pytest.raises(ValueError):
        digits(Enclosure.exact(F(1, 2)), -1)
    assert digits(Enclosure.exact(F(1, 2)), 0) == DigitResult("", 0)
