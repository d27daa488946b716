"""Enclosure arithmetic and the certified elementary bounds."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from tuatara import numerics
from tuatara.machines import Builtin, weighted_domain_sum
from tuatara.numerics import (
    POWER_BITS_CAP,
    ROOT_BITS_CAP,
    DigitResult,
    Enclosure,
    PrecisionLimit,
    catalan,
    digits,
    e_bounds,
    exp_bounds,
    first_primes,
    harmonic_segment,
    inverse_root,
    lambert_w,
    ln2_bounds,
    ln_bounds,
    log2_bounds,
    parse_rational,
    pow2_bounds,
    pow_bounds,
    root_bounds,
    w_ratio,
    zeta_tail_factor,
)
from tuatara.numerics import _round_dyadic

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


def _ref_round_down(f, sig):
    """The rounding down that exp_bounds used before one function did both."""
    if f == 0:
        return F(0)
    n, d = f.numerator, f.denominator
    shift = sig - (n.bit_length() - d.bit_length())
    if shift >= 0:
        return F((n << shift) // d, 1 << shift)
    return F(n // (d << -shift)) * (1 << -shift)


def _ref_round_up(f, sig):
    if f == 0:
        return F(0)
    n, d = f.numerator, f.denominator
    shift = sig - (n.bit_length() - d.bit_length())
    if shift >= 0:
        return F(-((-n << shift) // d), 1 << shift)
    return F(-(-n // (d << -shift))) * (1 << -shift)


def test_one_dyadic_rounding_matches_the_two_it_replaced():
    rng = random.Random(27)
    cases = [F(0), F(1), F(1, 3), F(2 ** 200 + 1, 3), F(1, 2 ** 200 - 1), F(7, 8)]
    for _ in range(1500):
        num = rng.getrandbits(rng.randint(1, 400)) + 1
        cases.append(F(num, rng.getrandbits(rng.randint(1, 400)) + 1))
    for f in cases:
        for sig in (0, 1, 2, 3, 8, 63, 64, 65, 200, rng.randint(0, 500)):
            down, up = _round_dyadic(f, sig), _round_dyadic(f, sig, up=True)
            assert down == _ref_round_down(f, sig), (f, sig)
            assert up == _ref_round_up(f, sig), (f, sig)
            assert down <= f <= up


_SIGNED = Enclosure(F(-1), F(1))
_POSITIVE = Enclosure(F(1), F(2))
_ZETA_ARGS = "zeta_tail_factor requires s > 1, n >= 1 and terms >= 0"


@pytest.mark.parametrize("check, message", [
    (lambda: _SIGNED.mul(_POSITIVE), "mul requires nonnegative intervals"),
    (lambda: _POSITIVE.mul(_SIGNED), "mul requires nonnegative intervals"),
    (lambda: _SIGNED.div(_POSITIVE), "div requires a nonnegative numerator interval"),
    (lambda: e_bounds(0), "terms must be >= 1"),
    (lambda: root_bounds(F(-1, 3), 2), "root_bounds requires v >= 0"),
    (lambda: root_bounds(F(2), 0), "root_bounds requires k >= 1"),
    (lambda: zeta_tail_factor(F(1), 1, 0), _ZETA_ARGS),
    (lambda: zeta_tail_factor(F(2), 0, 0), _ZETA_ARGS),
    (lambda: zeta_tail_factor(F(2), 1, -1), _ZETA_ARGS),
    (lambda: lambert_w(Enclosure(F(1), None), F(1, 100)), "lambert_w needs a bounded argument"),
    (lambda: w_ratio(3, F(0)), "tol must be positive"),
    (lambda: w_ratio(3, F(-1, 10)), "tol must be positive"),
])
def test_argument_checks_name_their_fault(check, message):
    with pytest.raises(ValueError) as exc:
        check()
    assert str(exc.value) == message


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
    assert log2_bounds(F(8), 64) == Enclosure.exact(F(3))
    # log2 3 = 1.5849625007211561...
    assert _brackets(log2_bounds(F(3), 64), F("1.584962500721156"), F("1.584962500721157"))
    assert log2_bounds(F(1, 4), 64) == Enclosure.exact(F(-2))
    with pytest.raises(ValueError):
        log2_bounds(F(0))
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


def test_a_sum_at_a_large_denominator_makes_each_root_once():
    # at s = 1/1000 the lengths cycle through 1,000 residues of 2^(f/1000);
    # the root cache holds them all, where 256 entries missed on every call
    numerics._pow2_root.cache_clear()
    weighted_domain_sum(Builtin("geometric"), F(1, 1000), 3000, "omega")
    assert numerics._pow2_root.cache_info().misses <= 1000


def test_pow_refuses_before_building_the_power():
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionLimit):
            pow_bounds(F(3), -F(10**7 + 1, 10**7), 160)
        with pytest.raises(PrecisionLimit):
            pow_bounds(F(3), F(10**7 + 1, 10**7), 160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_inverse_root_refuses_before_it_builds():
    # each root owns its refusal: the root cap at prec + 4 first, then the
    # power cap on num^a and den^a, before either power is built
    k, big = ROOT_BITS_CAP // 164 + 1, POWER_BITS_CAP + 1
    root_message = f"^a {k}-th root needs {k * 164} operand bits, over {ROOT_BITS_CAP}$"
    with pytest.raises(PrecisionLimit, match=root_message):
        inverse_root(3, 1, 1, k, 160)
    assert inverse_root(3, 1, 1, k - 1, 160)[0] == 164
    tracemalloc.start()
    try:
        for num, den in ((3, 1), (1, 3)):
            with pytest.raises(PrecisionLimit, match="^a power needs"):
                inverse_root(num, den, big, 2, 160)
        # both caps fail: the root is named, as pow_bounds and the sums name it
        with pytest.raises(PrecisionLimit, match=root_message):
            inverse_root(3, 1, big, k, 160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_integer_powers_past_the_power_cap_are_refused():
    # 2^(1 - s) and n^(1 - s) at s = 10^9 would build billion-bit integers
    tracemalloc.start()
    try:
        for build in (
            lambda: pow2_bounds(Fraction(1 - 10**9)),
            lambda: pow2_bounds(Fraction(1 - 2 * 10**9, 2), 160),
            lambda: pow_bounds(Fraction(3), Fraction(1 - 10**9)),
            lambda: pow_bounds(Fraction(3), Fraction(10**9 + 1, 2), 160),
            lambda: pow_bounds(Fraction(3), -Fraction(10**9 + 1, 2), 160),
        ):
            with pytest.raises(PrecisionLimit, match="^a power needs"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # powers at the cap are built, and a power of 1 costs nothing
    assert pow2_bounds(Fraction(-POWER_BITS_CAP)).lo == Fraction(1, 1 << POWER_BITS_CAP)
    assert pow_bounds(Fraction(1), Fraction(10**9)).is_exact


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
