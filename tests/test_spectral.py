"""Exponent-weighted sums, normalized statistics, and the prime bound scan."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tuatara.machines import (
    _TERM_PREC,
    Builtin,
    Construction,
    FiniteTable,
    _element_stop,
    domain_stream,
    weighted_domain_sum,
)
from tuatara import spectral
from tuatara.numerics import Enclosure, first_primes, pow_bounds
from tuatara.spectral import (
    dyadic_weight_sum,
    kappa,
    kappa_natural,
    omega_s,
    pnt_check,
    riemann_zeta,
    zeta_s,
)


_ALL = Builtin("all_strings")


def _brackets(e, lo, hi):
    return e.lo <= hi and (e.hi is None or e.hi >= lo)


def test_omega_s_values():
    assert omega_s(FiniteTable(("0",)), F(2)).lo == F(1, 4)
    full = omega_s(Builtin("all_strings"), F(2), 2000)
    assert full.hi == 2  # geometric closed form, attained as the upper bound
    assert full.hi - full.lo < F(1, 500)
    # at s = 3/2 the closed form is 2 + sqrt(2)
    half = omega_s(Builtin("all_strings"), F(3, 2), 4000)
    assert _brackets(half, F("3.414213562373095"), F("3.414213562373096"))


def test_zeta_s_values():
    assert zeta_s(FiniteTable(("1011",)), F(2)).lo == F(1, 729)
    assert zeta_s(FiniteTable(("",)), F(7)).lo == 1
    enc = zeta_s(FiniteTable(("1011",)), F(2))
    assert enc.is_exact


def test_exponent_guards():
    t = FiniteTable(("0",))
    with pytest.raises(ValueError):
        omega_s(t, F(0))
    with pytest.raises(ValueError):
        zeta_s(t, F(1, 2))
    with pytest.raises(ValueError):
        kappa(t, F(1))
    with pytest.raises(ValueError):
        kappa_natural(t, F(1))
    with pytest.raises(ValueError):
        riemann_zeta(F(1))


def test_doubling_shifts_the_exponent():
    base = FiniteTable(("0", "10"))
    doubled = Construction("double", (base,))
    assert omega_s(doubled, F(1)).lo == F(5, 16)
    assert omega_s(doubled, F(1)) == omega_s(base, F(2))


def test_prime_product_euler_value():
    pp = Construction("prime_product", (FiniteTable(("", "0")),))
    enc = zeta_s(pp, F(2), 10**5)
    assert enc.contains(F(3, 2))
    assert enc.width < F(1, 10**6)
    assert domain_stream(pp).total_upper(F(2), "zeta") == F(3, 2)


def _inside(e, lo, hi):
    return F(lo) <= e.lo and e.hi <= F(hi)


def test_riemann_zeta_values():
    # 20-digit brackets of zeta(2), zeta(3), zeta(4) and zeta(3/2)
    z2 = riemann_zeta(F(2), 10**4)
    assert _inside(z2, "1.64493406684822643647", "1.64493406684822643648")
    assert z2.width < F(1, 10**4)
    z3 = riemann_zeta(F(3), 10**4)
    assert _inside(z3, "1.20205690315959428539", "1.20205690315959428540")
    z4 = riemann_zeta(F(4), 10**4)
    assert _inside(z4, "1.08232323371113819151", "1.08232323371113819152")
    # the three enclosures are pairwise disjoint and ordered
    assert z2.lo > z3.hi > z4.hi
    assert z3.lo > z4.hi
    z32 = riemann_zeta(F(3, 2), 10**4)
    assert _inside(z32, "2.61237534868548834334", "2.61237534868548834335")
    assert z32.width < F(1, 10**4)


def _parent_riemann_zeta(s: F, budget: int):
    """The loop riemann_zeta ran before it became the sum engine over
    all_strings: every term to the budget on the 2^-160 grid, then the tail
    [(N+1)^(1-s), N^(1-s)]/(s-1); or, at the first n whose term lies below
    the grid, the tail [n^(1-s), n^(1-s)]/(s-1) + [0, n^-s]."""
    grid = 1 << _TERM_PREC
    lo_i = hi_i = 0
    for n in range(1, budget + 1):
        b = pow_bounds(F(n), -s, _TERM_PREC)
        q = (b.lo.numerator * grid) // b.lo.denominator
        if not q:
            tail = pow_bounds(F(n), 1 - s, _TERM_PREC)
            lo_tail, hi_tail = tail.lo / (s - 1), b.hi + tail.hi / (s - 1)
            break
        lo_i += q
        hi_i += -((-b.hi.numerator * grid) // b.hi.denominator)
    else:
        lo_tail = pow_bounds(F(budget + 1), 1 - s, _TERM_PREC).lo / (s - 1)
        hi_tail = pow_bounds(F(budget), 1 - s, _TERM_PREC).hi / (s - 1)
    return F(lo_i, grid) + lo_tail, F(hi_i, grid) + hi_tail


def test_riemann_zeta_stops_below_the_grid():
    # the loop stopped at the first term below 2^-160 (n = 17 at s = 40, 16
    # at s = 81/2); a further term could widen the integral test's enclosure
    # past 26 and 25 terms, so from a budget of 25 on the engine stops at 24
    # and closes with the Euler-Maclaurin bracket; at s = 45 that point comes
    # first, at 18 terms. Every enclosure nests in the loop's
    for s, stop in ((F(40), 24), (F(81, 2), 24), (F(45), 18)):
        for budget in range(1, stop + 30):
            enc = riemann_zeta(s, budget)
            lo, hi = _parent_riemann_zeta(s, budget)
            assert lo <= enc.lo and enc.hi <= hi, (s, budget)
        stopped = riemann_zeta(s, stop + 1)
        assert riemann_zeta(s, 10 ** 6) == stopped != riemann_zeta(s, stop - 1)
        assert weighted_domain_sum(_ALL, s, 10 ** 6, "zeta").consumed == stop
    # exact brackets of zeta(40): every term to 60 plus the integral tails
    head = sum(F(1, n ** 40) for n in range(1, 61))
    stopped = riemann_zeta(F(40), 1000)
    assert stopped.lo <= head + F(1, 60 ** 39 * 39)
    assert stopped.hi >= head + F(1, 61 ** 39 * 39)
    s = F(200001, 2)
    enc = riemann_zeta(s, 1000)
    for budget in (1, 2):
        lo, hi = _parent_riemann_zeta(s, budget)
        assert lo <= enc.lo and enc.hi <= hi


# budgets across 1 to 40,000, dense where the loop lost nesting at s = 12
# (between 6,282 and 10,270)
_GROWING = sorted(set(range(1, 40_001, 1999)) | set(range(6000, 10_500, 250)))


@pytest.mark.parametrize("s", [F(12), F(23, 2), F(25, 2), F(20), F(40)], ids=str)
def test_riemann_zeta_nests_as_the_budget_grows(s):
    stop = _element_stop(s)
    if s.denominator == 1:  # integer terms are cheap: every budget near the stop too
        budgets = sorted(set(_GROWING) | set(range(max(stop - 40, 1), stop + 3)))
    else:
        budgets = [1, 2, 3, 10, 100, 1000, 5000, 12_000, 25_000, 40_000]
    prev = None
    for budget in budgets:
        enc = riemann_zeta(s, budget)
        if prev is not None:
            assert prev.lo <= enc.lo and enc.hi <= prev.hi, (s, budget)
        prev = enc
    assert prev == zeta_s(_ALL, s, budgets[-1])


def test_kappa_values():
    full = kappa(Builtin("all_strings"), F(2), 2000)
    assert full.hi == 1
    assert full.lo > F(999, 1000)
    assert kappa(FiniteTable(("0",)), F(2)).lo == F(1, 8)
    assert kappa(FiniteTable(("0",)), F(2)).is_exact
    assert kappa(FiniteTable(()), F(2)).lo == 0


def test_kappa_natural_values():
    # 1/zeta(2) = 6/pi^2 = 0.6079271018540267...
    kn = kappa_natural(FiniteTable(("",)), F(2), 10**4)
    assert _brackets(kn, F("0.607927101854026"), F("0.607927101854027"))
    assert kn.width < F(1, 10**7)
    pp = Construction("prime_product", (FiniteTable(("", "0")),))
    knp = kappa_natural(pp, F(2), 10**4)
    # (3/2)/zeta(2) = 9/pi^2 = 0.91189065278103994...
    assert _inside(knp, "0.911890652781039", "0.911890652781040")
    for s in (F(2), F(3, 2)):
        assert kappa_natural(_ALL, s, 10**4) == Enclosure.exact(F(1))
        assert kappa(_ALL, s, 10**4) == Enclosure.exact(F(1))


def test_dyadic_weight_sum():
    assert dyadic_weight_sum(1) == 1
    assert dyadic_weight_sum(3) == F(7, 4)
    # the closed form 2 - 2^(1-L), checked here rather than on every call
    for cap in range(1, 200):
        assert dyadic_weight_sum(cap) == 2 - F(1, 1 << (cap - 1))
    with pytest.raises(ValueError):
        dyadic_weight_sum(0)


def test_pnt_check():
    assert pnt_check(100) == []
    with pytest.raises(ValueError):
        pnt_check(5)


def test_pnt_check_reports_a_prime_below_the_bound(monkeypatch):
    # 100 ln 100 = 460.517... and 128 ln 128 = 621.06...: both pushed below,
    # one inside a block of 64 and one at a block's top
    primes = first_primes(300)
    primes[99], primes[127] = 460, 621
    monkeypatch.setattr(spectral, "first_primes", lambda n: primes[:n])
    assert pnt_check(300) == [100, 128]
