"""The Euler–Maclaurin close of the index sum over all_strings.

Past a budget of _EM_HEAD terms the sum engine stops at _EM_HEAD and
brackets the rest by Euler–Maclaurin summation. These tests check the
Bernoulli numbers behind it, now built from the tangent numbers, against
their exact recurrence, that each enclosure holds the truth and nests
inside the integral-test sum it replaces, and that it agrees with the same
bracket taken ten times further out. The factor, summed in integers over one
denominator, must equal the chain of Fractions it replaced, kept here.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import comb

import pytest

from tuatara.machines import (
    _EM_HEAD,
    _EM_TERMS,
    _TERM_PREC,
    Builtin,
    _element_stop,
    _IntervalAcc,
    weighted_domain_sum,
)
from tuatara.numerics import Enclosure, bernoulli, pow_bounds, zeta_tail_factor
from tuatara.spectral import riemann_zeta

_ALL = Builtin("all_strings")


def test_bernoulli_numbers():
    want = {
        2: F(1, 6), 4: F(-1, 30), 6: F(1, 42), 8: F(-1, 30), 10: F(5, 66),
        12: F(-691, 2730), 14: F(7, 6), 16: F(-3617, 510), 18: F(43867, 798),
        20: F(-174611, 330),
    }
    assert {n: bernoulli(n) for n in want} == want
    assert (bernoulli(0), bernoulli(1), bernoulli(3), bernoulli(21)) == (1, F(-1, 2), 0, 0)
    with pytest.raises(ValueError):
        bernoulli(-1)


def _recurrence_bernoulli(count: int) -> list[F]:
    """B_0, ..., B_(count-1) by the exact recurrence the tangent numbers
    replaced: the sum over j <= n of C(n+1, j) B_j is 0 for n >= 1."""
    b: list[F] = []
    for n in range(count):
        if n == 0:
            b.append(F(1))
        elif n > 1 and n % 2:
            b.append(F(0))
        else:
            b.append(-sum((comb(n + 1, j) * b[j] for j in range(n)), F(0)) / (n + 1))
    return b


def test_bernoulli_numbers_equal_their_recurrence():
    # past B_82, the largest the bracket takes, and across the tables'
    # sizes (powers of two in k = n/2)
    assert [bernoulli(n) for n in range(301)] == _recurrence_bernoulli(301)


def _fraction_tail_factor(s: F, n: int, terms: int) -> Enclosure:
    """zeta_tail_factor as a chain of Fractions, the form it had before its
    terms were summed as integers over one denominator."""
    if s <= 1 or n < 1 or terms < 0:
        raise ValueError("zeta_tail_factor requires s > 1, n >= 1 and terms >= 0")
    c = 1 / (s - 1) + F(1, 2 * n)
    x = F(1, n * n)
    t = s * x / 2
    for k in range(1, terms + 1):
        c += bernoulli(2 * k) * t
        t *= (s + 2 * k - 1) * (s + 2 * k) * x / ((2 * k + 1) * (2 * k + 2))
    r = abs(bernoulli(2 * terms + 2) * t)
    return Enclosure(max(c - r, F(0)), c + r)


def _outcome(f, *args):
    """f's value, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("terms", [0, 1, 2, 40])
def test_tail_factor_equals_its_fraction_chain(terms):
    # denominators up to 1598, the largest under the root cap at the term
    # precision
    for b in (1, 2, 3, 7, 10, 101, 1000, 1597, 1598):
        for a in (b + 1, 2 * b + 1, 3 * b + 2, 9 * b + 1, 40 * b + 1):
            s = F(a, b)
            for n in (1, 2, 3, 25, 1000, 10 ** 9):
                want = _outcome(_fraction_tail_factor, s, n, terms)
                assert _outcome(zeta_tail_factor, s, n, terms) == want, (s, n)
    # at n = 1 and s = 9 the remainder passes the sum, and lo is cut to 0
    want = _fraction_tail_factor(F(9), 1, terms)
    assert zeta_tail_factor(F(9), 1, terms) == want and want.lo == 0


def test_tail_factor_argument_errors():
    message = "zeta_tail_factor requires s > 1, n >= 1 and terms >= 0"
    for s, n, terms in ((F(1), 5, 2), (F(1, 2), 5, 2), (F(-3), 5, 2), (F(2), 0, 2),
                        (F(3, 2), -1, 2), (F(2), 5, -1)):
        with pytest.raises(ValueError) as exc:
            zeta_tail_factor(s, n, terms)
        assert str(exc.value) == message == _outcome(_fraction_tail_factor, s, n, terms)


def _parent_sums(s: F, budgets):
    """The index sum over all_strings as the engine took it before the
    Euler–Maclaurin close: the terms n <= min(budget, _element_stop(s)) on
    the accumulator, then the integral test at the next index. One pass; an
    enclosure per budget, in ascending order."""
    stop = _element_stop(s)
    acc = _IntervalAcc()
    n = 0
    for budget in budgets:
        while n < min(budget, stop):
            n += 1
            if s.denominator == 1:
                acc.add_inverses((n,), s.numerator)
            else:
                acc.add_roots((n,), s.numerator, s.denominator)
        b = pow_bounds(F(n + 1), 1 - s, _TERM_PREC)
        yield Enclosure(acc.lo + b.lo / (s - 1), acc.hi + b.hi / (n + 1) + b.hi / (s - 1))


def _far_bracket(s: F, prec: int, n: int = 256) -> Enclosure:
    """zeta(s) as the terms below n plus the same Euler–Maclaurin bracket
    taken at n. A term m^-s is a root at prec bits for a prime m and the
    product of the terms of p and m/p otherwise."""
    los, his = [F(1), F(1)], [F(1), F(1)]
    for m in range(2, n):
        p = next(p for p in range(2, m + 1) if m % p == 0)
        if p == m:
            b = pow_bounds(F(m), -s, prec)
            los.append(b.lo)
            his.append(b.hi)
        else:
            los.append(los[p] * los[m // p])
            his.append(his[p] * his[m // p])
    c = zeta_tail_factor(s, n, _EM_TERMS)
    b = pow_bounds(F(n), 1 - s, prec)
    return Enclosure(sum(los[1:]) + c.lo * b.lo, sum(his[1:]) + c.hi * b.hi)


def _nested(inner: Enclosure, outer: Enclosure) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


_BUDGETS = list(range(1, _EM_HEAD + 31)) + [10 ** 3, 10 ** 5]


@pytest.mark.parametrize("s", [F(1001, 1000), F(3, 2), F(2), F(7, 3), F(40)], ids=str)
def test_closed_sum_agrees_with_the_bracket_at_256(s):
    rep = weighted_domain_sum(_ALL, s, 10 ** 5, "zeta")
    assert (rep.consumed, rep.stop) == (_EM_HEAD, "grid")
    enc = rep.enclosure
    assert _nested(_far_bracket(s, 180), enc)
    assert enc.width < F(1, 1 << 150)


@pytest.mark.parametrize("s", [F(45), F(91, 2), F(60)], ids=str)
def test_past_the_closing_point_the_sum_is_unchanged(s):
    # the integral test stops the sum within _EM_HEAD terms from s = 40.8 on
    stop = _element_stop(s)
    assert stop <= _EM_HEAD
    budgets = list(range(1, stop + 5)) + [10 ** 6]
    for budget, parent in zip(budgets, _parent_sums(s, budgets)):
        assert riemann_zeta(s, budget) == parent, (s, budget)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda b: st.integers(b + 1, 8 * b).map(lambda a: F(a, b))))
    def test_closed_sums_hold_the_truth_and_nest(s):
        truth = _far_bracket(s, 2 * _TERM_PREC)
        prev = None
        for budget, parent in zip(_BUDGETS, _parent_sums(s, _BUDGETS)):
            enc = riemann_zeta(s, budget)
            assert _nested(truth, enc), (s, budget)
            assert _nested(enc, parent), (s, budget)
            if budget <= _EM_HEAD:
                assert enc == parent, (s, budget)
            if prev is not None:
                assert _nested(enc, prev), (s, budget)
            prev = enc
        assert weighted_domain_sum(_ALL, s, 10 ** 5, "zeta").stop == "grid"
