"""Certified upper bounds of weighted_domain_sum at small budgets.

Every enclosure must meet a budget-500 reference of the same sum (the true
value lies in both), and as the budget grows a sum that is not exhausted
never loses lower bound or gains upper bound.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tuatara.machines import Builtin, Construction, FiniteTable, weighted_domain_sum

_ALL = Builtin("all_strings")
_LUKA = Builtin("lukasiewicz")
_PRIMES = Construction("prime_product", (FiniteTable(("", "0", "1")),))
_PREFIX_FREE = FiniteTable(("0", "10", "1100", "1101", "111"))

MACHINES = {
    # 62 strings of lengths 1 to 5: more than the largest small budget
    "finite": FiniteTable(tuple(format(n, "b")[1:] for n in range(2, 64))),
    "all_strings": _ALL,
    "lukasiewicz": _LUKA,
    "iota": Builtin("iota"),
    "geometric": Builtin("geometric", extras=("10", "0110")),
    "product": Construction("product", (FiniteTable(("1", "01")),)),
    "prime_product": _PRIMES,
    "double_all_strings": Construction("double", (_ALL,)),
    "double_lukasiewicz": Construction("double", (_LUKA,)),
    "double_prime_product": Construction("double", (_PRIMES,)),
    "tuatara_of_finite": Construction("tuatara_of", (_PREFIX_FREE,)),
    "tuatara_of_all_strings": Construction("tuatara_of", (_ALL,)),
    "tuatara_of_lukasiewicz": Construction("tuatara_of", (_LUKA,)),
    "tuatara_of_prime_product": Construction("tuatara_of", (_PRIMES,)),
    "universal_tuatara": Construction(
        "universal_tuatara", (_PREFIX_FREE, FiniteTable(("1", "01")))
    ),
    "universal_convergent": Construction(
        "universal_convergent", (_PREFIX_FREE, FiniteTable(("1",))), (F(1), F(3, 2))
    ),
}

EXPONENTS = (F(1), F(3, 2), F(2), F(3), F(7, 3))
BUDGETS = (0, 1, 2, 3, 7, 40)
REFERENCE_BUDGET = 500


def _meet(a, b) -> bool:
    """The two enclosures share a point (hi None is +infinity)."""
    return (b.hi is None or a.lo <= b.hi) and (a.hi is None or b.lo <= a.hi)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_small_budgets_meet_the_reference_and_nest(name):
    spec = MACHINES[name]
    for kind in ("omega", "zeta"):
        for s in EXPONENTS:
            reports = [
                weighted_domain_sum(spec, s, b, kind)
                for b in BUDGETS + (REFERENCE_BUDGET,)
            ]
            ref = reports[-1].enclosure
            for b, rep in zip(BUDGETS, reports):
                assert _meet(rep.enclosure, ref), (kind, s, b, rep.enclosure, ref)
            for small, large in zip(reports, reports[1:]):
                if small.exhausted or large.exhausted:
                    continue
                a, b = small.enclosure, large.enclosure
                assert a.lo <= b.lo, (kind, s, a, b)
                assert a.hi is None or (b.hi is not None and b.hi <= a.hi), (kind, s, a, b)


def test_budget_one_counts_the_empty_string():
    # the empty string alone has index weight 1; the tail past it is
    # zeta(3) - 1, which the integral test puts in [1/8, 1/4], so the
    # enclosure [9/8, 5/4] holds zeta(3) ~ 1.202 and is no certificate
    rep = weighted_domain_sum(_ALL, F(3), 1, "zeta")
    assert (rep.enclosure.lo, rep.enclosure.hi) == (F(9, 8), F(5, 4))
    assert rep.enclosure.lo < F(6, 5) < rep.enclosure.hi
    rep = weighted_domain_sum(_ALL, F(3), 0, "zeta")
    assert rep.enclosure.hi >= F(6, 5)
