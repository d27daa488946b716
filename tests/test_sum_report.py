"""Differential tests of the sum engine's choice of upper bound.

_Sum.reach keeps each completed length's upper sum as the accumulator's
integers, and _Sum.report compares its candidates (the total, then the
bracket or the completed lengths in ascending order) as unreduced integer
pairs, and reduces the winner alone, its partial sum plus its tail. The
reference kept here is the engine it replaced, which built the upper sum
as a Fraction at every completed length and took the least candidate with
min(), the first of equal ones. Every report (enclosure, consumed count,
stop, winning bound and exact-mode count) must equal the reference's, ties
included.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F

import pytest

from tuatara import machines
from tuatara.machines import (
    _ACC_BITS,
    Builtin,
    Construction,
    FiniteTable,
    SumReport,
    _tail_upper,
    weighted_domain_sum,
    weighted_domain_sums,
)
from tuatara.numerics import Enclosure


def _ref_hi(acc):
    """The accumulator's upper sum as a Fraction, as its hi was built."""
    if not acc.exact:
        return F(acc.hi_i, 1 << _ACC_BITS)
    return F(acc.ln, acc.ld) if acc.hn is None else F(acc.hn, acc.hd)


class _RefSum(machines._Sum):
    """_Sum with the Fraction reach and report it replaced; every report's
    candidates, in order, go to seen."""

    seen: list[list[tuple[object, F | None]]] = []

    def reach(self, length):
        self.length = length
        if length:
            self.complete.append((length - 1, _ref_hi(self.acc)))
            if self.stop_len is not None and length >= self.stop_len:
                self.stop = "grid"
                return False
        return True

    def report(self, stream):
        acc, s, kind = self.acc, self.s, self.kind
        lo = acc.lo
        exact_terms = None if acc.exact else acc.exact_terms
        if self.stop == "exhausted":
            return SumReport(
                Enclosure(lo, _ref_hi(acc)), self.consumed, self.stop, "exhausted", exact_terms
            )
        candidates = [("total", stream.total_upper(s, kind))]
        if self.tail_at is not None:
            tail = self.tail_at(self.consumed)
            lo += tail.lo
            candidates.append(("bracket", _ref_hi(acc) + tail.hi))
        else:
            for ell, hi_complete in self.complete:
                tail = _tail_upper(stream, ell, s, kind)
                candidates.append((ell, None if tail is None else hi_complete + tail))
        self.seen.append(candidates)
        upper, hi = min(
            ((name, c) for name, c in candidates if c is not None),
            key=lambda nc: nc[1],
            default=(None, None),
        )
        return SumReport(Enclosure(lo, hi), self.consumed, self.stop, upper, exact_terms)


def _ref_sums(spec, requests, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "_Sum", _RefSum)
        return weighted_domain_sums(spec, requests, budget)


_LUKA = Builtin("lukasiewicz")
_PREFIX_FREE = FiniteTable(("0", "10", "1100", "1101", "111"))
# every stream kind; the finite ones below their size, where candidates tie
_SPECS = {
    "finite": _PREFIX_FREE,
    "finite_dense": FiniteTable(tuple(format(n, "b")[1:] for n in range(2, 1200, 3))),
    "all_strings": Builtin("all_strings"),
    "lukasiewicz": _LUKA,
    "iota": Builtin("iota", step_budget=20, size_budget=13),
    "geometric": Builtin("geometric", ("11", "0101", "1111")),
    "product": Construction("product", (FiniteTable(("1", "01", "000")),)),
    "prime_product": Construction("prime_product", (FiniteTable(("", "0", "1", "01")),)),
    "double": Construction("double", (_LUKA,)),
    "tuatara_of": Construction("tuatara_of", (_PREFIX_FREE,)),
    "universal_tuatara": Construction("universal_tuatara", (_PREFIX_FREE, FiniteTable(("1",)))),
    "universal_convergent": Construction(
        "universal_convergent", (_PREFIX_FREE, FiniteTable(("01",))), (F(1), F(5, 2))
    ),
}
_EXPONENTS = (F(1), F(3, 2), F(2), F(3), F(7, 3))
_REQUESTS = [(kind, s) for kind in ("omega", "zeta") for s in _EXPONENTS]


def _check(spec, budget):
    got = weighted_domain_sums(spec, _REQUESTS, budget)
    want = _ref_sums(spec, _REQUESTS, budget)
    for request, g, w in zip(_REQUESTS, got, want):
        assert g == w, (request, budget)
    return got


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_reports_equal_the_fraction_engine(name):
    for budget in (0, 1, 2, 7, 40, 300, 3000):
        _check(_SPECS[name], budget)


def test_equal_candidates_keep_the_first():
    # below a finite table's size, in exact mode, every completed length's
    # sum plus its exact tail equals the total; the total, listed first,
    # must win
    _RefSum.seen.clear()
    reps = _check(_PREFIX_FREE, 3)
    omega_1 = reps[_REQUESTS.index(("omega", F(1)))]
    assert omega_1.upper == "total" and omega_1.exact_terms is None
    ties = [c for c in _RefSum.seen if sum(v == min(v for _, v in c) for _, v in c) > 1]
    assert ties


def test_exact_mode_sums_match():
    # omega sums over prime_product at integer s stay exact past the
    # budget, so their candidates are exact-mode pairs (hn, hd) or (ln, ld)
    spec = _SPECS["prime_product"]
    for budget in (5, 100, 3000):
        for rep in _check(spec, budget)[: len(_EXPONENTS)]:
            assert rep.exact_terms is None and rep.upper not in ("exhausted", None)


def _fraction_adds_in(frames, run):
    """How many Fraction additions the given functions' own frames make
    while run() runs."""
    codes = {f.__code__ for f in frames}
    count = 0
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__add__", "__radd__"):
            def add(a, b, real=getattr(F, name)):
                nonlocal count
                count += sys._getframe(1).f_code in codes
                return real(a, b)

            mp.setattr(F, name, add)
        run()
    return count


def _geometric_sum():
    return weighted_domain_sum(Builtin("geometric"), F(1), 10 ** 5, "omega")


def _bracketed_sum():
    return weighted_domain_sum(Builtin("all_strings"), F(2), 10 ** 5, "zeta")


def test_reach_and_report_add_no_fraction_per_length():
    # the omega sum over geometric at s = 1 stops on the grid after 137
    # completed lengths; the Fraction engine made one addition for each
    rep = _geometric_sum()
    assert (rep.stop, rep.upper) == ("grid", "total")
    assert _fraction_adds_in((machines._Sum.reach, machines._Sum.report), _geometric_sum) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "_Sum", _RefSum)
        assert _fraction_adds_in((_RefSum.reach, _RefSum.report), _geometric_sum) == 137
    # a bracketed sum adds its tail's lower end to lo and its upper end to
    # the winner's reduced partial sum, once each
    assert _fraction_adds_in((machines._Sum.report,), _bracketed_sum) == 2


def test_a_geometric_tail_without_extras_adds_nothing():
    # the same sum asks for 138 tails; each once added an empty extras tail
    tail_bound = machines._GeometricStream.tail_bound
    assert _fraction_adds_in((tail_bound,), _geometric_sum) == 0


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(_SPECS)),
        st.integers(0, 3000),
        st.lists(st.sampled_from(_REQUESTS), min_size=1, max_size=4),
    )
    def test_random_reports_equal_the_fraction_engine(name, budget, requests):
        got = weighted_domain_sums(_SPECS[name], requests, budget)
        assert got == _ref_sums(_SPECS[name], requests, budget), (requests, budget)
