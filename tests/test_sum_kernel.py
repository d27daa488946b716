"""Differential tests of the integer sum kernel in weighted_domain_sum.

The engine adds a run of equal-length strings with one accumulator call
for the omega kind, adds 1/n^k terms in integers for the zeta kind at
integer s, and tests the grid stop only when the length grows. A reference
kept here is the per-element accumulator and loop it replaced, which
builds a Fraction for every term; every endpoint, the consumed count and
the exhaustion flag must equal the reference's exactly.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tuatara import machines
from tuatara.machines import (
    _ACC_BITS,
    Builtin,
    Construction,
    FiniteTable,
    _IntervalAcc,
    _tail_upper,
    _weight_interval,
    domain_stream,
    weighted_domain_sum,
)


class _RefAcc:
    """The per-element accumulator: one Fraction add per term and endpoint."""

    _GUARD_BITS = 1 << 12

    def __init__(self) -> None:
        self.exact = True
        self.lo_f = F(0)
        self.hi_f = F(0)
        self.lo_i = 0
        self.hi_i = 0

    def add(self, t_lo: F, t_hi: F) -> None:
        if self.exact:
            self.lo_f += t_lo
            self.hi_f += t_hi
            if self.lo_f.denominator.bit_length() > self._GUARD_BITS:
                self.lo_i = (self.lo_f.numerator << _ACC_BITS) // self.lo_f.denominator
                self.hi_i = -((-self.hi_f.numerator << _ACC_BITS) // self.hi_f.denominator)
                self.exact = False
            return
        self.lo_i += (t_lo.numerator << _ACC_BITS) // t_lo.denominator
        self.hi_i += -((-t_hi.numerator << _ACC_BITS) // t_hi.denominator)

    @property
    def lo(self) -> F:
        return self.lo_f if self.exact else F(self.lo_i, 1 << _ACC_BITS)

    @property
    def hi(self) -> F:
        return self.hi_f if self.exact else F(self.hi_i, 1 << _ACC_BITS)


def _ref_sum(spec, s: F, budget: int, kind: str):
    """The per-element loop: (lo, hi, consumed, exhausted)."""
    s = F(s)
    stream = domain_stream(spec)
    stream.limit_examined(budget)
    acc = _RefAcc()
    complete = [(-1, F(0))]
    current_len = 0
    consumed = 0
    exhausted = False
    src = (len(w) for w in stream) if kind == "omega" else stream.indices()
    while consumed < budget:
        try:
            key = next(src, None)
        except machines.StreamCut:
            break
        if key is None:
            exhausted = True
            break
        length = key if kind == "omega" else key.bit_length() - 1
        if length > current_len:
            complete.append((length - 1, acc.hi))
            current_len = length
        if not stream.exhaustible and s * length > _ACC_BITS + 8:
            break
        acc.add(*_weight_interval(key, s, kind))
        consumed += 1
    else:
        if stream.exhaustible and next(src, None) is None:
            exhausted = True
    if exhausted:
        return acc.lo, acc.hi, consumed, True
    candidates = [stream.total_upper(s, kind)]
    for ell, hi_complete in complete:
        tail = _tail_upper(stream, ell, s, kind)
        candidates.append(None if tail is None else hi_complete + tail)
    hi = min((c for c in candidates if c is not None), default=None)
    return acc.lo, hi, consumed, False


def _same_as_reference(spec, s, budget, kind):
    rep = weighted_domain_sum(spec, s, budget, kind)
    got = (rep.enclosure.lo, rep.enclosure.hi, rep.consumed, rep.exhausted)
    assert got == _ref_sum(spec, s, budget, kind), (spec, s, budget, kind)
    assert (rep.stop == "exhausted") == rep.exhausted
    return rep


_ALL = Builtin("all_strings")
_LUKA = Builtin("lukasiewicz")
_PREFIX_FREE = FiniteTable(("0", "10", "1100", "1101", "111"))
_PRIMES = Construction("prime_product", (FiniteTable(("", "0", "1")),))

# one machine of every stream kind; the iota one halts few programs
STREAMS = {
    "finite": FiniteTable(tuple(format(n, "b")[1:] for n in range(2, 300, 3))),
    "all_strings": _ALL,
    "lukasiewicz": _LUKA,
    "iota": Builtin("iota", (), 3, 15),
    "geometric": Builtin("geometric", extras=("10", "0110")),
    "product": Construction("product", (FiniteTable(("1", "01")),)),
    "prime_product": _PRIMES,
    "double": Construction("double", (_ALL,)),
    "tuatara_of": Construction("tuatara_of", (_LUKA,)),
    "universal_tuatara": Construction(
        "universal_tuatara", (_PREFIX_FREE, FiniteTable(("1", "01")))
    ),
    "universal_convergent": Construction(
        "universal_convergent", (_PREFIX_FREE, FiniteTable(("1",))), (F(1), F(3, 2))
    ),
}
EXPONENTS = (F(1), F(2), F(3), F(3, 2), F(7, 3))


def test_long_equal_length_words_cross_the_guard_inside_a_run():
    # the first 4,100-bit term takes the lower sum past 4096 bits; the rest
    # of that run is added on the grid
    long_words = tuple(format(n, "b")[1:] for n in range(1 << 4100, (1 << 4100) + 6))
    spec = FiniteTable(("0", "1", "01") + long_words)
    for s in (F(1), F(2), F(3, 2)):
        rep = _same_as_reference(spec, s, 100, "omega")
        assert rep.exhausted and rep.enclosure.lo < rep.enclosure.hi
        assert (rep.enclosure.lo * (1 << _ACC_BITS)).denominator == 1
        # budgets that end inside the long run
        for budget in (3, 4, 6):
            _same_as_reference(spec, s, budget, "omega")


def test_runs_that_stay_within_the_guard_are_exact():
    spec = FiniteTable(tuple(format(n, "b")[1:] for n in range(1 << 12, 1 << 13, 7)))
    for s in (F(1), F(3)):
        rep = _same_as_reference(spec, s, 10 ** 4, "omega")
        assert rep.enclosure.is_exact


def test_zeta_sum_leaves_exact_mode():
    # the least common multiple of 1..3000 has more than 4096 bits
    spec = FiniteTable(tuple(format(n, "b")[1:] for n in range(1, 3001)))
    rep = _same_as_reference(spec, F(1), 3000, "zeta")
    assert rep.exhausted and rep.enclosure.lo < rep.enclosure.hi
    assert (rep.enclosure.hi * (1 << _ACC_BITS)).denominator == 1
    # at s = 2 the same indices leave it sooner
    _same_as_reference(spec, F(2), 2000, "zeta")
    _same_as_reference(_ALL, F(1), 3500, "zeta")


def test_accumulator_runs_equal_single_adds():
    terms = [F(1, 3), F(5, 7), F(1, 1 << 4095), F(3, 1 << 4096), F(1, 3 ** 2600)]
    for first in terms:
        for t in terms:
            for count in (1, 2, 5):
                ref, acc = _RefAcc(), _IntervalAcc()
                ref.add(first, first)
                acc.add(first, first)
                for _ in range(count):
                    ref.add(t, t + F(1, 1 << 200))
                acc.add(t, t + F(1, 1 << 200), count)
                assert (acc.lo, acc.hi, acc.exact) == (ref.lo, ref.hi, ref.exact)


def test_stop_reasons():
    assert weighted_domain_sum(_ALL, F(1), 10, "omega").stop == "budget"
    assert weighted_domain_sum(_PREFIX_FREE, F(1), 10, "zeta").stop == "exhausted"
    # the budget reaches the table's size and the probe finds its end
    assert weighted_domain_sum(_PREFIX_FREE, F(1), 5, "omega").stop == "exhausted"
    assert weighted_domain_sum(_PREFIX_FREE, F(1), 4, "omega").stop == "budget"
    # geometric zeta terms pass below the grid past length 136
    grid = weighted_domain_sum(Builtin("geometric"), F(1), 10 ** 5, "zeta")
    assert (grid.stop, grid.consumed, grid.exhausted) == ("grid", 136, False)
    # one step halts only the program 0; the budget bounds the candidates
    cut = weighted_domain_sum(Builtin("iota", (), 1), F(1), 30, "omega")
    assert (cut.stop, cut.consumed, cut.exhausted) == ("cut", 1, False)


def test_omega_adds_once_per_length(monkeypatch):
    calls = []
    add = _IntervalAcc.add
    monkeypatch.setattr(
        _IntervalAcc, "add", lambda self, *a: calls.append(a) or add(self, *a)
    )
    rep = weighted_domain_sum(_ALL, F(1), 10 ** 5, "omega")
    lengths = (10 ** 5).bit_length()  # the strings of lengths 0..16
    assert rep.consumed == 10 ** 5 and len(calls) <= lengths + 1


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _words = st.lists(
        st.integers(1, 1 << 14).map(lambda n: format(n, "b")[1:]), max_size=60, unique=True
    )

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(STREAMS)),
        st.sampled_from(("omega", "zeta")),
        st.sampled_from(EXPONENTS),
        st.integers(0, 3000),
    )
    def test_every_stream_matches_the_reference(name, kind, s, budget):
        _same_as_reference(STREAMS[name], s, budget, kind)

    @settings(max_examples=60, deadline=None)
    @given(
        _words,
        st.sampled_from(("omega", "zeta")),
        st.sampled_from(EXPONENTS),
        st.integers(0, 80),
    )
    def test_random_tables_match_the_reference(words, kind, s, budget):
        _same_as_reference(FiniteTable(tuple(words)), s, budget, kind)
