"""Differential tests of the integer sum kernel in weighted_domain_sum.

The engine adds a run of equal-length strings with one accumulator call
for the omega kind, adds 1/n^k terms in integers for the zeta kind at
integer s, and tests the grid stop only when the length grows. A reference
kept here is the per-element accumulator and loop it replaced, which
builds a Fraction for every term; every endpoint, the consumed count and
the exhaustion flag must equal the reference's exactly. The one exception
is the zeta kind over all_strings at s > 1, whose tail the engine brackets
at the string where it stopped: that enclosure must nest inside the
reference's. Run on a 2^-128 grid, the same reference is the engine as it
was before its grid grew to 2^-192, and every enclosure must nest inside
that one. A second reference is the run accumulator whose exact mode added
reduced Fractions; the integer exact mode must agree with it after every
operation. It is also the reference for zeta terms at non-integer s, which
the engine adds from the integers of one root and, past exact mode, adds
with no root at all once a key is far enough below the grid: they must
equal _weight_interval's Fractions added to it.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import islice
from math import lcm, prod

import pytest

from tuatara import machines, numerics
from tuatara.machines import (
    _ACC_BITS,
    _STOP_BITS,
    Builtin,
    Construction,
    FiniteTable,
    _IntervalAcc,
    _root_terms,
    _tail_upper,
    _weight_interval,
    domain_stream,
    weighted_domain_sum,
)


class _RefAcc:
    """The per-element accumulator: one Fraction add per term and endpoint,
    on the 2^-bits grid past exact mode."""

    _GUARD_BITS = 1 << 12

    def __init__(self, bits: int = _ACC_BITS) -> None:
        self.bits = bits
        self.exact = True
        self.lo_f = F(0)
        self.hi_f = F(0)
        self.lo_i = 0
        self.hi_i = 0

    def add(self, t_lo: F, t_hi: F) -> None:
        bits = self.bits
        if self.exact:
            self.lo_f += t_lo
            self.hi_f += t_hi
            if self.lo_f.denominator.bit_length() > self._GUARD_BITS:
                self.lo_i = (self.lo_f.numerator << bits) // self.lo_f.denominator
                self.hi_i = -((-self.hi_f.numerator << bits) // self.hi_f.denominator)
                self.exact = False
            return
        self.lo_i += (t_lo.numerator << bits) // t_lo.denominator
        self.hi_i += -((-t_hi.numerator << bits) // t_hi.denominator)

    @property
    def lo(self) -> F:
        return self.lo_f if self.exact else F(self.lo_i, 1 << self.bits)

    @property
    def hi(self) -> F:
        return self.hi_f if self.exact else F(self.hi_i, 1 << self.bits)


class _FractionAcc:
    """The run accumulator with an exact mode on reduced Fractions."""

    _GUARD_BITS = 1 << 12

    def __init__(self) -> None:
        self.exact = True
        self.lo_f = self.hi_f = F(0)
        self.lo_i = 0
        self.hi_i = 0

    def _add_exact(self, t_lo: F, t_hi: F) -> None:
        shared = t_lo is t_hi and self.lo_f is self.hi_f
        self.lo_f += t_lo
        self.hi_f = self.lo_f if shared else self.hi_f + t_hi
        if self.lo_f.denominator.bit_length() > self._GUARD_BITS:
            self.lo_i = (self.lo_f.numerator << _ACC_BITS) // self.lo_f.denominator
            self.hi_i = -((-self.hi_f.numerator << _ACC_BITS) // self.hi_f.denominator)
            self.exact = False

    def add(self, t_lo: F, t_hi: F, count: int = 1) -> None:
        while self.exact and count:
            n = 1
            if lcm(self.lo_f.denominator, t_lo.denominator).bit_length() <= self._GUARD_BITS:
                n = count
            run_lo = n * t_lo
            self._add_exact(run_lo, run_lo if t_hi is t_lo else n * t_hi)
            count -= n
        if count:
            self.lo_i += count * ((t_lo.numerator << _ACC_BITS) // t_lo.denominator)
            self.hi_i += count * -((-t_hi.numerator << _ACC_BITS) // t_hi.denominator)

    def add_inverse(self, m: int) -> None:
        if self.exact:
            t = F(1, m)
            self._add_exact(t, t)
            return
        q, r = divmod(1 << _ACC_BITS, m)
        self.lo_i += q
        self.hi_i += q + (r != 0)

    @property
    def lo(self) -> F:
        return self.lo_f if self.exact else F(self.lo_i, 1 << _ACC_BITS)

    @property
    def hi(self) -> F:
        return self.hi_f if self.exact else F(self.hi_i, 1 << _ACC_BITS)


def _replay(ops):
    """Apply ("add", t_lo, t_hi, count) and ("inverse", m) operations to the
    integer accumulator and the Fraction one, comparing after each."""
    acc, ref = _IntervalAcc(), _FractionAcc()
    for op in ops:
        for a in (acc, ref):
            if op[0] == "add":
                a.add(*op[1:])
            else:
                a.add_inverse(op[1])
        assert (acc.lo, acc.hi, acc.exact) == (ref.lo, ref.hi, ref.exact), op
    return acc


def _replay_roots(s: F, keys, grid: bool) -> None:
    """Add key^-s for each key through the engine's root terms and through
    _weight_interval's Fractions, comparing after each; grid starts both
    accumulators past exact mode."""
    acc, ref = _IntervalAcc(), _FractionAcc()
    if grid:
        for a in (acc, ref):
            a.add_inverse(3 ** 2600)  # 4,121 bits
        assert not acc.exact
    add = _root_terms(s)
    for key in keys:
        add(acc, key)
        ref.add(*_weight_interval(key, s, "zeta"))
        assert (acc.lo, acc.hi, acc.exact) == (ref.lo, ref.hi, ref.exact), (s, key)


def _ref_sum(spec, s: F, budget: int, kind: str, bits: int = _ACC_BITS):
    """The per-element loop on the 2^-bits grid, with tails at completed
    lengths only: (lo, hi, consumed, exhausted)."""
    s = F(s)
    stream = domain_stream(spec)
    stream.limit_examined(budget)
    acc = _RefAcc(bits)
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
        if not stream.exhaustible and s * length > _STOP_BITS:
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


def _nested(enc, lo, hi) -> bool:
    """enc lies inside [lo, hi], where hi None is +infinity."""
    return lo <= enc.lo and (hi is None or (enc.hi is not None and enc.hi <= hi))


def _same_as_reference(spec, s, budget, kind):
    rep = weighted_domain_sum(spec, s, budget, kind)
    ref = _ref_sum(spec, s, budget, kind)
    if domain_stream(spec).element_tail(F(s), kind, budget) is None:
        got = (rep.enclosure.lo, rep.enclosure.hi, rep.consumed, rep.exhausted)
        assert got == ref, (spec, s, budget, kind)
    else:
        assert _nested(rep.enclosure, *ref[:2]) and not rep.exhausted, (spec, s, budget, kind)
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


def test_unreduced_denominator_past_the_guard_reduces_within_it():
    # 6a has 4,097 bits, but 1/(3a) + 1/(6a) = 1/(2a) reduces to 4,095
    a = (1 << 4096) // 6 + 1
    assert (6 * a).bit_length() > _IntervalAcc._GUARD_BITS >= (2 * a).bit_length()
    acc = _replay([("inverse", 3 * a), ("inverse", 6 * a)])
    assert acc.exact and acc.lo == acc.hi == F(1, 2 * a)
    # one more term takes the reduced sum past the guard
    acc = _replay([("inverse", 3 * a), ("inverse", 6 * a), ("inverse", 1 << 4097)])
    assert not acc.exact
    # the same through add, with an upper sum of its own
    t = F(1, 3 * a)
    _replay([("add", t, t + F(1, 1 << 300), 1), ("add", F(1, 6 * a), F(1, 6 * a), 1)])
    _replay([("add", F(1, 6 * a), F(1, 6 * a), 2), ("add", t, t, 3)])


def test_zeta_sum_switches_to_the_grid_at_the_same_term():
    # the lower sum of 1/1 + ... + 1/n leaves exact mode at n = 2,833
    for budget in (2800, 2831, 2832, 2833, 2834, 2900, 3000):
        _same_as_reference(_ALL, F(1), budget, "zeta")
    _replay([("inverse", m) for m in range(1, 2900)])


def test_integer_zeta_sums_add_no_fractions(monkeypatch):
    # exact mode runs on integers: no Fraction addition per term
    calls = []
    add, radd = F.__add__, F.__radd__
    monkeypatch.setattr(F, "__add__", lambda x, y: calls.append(1) or add(x, y))
    monkeypatch.setattr(F, "__radd__", lambda x, y: calls.append(1) or radd(x, y))
    rep = weighted_domain_sum(_ALL, F(1), 10 ** 4, "zeta")
    assert rep.consumed == 10 ** 4 and len(calls) <= 32


def test_stop_reasons():
    assert weighted_domain_sum(_ALL, F(1), 10, "omega").stop == "budget"
    assert weighted_domain_sum(_PREFIX_FREE, F(1), 10, "zeta").stop == "exhausted"
    # the budget reaches the table's size and the probe finds its end
    assert weighted_domain_sum(_PREFIX_FREE, F(1), 5, "omega").stop == "exhausted"
    assert weighted_domain_sum(_PREFIX_FREE, F(1), 4, "omega").stop == "budget"
    # geometric zeta terms pass below the grid past length 136
    grid = weighted_domain_sum(Builtin("geometric"), F(1), 10 ** 5, "zeta")
    assert (grid.stop, grid.consumed, grid.exhausted) == ("grid", 136, False)
    # all_strings brackets its zeta tail at every string: past 24 terms it
    # closes with the Euler-Maclaurin bracket, and where a further term could
    # widen the enclosure first (at 18 terms for s = 45), it stops there
    grid = weighted_domain_sum(_ALL, F(40), 10 ** 5, "zeta")
    assert (grid.stop, grid.consumed, grid.exhausted) == ("grid", 24, False)
    grid = weighted_domain_sum(_ALL, F(45), 10 ** 5, "zeta")
    assert (grid.stop, grid.consumed, grid.exhausted) == ("grid", 18, False)
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


def test_root_terms_at_the_cut():
    # 192/s = 128 at s = 3/2: 2^128 has key^s = 2^192 exactly, and the cut
    # is 2^129; at s = 5/3 (115.2) the cut is 2^116
    for s in (F(3, 2), F(5, 3), F(193, 192), F(2001, 2)):
        L = _ACC_BITS * s.denominator // s.numerator
        near = [(1 << j) + d for j in (L, L + 1) for d in (-1, 0, 1)]
        keys = [1, 2, 3, 1 << 300] + [k for k in near if k > 0]
        for grid in (False, True):
            _replay_roots(s, keys, grid)


def test_rational_zeta_sums_take_no_pow_bounds_per_term(monkeypatch):
    # only the tails, one per completed length, go through pow_bounds
    calls = []
    pow_bounds = machines.pow_bounds
    monkeypatch.setattr(machines, "pow_bounds", lambda *a: calls.append(a) or pow_bounds(*a))
    rep = weighted_domain_sum(_LUKA, F(3, 2), 2000, "zeta")
    lengths = {len(w) for w in islice(domain_stream(_LUKA), 2000)}
    assert rep.consumed == 2000 and len(calls) <= len(lengths) + 3


def _table(indices) -> FiniteTable:
    return FiniteTable(tuple(format(n, "b")[1:] for n in indices))


def test_terms_below_the_grid_take_no_root(monkeypatch):
    roots = []
    scaled_root = numerics._scaled_root
    monkeypatch.setattr(
        numerics, "_scaled_root", lambda *a: roots.append(a) or scaled_root(*a)
    )
    rng = random.Random(2001)
    # the first of 40 20-bit indices at s = 2001/2 takes the sum past the
    # guard, and every later index is past the cut, 2^1
    big = _table(rng.sample(range(1 << 19, 1 << 20), 40))
    # at s = 5/3 the indices 2..40 take it past the guard (at 26), and the
    # cut is 2^116: the ten indices below it take a root, the twenty past
    # it none
    edge = _table(
        list(range(2, 41))
        + [(1 << j) | rng.getrandbits(j) for j in (115, 116, 117) for _ in range(10)]
    )
    for spec, s, count in ((big, F(2001, 2), 1), (edge, F(5, 3), 39 + 10)):
        roots.clear()
        rep = weighted_domain_sum(spec, s, 100, "zeta")
        assert len(roots) == count and rep.exhausted and not rep.enclosure.is_exact
        _same_as_reference(spec, s, 100, "zeta")


try:
    from hypothesis import assume, given, settings, strategies as st
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

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(STREAMS)),
        st.sampled_from(("omega", "zeta")),
        st.sampled_from(EXPONENTS + (F(12), F(40))),
        st.integers(0, 3000),
    )
    def test_every_stream_nests_inside_the_128_bit_grid(name, kind, s, budget):
        # the reference on a 2^-128 grid is the engine before the grid grew
        rep = weighted_domain_sum(STREAMS[name], s, budget, kind)
        lo, hi, _, exhausted = _ref_sum(STREAMS[name], s, budget, kind, bits=128)
        assert _nested(rep.enclosure, lo, hi), (name, kind, s, budget)
        assert rep.exhausted == exhausted

    # denominators that share large factors, so that sums cross the guard
    # and reduce back below it (multiples of a 4,094-bit number, as in the
    # test above); and small ones that keep the sum exact
    _BIG = (3 ** 1300, 5 ** 900, (1 << 2000) + 1, 7 ** 700)
    _A = (1 << 4096) // 6 + 1
    _dens = st.one_of(
        st.integers(1, 60),
        st.integers(1, 12).map(lambda k: k * _A),
        st.integers(0, 4200).map(lambda k: 1 << k),
        st.lists(st.sampled_from(_BIG), min_size=1, max_size=3).map(prod),
    )

    @st.composite
    def _op(draw):
        if draw(st.booleans()):
            return ("inverse", draw(_dens) * draw(st.integers(1, 6)))
        t_lo = F(draw(st.integers(0, 5)), draw(_dens))
        gap = draw(st.one_of(st.none(), st.integers(0, 300)))
        t_hi = t_lo if gap is None else t_lo + F(1, 1 << gap)
        return ("add", t_lo, t_hi, draw(st.integers(1, 5)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op(), max_size=12))
    def test_integer_exact_mode_matches_fraction_sums(ops):
        _replay(ops)

    @settings(max_examples=60, deadline=None)
    @given(
        _words,
        st.sampled_from(("omega", "zeta")),
        st.sampled_from(EXPONENTS),
        st.integers(0, 80),
    )
    def test_random_tables_match_the_reference(words, kind, s, budget):
        _same_as_reference(FiniteTable(tuple(words)), s, budget, kind)

    @st.composite
    def _root_case(draw):
        """An exponent a/b with 2 <= b <= 101, where 192/s is sometimes a
        whole length, and keys up to 2^300: powers of two, either side of
        both powers around the cut, and any."""
        if draw(st.booleans()):
            s = F(_ACC_BITS, draw(st.integers(1, 191)))
        else:
            b = draw(st.integers(2, 101))
            s = F(draw(st.integers(b, 4 * b)), b)
        assume(2 <= s.denominator <= 101)
        L = _ACC_BITS * s.denominator // s.numerator
        near = st.builds(
            lambda j, d: max((1 << j) + d, 1), st.sampled_from((L, L + 1)), st.integers(-1, 1)
        )
        key = st.one_of(
            near, st.integers(0, 300).map(lambda j: 1 << j), st.integers(1, 1 << 300)
        )
        return s, draw(st.lists(key, max_size=12))

    @settings(max_examples=150, deadline=None)
    @given(_root_case(), st.booleans())
    def test_root_terms_match_weight_interval(case, grid):
        _replay_roots(*case, grid)
