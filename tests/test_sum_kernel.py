"""Differential tests of the integer sum kernel in weighted_domain_sum.

The engine adds the equal-length strings of each group or block an omega
sum takes with one accumulator call as it takes them, adds 1/n^k terms in
integers for the zeta kind at integer s, and tests the grid stop only when
the length grows. A reference kept here is the per-element accumulator and
loop it replaced, which builds a Fraction for every term; every endpoint,
the consumed count and the exhaustion flag must equal the reference's
exactly. The one exception is the zeta kind over all_strings at s > 1,
whose tail the engine brackets at the string where it stopped: that
enclosure must nest inside the reference's. Run on a 2^-128 grid, the same
reference is the engine as it was before its grid grew to 2^-192, and
every enclosure must nest inside that one. A second reference is the run
accumulator whose exact mode added reduced Fractions; the integer exact
mode must agree with it after every operation. It is also the reference
for zeta terms at non-integer s, which the engine adds a block at a time
from the integers of one root each and, past exact mode, adds with no root
at all once a key is far enough below the grid: they must equal
_weight_interval's Fractions added to it, and a block must equal its keys
added one at a time.

weighted_domain_sums serves several (kind, s) requests from one
enumeration, read a lengths() group at a time: every request must equal
its own weighted_domain_sum call and the reference, and the pass must read
exactly the strings the longest separate sum reads, less one the reference
reads only to learn that a new length begins, and exactly the operand
indices it reads. Omega sums take a sized group's len and read none of it;
they must still equal the reference, which reads every string.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, islice, takewhile
from math import lcm, prod

import pytest

from tuatara import machines
from tuatara.machines import (
    _ACC_BITS,
    _STOP_BITS,
    Builtin,
    Construction,
    FiniteTable,
    _IntervalAcc,
    _tail_upper,
    _pairwise_sum,
    _weight_interval,
    classify,
    domain_stream,
    weighted_domain_sum,
    weighted_domain_sums,
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

    def add_inverses(self, keys, k: int) -> None:
        for m in (n ** k for n in keys):
            if self.exact:
                t = F(1, m)
                self._add_exact(t, t)
                continue
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
                a.add_inverses((op[1],), 1)
        assert (acc.lo, acc.hi, acc.exact) == (ref.lo, ref.hi, ref.exact), op
    return acc


def _replay_roots(s: F, keys, grid: bool) -> None:
    """Add key^-s for each key through the engine's root terms and through
    _weight_interval's Fractions, comparing after each; grid starts both
    accumulators past exact mode."""
    acc, ref = _IntervalAcc(), _FractionAcc()
    if grid:
        for a in (acc, ref):
            a.add_inverses((3 ** 2600,), 1)  # 4,121 bits
        assert not acc.exact
    for key in keys:
        acc.add_roots((key,), s.numerator, s.denominator)
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


def test_omega_takes_add_their_strings_at_once(monkeypatch):
    # after every take, an omega sum still exact holds the exact weight of
    # every string it has taken, the length last reached included: no
    # length waits for the next reach or report
    checked = []
    take = machines._Sum.take

    def checking_take(self, block):
        before = self.consumed
        more = take(self, block)
        if self.kind == "omega":
            t_lo = _weight_interval(self.length, self.s, "omega")[0]
            self.taken = getattr(self, "taken", F(0)) + (self.consumed - before) * t_lo
            if self.acc.exact:
                assert self.acc.lo == self.taken, (self.length, self.consumed)
                checked.append(self.consumed > before)
        return more

    monkeypatch.setattr(machines._Sum, "take", checking_take)
    specs = (
        _LUKA, _ALL, STREAMS["geometric"], STREAMS["product"], Construction("double", (_LUKA,)),
        Construction("tuatara_of", (_PREFIX_FREE,)),
    )
    for s in (F(1), F(3, 2)):
        runs = [(spec, budget) for spec in specs for budget in (1, 7, 400, 3000)]
        runs += [(STREAMS["iota"], budget) for budget in (1, 7)]
        for spec, budget in runs:
            for requests in ([("omega", s)], [("zeta", F(1)), ("omega", s)]):
                checked.clear()
                weighted_domain_sums(spec, requests, budget)
                assert any(checked), (spec, s, budget, requests)


def test_root_terms_at_the_cut():
    # 192/s = 128 at s = 3/2: 2^128 has key^s = 2^192 exactly, and the cut
    # is 2^129; at s = 5/3 (115.2) the cut is 2^116
    for s in (F(3, 2), F(5, 3), F(193, 192), F(2001, 2)):
        L = _ACC_BITS * s.denominator // s.numerator
        near = [(1 << j) + d for j in (L, L + 1) for d in (-1, 0, 1)]
        keys = [1, 2, 3, 1 << 300] + [k for k in near if k > 0]
        for grid in (False, True):
            _replay_roots(s, keys, grid)


def test_a_root_block_across_the_guard_adds_as_its_keys_one_at_a_time():
    # the sum leaves exact mode inside the block: at s = 5/3 at the 25th key
    # of 2, 3, ..., and further keys fall either side of the cut, 2^116 at
    # s = 5/3 and 2^129 at s = 3/2; at s = 2001/2 a few keys pass the guard
    # and every later key is past the cut, 2^1
    rng = random.Random(30)
    far = sorted((1 << j) | rng.getrandbits(j) for j in (115, 116, 117, 128, 129) for _ in range(4))
    keys = list(range(2, 41)) + far
    for s in (F(5, 3), F(3, 2), F(2001, 2)):
        block, single, ref = _IntervalAcc(), _IntervalAcc(), _FractionAcc()
        block.add_roots(keys, s.numerator, s.denominator)
        halves = _IntervalAcc()
        for part in (keys[:30], keys[30:]):
            halves.add_roots(part, s.numerator, s.denominator)
        for key in keys:
            single.add_roots([key], s.numerator, s.denominator)
            ref.add(*_weight_interval(key, s, "zeta"))
        want = (single.lo, single.hi, single.exact, single.exact_terms)
        assert 0 < single.exact_terms < 39 and not single.exact, s
        for acc in (block, halves):
            assert (acc.lo, acc.hi, acc.exact, acc.exact_terms) == want, s
        assert (ref.lo, ref.hi, ref.exact) == want[:3], s


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
    # every root term is one call of the accumulator's: inverse_root in
    # exact mode, _scaled_root on the grid
    roots = []
    for name in ("inverse_root", "_scaled_root"):
        root = getattr(machines, name)
        monkeypatch.setattr(
            machines, name, lambda *a, root=root: roots.append(a) or root(*a)
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


# mixed kinds at integer and rational s, two of them repeated
_MIXED = [
    ("zeta", F(1)), ("omega", F(1)), ("zeta", F(3, 2)), ("omega", F(7, 3)),
    ("zeta", F(3)), ("omega", F(1)),
]


def _one_pass_matches(spec, requests, budget):
    """Each report of one weighted_domain_sums call equals its own
    weighted_domain_sum call, which matches the reference."""
    got = weighted_domain_sums(spec, requests, budget)
    assert len(got) == len(requests)
    for (kind, s), rep in zip(requests, got):
        assert rep == _same_as_reference(spec, s, budget, kind), (spec, kind, s, budget)
    return got


class _ReadGroup:
    """A sized lengths() group that records each index iterated from it;
    its len reads none."""

    def __init__(self, group, pulls):
        self.group, self.pulls = group, pulls

    def __len__(self):
        return len(self.group)

    def __iter__(self):
        for n in self.group:
            self.pulls.append(n)
            yield n


class _Pulls(list):
    """The indices read from the groups of the stream asked for; operands:
    those read from its operands' streams, through its construction."""

    def __init__(self):
        super().__init__()
        self.operands = []

    def clear(self):
        super().clear()
        self.operands.clear()


def _counting_pulls(monkeypatch, cut_after=None):
    """Make domain_stream record each index iterated from the lengths()
    groups of the streams it builds: the stream asked for in pulls, its
    operands' streams in pulls.operands. A sized group stays sized, except
    that a double's operand range passes as it is, since double maps it to
    a range without reading it. When cut_after is given, every group of the stream
    asked for is read as an iterator instead, as a filtering stream's are,
    and each pass raises StreamCut after cut_after of its indices."""
    pulls = _Pulls()
    make = machines.domain_stream
    building = []

    def counted(spec):
        building.append(spec)
        try:
            stream = make(spec)
        finally:
            building.pop()
        parent = building[-1] if building else None
        operand = parent is not None  # built by a construction, read through it
        out, cut = (pulls.operands, None) if operand else (pulls, cut_after)
        inner = stream.lengths

        def lengths():
            taken = []  # this pass's

            def read(group):
                for n in group:
                    if len(taken) == cut:
                        raise machines.StreamCut("cut for the test")
                    taken.append(n)
                    out.append(n)
                    yield n

            for length, group in inner():
                if isinstance(group, range) and getattr(parent, "kind", None) == "double":
                    yield length, group
                elif hasattr(group, "__len__") and cut is None:
                    yield length, _ReadGroup(group, out)
                else:
                    yield length, read(group)

        stream.lengths = lengths
        return stream

    monkeypatch.setattr(machines, "domain_stream", counted)
    monkeypatch.setitem(globals(), "domain_stream", counted)  # the reference's too
    return pulls


def test_one_pass_equals_separate_sums_on_every_stream():
    for name, spec in STREAMS.items():
        for budget in (0, 1, 7, 300, 2500):
            _one_pass_matches(spec, _MIXED, budget)


def _opens_a_length(pulls, consumed) -> bool:
    """Whether the reference read an index past the consumed ones, to stop
    on the grid or to find that the stream goes on, and that index begins a
    length: the engine learns of such a length from its lengths() group and
    reads none of it."""
    past = pulls[consumed:]
    return bool(past) and (consumed == 0 or past[0].bit_length() > pulls[consumed - 1].bit_length())


def test_one_pass_pulls_what_the_longest_separate_sum_pulls(monkeypatch):
    pulls = _counting_pulls(monkeypatch)
    for name, spec in STREAMS.items():
        for budget in (0, 5, 400, 3000):
            alone, operands = [], []
            for kind, s in _MIXED:
                pulls.clear()
                if domain_stream(spec).element_tail(s, kind, budget) is None:
                    consumed = _ref_sum(spec, s, budget, kind)[2]  # one string at a time
                    alone.append(len(pulls) - _opens_a_length(pulls, consumed))
                else:  # a bracketed sum pulls the strings it takes
                    alone.append(weighted_domain_sum(spec, s, budget, kind).consumed)
                operands.append(len(pulls.operands))
            pulls.clear()
            weighted_domain_sums(spec, _MIXED, budget)
            assert len(pulls) == max(alone), (name, budget)
            # the stream reaches the longest sum's last length either way,
            # and a construction reads its operands as far as it reaches
            assert len(pulls.operands) == max(operands), (name, budget)
            omega = [i for i, (kind, _) in enumerate(_MIXED) if kind == "omega"]
            pulls.clear()
            weighted_domain_sums(spec, [_MIXED[i] for i in omega], budget)
            if name == "iota":  # lazy groups are read
                assert len(pulls) == max(alone[i] for i in omega), (name, budget)
            else:  # sized groups are counted; only an exhaustion probe reads one.
                # A multiset stream's lengths here fit one window each, one
                # list, and a prefix code's product is counted unbuilt
                assert len(pulls) <= domain_stream(spec).exhaustible, (name, budget)
            assert len(pulls.operands) == max(operands[i] for i in omega), (name, budget)


def test_a_construction_reads_each_operand_index_a_bounded_number_of_times(monkeypatch):
    # double maps each operand index once, and a range without reading it;
    # tuatara_of lists a lazy operand group once and reads a sized one in
    # place, once for the OR of its indices and once for each bit set in it
    pulls = _counting_pulls(monkeypatch)
    iota = Builtin("iota", (), 12, 15)
    for operand in (_ALL, _LUKA, iota):
        for kind in ("double", "tuatara_of"):
            for budget in (5, 400, 3000):
                pulls.clear()
                weighted_domain_sums(Construction(kind, (operand,)), _MIXED, budget)
                reads = Counter(pulls.operands)
                assert bool(reads) == (kind == "tuatara_of" or operand is not _ALL)
                in_place = kind == "tuatara_of" and operand is not iota
                for n, count in reads.items():
                    assert count <= (n.bit_length() + 1 if in_place else 1), (kind, operand, n)


def test_long_lengths_are_pulled_in_blocks(monkeypatch):
    # lengths 13 and 14 hold 8,192 and 16,384 indices, more than a block
    pulls = _counting_pulls(monkeypatch)
    for budget in (4096, 12293, 20000):
        pulls.clear()
        _ref_sum(_ALL, F(1), budget, "omega")
        alone = len(pulls)
        requests = [("omega", F(1)), ("zeta", F(2)), ("zeta", F(1))]
        pulls.clear()
        weighted_domain_sums(_ALL, requests, budget)
        assert len(pulls) == alone == budget
        _one_pass_matches(_ALL, requests, budget)
        # an omega-only pass reads no index at all
        pulls.clear()
        assert weighted_domain_sums(_ALL, requests[:1], budget)[0].consumed == budget
        assert pulls == []
    monkeypatch.undo()
    # a sum holds one block of indices at a time, not a whole length
    tracemalloc.start()
    try:
        weighted_domain_sums(_ALL, [("omega", F(1)), ("zeta", F(1))], 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


def test_a_grid_stop_reads_no_string_of_the_stop_length(monkeypatch):
    pulls = _counting_pulls(monkeypatch)
    # geometric zeta terms pass below the grid at length 137 for s = 1 and
    # at 69 for s = 2; lengths() names the stop length with its group, so
    # no string of it is read
    spec = Builtin("geometric")
    for requests in ([("zeta", F(1))], [("zeta", F(2))], [("zeta", F(2)), ("zeta", F(1))]):
        pulls.clear()
        reps = weighted_domain_sums(spec, requests, 10 ** 5)
        stop_len = max(_STOP_BITS // s.numerator + 1 for _, s in requests)
        assert all(rep.stop == "grid" for rep in reps)
        assert max(rep.consumed for rep in reps) == len(pulls)
        assert [n.bit_length() - 1 >= stop_len for n in pulls].count(True) == 0
        assert pulls[-1].bit_length() - 1 == stop_len - 1


def test_a_cut_inside_a_length_keeps_the_strings_before_it(monkeypatch):
    # lengths 3 and 4 hold the indices 8..15 and 16..31; the cut comes
    # after 10 or 20 of them, in the middle of a length
    for cut_after in (10, 20):
        _counting_pulls(monkeypatch, cut_after)
        for spec in (_ALL, _LUKA):
            for budget in (cut_after - 1, cut_after, cut_after + 1, 1000):
                reps = _one_pass_matches(spec, _MIXED, budget)
                for rep in reps:
                    want = "cut" if budget > cut_after else "budget"
                    if rep.stop != "grid":  # all_strings brackets zeta at s > 1
                        assert (rep.stop, rep.consumed) == (want, min(budget, cut_after))
        monkeypatch.undo()


def test_omega_sums_from_counts_match_the_reference():
    # every stream kind whose groups are sized: an omega sum takes each
    # group's len and reads none of its strings; the reference reads them
    # one at a time. Budgets fall on either side of each length boundary
    for name in ("finite", "all_strings", "lukasiewicz", "geometric", "double", "tuatara_of",
                 "universal_tuatara", "universal_convergent"):
        spec = STREAMS[name]
        ends = accumulate(len(group) for _, group in domain_stream(spec).lengths())
        ends = list(takewhile(lambda end: end < 600, islice(ends, 40)))
        budgets = sorted({end + d for end in ends for d in (-1, 0, 1)})
        for s in (F(1), F(2), F(3, 2), F(1, 2)):
            for budget in budgets:
                _same_as_reference(spec, s, budget, "omega")


def test_exhaustion_exactly_at_the_budget():
    # double and tuatara_of groups are sized but not slices; omega requests
    # alone probe a sized group for exhaustion, mixed ones read it
    omega = [request for request in _MIXED if request[0] == "omega"]
    specs = (
        _PREFIX_FREE, STREAMS["finite"], STREAMS["universal_tuatara"],
        Construction("double", (_PREFIX_FREE,)), Construction("tuatara_of", (_PREFIX_FREE,)),
    )
    for spec in specs:
        size = sum(1 for _ in domain_stream(spec))
        for budget, stop in ((size - 1, "budget"), (size, "exhausted"), (size + 1, "exhausted")):
            for requests in (_MIXED, omega):
                reps = _one_pass_matches(spec, requests, budget)
                assert {(rep.stop, rep.consumed) for rep in reps} == {(stop, min(size, budget))}


def test_classify_takes_both_sums_from_one_pass(monkeypatch):
    streams = []
    make = machines.domain_stream
    monkeypatch.setattr(machines, "domain_stream", lambda spec: streams.append(1) or make(spec))
    for name, spec in STREAMS.items():
        for budget in (0, 3, 600):
            with monkeypatch.context() as m:
                m.setattr(machines, "weighted_domain_sums", lambda spec, requests, budget: [
                    weighted_domain_sums(spec, [request], budget)[0] for request in requests
                ])
                streams.clear()
                separate = classify(spec, budget)
            built = len(streams)  # operands build streams of their own
            streams.clear()
            assert classify(spec, budget) == separate, (name, budget)
            assert 2 * len(streams) == built


def test_reports_name_the_winning_upper_bound():
    for name, spec in STREAMS.items():
        stream = domain_stream(spec)
        for kind, s in _MIXED:
            rep = weighted_domain_sum(spec, s, 2000, kind)
            hi = rep.enclosure.hi
            if rep.upper == "exhausted":
                assert rep.exhausted
            elif rep.upper == "total":
                assert hi == stream.total_upper(s, kind)
            elif rep.upper == "bracket":
                assert name == "all_strings" and kind == "zeta"
            elif rep.upper is None:
                assert hi is None
            else:
                # the strings up to the completed length, rounded up one by
                # one, plus the tail past it
                acc = _IntervalAcc()
                for n in islice(stream.indices(), rep.consumed):
                    length = n.bit_length() - 1
                    if length <= rep.upper:
                        acc.add(*_weight_interval(n if kind == "zeta" else length, s, kind))
                assert hi == acc.hi + _tail_upper(stream, rep.upper, s, kind), (name, kind, s)
                assert stream.total_upper(s, kind) is None or hi < stream.total_upper(s, kind)
    assert weighted_domain_sum(_ALL, F(2), 10 ** 5, "zeta").upper == "bracket"
    assert weighted_domain_sum(Builtin("geometric"), F(1), 10 ** 5, "zeta").upper == 100
    assert weighted_domain_sum(Builtin("lukasiewicz"), F(1), 100, "omega").upper == "total"


def test_reports_say_where_the_accumulator_left_exact_mode():
    # the lower sum of 1/1 + ... + 1/n leaves exact mode at n = 2,833
    for budget, terms in ((2832, None), (2833, 2833), (10 ** 4, 2833)):
        assert weighted_domain_sum(_ALL, F(1), budget, "zeta").exact_terms == terms
    # every omega weight at s = 1 is a power of two
    assert weighted_domain_sum(_ALL, F(1), 10 ** 4, "omega").exact_terms is None
    # the first 4,100-bit term takes the omega sum past the guard at once
    long_words = tuple(format(n, "b")[1:] for n in range(1 << 4100, (1 << 4100) + 6))
    rep = weighted_domain_sum(FiniteTable(("0", "1", "01") + long_words), F(1), 100, "omega")
    assert rep.exact_terms == 4


def test_tail_memos_go_with_their_stream():
    # lukasiewicz, product and finite tails keep memos on their stream; the
    # geometric series of all_strings, geometric and double over all_strings
    # are made afresh in integers, and those streams keep none
    memos = (_LUKA, STREAMS["product"], STREAMS["finite"])
    for spec in (_ALL, _LUKA, *(STREAMS[k] for k in ("geometric", "product", "double", "finite"))):
        stream = domain_stream(spec)
        for s in (F(2), F(7, 3)):
            for ell in (-1, 0, 5):
                for kind in ("omega", "zeta"):
                    _tail_upper(stream, ell, s, kind)
        memo = vars(stream).get("_constants")
        assert memo if spec in memos else memo is None, spec
        gone = weakref.ref(stream)
        del stream
        gc.collect()
        assert gone() is None, spec
    # nor does a sum keep its stream
    made = []
    make = machines.domain_stream

    def kept(spec):
        stream = make(spec)
        made.append(weakref.ref(stream))
        return stream

    machines.domain_stream, restore = kept, make
    try:
        for spec in (STREAMS["geometric"], STREAMS["product"]):
            weighted_domain_sums(spec, _MIXED, 500)
    finally:
        machines.domain_stream = restore
    gc.collect()
    assert made and all(ref() is None for ref in made)


def test_product_density_counts_a_prefix_code_by_length():
    rng = random.Random(60)
    # 60 nine-bit parts: 635,376 strings up to length 36, past the cap
    parts = tuple(format(i, "09b") for i in rng.sample(range(512), 60))
    stream = domain_stream(Construction("product", (FiniteTable(parts),)))
    with pytest.raises(ValueError, match="635376 product strings up to length 36"):
        stream.count_up_to_length(40)
    assert stream.count_up_to_length(18) == 1 + 60 + 60 * 61 // 2
    # the counts equal the strings one by one, for a prefix code
    for code in (("0", "10", "11"), ("1", "01", "000", "001"), ("",  "0", "1")):
        stream = domain_stream(Construction("product", (FiniteTable(code),)))
        for ell in range(12):
            want = sum(1 for _ in machines.itertools.takewhile(
                lambda n: n.bit_length() - 1 <= ell, stream.indices()))
            assert stream.count_up_to_length(ell) == want
    # parts that are not a prefix code are counted one by one, and refused
    # inside the length where they pass the cap
    loose = domain_stream(Construction("product", (FiniteTable(parts + ("0",)),)))
    with pytest.raises(ValueError, match=f"more than {machines.PRODUCT_COUNT_CAP} product"):
        loose.count_up_to_length(40)


def test_block_inverses_equal_single_inverses():
    # 2^64 cubed is the grid unit itself, and 2^65 cubed lies past it
    rng = random.Random(3)
    keys = [1, 2, 3, 4, 5, 1 << 63, 1 << 64, 1 << 65, (1 << 64) + 1]
    keys += sorted(rng.randint(1, 1 << 70) for _ in range(40))
    for k in (1, 2, 3, 4):
        # exact throughout, on the grid from the start, and leaving exact
        # mode inside the block
        for before in ((), (3 ** 2600,), range(1, 2820)):
            block, single = _IntervalAcc(), _FractionAcc()
            block.add_inverses(before, 1)
            block.add_inverses(keys, k)
            exact_terms = 0
            for m in [*before, *(n ** k for n in keys)]:
                exact_terms += single.exact  # the term that leaves exact mode counts
                single.add_inverses((m,), 1)
            got = (block.lo, block.hi, block.exact, block.exact_terms)
            assert got == (single.lo, single.hi, single.exact, exact_terms), (k, len(before))


def test_pairwise_sums_equal_running_sums():
    rng = random.Random(19)
    for size in (0, 1, 2, 3, 7, 64, 301):
        terms = [F(rng.randint(1, 9), rng.randint(1, 1 << 40)) for _ in range(size)]
        assert _pairwise_sum(list(terms)) == sum(terms, F(0))


try:
    from hypothesis import assume, example, given, settings, strategies as st
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
    _multiples = st.integers(1, 12).map(lambda k: k * _A)
    _dens = st.one_of(
        st.integers(1, 60),
        _multiples,
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

    @st.composite
    def _inverse_keys(draw):
        """Up to 160 small keys, whose blocks stay within the guard, with up
        to four keys from _dens among them. Where the small keys are 1 and
        3, two multiples of _A can take a block's least common multiple
        past the guard while the reduced sum stays within it, as in the
        example below."""
        small = draw(st.sampled_from((st.sampled_from((1, 3)), st.integers(1, 1 << 10))))
        size = draw(st.integers(0, 160))
        keys = draw(st.lists(small, min_size=size, max_size=size))
        for _ in range(draw(st.integers(0, 4))):
            keys.insert(draw(st.integers(0, len(keys))), draw(st.one_of(_dens, _multiples)))
        return keys

    @settings(max_examples=150, deadline=None)
    @given(
        _inverse_keys(),
        st.lists(st.integers(0, 90), max_size=6),
        st.sampled_from((1, 2, 3)),
        st.booleans(),
    )
    @example([1] * 40 + [3 * _A] + [3] * 9 + [6 * _A] + [1] * 80, [30], 1, False)
    def test_inverse_blocks_match_single_fraction_adds(keys, cuts, k, apart):
        # blocks of any size, past _EXACT_BLOCK too, cut at random; each is
        # checked against one Fraction add per key; apart first sets the
        # upper sum apart from the lower one
        acc, ref = _IntervalAcc(), _FractionAcc()
        exact_terms = start = 0
        if apart:
            for a in (acc, ref):
                a.add(F(1, 3), F(1, 3) + F(1, 1 << 300))
            exact_terms = 1
        for stop in [*accumulate(cuts), len(keys)]:
            block = keys[start:stop]
            start = max(start, stop)
            acc.add_inverses(block, k)
            for n in block:
                exact_terms += ref.exact  # the term that leaves exact mode counts
                ref.add_inverses((n,), k)
            got = (acc.lo, acc.hi, acc.exact, acc.exact_terms)
            assert got == (ref.lo, ref.hi, ref.exact, exact_terms), (stop, k)

    @settings(max_examples=60, deadline=None)
    @given(
        _words,
        st.sampled_from(("omega", "zeta")),
        st.sampled_from(EXPONENTS),
        st.integers(0, 80),
    )
    def test_random_tables_match_the_reference(words, kind, s, budget):
        _same_as_reference(FiniteTable(tuple(words)), s, budget, kind)

    _requests = st.lists(
        st.tuples(st.sampled_from(("omega", "zeta")), st.sampled_from(EXPONENTS)),
        min_size=1,
        max_size=4,
    )

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(STREAMS)), _requests, st.integers(0, 3000))
    def test_every_request_of_one_pass_matches_its_own_sum(name, requests, budget):
        _one_pass_matches(STREAMS[name], requests, budget)

    @settings(max_examples=40, deadline=None)
    @given(_words, _requests, st.integers(0, 80))
    def test_one_pass_over_random_tables_matches_separate_sums(words, requests, budget):
        _one_pass_matches(FiniteTable(tuple(words)), requests, budget)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 1 << 20), max_size=80, unique=True),
        st.sampled_from(EXPONENTS),
    )
    def test_table_tails_equal_running_sums(keys, s):
        # the tail past each length, summed in pairs, is the Fraction the
        # terms add up to one by one
        stream = domain_stream(_table(keys))
        for kind in ("omega", "zeta"):
            for ell in range(-1, 21):
                terms = (
                    _weight_interval(n if kind == "zeta" else n.bit_length() - 1, s, kind)[1]
                    for n in keys
                    if n.bit_length() - 1 > ell
                )
                assert stream.tail_bound(ell, s, kind) == sum(terms, F(0)), (kind, ell)

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
