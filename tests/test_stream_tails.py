"""Differential tests of the streams' tail bounds against their older form.

Each stream now states its upper bounds through tail_bound alone, and
total_upper is the one base definition, the smaller of the stream's tail
past length -1 and the majorant over all strings. The reference kept here
is the earlier stream layer: total_upper overrides on five stream kinds
(all_strings, product, double, tuatara_of, prime_product), a prime_product
tail of the Euler product less 1 past length 0, a counting loop per finite,
universal and tuatara_of stream, and the per-element sum loop whose upper
bound took total_upper and the tails at every completed length from -1 on.
weighted_domain_sum must give the same enclosure, endpoint for endpoint,
the same consumed count, exhaustion and stop as that reference, and the
streams must count and enumerate the same strings. Read as lengths()
groups, they must give the same indices, in groups of strictly ascending
lengths, none empty, a sized group's len counting it; under an examine
limit, a StreamCut must fall after the same indices.

The references stand alone: each keeps the string enumeration of the
stream layer before streams yielded indices, with indices read off the
strings, so they also check that every stream's indices and the strings
derived from them are the ones it enumerated as strings. Universal
machines had no tail then; their hi may only fall below the reference's.

The product and prime_product references also keep the earlier
enumerators: a product built a whole length at a time from one tier of
strings per part, with a tail whose per-length heads counted those
strings, and smooth numbers from a heap with a set of every number
yielded. Where a product's parts are not uniquely decodable, several
multisets render one string; the multiset counts behind the tail then
exceed the string counts, so hi may only fall below the reference's.

The references take their powers and weights from Fraction copies of the
formulas kept here (_pow2, _inverse_pow, _ref_weight), not from the package,
whose tails and weights are now built from integer parts. A last reference
is every stream kind's tail as a chain of those Fractions: _tail_upper must
equal it exactly at every length from -1 to 140, at integer and rational s.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import tracemalloc
from fractions import Fraction as F
from math import comb

import pytest

from tuatara import machines
from tuatara.binstr import all_strings, bin_inv, bin_of, is_prefix_free
from tuatara.iota import run_program
from tuatara.machines import (
    _STOP_BITS,
    Builtin,
    Construction,
    FiniteTable,
    _IntervalAcc,
    _tail_upper,
    _weight_interval,
    domain_stream,
    weighted_domain_sum,
)
from tuatara.numerics import POWER_BITS_CAP, PrecisionLimit, _ikroot, check_power, first_primes

# ---------------------------------------------------------------------------
# the weights and powers as Fractions, as the tails and weights took them
# before they were built from integers; the package lends only the certified
# integer root and the power cap's check

_PREC = machines._TERM_PREC


def _pow2(e):
    """(lo, hi) around 2^e, as pow2_bounds(e, _PREC) gave them."""
    c, f = divmod(e.numerator, e.denominator)
    check_power(2, abs(c))
    if f == 0:
        v = F(2) ** c
        return v, v
    s = _ikroot(1 << (f + e.denominator * _PREC), e.denominator)
    up, down = max(c - _PREC, 0), max(_PREC - c, 0)
    return F(s << up, 1 << down), F((s + 1) << up, 1 << down)


def _inverse_pow(n, e):
    """(lo, hi) around n^-e for integer n >= 1 and rational e > 0, as
    pow_bounds(F(n), -e, _PREC) gave them; the caps are not checked."""
    a, b = e.numerator, e.denominator
    if b == 1:
        v = F(1, n ** a)
        return v, v
    p = _PREC + 4
    r = _ikroot(n ** a << (b * p), b)  # at least 2^p, as n >= 1
    return F(1 << p, r + 1), F(1 << p, r)


def _ref_weight(key, s, kind):
    """_weight_interval as it was: 2^(-s key) or key^-s."""
    return _pow2(-s * key) if kind == "omega" else _inverse_pow(key, s)


# ---------------------------------------------------------------------------
# the earlier stream layer


def _lenlex_key(w):
    return (len(w), w)


class _RefStream:
    """The earlier DomainStream base: streams enumerated strings, indices
    came from them, and total_upper was the stream's own tail past -1."""

    exhaustible = False

    def indices(self):
        return (bin_inv(w) for w in self)

    def limit_examined(self, limit):
        pass

    def count_up_to_length(self, ell):
        if not self.exhaustible:
            return None
        return sum(1 for _ in itertools.takewhile(lambda w: len(w) <= ell, self))

    def tail_bound(self, ell, s, kind):
        return None

    def total_upper(self, s, kind):
        return self.tail_bound(-1, s, kind)


class _RefOperand(_RefStream):
    def __init__(self, spec):
        self.inner = _ref_stream(spec.operands[0])
        self.exhaustible = self.inner.exhaustible

    def limit_examined(self, limit):
        self.inner.limit_examined(limit)


def _old_strings_tail(strings, ell, s, kind):
    acc = F(0)
    for w in strings:
        if len(w) > ell:
            key = len(w) if kind == "omega" else bin_inv(w)
            acc += _ref_weight(key, s, kind)[1]
    return acc


class _RefFinite(_RefStream):
    exhaustible = True

    def __init__(self, table):
        self.strings = tuple(sorted(table.domain, key=_lenlex_key))

    def __iter__(self):
        return iter(self.strings)

    def count_up_to_length(self, ell):
        return sum(1 for w in self.strings if len(w) <= ell)

    def tail_bound(self, ell, s, kind):
        return _old_strings_tail(self.strings, ell, s, kind)


class _RefAllStrings(_RefStream):
    def __iter__(self):
        return all_strings()

    def indices(self):
        return itertools.count(1)

    def count_up_to_length(self, ell):
        return (1 << (ell + 1)) - 1 if ell >= 0 else 0

    def total_upper(self, s, kind):
        if kind != "omega" or s <= 1:
            return None
        r = _pow2(1 - s)[1]
        return None if r >= 1 else 1 / (1 - r)


_LUKA_WORDS = {1: ("0",)}


def _luka_words(length):
    """The programs of one odd length, by the string recursion 1 a b, sorted."""
    if length not in _LUKA_WORDS:
        acc = []
        for left_len in range(1, length - 1, 2):
            for a in _luka_words(left_len):
                for b in _luka_words(length - 1 - left_len):
                    acc.append("1" + a + b)
        _LUKA_WORDS[length] = tuple(sorted(acc))
    return _LUKA_WORDS[length]


class _RefLukasiewicz(_RefStream):
    def __iter__(self):
        length = 1
        while True:
            yield from _luka_words(length)
            length += 2

    def count_up_to_length(self, ell):
        total, c = 0, 1
        for m in range((ell + 1) // 2):
            total += c
            c = c * 2 * (2 * m + 1) // (m + 2)
        return total

    def tail_bound(self, ell, s, kind):
        n0 = max((ell + 1) // 2, 0)
        if s == 1:
            return F(comb(2 * n0, n0), 4 ** n0)
        if s < 1:
            return None
        q = _pow2(2 * (1 - s))[1]
        if q >= 1:
            return None
        scale = _pow2(s - 2)[1]
        return scale * q ** (n0 + 1) / (1 - q)


class _RefIota(_RefStream):
    def __init__(self, spec):
        self.step_budget = spec.step_budget
        self.size_budget = spec.size_budget
        self.examine_limit = None
        self._inner = _RefLukasiewicz()

    def limit_examined(self, limit):
        self.examine_limit = limit

    def __iter__(self):
        for examined, w in enumerate(self._inner):
            if len(w) > self.size_budget:
                return
            if examined == self.examine_limit:
                raise machines.StreamCut
            if run_program(w, self.step_budget, self.size_budget).halted:
                yield w

    def tail_bound(self, ell, s, kind):
        return self._inner.tail_bound(ell, s, kind)


class _RefGeometric(_RefStream):
    def __init__(self, spec):
        self.extras = tuple(sorted(spec.extras, key=_lenlex_key))

    def __iter__(self):
        extras = list(self.extras)
        pos = 0
        for i in itertools.count(0):
            base = "0" * i + "1"
            while pos < len(extras) and _lenlex_key(extras[pos]) < _lenlex_key(base):
                yield extras[pos]
                pos += 1
            yield base

    def count_up_to_length(self, ell):
        return max(ell, 0) + sum(1 for w in self.extras if len(w) <= ell)

    def tail_bound(self, ell, s, kind):
        if s <= 0:
            return None
        i0 = max(ell, 0)
        r = _pow2(-s)[1]
        if r >= 1:
            return None
        acc = _pow2(-s * (i0 + 1))[1] / (1 - r)
        return acc + _old_strings_tail(self.extras, ell, s, kind)


class _RefProduct(_RefStream):
    def __init__(self, spec):
        self._usable = [p for p in sorted(spec.operands[0].domain, key=_lenlex_key) if p]
        self.exhaustible = not self._usable
        # _tiers[i][L]: strings of length L drawing on parts i and later;
        # the last tier holds the empty multiset alone
        self._tiers = [[("",)] for _ in range(len(self._usable) + 1)]
        self._heads = {}

    def _level(self, length):
        while len(self._tiers[0]) <= length:
            target = len(self._tiers[0])
            self._tiers[-1].append(())
            for i in range(len(self._usable) - 1, -1, -1):
                p = self._usable[i]
                acc = set(self._tiers[i + 1][target])
                if len(p) <= target:
                    acc.update(p + t for t in self._tiers[i][target - len(p)])
                self._tiers[i].append(tuple(sorted(acc)))
        return self._tiers[0][length]

    def __iter__(self):
        max_len = max((len(p) for p in self._usable), default=0)
        empty_run = 0
        for length in itertools.count(0):
            level = self._level(length)
            yield from level
            if length == 0:
                continue
            empty_run = empty_run + 1 if not level else 0
            if max_len == 0 or empty_run >= max_len:
                return

    def count_up_to_length(self, ell):
        return sum(len(self._level(l)) for l in range(0, max(ell, -1) + 1))

    def total_upper(self, s, kind):
        acc = F(1)
        for p in self._usable:
            x = _ref_weight(len(p), s, "omega")[1]
            if x >= 1:
                return None
            acc *= 1 / (1 - x)
        return acc

    def tail_bound(self, ell, s, kind):
        total = self.total_upper(s, kind)
        if total is None:
            return None
        heads = self._heads.setdefault(s, [F(0)])
        while len(heads) <= ell + 1:
            l = len(heads) - 1
            heads.append(heads[l] + len(self._level(l)) * _ref_weight(l, s, "omega")[0])
        return max(total - heads[ell + 1], F(0))


class _RefDouble(_RefOperand):
    def __iter__(self):
        return (w + w for w in self.inner)

    def count_up_to_length(self, ell):
        return self.inner.count_up_to_length(ell // 2)

    def tail_bound(self, ell, s, kind):
        return _tail_upper(self.inner, ell // 2, 2 * s, "omega")

    def total_upper(self, s, kind):
        return self.inner.total_upper(2 * s, "omega")


class _RefTuataraOf(_RefOperand):
    def __iter__(self):
        waiting = {}
        it = iter(self.inner)
        pending = next(it, None)
        length = 0
        while pending is not None or waiting:
            while pending is not None and len(pending) <= length:
                waiting.setdefault(len(pending), []).append(pending)
                pending = next(it, None)
            batch = set()
            for p in waiting.pop(length, ()):
                i = length - len(p)
                batch.add(p + "0" * i)
                j = p.find("1", i)
                if j >= 0:
                    waiting.setdefault(len(p) + j + 1, []).append(p)
            yield from sorted(batch)
            length += 1

    def count_up_to_length(self, ell):
        if not self.exhaustible:
            return None
        return sum(1 for _ in itertools.takewhile(lambda x: len(x) <= ell, self))

    def tail_bound(self, ell, s, kind):
        return None

    def total_upper(self, s, kind):
        if s != 1:
            return None
        if kind == "zeta":
            return self.inner.total_upper(F(1), "omega")
        if self.exhaustible:
            acc = F(0)
            for p in self.inner:
                acc += F(bin_inv(p), 4 ** len(p))
            return acc
        inner_total = self.inner.total_upper(F(1), "omega")
        return None if inner_total is None else 2 * inner_total


def _ref_exponents(spec):
    if spec.kind == "universal_tuatara":
        return list(range(1, len(spec.operands) + 1))
    ranks, out = {}, []
    for bound in spec.bounds:
        m_class = max(1, -((-bound.numerator) // bound.denominator))
        ranks[m_class] = ranks.get(m_class, 0) + 1
        out.append(2 ** ranks[m_class] * (2 * m_class + 1) - 1)
    return out


class _RefUniversal(_RefStream):
    exhaustible = True

    def __init__(self, spec):
        self.members = [_ref_stream(op) for op in spec.operands]
        self.exponents = _ref_exponents(spec)

    def _all(self):
        out = []
        for j, member in zip(self.exponents, self.members):
            prefix = "0" * j + "1"
            out.extend(prefix + w for w in member)
        return sorted(out, key=_lenlex_key)

    def __iter__(self):
        return iter(self._all())

    def count_up_to_length(self, ell):
        return sum(1 for w in self._all() if len(w) <= ell)

    def tail_bound(self, ell, s, kind):
        return None

    def total_upper(self, s, kind):
        return None


class _RefPrimeProduct(_RefStream):
    def __init__(self, spec):
        idx = sorted(bin_inv(w) for w in spec.operands[0].domain)
        primes = first_primes(idx[-1]) if idx else []
        self.primes = [primes[i - 1] for i in idx]
        self.exhaustible = not self.primes

    def indices(self):
        heap = [1]
        seen = {1}
        while heap:
            n = heapq.heappop(heap)
            yield n
            for p in self.primes:
                m = n * p
                if m not in seen:
                    seen.add(m)
                    heapq.heappush(heap, m)

    def __iter__(self):
        return (bin_of(n) for n in self.indices())

    def tail_bound(self, ell, s, kind):
        total = self.total_upper(s, kind)
        if total is None or ell < 0:
            return total
        return total - 1

    def total_upper(self, s, kind):
        if s.denominator != 1:
            return None
        k = s.numerator
        euler = F(1)
        for p in self.primes:
            if p ** k <= 1:
                return None
            euler *= F(p ** k, p ** k - 1)
        if kind == "zeta":
            return euler
        return F(2 ** k) * euler


_REF_CONSTRUCTIONS = {
    "product": _RefProduct,
    "double": _RefDouble,
    "tuatara_of": _RefTuataraOf,
    "universal_tuatara": _RefUniversal,
    "universal_convergent": _RefUniversal,
    "prime_product": _RefPrimeProduct,
}
_REF_BUILTINS = {
    "all_strings": lambda spec: _RefAllStrings(),
    "lukasiewicz": lambda spec: _RefLukasiewicz(),
    "iota": _RefIota,
    "geometric": _RefGeometric,
}


def _ref_stream(spec):
    """The earlier stream of spec, operands included."""
    if isinstance(spec, FiniteTable):
        return _RefFinite(spec)
    if isinstance(spec, Builtin):
        return _REF_BUILTINS[spec.generator](spec)
    return _REF_CONSTRUCTIONS[spec.kind](spec)


def _ref_sum(stream, s, budget, kind):
    """The per-element sum loop with the earlier upper bound:
    (lo, hi, consumed, exhausted, stop)."""
    stream.limit_examined(budget)
    acc = _IntervalAcc()
    complete = [(-1, F(0))]
    current_len = 0
    consumed = 0
    stop = "budget"
    src = (len(w) for w in stream) if kind == "omega" else stream.indices()
    while consumed < budget:
        try:
            key = next(src, None)
        except machines.StreamCut:
            stop = "cut"
            break
        if key is None:
            stop = "exhausted"
            break
        length = key if kind == "omega" else key.bit_length() - 1
        if length > current_len:
            complete.append((length - 1, acc.hi))
            current_len = length
        if not stream.exhaustible and s * length > _STOP_BITS:
            stop = "grid"
            break
        acc.add(*_ref_weight(key, s, kind))
        consumed += 1
    else:
        if stream.exhaustible and next(src, None) is None:
            stop = "exhausted"
    if stop == "exhausted":
        return acc.lo, acc.hi, consumed, True, stop
    candidates = [stream.total_upper(s, kind)]
    for ell, hi_complete in complete:
        tail = _tail_upper(stream, ell, s, kind)
        candidates.append(None if tail is None else hi_complete + tail)
    hi = min((c for c in candidates if c is not None), default=None)
    return acc.lo, hi, consumed, False, stop


def _same_sums(spec, exponents, budgets, kinds=("omega", "zeta"), hi_nested=False):
    """Every sum equals the reference's; with hi_nested, every sum but hi,
    which must lie at or below the reference's (where that is finite)."""
    for kind in kinds:
        for s in exponents:
            if kind == "zeta" and s < 1:
                continue
            for budget in budgets:
                # the reference loop has no bracketed tail
                assert domain_stream(spec).element_tail(s, kind, budget) is None
                rep = weighted_domain_sum(spec, s, budget, kind)
                got = [rep.enclosure.lo, rep.enclosure.hi, rep.consumed, rep.exhausted, rep.stop]
                want = list(_ref_sum(_ref_stream(spec), s, budget, kind))
                if hi_nested and got[1] is not None:
                    assert rep.enclosure.lo <= got[1], (kind, s, budget)
                    assert want[1] is None or got[1] <= want[1], (kind, s, budget)
                    got[1] = want[1]
                assert got == want, (kind, s, budget)


# ---------------------------------------------------------------------------
# the cases the single tail hook rests on

_LUKA = Builtin("lukasiewicz")
_PREFIX_FREE = FiniteTable(("0", "10", "1100", "1101", "111"))
_BUDGETS = (0, 1, 2, 5, 40, 300)


@pytest.mark.parametrize("operand", [_PREFIX_FREE, _LUKA, Builtin("geometric", ("10",))])
def test_double_tuatara_of_reads_the_inner_total_at_twice_s(operand):
    # at s = 1/2 the double's only finite tail is tuatara_of's total at s = 1
    spec = Construction("double", (Construction("tuatara_of", (operand,)),))
    _same_sums(spec, (F(1, 2), F(1), F(3, 2)), _BUDGETS)
    rep = weighted_domain_sum(spec, F(1, 2), 40, "omega")
    assert rep.enclosure.hi is not None


@pytest.mark.parametrize("operand", [("", "0", "1"), ("0", "10", "1011"), ("1", "11")])
def test_prime_product_past_length_zero(operand):
    # budgets past length 0 drop the Euler product less 1, which never won
    spec = Construction("prime_product", (FiniteTable(operand),))
    _same_sums(spec, (F(1), F(2), F(3)), _BUDGETS + (2000,))
    _same_sums(Construction("double", (spec,)), (F(1, 2), F(1)), _BUDGETS)


@pytest.mark.parametrize("extras", [(), ("10",), ("10", "0110"), ("11", "0101", "1111")])
def test_geometric_with_extras(extras):
    spec = Builtin("geometric", extras)
    _same_sums(spec, (F(1), F(7, 3)), _BUDGETS)
    new, ref = domain_stream(spec), _ref_stream(spec)
    assert list(itertools.islice(new, 60)) == list(itertools.islice(ref, 60))
    for ell in range(-1, 9):
        assert new.count_up_to_length(ell) == ref.count_up_to_length(ell)


@pytest.mark.parametrize("extras", [(), ("10",), ("", "10", "0110", "1111")])
def test_geometric_tail_is_the_base_tail_plus_the_extras(extras):
    # a stream without extras returns its base tail alone, and one with
    # extras adds their tail to it, as every geometric tail once did
    stream = domain_stream(Builtin("geometric", extras))
    for s in (F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 3)):
        for kind in ("omega", "zeta"):
            for ell in range(-1, 12):
                base = machines._geometric_tail(-s.numerator, s.denominator, max(ell, 0) + 1)
                want = None if base is None else base + stream.extras.tail_bound(ell, s, kind)
                assert stream.tail_bound(ell, s, kind) == want, (s, kind, ell)


@pytest.mark.parametrize("parts", [("1", "01"), ("0", "10", "110"), ("", "1", "00"), ("",)])
def test_product_per_length_tails(parts):
    spec = Construction("product", (FiniteTable(parts),))
    _same_sums(spec, (F(1), F(2), F(3, 2), F(7, 3)), _BUDGETS)
    new, ref = domain_stream(spec), _ref_stream(spec)
    for ell in range(-1, 12):
        assert new.count_up_to_length(ell) == ref.count_up_to_length(ell)


@pytest.mark.parametrize(
    "parts", [("0", "00", "1", "01"), ("00", "0"), tuple("0" * k for k in range(1, 9))]
)
def test_product_not_uniquely_decodable(parts):
    # "00" is both 0 0 and 00; strings, counts, lo, consumed and stop match
    # the tier enumeration, and hi lies at or below its hi. The parts 0 to
    # 0^8 give one string per length from every partition of that length
    # into parts of at most 8, so at s = 1/2 the sums reach length 273
    spec = Construction("product", (FiniteTable(parts),))
    for case in (spec, Construction("double", (spec,))):
        _same_sums(case, (F(1, 2), F(1), F(2), F(3, 2), F(7, 3)), _BUDGETS, hi_nested=True)
        new, ref = domain_stream(case), _ref_stream(case)
        assert list(itertools.islice(new, 400)) == list(itertools.islice(ref, 400))
        for ell in range(-1, 12):
            assert new.count_up_to_length(ell) == ref.count_up_to_length(ell)


def test_all_strings_and_lukasiewicz_totals():
    for spec in (Builtin("all_strings"), Construction("double", (Builtin("all_strings"),)), _LUKA):
        _same_sums(spec, (F(1), F(3, 2), F(2), F(7, 3)), _BUDGETS, ("omega",))
    _same_sums(Construction("tuatara_of", (_LUKA,)), (F(1), F(2)), _BUDGETS)


_TABLES = {
    "prefix_free": _PREFIX_FREE,
    "with_empty": FiniteTable(("", "0", "11", "0101", "10", "111000")),
    "dense": FiniteTable(tuple(format(n, "b")[1:] for n in range(2, 60, 3))),
    "universal_tuatara": Construction(
        "universal_tuatara", (_PREFIX_FREE, FiniteTable(("1", "01")))
    ),
    "universal_convergent": Construction(
        "universal_convergent", (_PREFIX_FREE, FiniteTable(("1",))), (F(1), F(3, 2))
    ),
    "tuatara_of": Construction("tuatara_of", (_PREFIX_FREE,)),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_finite_domains_below_at_and_above_their_size(name):
    spec = _TABLES[name]
    new, ref = domain_stream(spec), _ref_stream(spec)
    strings = list(ref)
    assert list(new) == strings
    size = len(strings)
    for ell in range(-1, len(strings[-1]) + 2):
        assert new.count_up_to_length(ell) == ref.count_up_to_length(ell)
    budgets = (0, 1, size // 2, size - 1, size, size + 1, 2 * size)
    # a universal machine now bounds its tail by its halting weights
    universal = name.startswith("universal")
    _same_sums(spec, (F(1), F(2), F(3, 2), F(7, 3)), budgets, hi_nested=universal)


def _min(*bounds):
    return min((b for b in bounds if b is not None), default=None)


@pytest.mark.parametrize(
    "spec",
    [
        _PREFIX_FREE,
        _TABLES["with_empty"],
        Builtin("geometric", ("11", "0101", "1111")),
        Construction("product", (FiniteTable(("0", "10", "110")),)),
        Builtin("all_strings"),
        _LUKA,
        Construction("double", (Construction("tuatara_of", (_LUKA,)),)),
        Construction("double", (Construction("prime_product", (FiniteTable(("0", "1")),)),)),
        Construction("tuatara_of", (_PREFIX_FREE,)),
        Construction("prime_product", (FiniteTable(("", "0", "1011")),)),
        _TABLES["universal_convergent"],
    ],
)
def test_tails_and_totals(spec):
    # where the earlier layer had no override, each tail is unchanged; the
    # total is the least of the earlier total_upper and the tail past -1
    new, ref = domain_stream(spec), _ref_stream(spec)
    same_tails = type(ref).tail_bound in (
        _RefFinite.tail_bound, _RefGeometric.tail_bound, _RefProduct.tail_bound,
        _RefLukasiewicz.tail_bound, _RefStream.tail_bound,
    )
    universal = isinstance(ref, _RefUniversal)
    for kind in ("omega", "zeta"):
        for s in (F(1, 2), F(1), F(3, 2), F(2), F(7, 3)):
            if kind == "zeta" and s < 1:
                continue
            want = _min(ref.total_upper(s, kind), _tail_upper(ref, -1, s, kind))
            got = new.total_upper(s, kind)
            if universal:
                # the halting weights of the strings: at or above their
                # weight sum, and at or below the earlier total
                weights = (len(w) if kind == "omega" else bin_inv(w) for w in ref)
                assert sum(_weight_interval(key, s, kind)[0] for key in weights) <= got
                assert want is None or got <= want, (kind, s)
                continue
            assert got == want, (kind, s)
            for ell in range(-1, 9) if same_tails else ():
                assert new.tail_bound(ell, s, kind) == ref.tail_bound(ell, s, kind)


# ---------------------------------------------------------------------------
# enumeration: every stream yields indices, and its strings come from them


def _read_groups(stream, out, count):
    """Extend out with the indices of stream's leading lengths() groups,
    each read whole, until count or more are in. Lengths strictly ascend,
    no group is empty, a sized group's len counts its indices, and each
    index has its group's length. A StreamCut passes, out keeping the
    indices read before it."""
    last = -1
    for length, group in stream.lengths():
        size = len(group) if hasattr(group, "__len__") else None
        start = len(out)
        out.extend(group)
        got = out[start:]
        assert length > last and got and size in (None, len(got)), (length, size)
        assert all(n.bit_length() - 1 == length for n in got), length
        last = length
        if len(out) >= count:
            return


def _same_enumeration(spec, count=200):
    """The first count strings and indices, or more as whole lengths()
    groups, and the counts by length, are the reference's."""
    new, ref = domain_stream(spec), _ref_stream(spec)
    grouped = []
    _read_groups(new, grouped, count)
    want = list(itertools.islice(ref, max(count, len(grouped) + 1)))
    assert grouped == [bin_inv(w) for w in want[: len(grouped)]], spec
    assert len(grouped) >= count or len(grouped) == len(want), spec  # both ran out
    want = want[:count]
    assert list(itertools.islice(iter(new), count)) == want, spec
    assert list(itertools.islice(new.indices(), count)) == [bin_inv(w) for w in want], spec
    for ell in range(-1, 8):
        assert new.count_up_to_length(ell) == ref.count_up_to_length(ell), (spec, ell)


_GEOMETRIC = Builtin("geometric", ("11", "0101", "1111"))
_IOTA = Builtin("iota", step_budget=12, size_budget=15)  # 626 programs of at most 15 bits
_ENUMERATED = [
    _TABLES["with_empty"],
    FiniteTable(("",)),
    FiniteTable(()),
    _GEOMETRIC,
    Builtin("geometric", ("10", "0110")),
    Construction("product", (FiniteTable(("0", "10", "110")),)),
    Construction("product", (FiniteTable(("0", "00", "1", "01")),)),
    Construction("product", (FiniteTable(("",)),)),
    Construction("prime_product", (FiniteTable(("", "0", "1011")),)),
    Construction("double", (_TABLES["with_empty"],)),
    Construction("double", (_LUKA,)),
    Construction("double", (Construction("prime_product", (FiniteTable(("0", "1")),)),)),
    Construction("tuatara_of", (_PREFIX_FREE,)),
    Construction("tuatara_of", (_LUKA,)),
    Construction("tuatara_of", (_GEOMETRIC,)),
    Construction("double", (Construction("tuatara_of", (Builtin("geometric", ("10",)),)),)),
    _TABLES["universal_tuatara"],
    _TABLES["universal_convergent"],
    _LUKA,
    Builtin("iota", step_budget=20, size_budget=13),
    Builtin("iota", step_budget=3, size_budget=17),
    Builtin("all_strings"),
    # a range maps to a range, doubled twice
    Construction("double", (Construction("double", (Builtin("all_strings"),)),)),
    Construction("double", (Construction("tuatara_of", (_LUKA,)),)),
    Construction("tuatara_of", (Construction("double", (_LUKA,)),)),
    # operands that are not prefix-free spawn some strings twice
    Construction("tuatara_of", (Builtin("all_strings"),)),
    Construction("tuatara_of", (Builtin("geometric", ("", "10", "0110", "1111")),)),
    Construction("double", (_IOTA,)),
    Construction("tuatara_of", (_IOTA,)),
]


@pytest.mark.parametrize("spec", _ENUMERATED, ids=lambda spec: type(domain_stream(spec)).__name__)
def test_strings_and_indices_match_the_string_enumeration(spec):
    _same_enumeration(spec, 3000)


@pytest.mark.parametrize("kind", ["iota", "double", "tuatara_of"])
@pytest.mark.parametrize("limit", [0, 1, 5, 40, 333, 600])
def test_an_examine_limit_cuts_at_the_same_index(kind, limit):
    # the groups of a filtering stream are read as it walks, so that the
    # cut falls after the same indices as the reference's
    spec = _IOTA if kind == "iota" else Construction(kind, (_IOTA,))
    new, ref = domain_stream(spec), _ref_stream(spec)
    new.limit_examined(limit)
    ref.limit_examined(limit)
    got, want = [], []
    with pytest.raises(machines.StreamCut):
        _read_groups(new, got, float("inf"))
    with pytest.raises(machines.StreamCut):
        want.extend(ref.indices())
    assert got == want, (kind, limit)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _BITS = st.text(alphabet="01", max_size=6)
    _TABLE = st.sets(_BITS, max_size=8).map(lambda ws: FiniteTable(tuple(ws)))
    _PREFIX_FREE_TABLE = _TABLE.filter(lambda t: is_prefix_free(t.domain))
    _EXTRAS = st.sets(
        _BITS.filter(lambda w: not (w.endswith("1") and "1" not in w[:-1])), max_size=4
    )
    _OPERAND = st.one_of(
        _PREFIX_FREE_TABLE,
        st.just(_LUKA),
        _EXTRAS.map(lambda xs: Builtin("geometric", tuple(xs))),
    )
    _MEMBERS = st.lists(_TABLE, min_size=1, max_size=3).map(tuple)
    _SPECS = st.one_of(
        _TABLE,
        _EXTRAS.map(lambda xs: Builtin("geometric", tuple(xs))),
        st.sets(st.text(alphabet="01", max_size=4), max_size=5).map(
            lambda ps: Construction("product", (FiniteTable(tuple(ps)),))
        ),
        _TABLE.map(lambda t: Construction("prime_product", (t,))),
        _TABLE.map(lambda t: Construction("double", (t,))),
        _OPERAND.map(lambda op: Construction("tuatara_of", (op,))),
        _OPERAND.map(lambda op: Construction("double", (Construction("tuatara_of", (op,)),))),
        _MEMBERS.map(lambda ms: Construction("universal_tuatara", ms)),
        _MEMBERS.flatmap(
            lambda ms: st.lists(
                st.fractions(min_value=F(1, 8), max_value=20), min_size=len(ms), max_size=len(ms)
            ).map(lambda bs: Construction("universal_convergent", ms, tuple(bs)))
        ),
        st.builds(
            lambda steps, size: Builtin("iota", step_budget=steps, size_budget=size),
            st.integers(1, 30),
            st.integers(1, 13),
        ),
    )

    @settings(max_examples=200, deadline=None)
    @given(spec=_SPECS)
    def test_random_streams_match_the_string_enumeration(spec):
        _same_enumeration(spec, 120)

    # s = a/b up to 4, for b from 2 to 101; a may share a factor with b
    _RATIONAL_S = st.integers(2, 101).flatmap(lambda b: st.integers(1, 4 * b).map(lambda a: F(a, b)))

    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS, s=_RATIONAL_S, ells=st.lists(st.integers(-1, 140), min_size=1, max_size=6))
    def test_random_integer_tails_equal_their_fraction_chains(spec, s, ells):
        stream = domain_stream(spec)
        for ell in ells:
            for kind in ("omega", "zeta"):
                want = _fraction_tail_upper(stream, ell, s, kind)
                assert _tail_upper(stream, ell, s, kind) == want, (kind, s, ell)


# ---------------------------------------------------------------------------
# one geometric series behind the all-strings, geometric and Łukasiewicz tails


def _ref_universal_tail(ell, s, kind):
    """The majorant over all strings longer than ell, as it stood when it
    wrote out its own geometric series; _RefGeometric and _RefLukasiewicz
    keep the other two copies."""
    if s <= 1:
        return None
    if kind == "omega":
        r = _pow2(1 - s)[1]
        if r >= 1:
            return None
        return _pow2((1 - s) * max(ell + 1, 0))[1] / (1 - r)
    n_min = (1 << (max(ell, 0) + 1)) - 1
    head = 1 if ell < 0 else 0
    return head + _inverse_pow(n_min, s - 1)[1] / (s - 1)


_SERIES_EXPONENTS = [F(k) for k in (1, 2, 3, 5, 17, 1000)] + [
    F(1, 2), F(5, 7), F(3, 2), F(7, 3), F(101, 100), F(1001, 1000),
]


@pytest.mark.parametrize(
    "spec",
    [
        Builtin("all_strings"),
        Builtin("geometric"),
        Builtin("geometric", ("11", "0101", "1111")),
        _LUKA,
        Builtin("iota", step_budget=20, size_budget=13),
    ],
    ids=lambda spec: f"{spec.generator}{len(spec.extras) or ''}",
)
def test_series_tails_match_their_separate_copies(spec):
    # one stream serves every exponent, so a factor kept for one exponent
    # e (2^-s on geometric, 2^(1-s) over all strings) meets the others
    new, ref = domain_stream(spec), _ref_stream(spec)
    for s in _SERIES_EXPONENTS:
        for kind in ("omega", "zeta"):
            for ell in range(-1, 71):
                want = _min(ref.tail_bound(ell, s, kind), _ref_universal_tail(ell, s, kind))
                assert _tail_upper(new, ell, s, kind) == want, (kind, s, ell)


# ---------------------------------------------------------------------------
# every tail as one Fraction from integer parts, against the Fraction chains


def _fraction_series(e, m):
    """The geometric tail as a chain of Fractions: 2^(e m)/(1 - 2^e), each
    power rounded up, or None where it diverges."""
    r = _pow2(e)[1]
    return None if r >= 1 else _pow2(e * m)[1] / (1 - r)


@functools.cache
def _product_heads(stream, s):
    """[0], grown by _fraction_tail_bound to heads[L], the lower weight of a
    product's multisets shorter than L, as far as it has been asked."""
    return [F(0)]


def _fraction_tail_bound(stream, ell, s, kind):
    """Each stream kind's tail_bound as it stood, with _pow2 and _ref_weight
    for its powers; the live stream lends only its domain: keys, parts,
    multiset counts and operand."""
    if isinstance(stream, machines._UniversalStream):
        kind = "omega"  # halting weights bound index weights
    if isinstance(stream, machines._FiniteStream):
        keys = (n for n in stream.keys if n.bit_length() - 1 > ell)
        weights = (_ref_weight(n if kind == "zeta" else n.bit_length() - 1, s, kind)[1] for n in keys)
        return sum(weights, F(0))
    if isinstance(stream, (machines._LukasiewiczStream, machines._IotaHaltingStream)):
        n0 = max((ell + 1) // 2, 0)
        if s <= 1:
            return F(comb(2 * n0, n0), 4 ** n0) if s == 1 else None
        if s.denominator == 1:
            tail = _fraction_series(2 * (1 - s), n0 + 1)
        else:
            q = _pow2(2 * (1 - s))[1]
            tail = None if q >= 1 else q ** (n0 + 1) / (1 - q)
        return None if tail is None else tail * _pow2(s - 2)[1]
    if isinstance(stream, machines._GeometricStream):
        base = _fraction_series(-s, max(ell, 0) + 1)
        return None if base is None else base + _fraction_tail_bound(stream.extras, ell, s, kind)
    if isinstance(stream, machines._PrimeProductStream):
        if ell >= 0 or s.denominator != 1:
            return None
        k = s.numerator
        euler = F(1)
        for p, _ in stream.parts:
            euler *= F(p ** k, p ** k - 1)
        return euler if kind == "zeta" else 2 ** k * euler
    if isinstance(stream, machines._ProductStream):
        total = F(1)
        for d in stream._lengths:
            r = _ref_weight(d, s, "omega")[1]
            if r >= 1:
                return None
            total *= 1 / (1 - r)
        counts, heads = stream._counts_to(ell), _product_heads(stream, s)
        while len(heads) <= ell + 1:
            l = len(heads) - 1
            heads.append(heads[l] + counts[l] * _ref_weight(l, s, "omega")[0])
        return max(total - heads[ell + 1], F(0))
    if isinstance(stream, machines._DoubleStream):
        return _fraction_tail_upper(stream.inner, ell // 2, 2 * s, "omega")
    if isinstance(stream, machines._TuataraOfStream):
        if ell >= 0 or s != 1:
            return None
        if kind == "zeta":
            return _fraction_tail_upper(stream.inner, -1, s, "omega")
        if stream.exhaustible:
            keys = stream.inner.indices()
            return sum((F(n, 4 ** (n.bit_length() - 1)) for n in keys), F(0))
        inner = _fraction_tail_upper(stream.inner, -1, s, "omega")
        return None if inner is None else 2 * inner
    assert isinstance(stream, machines._AllStringsStream), stream
    return None


def _fraction_tail_upper(stream, ell, s, kind):
    return _min(_fraction_tail_bound(stream, ell, s, kind), _ref_universal_tail(ell, s, kind))


_EVERY_KIND = {
    "finite": _PREFIX_FREE,
    "all_strings": Builtin("all_strings"),
    "lukasiewicz": _LUKA,
    "iota": Builtin("iota", step_budget=20, size_budget=13),
    "geometric": Builtin("geometric", ("11", "0101", "1111")),
    "product": Construction("product", (FiniteTable(("1", "01", "000")),)),
    "prime_product": Construction("prime_product", (FiniteTable(("", "0", "1", "01")),)),
    "double": Construction("double", (_LUKA,)),
    "double_finite": Construction("double", (_PREFIX_FREE,)),
    "tuatara_of": Construction("tuatara_of", (_PREFIX_FREE,)),
    "tuatara_of_lukasiewicz": Construction("tuatara_of", (_LUKA,)),
    "universal_tuatara": Construction("universal_tuatara", (_PREFIX_FREE, FiniteTable(("1",)))),
    "universal_convergent": Construction(
        "universal_convergent", (_PREFIX_FREE, FiniteTable(("01",))), (F(1), F(5, 2))
    ),
}
# integer s, s below 1 (omega tails over doubles read 2s), and s = a/b for b
# from 2 to 101, near 1 and past 2
_TAIL_EXPONENTS = [F(1, 2), F(1), F(2), F(3), F(7)] + [
    F(3, 2), F(5, 3), F(11, 7), F(13, 10), F(73, 50), F(102, 101), F(203, 101),
]


@pytest.mark.parametrize("name", sorted(_EVERY_KIND))
def test_integer_tails_equal_their_fraction_chains(name):
    # one stream serves every exponent, kind and length, as in a sum
    stream = domain_stream(_EVERY_KIND[name])
    for s in _TAIL_EXPONENTS:
        for kind in ("omega", "zeta"):
            for ell in range(-1, 141):
                want = _fraction_tail_upper(stream, ell, s, kind)
                assert _tail_upper(stream, ell, s, kind) == want, (kind, s, ell)


def test_each_program_tail_is_made_once_per_sum(monkeypatch):
    # the lengths 2 n0 - 1 and 2 n0 share the tail past size n0, and a
    # double over lukasiewicz asks for each inner length twice
    made = []
    tail = machines._LukasiewiczStream._tail
    monkeypatch.setattr(
        machines._LukasiewiczStream, "_tail", lambda *a: made.append(a[1:]) or tail(*a)
    )
    iota = Builtin("iota", step_budget=20, size_budget=30)  # cut after 300 programs
    for spec in (_LUKA, iota, Construction("double", (_LUKA,))):
        for s in (F(1), F(3), F(5, 2)):
            made.clear()
            weighted_domain_sum(spec, s, 300, "omega")
            assert made and len(made) == len(set(made)), (spec, s)


def _peak_while(build):
    """The exception build raised and the tracemalloc peak on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionLimit) as exc:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(exc.value), peak


@pytest.mark.parametrize(
    "spec, s", [(_LUKA, F(2 ** 22 + 2)), (Builtin("all_strings"), F(2 ** 23 + 2))]
)
def test_series_tails_refuse_at_the_power_cap_as_before(spec, s):
    # 2^(2(1-s)) and 2^(1-s) pass POWER_BITS_CAP by 2 and 1 bits; each is
    # refused, with the earlier message, before any power is built
    message, peak = _peak_while(lambda: _tail_upper(domain_stream(spec), -1, s, "omega"))
    with pytest.raises(PrecisionLimit) as want:
        _min(_ref_stream(spec).tail_bound(-1, s, "omega"), _ref_universal_tail(-1, s, "omega"))
    assert message == str(want.value)
    assert peak < 1 << 20


def test_a_lukasiewicz_tail_past_the_power_cap_is_refused():
    # at s = 2 and n0 = 2^22 the series starts at 4^-(2^22 + 1), two bits
    # past the cap; _RefLukasiewicz.tail_bound builds that power unchecked
    ell = 2 ** 23
    message, peak = _peak_while(lambda: domain_stream(_LUKA).tail_bound(ell, F(2), "omega"))
    assert message == f"a power needs {2 ** 23 + 2} bits, over {POWER_BITS_CAP}"
    assert peak < 1 << 20
