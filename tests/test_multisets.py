"""Property tests of the multiset enumerator behind product and prime_product.

Both streams yield the distinct values of the multisets of their parts in
ascending order, built a window of values at a time. The references here
build those domains by brute force: a product's strings from every
nondecreasing sequence of parts, and prime_product's numbers by trial
division. A self-contained copy of the heap enumerator that the windows
replaced is kept as a second reference, for long runs of values and for the
sums of a product over a prefix code, whose halting weight sums read the
multiset counts and build no string; double keeps a sized group's size, and
its sums match the same stream with every group mapped lazily. Regression
cases check that a product over many long parts takes its first strings
without building whole lengths of them, and that one over parts that are
not uniquely decodable builds a bounded number of candidates per string.
"""

from __future__ import annotations

import heapq
import itertools
import random
import tracemalloc
from fractions import Fraction as F

from tuatara import machines
from tuatara.binstr import bin_inv
from tuatara.machines import (
    Builtin,
    Construction,
    FiniteTable,
    domain_stream,
    weighted_domain_sum,
    weighted_domain_sums,
)
from tuatara.numerics import first_primes


def _lenlex_key(w: str) -> tuple[int, str]:
    return (len(w), w)


_MAX_LEN = 9


def _brute_product(parts: tuple[str, ...], max_len: int) -> list[str]:
    """Every concatenation of nonempty parts in nondecreasing length-lex
    order, up to length max_len, in length-lex order."""
    usable = sorted((p for p in parts if p), key=_lenlex_key)
    found = {""}
    for k in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(usable, k):
            w = "".join(combo)
            if len(w) <= max_len:
                found.add(w)
    return sorted(found, key=_lenlex_key)


def test_one_letter_parts_build_few_candidates_per_string(monkeypatch):
    # {0, 00, ..., 0^8} has one string per length, but every partition of a
    # length into parts of at most 8 is a multiset of it: about 10^10 of
    # them up to length 193. The enumerator keeps each value once, so it
    # builds at most 8 candidates per string, one per part
    built = 0
    candidates = machines._multiset_candidates

    def counted(*args):
        nonlocal built
        out = candidates(*args)
        built += len(out)
        if built > 8 * 274:
            raise AssertionError("too many candidates built")
        return out

    monkeypatch.setattr(machines, "_multiset_candidates", counted)
    spec = Construction("product", (FiniteTable(tuple("0" * k for k in range(1, 9))),))
    stream = domain_stream(spec)
    assert list(itertools.islice(stream, 274)) == ["0" * n for n in range(274)]
    built = 0
    assert stream.count_up_to_length(272) == 273
    built = 0
    tracemalloc.start()
    try:
        rep = weighted_domain_sum(spec, F(1, 2), 400, "omega")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sum stops on the grid at length 273, 2^-136 below its tail
    assert (rep.consumed, rep.stop) == (273, "grid")
    assert peak < 2 ** 20


def test_many_long_parts_take_little_memory():
    # 400 distinct 9-bit parts, a prefix code: the first 402 strings are the
    # empty one, the 400 parts, and the least concatenation of two
    rng = random.Random(400)
    parts = tuple(format(i, "09b") for i in rng.sample(range(512), 400))
    spec = Construction("product", (FiniteTable(parts),))
    tracemalloc.start()
    try:
        rep = weighted_domain_sum(spec, F(1), 402, "zeta")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    first = min(parts)
    singles = sum(F(1, bin_inv(p)) for p in parts)
    # the sum is exact; hi is the partial sum past length 17 plus the
    # closed form less the weight of the multisets up to that length
    total = F(512, 511) ** 400
    assert rep.enclosure.lo == 1 + singles + F(1, bin_inv(first + first))
    assert rep.enclosure.hi == total + singles - F(400, 512)
    assert (rep.consumed, rep.stop) == (402, "budget")


def _heap_multisets(parts):
    """The distinct values of all multisets of parts, ascending from 1: the
    heap enumerator the windows replaced, kept as the reference.

    A heap entry (value, i, before) ends in part i, applied to before. Its
    pop pushes the sibling (part i + 1 in place of part i) and, the first
    time its value pops, the child (one more part i)."""
    yield 1
    heap = [(parts[0][0] + parts[0][1], 0, 1)] if parts else []
    last = 1
    while heap:
        n, i, before = heap[0]
        if n != last:
            yield n
            last = n
            m, a = parts[i]
            heapq.heapreplace(heap, (n * m + a, i, n))
        else:
            heapq.heappop(heap)
        if i + 1 < len(parts):
            m, a = parts[i + 1]
            heapq.heappush(heap, (before * m + a, i + 1, before))


def _heap_lengths(stream):
    """A multiset stream's lengths() as the heap gave them: lazy groups."""
    values = _heap_multisets(stream.parts)
    return ((bits - 1, group) for bits, group in itertools.groupby(values, int.bit_length))


def _lazy_double_lengths(stream):
    """double's lengths() as they were before sized groups kept their size:
    a range maps to a range, any other group through a generator."""
    for length, group in stream.inner.lengths():
        top, m = 1 << length, (1 << length) + 1
        if isinstance(group, range):
            yield 2 * length, range(group.start * m - top, group.stop * m - top, group.step * m)
        else:
            yield 2 * length, (n * m - top for n in group)


def _matches_heap(spec, count=3000):
    stream = domain_stream(spec)
    got = list(itertools.islice(stream.indices(), count))
    assert got == list(itertools.islice(_heap_multisets(stream.parts), count)), spec


def _random_prefix_code(rng):
    words = sorted({_random_word(rng, 6) for _ in range(rng.randint(1, 8))})
    code = []
    for w in words:  # a prefix sorts before its extensions
        if not any(w.startswith(c) for c in code):
            code.append(w)
    return tuple(code)


def _random_word(rng, longest):
    return "".join(rng.choice("01") for _ in range(rng.randint(1, longest)))


def _prime_product(idx):
    return Construction("prime_product", (FiniteTable(tuple(format(i, "b")[1:] for i in idx)),))


def _product(parts):
    return Construction("product", (FiniteTable(tuple(parts)),))


def test_windows_match_the_heap_on_random_part_sets():
    rng = random.Random(33)
    _matches_heap(_product(("0", "00", "01", "001")))
    for _ in range(30):
        _matches_heap(_product(_random_prefix_code(rng)))
        # w and ww both parts: the multisets {w, w} and {ww} give one string
        words = {_random_word(rng, 4) for _ in range(rng.randint(1, 5))}
        w = rng.choice(sorted(words))
        _matches_heap(_product(words | {w + w}))
        idx = rng.sample(range(1, 41), rng.randint(1, 5))
        _matches_heap(_prime_product(idx))


_OMEGAS = [("omega", F(1)), ("omega", F(2)), ("omega", F(7, 3)), ("omega", F(1, 2))]


def test_product_omega_reads_the_counts(monkeypatch):
    # a complete code and one of Kraft sum 7/8; the second's sum at s = 1
    # and budget 10^5 stops on the grid at length 137
    for code in [("0", "10", "110", "111"), ("1", "01", "001")]:
        spec = _product(code)
        counts = [domain_stream(spec).count_up_to_length(ell) for ell in range(16)]
        # budgets that end on a length boundary, inside a length, and past both
        budgets = [0, 1, counts[7], counts[7] + 1, counts[12] - 1, counts[12], 10 ** 5]
        mixed = _OMEGAS[:2] + [("zeta", F(1)), ("zeta", F(3, 2))]
        with monkeypatch.context() as patch:
            # an omega sum builds no string
            patch.setattr(machines, "_multiset_windows", None)
            got = {b: weighted_domain_sums(spec, _OMEGAS, b) for b in budgets}
        both = {b: weighted_domain_sums(spec, mixed, b) for b in budgets}
        with monkeypatch.context() as patch:
            patch.setattr(machines._ProductStream, "lengths", _heap_lengths)
            for b in budgets:
                assert got[b] == weighted_domain_sums(spec, _OMEGAS, b), (code, b)
                assert both[b] == weighted_domain_sums(spec, mixed, b), (code, b)
    assert got[10 ** 5][0].stop == "grid"


def test_double_keeps_each_sized_group_sized(monkeypatch):
    table = FiniteTable(tuple(format(n, "b")[1:] for n in range(2, 300, 3)))
    operands = {
        "range": Builtin("all_strings"),
        "program table": Builtin("lukasiewicz"),
        "table slice": table,
        "product counts": _product(("0", "10", "110", "111")),
    }
    mixed = _OMEGAS[:2] + [("zeta", F(1))]
    for kind, operand in operands.items():
        spec = Construction("double", (operand,))
        groups = itertools.islice(domain_stream(spec).lengths(), 8)
        assert all(hasattr(group, "__len__") for _, group in groups), kind
        # the table's 100 strings: budgets short of them, at them (where
        # the sum probes for one more) and past them
        budgets = [0, 5, 99, 100, 101, 3000]
        got = {b: (weighted_domain_sums(spec, _OMEGAS, b), weighted_domain_sums(spec, mixed, b))
               for b in budgets}
        with monkeypatch.context() as patch:
            patch.setattr(machines._DoubleStream, "lengths", _lazy_double_lengths)
            for b in budgets:
                want = weighted_domain_sums(spec, _OMEGAS, b)
                assert got[b] == (want, weighted_domain_sums(spec, mixed, b)), (kind, b)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _PARTS = st.sets(st.text(alphabet="01", max_size=4), max_size=6).map(tuple)

    @settings(max_examples=150, deadline=None)
    @given(parts=_PARTS)
    def test_product_strings_and_counts_match_brute_force(parts):
        stream = domain_stream(Construction("product", (FiniteTable(parts),)))
        want = _brute_product(parts, _MAX_LEN)
        got = list(itertools.takewhile(lambda w: len(w) <= _MAX_LEN, stream))
        assert got == want
        for ell in range(-1, _MAX_LEN + 1):
            assert stream.count_up_to_length(ell) == sum(1 for w in want if len(w) <= ell)

    @settings(max_examples=100, deadline=None)
    @given(idx=st.sets(st.integers(1, 12), max_size=4))
    def test_prime_product_indices_are_the_smooth_numbers(idx):
        domain = tuple(format(i, "b")[1:] for i in idx)
        primes = [first_primes(12)[i - 1] for i in idx]
        limit = 3000

        def smooth(n: int) -> bool:
            for p in primes:
                while n % p == 0:
                    n //= p
            return n == 1

        stream = domain_stream(Construction("prime_product", (FiniteTable(domain),)))
        got = list(itertools.takewhile(lambda n: n <= limit, stream.indices()))
        assert got == [n for n in range(1, limit + 1) if smooth(n)]
        assert list(itertools.islice(stream, len(got))) == [format(n, "b")[1:] for n in got]

    @settings(max_examples=60, deadline=None)
    @given(parts=st.sets(st.text(alphabet="01", min_size=1, max_size=5), min_size=1, max_size=6))
    def test_windows_match_the_heap(parts):
        _matches_heap(_product(parts))

    @settings(max_examples=40, deadline=None)
    @given(idx=st.sets(st.integers(1, 40), min_size=1, max_size=5))
    def test_prime_product_windows_match_the_heap(idx):
        _matches_heap(_prime_product(idx))
