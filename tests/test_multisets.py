"""Property tests of the multiset enumerator behind product and prime_product.

Both streams yield the distinct values of the multisets of their parts in
ascending order. The references here build those domains by brute force: a
product's strings from every nondecreasing sequence of parts, and
prime_product's numbers by trial division. A regression case checks that a
product over many long parts takes its first strings without building
whole lengths of them, and one over parts that are not uniquely decodable
pops a bounded number of heap entries per string.
"""

from __future__ import annotations

import heapq
import itertools
import random
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

from tuatara import machines
from tuatara.binstr import bin_inv
from tuatara.machines import (
    Construction,
    FiniteTable,
    domain_stream,
    weighted_domain_sum,
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


def test_one_letter_parts_pop_little_per_string(monkeypatch):
    # {0, 00, ..., 0^8} has one string per length, but every partition of a
    # length into parts of at most 8 is a multiset of it: about 10^10 of
    # them up to length 193. The enumerator pops at most 8 heap entries per
    # string, duplicates included
    pops = 0

    def counted(pop):
        def wrapped(*args):
            nonlocal pops
            pops += 1
            if pops > 8 * 274:
                raise AssertionError("too many heap pops")
            return pop(*args)

        return wrapped

    monkeypatch.setattr(
        machines,
        "heapq",
        SimpleNamespace(
            heappush=heapq.heappush,
            heappop=counted(heapq.heappop),
            heapreplace=counted(heapq.heapreplace),
            merge=heapq.merge,
        ),
    )
    spec = Construction("product", (FiniteTable(tuple("0" * k for k in range(1, 9))),))
    stream = domain_stream(spec)
    assert list(itertools.islice(stream, 274)) == ["0" * n for n in range(274)]
    pops = 0
    assert stream.count_up_to_length(272) == 273
    pops = 0
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
