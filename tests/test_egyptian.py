"""Unit fraction decompositions, grid walks, and the online Kraft allocator."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from tuatara.binstr import is_prefix_free
from tuatara.egyptian import (
    CodeAssignment,
    ExpansionOverflow,
    GridTerm,
    KraftAllocator,
    KraftViolation,
    dyadic_diagonal,
    dyadic_row,
    egyptian_floor,
    grid_walk,
    kraft_chaitin,
    unit_sum_to_prefix_free,
)


def test_egyptian_floor_worked_examples():
    assert egyptian_floor(F(1, 2), 2) == [2]
    assert egyptian_floor(F(4, 5), 2) == [2, 4, 20]
    assert egyptian_floor(F(1, 3), 4) == [4, 12]
    assert egyptian_floor(F(1), 1) == [1]


def test_egyptian_floor_guards():
    with pytest.raises(ValueError):
        egyptian_floor(F(0), 2)
    with pytest.raises(ValueError):
        egyptian_floor(F(-1, 2), 2)
    with pytest.raises(ValueError):
        egyptian_floor(F(1, 2), 0)


def _run_remainder(q: F, floor: int) -> F:
    rem = q
    m = floor
    while rem >= F(1, m):
        rem -= F(1, m)
        m += 1
    return rem


def test_egyptian_floor_random():
    # greedy denominator bits double per step, so only remainders with small
    # numerators finish at materializable size; screen the samples accordingly
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        d = rng.randint(2, 40)
        q = F(rng.randint(1, 3 * d - 1), d)
        floor = rng.randint(1, 50)
        if _run_remainder(q, floor).numerator.bit_length() > 24:
            continue
        ms = egyptian_floor(q, floor)
        assert ms[0] >= floor
        assert all(a < b for a, b in zip(ms, ms[1:]))
        assert sum(F(1, m) for m in ms) == q
        checked += 1


def test_egyptian_floor_overflow():
    # run remainder for (5/3, 28) carries a 196-bit numerator; the greedy
    # tail would need denominators far past any practical size
    with pytest.raises(ExpansionOverflow) as info:
        egyptian_floor(F(5, 3), 28, bit_budget=100_000)
    assert info.value.bits == 100_000
    # generous budgets leave feasible instances untouched
    assert egyptian_floor(F(4, 5), 2, bit_budget=100_000) == [2, 4, 20]
    # the run 1/40 + 1/41 + ... reaches 30 only after about 40 e^30 terms;
    # the budget bounds the remainder's denominator inside the run too
    with pytest.raises(ExpansionOverflow):
        egyptian_floor(F(30), 40, bit_budget=2000)


def test_dyadic_row_values():
    assert list(dyadic_row(2)) == [F(1, 2)]
    assert list(dyadic_row(4)) == [F(1, 4)]
    row3 = dyadic_row(3)
    assert [next(row3) for _ in range(3)] == [F(1, 4), F(1, 16), F(1, 64)]
    row6 = dyadic_row(6)
    assert [next(row6) for _ in range(3)] == [F(1, 8), F(1, 32), F(1, 128)]
    with pytest.raises(ValueError):
        next(dyadic_row(1))


def test_grid_walk_diagonal_order():
    want = [
        F(1, 2),
        F(1, 4),
        F(1, 4),
        F(1, 16),
        F(1, 8),
        F(1, 64),
        F(1, 8),
        F(1, 16),
        F(1, 256),
    ]
    got = list(grid_walk((2, 3, 4, 5, 6), 9))
    assert [g.term for g in got] == want
    assert all(g.d == g.row + g.col for g in got)
    assert dyadic_diagonal((2, 3, 4, 5, 6), 9) == want


def test_grid_walk_terminates_on_powers_of_two():
    got = list(grid_walk((2, 4, 8), 100))
    assert [g.term for g in got] == [F(1, 2), F(1, 4), F(1, 8)]
    assert [g.d for g in got] == [2, 3, 4]


def test_grid_walk_budget_zero():
    assert list(grid_walk((3, 5), 0)) == []
    with pytest.raises(ValueError):
        list(grid_walk((3,), -1))


def _memo_walk(ms, budget):
    """The walk that keeps every term it has read, cell by cell."""
    rows = [dyadic_row(m) for m in ms]
    memo = [[] for _ in ms]
    done = [False] * len(ms)

    def cell(r, c):
        while len(memo[r]) < c and not done[r]:
            nxt = next(rows[r], None)
            if nxt is None:
                done[r] = True
            else:
                memo[r].append(nxt)
        return memo[r][c - 1] if len(memo[r]) >= c else None

    emitted, d = 0, 2
    while emitted < budget:
        hit = False
        for row in range(min(d - 1, len(ms)), 0, -1):
            t = cell(row - 1, d - row)
            if t is not None:
                hit = True
                yield GridTerm(d, row, d - row, t)
                emitted += 1
                if emitted >= budget:
                    return
        if not hit and all(done):
            return
        d += 1


def _taken(walk):
    """The terms a walk yields before it ends or raises ValueError."""
    out = []
    try:
        out.extend(walk)
    except ValueError as exc:
        out.append(str(exc))
    return out


def test_grid_walk_matches_the_memo_walk():
    rng = random.Random(24)
    for _ in range(300):
        # powers of two end their rows; 1 raises at the row's first read
        ms = [rng.choice((1 << rng.randint(0, 6), rng.randint(1, 40)))
              for _ in range(rng.randint(1, 7))]
        budget = rng.randint(0, 80)
        assert _taken(grid_walk(ms, budget)) == _taken(_memo_walk(ms, budget)), (ms, budget)


def test_grid_walk_keeps_no_past_terms():
    tracemalloc.start()
    try:
        for _ in grid_walk((3, 5, 7), 20000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kraft_chaitin_examples():
    assert kraft_chaitin([1, 2, 3, 3]) == ["0", "10", "110", "111"]
    assert kraft_chaitin([1, 1]) == ["0", "1"]
    assert kraft_chaitin([0]) == [""]
    assert kraft_chaitin([]) == []


def test_kraft_chaitin_violations():
    with pytest.raises(KraftViolation) as info:
        kraft_chaitin([1, 1, 1])
    assert info.value.index == 3
    assert info.value.length == 1
    with pytest.raises(KraftViolation) as info:
        kraft_chaitin([0, 0])
    assert info.value.index == 2


def test_allocator_guards_and_counter():
    alloc = KraftAllocator()
    with pytest.raises(ValueError):
        alloc.request(-1)  # malformed input, not a counted request
    assert alloc.request(2) == "00"
    assert alloc.requests_served == 1


def _random_admissible_lengths(rng: random.Random) -> list[int]:
    lengths: list[int] = []
    used = F(0)
    for _ in range(rng.randint(1, 200)):
        n = rng.randint(0, 24)
        if used + F(1, 1 << n) <= 1:
            lengths.append(n)
            used += F(1, 1 << n)
    return lengths


def test_kraft_chaitin_random_streams():
    rng = random.Random(31)
    for _ in range(300):
        lengths = _random_admissible_lengths(rng)
        words = kraft_chaitin(lengths)
        assert [len(w) for w in words] == lengths
        assert is_prefix_free(words)


def _string_allocator_words(lengths: list[int]) -> list[str]:
    """Reference allocator that stores every released sibling as its text."""
    avail, out = {0: ""}, []
    for n in lengths:
        d = max(d for d in avail if d <= n)
        node = avail.pop(d)
        for i in range(n - d):
            avail[d + i + 1] = node + "0" * i + "1"
        out.append(node + "0" * (n - d))
    return out


def test_kraft_words_match_the_string_allocator():
    rng = random.Random(47)
    for _ in range(200):
        lengths = _random_admissible_lengths(rng)
        # a long first request releases siblings at every depth below it
        lengths = [rng.randint(24, 400)] + [n + 1 for n in lengths]
        assert kraft_chaitin(lengths) == _string_allocator_words(lengths)


class _ListScanAllocator:
    """The allocator as it was before the mask: a dict of free depths, all
    of them listed on every request to find the deepest fit."""

    def __init__(self) -> None:
        self._avail: dict[int, tuple[str, int | None]] = {0: ("", None)}
        self.requests_served = 0

    def request(self, n: int) -> str:
        if n < 0:
            raise ValueError("lengths must be >= 0")
        self.requests_served += 1
        fits = [d for d in self._avail if d <= n]
        if not fits:
            raise KraftViolation(self.requests_served, n)
        d = max(fits)
        stem, zeros = self._avail.pop(d)
        node = stem if zeros is None else stem + "0" * zeros + "1"
        for i in range(n - d):
            self._avail[d + i + 1] = (node, i)
        return node + "0" * (n - d)


def _answer(alloc, n: int):
    try:
        return alloc.request(n)
    except KraftViolation as exc:
        return ("violation", exc.index, exc.length)


def _free_space(alloc: KraftAllocator) -> F:
    """The sum of 2^-d over the depths d that the mask holds free."""
    mask = alloc._mask
    return sum((F(1, 1 << d) for d in range(mask.bit_length()) if mask >> d & 1), F(0))


def _same_as_the_list_scan(lengths: list[int]) -> None:
    """Feed lengths to both allocators, past any violation, and compare every
    answer, the request count, and the mask against the unassigned space."""
    alloc, ref = KraftAllocator(), _ListScanAllocator()
    left = F(1)
    for n in lengths:
        got = _answer(alloc, n)
        assert got == _answer(ref, n), (lengths, n)
        if isinstance(got, str):
            left -= F(1, 1 << n)
        assert alloc.requests_served == ref.requests_served
        assert _free_space(alloc) == left


def _random_code_lengths(rng: random.Random, size: int) -> list[int]:
    """Word lengths of a random complete prefix code with `size` words, in
    random order: a random leaf of the code tree splits until there are
    enough."""
    leaves = [0]
    while len(leaves) < size:
        d = leaves.pop(rng.randrange(len(leaves)))
        leaves += [d + 1, d + 1]
    rng.shuffle(leaves)
    return leaves


def test_kraft_mask_matches_the_list_scan_on_admissible_streams():
    rng = random.Random(53)
    for size in (1, 2, 10, 100, 1000, 3000):
        lengths = _random_code_lengths(rng, size)
        _same_as_the_list_scan(lengths)  # complete: the space ends at 0
        _same_as_the_list_scan(rng.sample(lengths, size - size // 10))
        _same_as_the_list_scan(sorted(lengths))
    for _ in range(100):
        _same_as_the_list_scan(_random_admissible_lengths(rng))


def test_kraft_mask_matches_the_list_scan_on_inadmissible_streams():
    rng = random.Random(59)
    _same_as_the_list_scan([1, 1, 1, 2, 0, 3])
    _same_as_the_list_scan([0, 0, 5])
    for _ in range(100):
        _same_as_the_list_scan([rng.randint(0, 12) for _ in range(rng.randint(1, 100))])
    # a complete code with one word too many, spliced in at random
    lengths = _random_code_lengths(rng, 3000)
    lengths.insert(rng.randrange(3000), rng.choice(lengths))
    _same_as_the_list_scan(lengths)


def test_unit_sum_third():
    asg = unit_sum_to_prefix_free((3,), 20)
    assert isinstance(asg, CodeAssignment)
    assert len(asg.words) == 20
    assert asg.terms == tuple(F(1, 4**k) for k in range(1, 21))
    assert [len(w) for w in asg.words] == [2 * k for k in range(1, 21)]
    assert is_prefix_free(asg.words)
    gap = F(1, 3) - asg.total
    assert gap == F(1, 3 * 4**20)
    assert gap < F(1, 1 << 20)


def test_unit_sum_small_budget():
    asg = unit_sum_to_prefix_free((3,), 10)
    assert asg.total == F(4**10 - 1, 3 * 4**10)
    assert all(F(1, 1 << len(w)) == t for w, t in zip(asg.words, asg.terms))


def test_unit_sum_overflow():
    # three halves cannot all be carried by one binary tree
    with pytest.raises(KraftViolation) as info:
        unit_sum_to_prefix_free((2, 2, 2), 5)
    assert info.value.index == 3


def test_code_assignment_pairs_terms_with_words():
    with pytest.raises(ValueError):
        CodeAssignment((F(1, 2), F(1, 4)), ("0",), F(3, 4))


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=300))
    def test_kraft_mask_matches_the_list_scan(lengths):
        _same_as_the_list_scan(lengths)
