"""Unit fraction sums, dyadic grids, and online prefix-code allocation.

The pipeline here turns a sum of unit fractions into a prefix-free set of
words carrying the same weight: expand each 1/m into its dyadic terms, walk
the grid of terms along anti-diagonals so every term is reached in finitely
many steps, and hand the exponents to an online Kraft allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


class ExpansionOverflow(Exception):
    """Raised when the remainder's denominator, from which the next greedy
    denominator comes, outgrows the caller's bit budget."""

    def __init__(self, bits: int):
        self.bits = bits
        super().__init__(f"greedy denominator exceeded {bits} bits")


def egyptian_floor(
    q: Fraction, floor: int, bit_budget: int | None = None
) -> list[int]:
    """Egyptian fraction decomposition of q with all denominators >= floor.

    When q >= 1/floor, the output opens with the longest consecutive run
    floor, floor+1, ..., floor+k whose harmonic sum fits inside q; the
    remainder is handled by the greedy rule (always the largest unit
    fraction that fits). Denominators are strictly increasing, so they are
    distinct, and the sum is exactly q.

    The greedy denominators roughly double in bit length per step, so a
    remainder with an n-bit numerator needs on the order of 2^(n/3) bits
    for its final denominator; beyond roughly 64 numerator bits the result
    is too large to materialize. The consecutive run is long when q is
    large against 1/floor (about floor * e^q terms), and its remainder's
    denominator grows with the least common multiple of the run. A
    bit_budget on the remainder's denominator, checked before every term,
    turns both regimes into an ExpansionOverflow instead of an effectively
    unbounded computation.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if floor < 1:
        raise ValueError("floor must be >= 1")
    out: list[int] = []
    rem = q
    m = floor
    while rem > 0:
        if bit_budget is not None and rem.denominator.bit_length() > bit_budget:
            raise ExpansionOverflow(bit_budget)
        if rem >= Fraction(1, m):  # consecutive run
            nxt, m = m, m + 1
        else:  # greedy tail: 1/nxt <= rem < 1/(nxt-1)
            nxt = -((-rem.denominator) // rem.numerator)
        out.append(nxt)
        rem -= Fraction(1, nxt)
    return out


def _row_exponents(m: int) -> Iterator[int]:
    """Exponents e of the terms 2^-e of dyadic_row(m): each step shifts the
    remainder r < m by the least k with r * 2^k >= m, past the zero digits."""
    if m < 2:
        raise ValueError("rows need m >= 2")
    width, r, e = m.bit_length(), 1, 0
    while r:
        k = width - r.bit_length()
        k += (r << k) < m
        e += k
        r = (r << k) - m
        yield e


def dyadic_row(m: int) -> Iterator[Fraction]:
    """Nonzero dyadic terms of the binary expansion of 1/m, m >= 2, in order.

    Finite exactly when m is a power of two; otherwise the expansion is
    eventually periodic and the iterator never ends.
    """
    return (Fraction(1, 1 << e) for e in _row_exponents(m))


@dataclass(frozen=True)
class GridTerm:
    """One emitted grid entry: pass index d = row + col, 1-based row and col."""

    d: int
    row: int
    col: int
    term: Fraction


def grid_cells(ms: Sequence[int], budget: int) -> Iterator[tuple[int, int, int, int]]:
    """Anti-diagonal walk over the rows for the given denominators, as
    tuples (d, row, col, e) whose term is 2^-e.

    Pass d visits cells with row + col = d bottom-up (larger row first).
    Rows are the expansions of 1/m_i in the order given; columns index the
    nonzero terms of a row. Stops after `budget` terms, or earlier if every
    row is exhausted (all m_i powers of two).
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rows = [_row_exponents(m) for m in ms]
    done = [False] * len(ms)
    emitted = 0
    d = 2
    while emitted < budget:
        for row in range(min(d - 1, len(ms)), 0, -1):
            # pass d reads row r at column d - r, the column after the one
            # pass d - 1 read, so each row is read once per pass, in order
            e = next(rows[row - 1], None)
            if e is None:
                done[row - 1] = True
                continue
            yield d, row, d - row, e
            emitted += 1
            if emitted >= budget:
                return
        # a row is marked done only when it misses, and a finished row never
        # yields again: once every row is done, this pass yielded nothing, and
        # no later pass can
        if all(done):
            return
        d += 1


def grid_walk(ms: Sequence[int], budget: int) -> Iterator[GridTerm]:
    """The cells of grid_cells, each with its term as a Fraction."""
    return (GridTerm(d, r, c, Fraction(1, 1 << e)) for d, r, c, e in grid_cells(ms, budget))


def dyadic_diagonal(ms: Sequence[int], budget: int) -> list[Fraction]:
    """The first `budget` grid terms in anti-diagonal order."""
    return [g.term for g in grid_walk(ms, budget)]


class KraftViolation(Exception):
    """Raised when a requested codeword length would push the Kraft sum past 1."""

    def __init__(self, index: int, length: int):
        self.index = index  # 1-based position of the offending request
        self.length = length
        super().__init__(
            f"request {index} (length {length}) exceeds the remaining code space"
        )


class KraftAllocator:
    """Online assignment of prefix-free words for a stream of lengths.

    The available nodes always occupy pairwise distinct depths and jointly
    carry the unassigned code space, so one integer holds them: bit d of the
    mask is set exactly when a node at depth d is available, and the set
    bits are the binary digits of 1 - sum 2^-n over the lengths n served.
    A request of length n is satisfiable exactly when the mask has a set bit
    at some depth <= n; it takes the deepest such node (the tightest fit),
    extends it with zeros, and releases the siblings along the padding path
    at depths d+1..n, which were all taken: one xor flips bits d..n.
    """

    def __init__(self) -> None:
        self._mask = 1  # the root, at depth 0
        # depth -> (stem, base): the node stem 0^(depth-base-1) 1, one of the
        # siblings released when stem was taken at depth base, so a node's
        # text is built only when it is taken; the mask says which are live
        self._nodes: dict[int, tuple[str, int]] = {}
        self._count = 0

    @property
    def requests_served(self) -> int:
        return self._count

    def request(self, n: int) -> str:
        if n < 0:
            raise ValueError("lengths must be >= 0")
        self._count += 1
        d = (self._mask & ((2 << n) - 1)).bit_length() - 1
        if d < 0:
            raise KraftViolation(self._count, n)
        self._mask ^= (2 << n) - (1 << d)
        node = ""  # depth 0 is free only before the first request
        if d:
            stem, base = self._nodes[d]
            node = stem + "0" * (d - base - 1) + "1"
        released = (node, d)
        for k in range(d + 1, n + 1):
            self._nodes[k] = released
        return node + "0" * (n - d)


def kraft_chaitin(lengths: Sequence[int]) -> list[str]:
    """Prefix-free words with the given lengths, in order, or KraftViolation."""
    alloc = KraftAllocator()
    return [alloc.request(n) for n in lengths]


@dataclass(frozen=True)
class CodeAssignment:
    """Prefix-free carrier for a partial sum of unit fractions."""

    terms: tuple[Fraction, ...]  # dyadic grid terms in emission order
    words: tuple[str, ...]  # parallel words, 2^-len(word) = term
    total: Fraction  # sum of the emitted terms

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.words):
            raise ValueError("terms and words must pair up")


def unit_sum_to_prefix_free(ms: Sequence[int], budget: int) -> CodeAssignment:
    """Feed the grid walk for `ms` through the Kraft allocator.

    Raises KraftViolation when the unit fractions sum past 1 and the walk
    reaches the point where no word fits.
    """
    alloc = KraftAllocator()
    terms: list[Fraction] = []
    words: list[str] = []
    for *_, e in grid_cells(ms, budget):
        words.append(alloc.request(e))
        terms.append(Fraction(1, 1 << e))
    return CodeAssignment(tuple(terms), tuple(words), sum(terms, Fraction(0)))
