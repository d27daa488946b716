"""Machine domains as streams, and certified sums over them.

A machine is described by its domain, a set of bit strings enumerated in
length-lexicographic order, which is ascending order of their indices n
(the numerals 1w read in binary). Both weight sums read n alone: the halting
weight (omega kind) assigns 2^(-s |w|), where |w| is n's bit length less
one, and the index weight (zeta kind) assigns n^(-s). At s = 1 these are
the halting probability and the natural halting sum; the classification
vocabulary below is keyed to the unit threshold of the index sum.

Enclosures returned here are certified: the true sum lies inside, whatever
the budget. Lower bounds are partial sums rounded down, plus a tail bracket's
lower end where the stream has one. A stream states what it knows of its
domain's weight through one hook, tail_bound(ell, s, kind): an upper bound
on the weight of its strings longer than ell, which past length -1 bounds
the total (total_upper takes it, or the majorant over all strings where
that is smaller). Upper bounds are the least of that total and
partial sums plus a tail majorant, taken at every length the enumeration
completed or at the string where a bracketed sum stopped; so a larger
budget never widens the enclosure of a sum it does not exhaust.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm, log2
from typing import Callable, Iterator

from . import iota as iota_mod
from .binstr import bin_inv, bin_of, is_prefix_free, rational_of_prefix, validate_bits
from .numerics import (
    Enclosure, first_primes, frac_text, inverse_root, log2_bounds, pow2_bounds, pow_bounds,
    zeta_tail_factor,
)

DEFAULT_BUDGET = 10 ** 5

# accumulator grid: past exact mode, lower sums round each term down and
# upper sums round each term up to a multiple of 2^-_ACC_BITS; sum budgets
# must stay below _BUDGET_CAP
_ACC_BITS = 192
_ACC_ONE = 1 << _ACC_BITS
# the m for which 1/m lies on the grid: the divisors of 2^_ACC_BITS
_GRID_DIVISORS = frozenset(1 << j for j in range(_ACC_BITS + 1))
_BUDGET_CAP = 1 << 40
_TERM_PREC = 160  # bits of the roots behind non-integer weights and tails
_STOP_BITS = 136  # a sparse stream stops where its terms pass below 2^-_STOP_BITS
_BLOCK = 1 << 12  # the most indices a sum holds at once
# the index sum over all strings takes at most _EM_HEAD terms wherever
# _element_stop(s) > _EM_HEAD (s below about 40.8) and closes with _EM_TERMS
# Bernoulli corrections, whose remainder leaves a bracket of about one grid
# unit (2^-193 to 2^-195 at s = 1001/1000, 2 and 8)
_EM_HEAD = 24
_EM_TERMS = 40


class MachineSpecError(ValueError):
    """A machine description that fails validation."""


# a filtering stream (iota's is the one) examined its limit of candidates
StreamCut = iota_mod.ExamineLimit


class BudgetExhausted(Exception):
    """A search consumed its stream budget without reaching a certificate."""

    def __init__(self, consumed: int, progress: str = ""):
        self.consumed = consumed
        super().__init__(
            f"budget exhausted after {consumed} stream element(s)"
            + (f": {progress}" if progress else "")
        )


# ---------------------------------------------------------------------------
# machine descriptions


@dataclass(frozen=True)
class FiniteTable:
    """Explicit domain, optionally with an output string per domain string."""

    domain: tuple[str, ...]
    outputs: tuple[str | None, ...] | None = None

    @functools.cached_property
    def indices(self) -> tuple[int, ...]:
        """The domain's indices, the numerals 1w read in binary, ascending;
        computed once per table, and only after the table passed
        validate_spec, since int(x, 2) also reads strings such as "1_0" and
        "10 " that are no bit strings."""
        validate_spec(self)
        return tuple(sorted(int("1" + w, 2) for w in self.domain))

    @functools.cached_property
    def _checked(self) -> bool:
        """validate_spec's check of this table. A pass is remembered on the
        table; a failure raises MachineSpecError and is checked again on the
        next call."""
        seen = set()
        for w in self.domain:
            validate_bits(w, MachineSpecError)
            if w in seen:
                raise MachineSpecError(f"duplicate domain string {w!r}")
            seen.add(w)
        if self.outputs is not None:
            if len(self.outputs) != len(self.domain):
                raise MachineSpecError("outputs must parallel the domain")
            for out in self.outputs:
                if out is not None:
                    validate_bits(out, MachineSpecError)
        return True

    def output_for(self, w: str) -> str | None:
        if self.outputs is None:
            return None
        try:
            return self.outputs[self.domain.index(w)]
        except ValueError:
            return None


@dataclass(frozen=True)
class Builtin:
    """One of the named generators.

    all_strings: every bit string. lukasiewicz: the programs of the
    one-combinator calculus, a complete prefix code. iota: the programs
    that halt within the step and size budgets. geometric: the strings
    0^i 1 for i >= 0 together with the listed extras.
    """

    generator: str
    extras: tuple[str, ...] = ()
    step_budget: int = iota_mod.DEFAULT_STEP_BUDGET
    size_budget: int = iota_mod.DEFAULT_SIZE_BUDGET


@dataclass(frozen=True)
class Construction:
    """A machine built from operand machines.

    kinds: product (concatenations of operand strings, parts in
    nondecreasing index order, the empty one included),
    double (w maps to ww), tuatara_of (each p spawns p plus the strings
    p 0^i for the set bit positions i of p), universal_tuatara (member k
    behind the prefix 0^k 1), universal_convergent (member behind
    0^J 1 with J = 2^i (2M+1) - 1 from the declared bound), prime_product
    (domain strings of the numbers that factor over the primes indexed by
    the operand domain).
    """

    kind: str
    operands: tuple["MachineSpec", ...]
    bounds: tuple[Fraction, ...] = ()


MachineSpec = FiniteTable | Builtin | Construction

_BUILTINS = {"all_strings", "lukasiewicz", "iota", "geometric"}
_CONSTRUCTIONS = {
    "product",
    "double",
    "tuatara_of",
    "universal_tuatara",
    "universal_convergent",
    "prime_product",
}


def validate_spec(spec: MachineSpec) -> None:
    """Raise MachineSpecError unless the description is well formed.

    A finite table is checked once per table object: once it passes, later
    calls on it, and on descriptions built from it, return without reading
    its strings again.
    """
    if isinstance(spec, FiniteTable) and spec._checked:
        return
    if isinstance(spec, Builtin):
        if spec.generator not in _BUILTINS:
            raise MachineSpecError(f"unknown generator {spec.generator!r}")
        if spec.generator != "geometric" and spec.extras:
            raise MachineSpecError("extras are only meaningful for geometric")
        seen = set()
        for w in spec.extras:
            validate_bits(w, MachineSpecError)
            if w in seen:
                raise MachineSpecError(f"duplicate extra string {w!r}")
            seen.add(w)
            if set(w[:-1]) <= {"0"} and w.endswith("1"):
                raise MachineSpecError(
                    f"extra {w!r} already belongs to the geometric base domain"
                )
        if spec.step_budget < 1 or spec.size_budget < 1:
            raise MachineSpecError("budgets must be positive")
        return
    if isinstance(spec, Construction):
        if spec.kind not in _CONSTRUCTIONS:
            raise MachineSpecError(f"unknown construction {spec.kind!r}")
        single = {"product", "double", "tuatara_of", "prime_product"}
        if spec.kind in single and len(spec.operands) != 1:
            raise MachineSpecError(f"{spec.kind} takes exactly one operand")
        if spec.kind.startswith("universal") and not spec.operands:
            raise MachineSpecError(f"{spec.kind} needs at least one member")
        for op in spec.operands:
            validate_spec(op)
        if spec.kind in {"product", "prime_product"} and not isinstance(
            spec.operands[0], FiniteTable
        ):
            raise MachineSpecError(f"{spec.kind} requires a finite operand")
        if spec.kind == "tuatara_of" and isinstance(spec.operands[0], FiniteTable):
            # overlapping spawn sets would break the per-string unit sums
            if not is_prefix_free(spec.operands[0].domain):
                raise MachineSpecError("tuatara_of needs a prefix-free operand")
        if spec.kind == "universal_convergent":
            if len(spec.bounds) != len(spec.operands):
                raise MachineSpecError("one declared bound per member is required")
            for b in spec.bounds:
                if b <= 0:
                    raise MachineSpecError("declared bounds must be positive")
        elif spec.bounds:
            raise MachineSpecError("bounds only apply to universal_convergent")
        if spec.kind.startswith("universal"):
            for op in spec.operands:
                if not isinstance(op, FiniteTable):
                    raise MachineSpecError(f"{spec.kind} members must be finite")
            for n, j in enumerate(_member_exponents(spec), start=1):
                if j > PREFIX_ZEROS_CAP:
                    raise MachineSpecError(
                        f"member {n}: its declared bound gives a prefix of more than "
                        f"{PREFIX_ZEROS_CAP} zeros"
                    )
        return
    raise MachineSpecError(f"not a machine description: {spec!r}")


# ---------------------------------------------------------------------------
# streams


class DomainStream:
    """Restartable length-lex enumeration with certified tail information.

    indices() is the one enumeration hook a stream implements, in ascending
    order; the strings are derived here. tail_bound is the one upper-bound
    hook; the bound on the full sum, total_upper, is its value past length
    -1, or the majorant over all strings where that is smaller.
    """

    exhaustible = False

    def indices(self) -> Iterator[int]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[str]:
        return map(bin_of, self.indices())

    def limit_examined(self, limit: int) -> None:
        """Let each pass examine at most limit candidates, then raise StreamCut.

        Only streams that filter a larger enumeration examine candidates
        they do not yield; the others have nothing to limit.
        """

    def count_up_to_length(self, ell: int) -> int | None:
        """Exact number of domain strings of length <= ell, when countable;
        an exhaustible stream counts its indices in ascending order."""
        if not self.exhaustible:
            return None
        short = itertools.takewhile(lambda n: n.bit_length() <= ell + 1, self.indices())
        return sum(1 for _ in short)

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        """Upper bound on the weight of domain strings of length > ell, from
        what the stream knows of its own domain; past length -1 that is the
        full sum. The sum engine takes the smaller of this and the majorant
        over all strings."""
        return None

    def total_upper(self, s: Fraction, kind: str) -> Fraction | None:
        """Upper bound on the full weight sum: the tail past length -1."""
        return _tail_upper(self, -1, s, kind)

    def element_tail(
        self, s: Fraction, kind: str, budget: int
    ) -> tuple[int, Callable[[int], Enclosure]] | None:
        """For a stream whose n-th string has index n: (limit, bracket), where
        the sum engine takes at most limit <= budget strings and bracket(n)
        encloses the weight of every string after the first n; None for other
        streams, kinds and exponents."""
        return None


def _tail_upper(stream: DomainStream, ell: int, s: Fraction, kind: str) -> Fraction | None:
    """The smaller of the stream's tail bound past length ell and the
    majorant over all strings longer than ell, or None if neither exists."""
    bounds = (stream.tail_bound(ell, s, kind), _universal_tail(stream, ell, s, kind))
    return min((b for b in bounds if b is not None), default=None)


def _once(stream, key, make: Callable[[], object]):
    """The stream's constant under key, such as a tail's ratio at one s:
    made on its first use and kept among the stream's own attributes, so it
    is made once per stream and released with it."""
    memo = vars(stream).setdefault("_constants", {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _series_factor(r: Fraction) -> Fraction | None:
    """1/(1 - r), the sum of r^k over k >= 0, or None where that diverges."""
    return None if r >= 1 else 1 / (1 - r)


def _universal_tail(stream, ell: int, s: Fraction, kind: str) -> Fraction | None:
    """Tail majorant valid for every domain: all strings longer than ell."""
    if s <= 1:
        return None
    if kind == "omega":
        # sum over k >= ell+1 of 2^k 2^(-s k) = r^(ell+1)/(1-r), r = 2^(1-s)
        factor = _once(
            stream, ("universal", s), lambda: _series_factor(pow2_bounds(1 - s, _TERM_PREC).hi)
        )
        if factor is None:
            return None
        return pow2_bounds((1 - s) * max(ell + 1, 0), _TERM_PREC).hi * factor
    # zeta: sum over n > N of n^(-s) <= N^(1-s)/(s-1) with N = 2^(ell+1) - 1;
    # below length 0 the empty string adds its index 1 and weight 1
    n_min = (1 << (max(ell, 0) + 1)) - 1
    head = 1 if ell < 0 else 0
    return head + pow_bounds(Fraction(n_min), 1 - s, _TERM_PREC).hi / (s - 1)


class _FiniteStream(DomainStream):
    """The given ascending indices. A tail is exact at integer s: the weight
    of each length is summed once per (s, kind), and the tail past a length
    is the suffix sum of those totals."""

    exhaustible = True

    def __init__(self, keys):
        self.keys = keys

    def indices(self) -> Iterator[int]:
        return iter(self.keys)

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction:
        lengths, tails = _once(self, (s, kind), lambda: self._tails(s, kind))
        return tails[bisect.bisect_right(lengths, ell)]

    def _tails(self, s: Fraction, kind: str) -> tuple[list[int], list[Fraction]]:
        """The distinct lengths ascending, and the weight of the keys of each
        length or longer, then 0."""
        lengths, totals = [], []
        for length, run in itertools.groupby(self.keys, lambda n: n.bit_length() - 1):
            if kind == "omega":  # one weight per length
                total = sum(1 for _ in run) * _weight_interval(length, s, kind)[1]
            else:
                total = _pairwise_sum([_weight_interval(n, s, kind)[1] for n in run])
            lengths.append(length)
            totals.append(total)
        tails = itertools.accumulate(reversed(totals), initial=Fraction(0))
        return lengths, list(tails)[::-1]


def _pairwise_sum(terms: list[Fraction]) -> Fraction:
    """The exact sum of terms, added in pairs, then pairs of those sums, and
    so on. A running total carries the denominators of all the terms added
    so far into every later addition, which makes a long sum of unlike
    denominators quadratic; here each addition meets two sums of as many
    terms each."""
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0] if terms else Fraction(0)


class _AllStringsStream(DomainStream):
    def indices(self) -> Iterator[int]:
        return itertools.count(1)

    def count_up_to_length(self, ell: int) -> int:
        return (1 << (ell + 1)) - 1 if ell >= 0 else 0

    def element_tail(
        self, s: Fraction, kind: str, budget: int
    ) -> tuple[int, Callable[[int], Enclosure]] | None:
        if kind != "zeta" or s <= 1:
            return None
        limit = min(budget, _element_stop(s))
        closed = limit > _EM_HEAD

        def bracket(n: int) -> Enclosure:
            # integral test: the sum over m > n of m^-s lies between
            # (n+1)^(1-s)/(s-1) and that plus its first term (n+1)^-s
            b = pow_bounds(Fraction(n + 1), 1 - s, _TERM_PREC)
            lo, hi = b.lo / (s - 1), b.hi / (n + 1) + b.hi / (s - 1)
            if closed:
                # intersected with the Euler–Maclaurin bracket, rounded out
                # to the accumulator grid
                c = zeta_tail_factor(s, n + 1, _EM_TERMS)
                lo = max(lo, Fraction(floor(c.lo * b.lo * _ACC_ONE), _ACC_ONE))
                hi = min(hi, Fraction(ceil(c.hi * b.hi * _ACC_ONE), _ACC_ONE))
            return Enclosure(lo, hi)

        return min(limit, _EM_HEAD), bracket


class _LukasiewiczStream(DomainStream):
    """The programs of the one-combinator calculus, read off the index
    tables of iota; no string and no term is made."""

    def indices(self) -> Iterator[int]:
        for length in itertools.count(1, 2):
            yield from iota_mod.program_indices(length)

    def count_up_to_length(self, ell: int) -> int:
        # C_m programs of length 2m+1, by C_{m+1} = C_m 2(2m+1)/(m+2); at ell = 8000
        # this takes 0.01 s and a catalan(m) per size 3.5 s (2-core x86-64 host)
        total, c = 0, 1
        for m in range((ell + 1) // 2):
            total += c
            c = c * 2 * (2 * m + 1) // (m + 2)
        return total

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # programs of length > ell have size m > n0; weight at most the
        # omega weight, and C_{m-1} <= 4^(m-1) bounds the counts
        n0 = max((ell + 1) // 2, 0)
        if s == 1:
            return iota_mod.program_tail_weight(n0)
        if s < 1:
            return None
        q = pow2_bounds(2 * (1 - s), _TERM_PREC).hi
        if q >= 1:
            return None
        scale = pow2_bounds(s - 2, _TERM_PREC).hi
        return scale * q ** (n0 + 1) / (1 - q)


class _IotaHaltingStream(DomainStream):
    def __init__(self, spec: Builtin):
        self.step_budget = spec.step_budget
        self.size_budget = spec.size_budget
        self.examine_limit: int | None = None

    def limit_examined(self, limit: int) -> None:
        self.examine_limit = limit

    def indices(self) -> Iterator[int]:
        walk = iota_mod.halting_programs(self.step_budget, self.size_budget, self.examine_limit)
        return (n for n, _ in walk)

    # the halting domain is a subset of the programs
    tail_bound = _LukasiewiczStream.tail_bound


class _GeometricStream(DomainStream):
    def __init__(self, spec: Builtin):
        self.extras = _FiniteStream(sorted(map(bin_inv, spec.extras)))

    def indices(self) -> Iterator[int]:
        base = ((1 << i) + 1 for i in itertools.count(1))  # 0^(i-1) 1
        return heapq.merge(self.extras.keys, base)

    def count_up_to_length(self, ell: int) -> int:
        base = max(ell, 0)  # lengths 1..ell
        return base + self.extras.count_up_to_length(ell)

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        if s <= 0:
            return None
        i0 = max(ell, 0)  # base strings 0^i 1 with i >= i0 have length > ell
        # 1/(1 - r) with r = 2^-s, once per s
        factor = _once(self, s, lambda: _series_factor(pow2_bounds(-s, _TERM_PREC).hi))
        if factor is None:
            return None
        base = pow2_bounds(-s * (i0 + 1), _TERM_PREC).hi * factor
        return base + self.extras.tail_bound(ell, s, kind)


def _multisets(parts: list[tuple[int, int]]) -> Iterator[int]:
    """The distinct values of all multisets of parts, ascending from 1.

    Part (m, a) maps a value n to n m + a, above n and above where the part
    listed before it maps n; a multiset applies its parts in list order. A
    heap entry (value, i, before) ends in part i, applied to before. Its pop
    pushes the sibling (part i + 1 in place of part i) and, the first time
    its value pops, the child (one more part i). Equal values, which only
    parts that are not uniquely decodable give, pop in a row, the least i
    first, whose child and its siblings include the later ones' children; so a
    value yielded costs at most len(parts) pops and one more heap entry.
    """
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


class _MultisetStream(DomainStream):
    """One string per distinct value of a multiset of parts; see _multisets."""

    def __init__(self, parts: list[tuple[int, int]]):
        self.parts = parts
        self.exhaustible = not parts

    def indices(self) -> Iterator[int]:
        return _multisets(self.parts)


# a product of a prefix code counts its strings by length from the multiset
# counts; one of other parts counts them one by one, and stops once they pass
# the cap before length N. Either refuses where the strings up to a length
# below N pass the cap (N = 68 for the product of {0, 10, 110, 1110, 11110,
# 11111}); one by one, reaching the cap takes about 1.6 s on a 2-core x86-64
# host
PRODUCT_COUNT_CAP = 1 << 19


class _ProductStream(_MultisetStream):
    """Concatenations p1..pn (n >= 0) with nondecreasing part indices.

    The index of w p is bin_inv(w) 2^|p| + int(p, 2), so the nonempty part
    of index n and length d is the multiset part (2^d, n - 2^d). One string
    per multiset of parts, so the weight sum telescopes into the product of
    per-part geometric series; deduplication of equal renderings can only
    shrink the true sum below that closed form.
    """

    def __init__(self, spec: Construction):
        # an empty part, of index 1, adds nothing
        usable = [n for n in spec.operands[0].indices if n > 1]
        self._lengths = [n.bit_length() - 1 for n in usable]
        super().__init__([(1 << d, n - (1 << d)) for n, d in zip(usable, self._lengths)])
        # _counts[L]: multisets of length L; _heads[s][L]: lower bound on the
        # weight of the strings shorter than L
        self._counts = [1]
        self._heads: dict[Fraction, list[Fraction]] = {}

    def _counts_to(self, ell: int) -> list[int]:
        """The multisets of parts by length, up to at least ell: the
        coefficients of prod_p 1/(1 - x^|p|), which bound the distinct
        strings of each length from above, and equal them for a prefix code."""
        if len(self._counts) <= ell:
            counts = self._counts = [1] + [0] * (2 * ell + 1)
            for d in self._lengths:
                for l in range(d, len(counts)):
                    counts[l] += counts[l - d]
        return self._counts

    def count_up_to_length(self, ell: int) -> int:
        if is_prefix_free(bin_of(m + a) for m, a in self.parts):
            # _counts_to doubles its reach as the length passes it, so that
            # few lengths past the cap are counted, whose counts can be long
            total = 0
            for length in range(ell + 1):
                total += self._counts_to(length)[length]
                if total > PRODUCT_COUNT_CAP and length < ell:
                    raise ValueError(
                        f"{total} product strings up to length {length}, past the cap"
                        f" of {PRODUCT_COUNT_CAP}"
                    )
            return total
        total = 0
        for n in self.indices():
            length = n.bit_length() - 1
            if length > ell:
                break
            total += 1
            if total > PRODUCT_COUNT_CAP and length < ell:
                raise ValueError(
                    f"more than {PRODUCT_COUNT_CAP} product strings up to length {length}"
                )
        return total

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # the closed form prod_p 1/(1 - 2^(-s |p|)) less the weight of the
        # multisets up to length ell; index weights sit below halting
        # weights, so the omega kind serves both kinds
        total = _once(self, s, lambda: self._closed_form(s))
        if total is None:
            return None
        counts = self._counts_to(ell)
        heads = self._heads.setdefault(s, [Fraction(0)])
        while len(heads) <= ell + 1:
            l = len(heads) - 1
            heads.append(heads[l] + counts[l] * _weight_interval(l, s, "omega")[0])
        return max(total - heads[ell + 1], Fraction(0))

    def _closed_form(self, s: Fraction) -> Fraction | None:
        total = Fraction(1)
        for d in self._lengths:
            factor = _series_factor(_weight_interval(d, s, "omega")[1])
            if factor is None:
                return None
            total *= factor
        return total


class _OperandStream(DomainStream):
    """A stream made from the stream of its one operand."""

    def __init__(self, spec: Construction):
        self.inner = domain_stream(spec.operands[0])
        self.exhaustible = self.inner.exhaustible

    def limit_examined(self, limit: int) -> None:
        self.inner.limit_examined(limit)


class _DoubleStream(_OperandStream):
    def indices(self) -> Iterator[int]:
        # w of index n and length L gives ww of index n 2^L + n - 2^L
        for n in self.inner.indices():
            top = 1 << (n.bit_length() - 1)
            yield n * top + n - top

    def count_up_to_length(self, ell: int) -> int | None:
        return self.inner.count_up_to_length(ell // 2)

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # ww longer than ell means w longer than floor(ell/2); the omega
        # weight of ww at s is the omega weight of w at 2s, and the zeta
        # weight is smaller still
        return _tail_upper(self.inner, ell // 2, 2 * s, "omega")


class _TuataraOfStream(_OperandStream):
    def indices(self) -> Iterator[int]:
        # X(p) is p, then p 0^i for each position i (from 1) where p has a 1,
        # in order of length; waiting[L] holds the operands whose next member
        # has length L, and each operand arrives before p itself is due
        waiting: dict[int, list[int]] = {}
        it = self.inner.indices()
        pending = next(it, None)
        length = 0
        while pending is not None or waiting:
            while pending is not None and pending.bit_length() - 1 <= length:
                waiting.setdefault(pending.bit_length() - 1, []).append(pending)
                pending = next(it, None)
            batch = set()
            for n in waiting.pop(length, ()):
                d = n.bit_length() - 1
                i = length - d
                batch.add(n << i)  # p 0^i
                rest = n & ((1 << (d - i)) - 1)  # the positions of p past i
                if rest:  # the next member's zeros reach rest's highest 1
                    waiting.setdefault(2 * d + 1 - rest.bit_length(), []).append(n)
            yield from sorted(batch)
            length += 1

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # the total at s = 1 only; double(tuatara_of(X)) at s = 1/2 reads it
        # through its inner tail at 2s
        if ell >= 0 or s != 1:
            return None
        if kind == "zeta":
            # each X(p) carries index weight exactly 2^-|p|
            return self.inner.total_upper(s, "omega")
        # omega: X(p) carries 2^-|p| (1 + sum of 2^-i over set bits),
        # which is below 2^(1-|p|)
        if self.exhaustible:
            keys = self.inner.indices()
            return sum((Fraction(n, 4 ** (n.bit_length() - 1)) for n in keys), Fraction(0))
        inner_total = self.inner.total_upper(s, "omega")
        return None if inner_total is None else 2 * inner_total


def _prefixed_index(j: int, n: int) -> int:
    """The index 2^(j+1+|w|) + n of 0^j 1 w, where n is the index of w."""
    return (1 << (j + n.bit_length())) + n


class _UniversalStream(_FiniteStream):
    """Finite members behind the self-delimiting prefixes 0^J 1."""

    def __init__(self, spec: Construction):
        members = zip(_member_exponents(spec), spec.operands)
        super().__init__(sorted(_prefixed_index(j, n) for j, op in members for n in op.indices))

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction:
        # halting weights bound index weights, at one power of two each
        return super().tail_bound(ell, s, "omega")


# at the cap (a bound near 2^20 for a lone member) a zeta or omega sum takes
# about 0.03 s and a 5 MB tracemalloc peak on a 2-core x86-64 host; the CLI
# prints the hi of a sum stopped short, of about 1.3 million digits, in 1.5 s
PREFIX_ZEROS_CAP = 1 << 22


def _member_exponents(spec: Construction) -> list[int] | range:
    """The J of each member's prefix 0^J 1.

    universal_tuatara puts member k behind J = k. universal_convergent takes
    J = 2^i (2M + 1) - 1 from the declared index-sum bounds: M is the bound
    rounded up to an integer of at least 1, and i numbers the members
    sharing the same M, starting from 1.
    """
    if spec.kind == "universal_tuatara":
        return range(1, len(spec.operands) + 1)
    ranks: dict[int, int] = {}
    out = []
    for bound in spec.bounds:
        m_class = max(1, -((-bound.numerator) // bound.denominator))
        ranks[m_class] = ranks.get(m_class, 0) + 1
        out.append(j_pairing(ranks[m_class], m_class))
    return out


# an operand string of length n names a prime index near 2^n; at the cap the
# sieve takes about 0.8 s and 70 MB on a 2-core x86-64 host
PRIME_COUNT_CAP = 1 << 20


class _PrimeProductStream(_MultisetStream):
    """The numbers that factor over the selected primes: part p is (p, 0)."""

    def __init__(self, spec: Construction):
        idx = spec.operands[0].indices
        if idx and idx[-1] > PRIME_COUNT_CAP:
            raise ValueError(f"{idx[-1]} primes requested, past the cap of {PRIME_COUNT_CAP}")
        primes = first_primes(idx[-1]) if idx else []
        super().__init__([(primes[i - 1], 0) for i in idx])

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # the Euler product over the selected primes, past length -1 only: a
        # length the sum completed has taken index 1 at weight 1, so its
        # partial sum plus the product less 1 never beats the product
        if ell >= 0 or s.denominator != 1:
            return None
        k = s.numerator
        euler = Fraction(1)
        for p, _ in self.parts:
            euler *= Fraction(p ** k, p ** k - 1)
        # omega: 2^(-s floor(log2 n)) <= (2/n)^s
        return euler if kind == "zeta" else 2 ** k * euler


def domain_stream(spec: MachineSpec) -> DomainStream:
    """Build the enumeration stream for a validated machine description."""
    validate_spec(spec)
    if isinstance(spec, FiniteTable):
        return _FiniteStream(spec.indices)
    if isinstance(spec, Builtin):
        if spec.generator == "all_strings":
            return _AllStringsStream()
        if spec.generator == "lukasiewicz":
            return _LukasiewiczStream()
        if spec.generator == "iota":
            return _IotaHaltingStream(spec)
        return _GeometricStream(spec)
    maker = {
        "product": _ProductStream,
        "double": _DoubleStream,
        "tuatara_of": _TuataraOfStream,
        "universal_tuatara": _UniversalStream,
        "universal_convergent": _UniversalStream,
        "prime_product": _PrimeProductStream,
    }[spec.kind]
    return maker(spec)


# ---------------------------------------------------------------------------
# the weighted sum engine


@dataclass(frozen=True)
class SumReport:
    """Certified enclosure of a weight sum, with how it was reached."""

    enclosure: Enclosure
    consumed: int
    # why the enumeration ended: "budget", "exhausted" (the stream ran
    # out), "grid" (terms below 2^-136, or a further term could no longer
    # narrow a bracketed tail) or "cut" (StreamCut)
    stop: str
    # the bound that gave hi: "exhausted" (the sum itself), "total" (the
    # bound on the full sum), a completed length L (the sum up to L plus the
    # tail past it) or "bracket" (the sum plus a bracketed tail); None when
    # hi is infinite
    upper: str | int | None
    # the terms added before the accumulator left exact mode, the one that
    # took it past the guard included; None if it never did
    exact_terms: int | None

    @property
    def exhausted(self) -> bool:
        return self.stop == "exhausted"


def _weight_interval(key: int, s: Fraction, kind: str) -> tuple[Fraction, Fraction]:
    """Exact or certified (lo, hi) for one term weight: 2^(-s key) for the
    omega kind, where key is a length, and key^(-s) for the zeta kind, where
    key is an index."""
    if kind == "omega":
        if s.denominator == 1:
            v = Fraction(1, 1 << (s.numerator * key))
            return v, v
        b = pow2_bounds(-s * key, _TERM_PREC)
    else:
        if s.denominator == 1:
            v = Fraction(1, key ** s.numerator)
            return v, v
        b = pow_bounds(Fraction(key), -s, _TERM_PREC)
    return b.lo, b.hi


class _IntervalAcc:
    """Running interval sum: exact until the lower sum's denominator passes
    _GUARD_BITS bits, then outward rounded on the 2^-_ACC_BITS grid.

    Exact mode runs on integers and builds no Fraction: the lower sum is
    ln/ld, where ld is the least common multiple of the term denominators,
    left unreduced, so adding num/den costs one gcd. The upper sum is hn/hd
    the same way, or None while it equals the lower sum (every term so far
    exact). Since ld is a multiple of the reduced denominator, the reduced
    one is within the guard whenever ld is; only when ld passes the guard is
    the lower sum reduced, and the guard tested again on the reduced
    denominator. So the switch to the grid comes at the same term as for a
    sum of reduced Fractions, and lo and hi, which build their Fraction when
    read, equal that sum's.

    Terms arrive in three forms, and none builds a Fraction on the grid:
    - add(t_lo, t_hi, count) adds count copies of a term t_lo <= t <= t_hi,
      as the omega kind does for a run of strings of one length. On the
      grid, count copies of the rounded term equal count rounded terms. In
      exact mode the run goes in at once when the least common multiple of
      ld and the term's denominator is within the guard, for then no partial
      sum inside the run can pass it; otherwise the copies go in one at a
      time until the sum leaves exact mode. The unreduced ld only makes
      that test stricter, and a run split into single copies has the same
      sum.
    - add_inverses(keys, k) adds 1/n^k for a block of keys, as the zeta
      kind does at integer s. Exact mode takes _EXACT_BLOCK keys with one
      update when L, the least common multiple of ld and their
      denominators, is within the guard: every partial sum's ld divides L,
      so none passes it, and ln and ld come out as one add per key leaves
      them. A block past the guard is halved, and a few keys go in one at
      a time, so the switch to the grid comes at the same term. On the grid
      it is one floor division per key, summed in one pass.
    - add_ratio(num, d_lo, d_hi) adds num/d_lo <= t <= num/d_hi, as the zeta
      kind does at non-integer s; exact mode takes the integers unreduced.

    So an exhaustible stream at integer s comes out exact (lo == hi) only
    while its denominators stay small: omega sums of finite tables do, but
    a zeta sum passes the guard once the least common multiple of its terms'
    denominators does (at s = 1, 1,000 random 20-bit indices pass it, as do
    the integers to 2,900) and then comes out as an interval of dyadic
    endpoints, like the long streams. Rounding each term outward keeps both
    sums certified as they stand: hi is an upper bound on the terms added,
    and tails need no allowance for it.
    """

    _GUARD_BITS = 1 << 12
    _EXACT_BLOCK = 32  # a block past the guard wastes its lcm work; 64 wastes more

    def __init__(self) -> None:
        self.exact = True
        self.ln, self.ld = 0, 1
        self.hn: int | None = None
        self.hd = 1
        self.lo_i = 0
        self.hi_i = 0
        self.exact_terms = 0

    def _add_exact(
        self, num: int, den: int, h_num: int | None = None, h_den: int = 1, terms: int = 1
    ) -> None:
        """Add num/den, the sum of terms terms, to the lower sum and
        h_num/h_den (num/den when h_num is None) to the upper sum."""
        self.exact_terms += terms
        if self.hn is None and h_num is not None:
            self.hn, self.hd = self.ln, self.ld
        if self.hn is not None:
            if h_num is None:
                h_num, h_den = num, den
            g = gcd(self.hd, h_den)
            self.hn = self.hn * (h_den // g) + h_num * (self.hd // g)
            self.hd *= h_den // g
        g = gcd(self.ld, den)
        self.ln = self.ln * (den // g) + num * (self.ld // g)
        self.ld *= den // g
        if self.ld.bit_length() > self._GUARD_BITS:
            g = gcd(self.ln, self.ld)
            self.ln //= g
            self.ld //= g
            if self.ld.bit_length() > self._GUARD_BITS:
                hn, hd = (self.ln, self.ld) if self.hn is None else (self.hn, self.hd)
                self.lo_i = (self.ln << _ACC_BITS) // self.ld
                self.hi_i = -((-hn << _ACC_BITS) // hd)
                self.exact = False

    def add(self, t_lo: Fraction, t_hi: Fraction, count: int = 1) -> None:
        while self.exact and count:
            n = 1
            if lcm(self.ld, t_lo.denominator).bit_length() <= self._GUARD_BITS:
                n = count
            h_num = None if t_hi is t_lo else n * t_hi.numerator
            self._add_exact(n * t_lo.numerator, t_lo.denominator, h_num, t_hi.denominator, n)
            count -= n
        if count:
            self.lo_i += count * ((t_lo.numerator << _ACC_BITS) // t_lo.denominator)
            self.hi_i += count * -((-t_hi.numerator << _ACC_BITS) // t_hi.denominator)

    def add_inverses(self, keys: list[int], k: int) -> None:
        """Add 1/n^k for each n in keys: _EXACT_BLOCK keys at a time while
        exact, then, on the grid, one pass of floor divisions over the keys;
        a term's ceiling is one more than its floor unless it is on the grid."""
        ms = [n ** k for n in keys] if k > 1 else keys
        i = 0
        while self.exact and i < len(ms):
            i += self._add_units(ms[i : i + self._EXACT_BLOCK])
        if i < len(ms):
            ms = ms[i:] if i else ms
            lo = sum(map(_ACC_ONE.__floordiv__, ms))
            self.lo_i += lo
            self.hi_i += lo + len(ms) - sum(map(_GRID_DIVISORS.__contains__, ms))

    def _add_units(self, ms: list[int]) -> int:
        """Add 1/m for each m in ms while the sum stays exact, by the block
        rule above; return how many went in. With the upper sum set apart
        (hn), every key takes its own add."""
        if len(ms) > 4 and self.hn is None:
            b = lcm(*ms)
            ld = lcm(self.ld, b)
            if ld.bit_length() <= self._GUARD_BITS:
                self.ln = self.ln * (ld // self.ld) + sum(map(b.__floordiv__, ms)) * (ld // b)
                self.ld = ld
                self.exact_terms += len(ms)
                return len(ms)
            h = len(ms) // 2
            i = self._add_units(ms[:h])
            return i + self._add_units(ms[h:]) if self.exact else i
        i = 0
        while self.exact and i < len(ms):
            self._add_exact(1, ms[i])
            i += 1
        return i

    def add_ratio(self, num: int, d_lo: int, d_hi: int) -> None:
        if self.exact:
            return self._add_exact(num, d_lo, num, d_hi)
        self.lo_i += (num << _ACC_BITS) // d_lo
        self.hi_i -= (-num << _ACC_BITS) // d_hi

    @property
    def lo(self) -> Fraction:
        return Fraction(self.ln, self.ld) if self.exact else Fraction(self.lo_i, _ACC_ONE)

    @property
    def hi(self) -> Fraction:
        if not self.exact:
            return Fraction(self.hi_i, _ACC_ONE)
        return Fraction(self.ln, self.ld) if self.hn is None else Fraction(self.hn, self.hd)


def _root_terms(s: Fraction) -> Callable[[_IntervalAcc, int], None]:
    """The adder of zeta terms key^-s at non-integer s: one certified root
    each, in integers. Past exact mode a key >= cut has key^s > 2^_ACC_BITS,
    so r >= 2^(p + _ACC_BITS) and the root's enclosure would floor to 0 and
    ceil to 1 grid unit: that unit goes in with no root."""
    a, b = s.numerator, s.denominator
    cut = 1 << (_ACC_BITS * b // a + 1)

    def add(acc: _IntervalAcc, key: int) -> None:
        if key >= cut and not acc.exact:
            acc.hi_i += 1
            return
        p, r = inverse_root(key ** a, 1, b, _TERM_PREC)
        acc.add_ratio(1 << p, r + 1, r)

    return add


def _element_stop(s: Fraction) -> int:
    """How many indices 1, 2, 3, ... a bracketed zeta sum takes.

    Index a raises lo by a^-s less I, the integral of x^-s over [a, a+1],
    and lowers hi by I less (a+1)^-s, less a grid unit of rounding on each
    side. Both gains pass s (a+1)^(-s-1)/2, two units while a + 1 < n* =
    ceil(2^((_ACC_BITS - 2 + log2 s)/(s + 1))); index n* - 1 is taken only
    if its own gains, in floats, reach two units. So enclosures nest as the
    budget grows; the stop is sound wherever it falls.
    """
    e = Fraction(_ACC_BITS - 2 + log2(s.numerator) - log2(s.denominator)) / (s + 1)
    a = max(ceil(2 ** float(e)) - 1, 1)
    if a > 1:  # then s < 2^8 fits a float
        f = float(s)
        i = (a ** (1 - f) - (a + 1) ** (1 - f)) / (f - 1)
        if min(a ** -f - i, i - (a + 1) ** -f) < 2.0 ** (1 - _ACC_BITS):
            a -= 1
    return a


class _Sum:
    """One (kind, s) request of weighted_domain_sums: its accumulator, the
    lengths it completed, how many strings it took and why it stopped."""

    def __init__(self, stream: DomainStream, kind: str, s: Fraction, budget: int):
        self.kind, self.s = kind, s
        self.acc = _IntervalAcc()
        # (ell, upper sum over the strings of length <= ell) for every length
        # ell >= 0 the enumeration has completed; past length -1, the tail is
        # the stream's total_upper
        self.complete: list[tuple[int, Fraction]] = []
        self.consumed = 0
        self.stop = "budget"
        # omega weights depend on the length alone, so the strings of one
        # length are added as one run, of run strings of length length
        self.length, self.run = 0, 0
        # a stream that brackets its tail at every string stops at the limit
        # it sets, where its bracket closes the sum; other sparse streams
        # reach terms below 2^-_STOP_BITS long before the budget, from
        # stop_len on, and the tail bound over the completed lengths covers
        # the rest
        closing = stream.element_tail(s, kind, budget)
        self.limit, self.tail_at = (budget, None) if closing is None else closing
        a, b = s.numerator, s.denominator
        self.stop_len = None if stream.exhaustible or self.tail_at else _STOP_BITS * b // a + 1
        self.k = a if b == 1 else 0
        self.add_root = None if kind == "omega" or self.k else _root_terms(s)

    def _add_run(self) -> None:
        if self.run:
            self.acc.add(*_weight_interval(self.length, self.s, "omega"), self.run)
            self.run = 0

    def reach(self, length: int) -> bool:
        """Note that every string shorter than length was read; False when
        the sum stops on the grid there."""
        self._add_run()
        self.length = length
        if length:
            self.complete.append((length - 1, self.acc.hi))
            if self.stop_len is not None and length >= self.stop_len:
                self.stop = "grid"
                return False
        return True

    def take(self, block: list[int]) -> bool:
        """Add the leading keys of block, all of the length last reached, up
        to the limit; False once the limit is reached."""
        if len(block) > self.limit - self.consumed:
            block = block[: self.limit - self.consumed]
        if block:
            if self.kind == "omega":
                self.run += len(block)
            elif self.k:
                self.acc.add_inverses(block, self.k)
            else:
                for key in block:
                    self.add_root(self.acc, key)
            self.consumed += len(block)
        return self.consumed < self.limit

    def report(self, stream: DomainStream) -> SumReport:
        self._add_run()
        acc, s, kind = self.acc, self.s, self.kind
        lo = acc.lo
        exact_terms = None if acc.exact else acc.exact_terms
        if self.stop == "exhausted":
            return SumReport(
                Enclosure(lo, acc.hi), self.consumed, self.stop, "exhausted", exact_terms
            )
        # acc.hi rounds every term up and every tail is an upper bound, so
        # each candidate is sound as it stands; a larger budget passes every
        # length a smaller one did, so the least of them cannot rise with the
        # budget. A bracketed tail narrows with each string up to limit instead
        candidates = [("total", stream.total_upper(s, kind))]
        if self.tail_at is not None:
            tail = self.tail_at(self.consumed)
            lo += tail.lo
            candidates.append(("bracket", acc.hi + tail.hi))
        else:
            for ell, hi_complete in self.complete:
                tail = _tail_upper(stream, ell, s, kind)
                candidates.append((ell, None if tail is None else hi_complete + tail))
        upper, hi = min(
            ((name, c) for name, c in candidates if c is not None),
            key=lambda nc: nc[1],
            default=(None, None),
        )
        return SumReport(Enclosure(lo, hi), self.consumed, self.stop, upper, exact_terms)


def weighted_domain_sums(
    spec: MachineSpec, requests: list[tuple[str, Fraction]], budget: int
) -> list[SumReport]:
    """Certified enclosures of several (kind, s) weight sums, each equal to
    its own weighted_domain_sum, from one enumeration of the domain.

    The indices are read a length at a time. Each request first notes the
    new length, where it may stop on the grid; then the length's strings are
    pulled, in blocks of at most _BLOCK, up to the most that a request still
    running can take, so the stream yields exactly what the longest of the
    separate sums would pull.
    """
    checked = []
    for kind, s in requests:
        if kind not in ("omega", "zeta"):
            raise ValueError("kind must be 'omega' or 'zeta'")
        s = Fraction(s)
        if kind == "omega" and s <= 0:
            raise ValueError("omega sums need s > 0")
        if kind == "zeta" and s < 1:
            raise ValueError("zeta sums need s >= 1")
        checked.append((kind, s))
    if budget < 0 or budget >= _BUDGET_CAP:
        raise ValueError("budget out of range")
    stream = domain_stream(spec)
    # the budget also bounds the candidates a filtering stream examines, so
    # a domain that turns out sparse cannot stall the search
    stream.limit_examined(budget)
    sums = [_Sum(stream, kind, s, budget) for kind, s in checked]

    live = [r for r in sums if r.consumed < r.limit]
    groups = itertools.groupby(stream.indices(), int.bit_length)
    group, block = iter(()), []
    try:
        for bits, group in groups if live else ():  # at budget 0 nothing is pulled
            live = [r for r in live if r.reach(bits - 1)]
            while live:
                want = min(max(r.limit - r.consumed for r in live), _BLOCK)
                # extend keeps the strings yielded before a StreamCut
                block.extend(itertools.islice(group, want))
                live = [r for r in live if r.take(block)]
                if len(block) < want:  # the length ran out
                    break
                block = []
            block = []
            if not live:
                break
        else:
            for r in live:
                r.stop = "exhausted"
    except StreamCut:
        # not exhausted: the tail bound covers what was not yielded
        for r in live:
            if r.take(block):
                r.stop = "cut"
    probe = None
    for r in sums:
        if r.consumed == r.limit:
            # short of the budget, limit is the bracketed stop; at the
            # budget, probe one more element only when the stream is known
            # finite, to detect exhaustion at the boundary
            if r.limit < budget:
                r.stop = "grid"
            elif stream.exhaustible:
                if probe is None:
                    probe = next(group, None) is None and next(groups, None) is None
                if probe:
                    r.stop = "exhausted"
    return [r.report(stream) for r in sums]


def weighted_domain_sum(
    spec: MachineSpec, s: Fraction, budget: int, kind: str
) -> SumReport:
    """Certified enclosure of the omega or zeta kind weight sum at exponent s."""
    return weighted_domain_sums(spec, [(kind, s)], budget)[0]


def omega_enclosure(spec: MachineSpec, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Certified enclosure of the halting weight sum at s = 1."""
    return weighted_domain_sum(spec, Fraction(1), budget, "omega").enclosure


def zeta_enclosure(spec: MachineSpec, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Certified enclosure of the index weight sum at s = 1."""
    return weighted_domain_sum(spec, Fraction(1), budget, "zeta").enclosure


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Verdict:
    """Outcome of one threshold question, with the evidence enclosure."""

    kind: str  # divergent | convergent | tuatara | unknown
    certified: bool
    enclosure: Enclosure
    witness: str


@dataclass(frozen=True)
class Classification:
    zeta: Verdict
    omega: Verdict


def _is_all_strings(spec: MachineSpec) -> bool:
    return isinstance(spec, Builtin) and spec.generator == "all_strings"


def _threshold_verdict(enc: Enclosure, series: str) -> Verdict:
    if enc.hi is not None:
        if enc.hi <= 1:
            return Verdict(
                "tuatara",
                True,
                enc,
                f"{series} sum certified <= 1 (upper bound {frac_text(enc.hi)})",
            )
        if enc.lo > 1:
            return Verdict(
                "convergent",
                True,
                enc,
                f"{series} sum certified finite and > 1 (lower bound {frac_text(enc.lo)})",
            )
        return Verdict(
            "convergent",
            True,
            enc,
            f"{series} sum certified finite; the unit threshold lies inside "
            f"[{frac_text(enc.lo)}, {frac_text(enc.hi)}] and stays unresolved at this budget",
        )
    if enc.lo > 1:
        return Verdict(
            "unknown",
            False,
            enc,
            f"{series} sum exceeds 1 but finiteness is not certified",
        )
    return Verdict(
        "unknown",
        False,
        enc,
        f"{series} sum not separated from the unit threshold at this budget",
    )


def classify(spec: MachineSpec, budget: int = DEFAULT_BUDGET) -> Classification:
    """Certified verdicts for the index sum and the halting weight sum.

    Divergence is only ever certified analytically: the full binary tree is
    the one machine here whose index sum is a tail of the harmonic series.
    """
    zeta_rep, omega_rep = weighted_domain_sums(spec, [("zeta", 1), ("omega", 1)], budget)
    zeta_enc, omega_enc = zeta_rep.enclosure, omega_rep.enclosure
    if _is_all_strings(spec):
        return Classification(
            zeta=Verdict(
                "divergent",
                True,
                Enclosure(zeta_enc.lo, None),
                "index sum over every string is the harmonic series",
            ),
            omega=Verdict(
                "divergent",
                True,
                Enclosure(omega_enc.lo, None),
                "each length k contributes a full unit 2^k 2^-k",
            ),
        )
    zeta_v = _threshold_verdict(zeta_enc, "index")
    omega_v = _threshold_verdict(omega_enc, "halting weight")
    # finiteness agreement: a certified-finite index sum comes with a
    # certified-finite halting weight sum and conversely
    if zeta_v.certified and omega_v.certified and (
        (zeta_v.enclosure.hi is None) != (omega_v.enclosure.hi is None)
    ):
        raise ArithmeticError("index and halting weight sums disagree on finiteness")
    return Classification(zeta=zeta_v, omega=omega_v)


# ---------------------------------------------------------------------------
# identities and searches


@dataclass(frozen=True)
class ChainReport:
    """The exact chain 1 >= omega >= zeta >= omega/2 >= 0 for a finite table."""

    omega: Fraction
    zeta: Fraction
    holds: bool
    strict: bool  # every comparison strict


def sanity_chain(spec: FiniteTable) -> ChainReport:
    if not isinstance(spec, FiniteTable):
        raise MachineSpecError("sanity_chain runs on finite tables")
    stream = _FiniteStream(spec.indices)
    omega = stream.tail_bound(-1, Fraction(1), "omega")
    zeta = stream.tail_bound(-1, Fraction(1), "zeta")
    holds = 1 >= omega >= zeta >= omega / 2 >= 0
    strict = 1 > omega > zeta > omega / 2 > 0
    return ChainReport(omega, zeta, holds, strict)


@dataclass(frozen=True)
class TuataraUnit:
    """The spawn set X(p) and its exact index weight 2^-|p|."""

    members: tuple[str, ...]
    total: Fraction
    size: int


def tuatara_unit_identity(p: str) -> TuataraUnit:
    """Members {p} u {p 0^i : bit i of p is 1}, their count, and the unit sum."""
    validate_bits(p)
    if not p:
        raise ValueError("p must be nonempty")
    members = [p]
    for i, c in enumerate(p, start=1):
        if c == "1":
            members.append(p + "0" * i)
    total = sum((Fraction(1, bin_inv(x)) for x in members), Fraction(0))
    return TuataraUnit(tuple(members), total, len(members))


def universal_prefix_identity(i: int, n: int) -> tuple[str, int]:
    """The string 0^i 1 bin(n) and its index 2^(i+1+floor(log2 n)) + n."""
    if i < 1 or n < 1:
        raise ValueError("requires i >= 1 and n >= 1")
    return "0" * i + "1" + bin_of(n), _prefixed_index(i, n)


def j_pairing(i: int, m: int) -> int:
    """The exponent 2^i (2m + 1) - 1; injective over pairs i, m >= 1."""
    if i < 1 or m < 1:
        raise ValueError("requires i >= 1 and m >= 1")
    return 2 ** i * (2 * m + 1) - 1


# the count behind density n has about 2n bits on lukasiewicz and n bits on
# all_strings, and its certified log2 costs superlinear time in them; on a
# 2-core x86-64 host the slowest n up to the cap takes about 2.3 s on
# lukasiewicz (n = 6800) and 2.4 s on all_strings (n = 8000)
DENSITY_LENGTH_CAP = 8000


def density_statistic(spec: MachineSpec, n: int) -> Fraction:
    """log2 of the count of domain strings of length <= n, divided by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DENSITY_LENGTH_CAP:
        raise ValueError(f"density length {n} is past the cap of {DENSITY_LENGTH_CAP}")
    count = domain_stream(spec).count_up_to_length(n)
    if count is None:
        raise MachineSpecError("machine does not support counting by length")
    if count < 1:
        raise ValueError("no domain strings up to that length")
    enc = log2_bounds(Fraction(count), 64)
    return enc.midpoint() / n


def fresh_index(spec: MachineSpec, y: str, budget: int = DEFAULT_BUDGET) -> str:
    """Smallest index outside the enumerated domain once the partial index
    sum strictly exceeds the rational 0.y.

    The enumeration ascends in the index order, so the least index not yet
    taken passes an index only when that index arrives. The partial sum runs
    in the interval accumulator, and only when its enclosure holds the
    threshold are the taken indices read again from the stream and summed
    exactly.
    Raises BudgetExhausted when the threshold is not crossed within the
    budget.
    """
    threshold = rational_of_prefix(y)
    acc = _IntervalAcc()
    smallest = 1
    consumed = 0
    stream = domain_stream(spec)
    stream.limit_examined(budget)
    ending = ""
    try:
        for n in stream.indices():
            if consumed >= budget:
                break
            consumed += 1
            acc.add_inverses((n,), 1)
            smallest += n == smallest
            lo = acc.lo
            if lo <= threshold < acc.hi:  # the grid cannot decide
                taken = itertools.islice(stream.indices(), consumed)
                lo = _pairwise_sum([Fraction(1, m) for m in taken])
            if lo > threshold:
                return bin_of(smallest)
        else:
            ending = "stream exhausted at "  # the sum is final
    except StreamCut:
        pass
    lo, hi = acc.lo, acc.hi
    text = frac_text(lo) if lo == hi else f"in [{frac_text(lo)}, {frac_text(hi)}]"
    raise BudgetExhausted(consumed, f"{ending}partial sum {text}")
