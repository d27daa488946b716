"""Machine domains as streams, and certified sums over them.

A machine is described by its domain, a set of bit strings that a stream
enumerates through one hook, lengths(): the indices n (the numerals 1w read
in binary) of each length as one ascending group, in length-lex order. The
halting weight (omega kind) assigns 2^(-s |w|), where |w| is n's bit length
less one, so it reads a group's size alone; the index weight (zeta kind)
assigns n^(-s). At s = 1 these are the halting probability and the natural
halting sum; classification is keyed to the unit threshold of the index sum.

Enclosures returned here are certified: the true sum lies inside, whatever
the budget. Lower bounds are partial sums rounded down, plus a tail bracket's
lower end where the stream has one. A stream states what it knows of its
domain's weight through one hook, tail_bound(ell, s, kind): an upper bound
on the weight of its strings longer than ell, which past length -1 bounds
the total (total_upper takes it, or the majorant over all strings where
that is smaller). Upper bounds are the least of that total and
partial sums plus a tail majorant, taken at every length the enumeration
completed or at the string where a bracketed sum stopped; so a larger
budget never widens the enclosure of a sum it does not exhaust. Those
candidates are compared as unreduced integer pairs, and only the least is
reduced: the total as it stands, or a partial sum plus its tail.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm, log2
from typing import Callable, Iterable, Iterator, Sequence

from . import iota as iota_mod
from .binstr import (
    all_bits, bin_inv, bin_of, is_prefix_free, rational_of_prefix, validate_all_bits, validate_bits,
)
from .numerics import (
    Enclosure, _scaled_root, check_power, dyadic, first_primes, frac_text,
    inverse_root, log2_bounds, pow2_dyadic, pow_bounds, zeta_tail_factor,
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
        next call. The strings are read at C speed, one pass for their bits
        and one set for duplicates; only a failing table is read again,
        string by string, to name the first fault."""
        domain = self.domain
        if not all_bits(domain) or len(set(domain)) != len(domain):
            seen = set()
            for w in domain:
                validate_bits(w, MachineSpecError)
                if w in seen:
                    raise MachineSpecError(f"duplicate domain string {w!r}")
                seen.add(w)
        if self.outputs is not None:
            if len(self.outputs) != len(domain):
                raise MachineSpecError("outputs must parallel the domain")
            validate_all_bits([*filter(None, self.outputs)], MachineSpecError)
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

def validate_spec(spec: MachineSpec) -> None:
    """Raise MachineSpecError unless the description is well formed.

    A finite table is checked once per table object: once it passes, later
    calls on it, and on descriptions built from it, return without reading
    its strings again.
    """
    if isinstance(spec, FiniteTable) and spec._checked:
        return
    if isinstance(spec, Builtin):
        if spec.generator not in _GENERATORS:
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
        universal = spec.kind.startswith("universal")
        if not universal and len(spec.operands) != 1:
            raise MachineSpecError(f"{spec.kind} takes exactly one operand")
        if universal and not spec.operands:
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
        if universal:
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

    lengths() is the one enumeration hook a stream implements: (L, group)
    for each length L that holds strings, ascending, the indices of length L
    ascending in group: a sized group, whose len counts and omega sums read (a
    sequence, or a _SizedGroup, whose indices are made only as it is read,
    once), or, where the stream filters, merges or maps, an iterator; either
    of the last two is read before the next group. tail_bound is the one
    upper-bound hook; the bound on the full sum, total_upper, is its value
    past length -1.
    """

    exhaustible = False

    def lengths(self) -> Iterator[tuple[int, Iterable[int]]]:
        raise NotImplementedError

    def indices(self) -> Iterator[int]:
        return itertools.chain.from_iterable(group for _, group in self.lengths())

    def __iter__(self) -> Iterator[str]:
        return map(bin_of, self.indices())

    def limit_examined(self, limit: int) -> None:
        """Let each pass examine at most limit candidates, then raise StreamCut.

        Only streams that filter a larger enumeration examine candidates
        they do not yield; the others have nothing to limit.
        """

    def count_up_to_length(self, ell: int) -> int | None:
        """Exact number of domain strings of length <= ell, when countable;
        an exhaustible stream's groups are sized, and their sizes are added."""
        if not self.exhaustible:
            return None
        short = itertools.takewhile(lambda item: item[0] <= ell, self.lengths())
        return sum(len(group) for _, group in short)

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
    bounds = (stream.tail_bound(ell, s, kind), _universal_tail(ell, s, kind))
    return min((b for b in bounds if b is not None), default=None)


def _once(stream, key, make: Callable[[], object]):
    """The stream's constant under key, such as a tail's ratio at one s:
    made on its first use and kept among the stream's own attributes, so it
    is made once per stream and released with it."""
    memo = vars(stream).setdefault("_constants", {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _geometric_tail(n: int, b: int, m: int) -> Fraction | None:
    """Upper bound on the sum of 2^(n k/b) over k >= m, 2^(n m/b)/(1 - 2^(n/b))
    with both powers rounded up, or None where that diverges: with
    2^(n/b) <= q 2^x and 2^(n m/b) <= t 2^y, it is t 2^(y-x)/(2^-x - q)."""
    _, q, x = pow2_dyadic(n, b, _TERM_PREC)
    d = (1 << -x) - q if x < 0 else 0
    if d <= 0:
        return None
    _, t, y = pow2_dyadic(n * m, b, _TERM_PREC)
    return dyadic(t, y - x, d)


def _universal_tail(ell: int, s: Fraction, kind: str) -> Fraction | None:
    """Tail majorant valid for every domain: all strings longer than ell."""
    if s <= 1:
        return None
    a, b = s.numerator, s.denominator
    if kind == "omega":
        # 2^k strings of length k, each of weight 2^(-s k)
        return _geometric_tail(b - a, b, max(ell + 1, 0))
    # zeta: sum over n > N of n^(-s) <= N^(1-s)/(s-1) with N = 2^(ell+1) - 1
    # and N^(1-s) <= 2^p/r (exact at integer s); below length 0 the empty
    # string adds its index 1 and weight 1
    n_min = (1 << (max(ell, 0) + 1)) - 1
    p, r = inverse_root(n_min, 1, a - b, b, _TERM_PREC)
    den = r * (a - b)
    return Fraction((b << p) + (den if ell < 0 else 0), den)


class _FiniteStream(DomainStream):
    """The given ascending indices. A tail is exact at integer s: the weight
    of each length is summed once per (s, kind), and the tail past a length
    is the suffix sum of those totals."""

    exhaustible = True

    def __init__(self, keys):
        self.keys = keys

    def lengths(self) -> Iterator[tuple[int, Sequence[int]]]:
        keys, i = self.keys, 0
        while i < len(keys):
            j = bisect.bisect_left(keys, 1 << keys[i].bit_length(), i)
            yield keys[i].bit_length() - 1, keys[i:j]
            i = j

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
    def lengths(self) -> Iterator[tuple[int, range]]:
        return ((length, range(1 << length, 2 << length)) for length in itertools.count())

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

    def lengths(self) -> Iterator[tuple[int, Sequence[int]]]:
        return ((length, iota_mod.program_indices(length)) for length in itertools.count(1, 2))

    def count_up_to_length(self, ell: int) -> int:
        # C_m programs of length 2m+1, by C_{m+1} = C_m 2(2m+1)/(m+2); at ell = 8000
        # this takes 0.01 s and a catalan(m) per size 3.5 s (2-core x86-64 host)
        total, c = 0, 1
        for m in range((ell + 1) // 2):
            total += c
            c = c * 2 * (2 * m + 1) // (m + 2)
        return total

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # programs of length > ell have size m > n0: the lengths 2 n0 - 1 and
        # 2 n0 share a tail, made once per stream (iota shares the method)
        n0 = max((ell + 1) // 2, 0)
        return _once(self, ("programs", s, n0), lambda: _LukasiewiczStream._tail(self, s, n0))

    def _tail(self, s: Fraction, n0: int) -> Fraction | None:
        # weight at most the omega weight, and C_{m-1} <= 4^(m-1) bounds the
        # counts: the tail is at most 2^(s-2) q^(n0+1)/(1 - q), q = 4^(1-s),
        # with q <= r 2^y and 2^(s-2) <= h 2^x rounded up (exact at integer s)
        if s == 1:
            return iota_mod.program_tail_weight(n0)
        if s < 1:
            return None
        a, b = s.numerator, s.denominator
        _, r, y = pow2_dyadic(2 * (b - a), b, _TERM_PREC)
        d = (1 << -y) - r
        if d <= 0:
            return None
        _, h, x = pow2_dyadic(a - 2 * b, b, _TERM_PREC)
        check_power(2, -y * (n0 + 1))
        return dyadic(h * r ** (n0 + 1), y * n0 + x, d)


class _IotaHaltingStream(DomainStream):
    def __init__(self, spec: Builtin):
        self.step_budget = spec.step_budget
        self.size_budget = spec.size_budget
        self.examine_limit: int | None = None

    def limit_examined(self, limit: int) -> None:
        self.examine_limit = limit

    def lengths(self) -> Iterator[tuple[int, Iterator[int]]]:
        # grouped as it goes, so StreamCut falls where the walk meets its limit
        walk = iota_mod.halting_programs(self.step_budget, self.size_budget, self.examine_limit)
        return _by_length(n for n, _ in walk)

    # the halting domain is a subset of the programs
    tail_bound = _LukasiewiczStream.tail_bound


class _GeometricStream(DomainStream):
    def __init__(self, spec: Builtin):
        self.extras = _FiniteStream(sorted(map(bin_inv, spec.extras)))

    def lengths(self) -> Iterator[tuple[int, list[int]]]:
        extras = dict(self.extras.lengths())
        if 0 in extras:
            yield 0, extras[0]
        for length in itertools.count(1):  # 0^(length-1) 1 and the extras
            yield length, sorted([*extras.get(length, ()), (1 << length) + 1])

    def count_up_to_length(self, ell: int) -> int:
        base = max(ell, 0)  # lengths 1..ell
        return base + self.extras.count_up_to_length(ell)

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # base strings 0^i 1 with i >= max(ell, 0) have length > ell
        base = _geometric_tail(-s.numerator, s.denominator, max(ell, 0) + 1)
        if base is None or not self.extras.keys:
            return base
        return base + self.extras.tail_bound(ell, s, kind)


def _by_length(indices: Iterator[int]) -> Iterator[tuple[int, Iterator[int]]]:
    """Ascending indices as lengths() groups, read lazily."""
    return ((bits - 1, group) for bits, group in itertools.groupby(indices, int.bit_length))


class _SizedGroup:
    """A lengths() group whose size is known before its indices are made:
    len() reads the size, and iteration reads the indices, once."""

    def __init__(self, size: int, indices: Iterator[int]):
        self.size, self.indices = size, indices

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return self.indices


def _multiset_candidates(
    kept: list[int], parts: list[tuple[int, int]], starts: list[int], stops: list[int], bits: int
) -> list[int]:
    """Part j applied to each of kept[starts[j]:stops[j]] whose greatest
    part is at most j, and tagged j; in part order."""
    mask = (1 << bits) - 1
    out: list[int] = []
    for j, (m, a) in enumerate(parts):
        i, k = starts[j], stops[j]
        if i < k:
            # (n << bits | t) maps to (n m + a) << bits | j
            mb, ab = m << bits, a << bits | j
            out += [(e >> bits) * mb + ab for e in kept[i:k] if e & mask <= j]
    return out


def _multiset_windows(parts: list[tuple[int, int]]) -> Iterator[tuple[int, list[int], bool]]:
    """The distinct values of all multisets of parts, ascending from 1, in
    windows [lo, hi) within one length: (length, values, hi ends the length).

    Part (m, a), m >= 2, maps n to n m + a; a multiset applies its parts in
    list order, so part j extends the values whose greatest part is at most
    j. A value n is kept as n << bits | t, t the least such greatest part of
    the multisets giving n (parts that are not uniquely decodable give n
    more than once). A value comes from one at most half its size, so a
    window draws on kept values alone: a slice per part, found by bisection.
    A window is halved until its slices hold at most _BLOCK candidates.
    """
    yield 0, [1], True
    if not parts:
        return
    bits = (len(parts) - 1).bit_length()
    kept, lo = [1 << bits], 2
    while True:
        # each part's first source that it maps to lo or past: the least
        # value from lo on is one of theirs. A value below all of them is no
        # source again
        firsts = [-((a - lo) // m) << bits for m, a in parts]
        del kept[: bisect.bisect_left(kept, min(firsts))]
        starts = [bisect.bisect_left(kept, first) for first in firsts]
        lo = min((kept[i] >> bits) * m + a for (m, a), i in zip(parts, starts) if i < len(kept))
        top = hi = 1 << lo.bit_length()
        while True:
            stops = [
                bisect.bisect_left(kept, -((a - hi) // m) << bits, i)
                for (m, a), i in zip(parts, starts)
            ]
            if sum(stops) - sum(starts) <= _BLOCK or hi - lo == 1:
                break
            hi = lo + (hi - lo) // 2
        window = _multiset_candidates(kept, parts, starts, stops, bits)
        window.sort()
        values = [e >> bits for e in window]
        if len(set(values)) < len(values):  # keep the least tag of each value
            window = [e for e, n, before in zip(window, values, [0, *values]) if n != before]
            values = [e >> bits for e in window]
        kept += window
        if values:
            yield lo.bit_length() - 1, values, hi == top
        lo = hi


class _MultisetStream(DomainStream):
    """One string per distinct value of a multiset of parts: a length that
    one of _multiset_windows holds is one list, and a length split over
    several is a lazy group, built a window at a time as it is read."""

    def __init__(self, parts: list[tuple[int, int]]):
        self.parts = parts
        self.exhaustible = not parts

    def lengths(self) -> Iterator[tuple[int, Iterable[int]]]:
        windows = _multiset_windows(self.parts)
        for length, run in itertools.groupby(windows, operator.itemgetter(0)):
            _, first, whole = next(run)
            if whole:
                yield length, first
            else:
                rest = itertools.chain.from_iterable(values for _, values, _ in run)
                yield length, itertools.chain(first, rest)


# a product of a prefix code counts its strings by length from the multiset
# counts; one of other parts adds the size of a length that one window holds,
# reads a longer length string by string, and stops once they pass the cap
# before length N. Either refuses where the strings up to a length below N
# pass the cap (N = 68 for the product of {0, 10, 110, 1110, 11110, 11111});
# other parts reach the cap, built window by window, in about 1.1 s (61
# parts of up to 9 bits, 2-core x86-64 host)
PRODUCT_COUNT_CAP = 1 << 19


def _group_of(groups: Iterator[tuple[int, Iterable[int]]], length: int) -> Iterator[int]:
    """The indices of one length, read from a stream's lengths() when first
    read; the groups of shorter lengths are passed over unread."""
    for ell, group in groups:
        if ell >= length:
            yield from group if ell == length else ()
            return


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
        # _counts[L]: multisets of length L, which for a prefix code are its
        # strings of length L
        self._counts = [1]
        self.prefix_code = is_prefix_free(bin_of(n) for n in usable)

    def lengths(self) -> Iterator[tuple[int, Iterable[int]]]:
        built = super().lengths()
        if not (self.parts and self.prefix_code):
            return built
        # each length counted, its strings built only as its group is read
        return (
            (length, _SizedGroup(n, _group_of(built, length)))
            for length in itertools.count()
            if (n := self._counts_to(length)[length])
        )

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
        # a sized group is counted unread: a prefix code's from _counts_to,
        # which doubles its reach as the length passes it, so that few
        # lengths past the cap are counted, whose counts can be long
        total = 0
        for length, group in itertools.takewhile(lambda item: item[0] <= ell, self.lengths()):
            if hasattr(group, "__len__"):
                total += len(group)
            else:  # a length over several windows, read to one string past the cap
                stop = None if length == ell else PRODUCT_COUNT_CAP + 1 - total
                total += sum(1 for _ in itertools.islice(group, stop))
            if total > PRODUCT_COUNT_CAP and length < ell:
                raise ValueError(
                    f"{total} product strings up to length {length}, past the cap of"
                    f" {PRODUCT_COUNT_CAP}" if self.prefix_code
                    else f"more than {PRODUCT_COUNT_CAP} product strings up to length {length}"
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
        heads = _once(self, ("heads", s), lambda: [Fraction(0)])  # heads[L] <= weight below L
        while len(heads) <= ell + 1:
            l = len(heads) - 1
            heads.append(heads[l] + counts[l] * _weight_interval(l, s, "omega")[0])
        return max(total - heads[ell + 1], Fraction(0))

    def _closed_form(self, s: Fraction) -> Fraction | None:
        total = Fraction(1)
        for d in self._lengths:
            r = _weight_interval(d, s, "omega")[1]
            if r >= 1:  # the series of r^k diverges
                return None
            total /= 1 - r
        return total


class _OperandStream(DomainStream):
    """A stream made from the stream of its one operand."""

    def __init__(self, spec: Construction):
        self.inner = domain_stream(spec.operands[0])
        self.exhaustible = self.inner.exhaustible

    def limit_examined(self, limit: int) -> None:
        self.inner.limit_examined(limit)


def _affine(group: Iterable[int], m: int, c: int) -> Iterator[int]:
    """n m + c for each n of group, as it is read."""
    return (n * m + c for n in group)


class _DoubleStream(_OperandStream):
    def lengths(self) -> Iterator[tuple[int, Iterable[int]]]:
        # w of index n and length L gives ww of index n m - 2^L, m = 2^L + 1,
        # mapped lazily, as the budget may end early in a group; a sized one,
        # a range included, keeps its size, which omega sums read
        for length, group in self.inner.lengths():
            top, m = 1 << length, (1 << length) + 1
            if hasattr(group, "__len__"):
                yield 2 * length, _SizedGroup(len(group), _affine(group, m, -top))
            else:
                yield 2 * length, _affine(group, m, -top)

    def count_up_to_length(self, ell: int) -> int | None:
        return self.inner.count_up_to_length(ell // 2)

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # ww longer than ell means w longer than floor(ell/2); the omega
        # weight of ww at s is the omega weight of w at 2s, and the zeta
        # weight is smaller still
        return _tail_upper(self.inner, ell // 2, 2 * s, "omega")


class _TuataraOfStream(_OperandStream):
    def lengths(self) -> Iterator[tuple[int, list[int]]]:
        # X(p) is p, then p 0^i for each position i (from 1) where p has a 1,
        # bit j = d - i of its index n, for p of length d: p 0^i is n << i, of
        # length 2d - j. due[L] holds (the operands of length d, i, j) for each
        # j set in any of them; a group read once is listed, as each j reads it
        due: dict[int, list[tuple[Sequence[int], int, int]]] = {}
        inner = self.inner.lengths()
        pending = next(inner, None)
        length = 0
        while pending is not None or due:
            if pending is not None and pending[0] == length:
                ops = pending[1] if isinstance(pending[1], Sequence) else list(pending[1])
                mask = functools.reduce(int.__or__, ops)
                while mask:
                    j = mask.bit_length() - 1
                    due.setdefault(2 * length - j, []).append((ops, length - j, j))
                    mask ^= 1 << j
                pending = next(inner, None)
            # a set, since an operand that is not prefix-free spawns some strings twice
            batch = {n << i for ops, i, j in due.pop(length, ()) for n in ops if n >> j & 1}
            if batch:
                yield length, sorted(batch)
            length = length + 1 if due or pending is None else pending[0]

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
        if self.exhaustible:  # the indices n of length L weigh n/4^L
            groups = self.inner.lengths()
            return sum((Fraction(sum(group), 4 ** length) for length, group in groups), Fraction(0))
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
            n = frac_text(Fraction(idx[-1]))
            raise ValueError(f"{n} primes requested, past the cap of {PRIME_COUNT_CAP}")
        primes = first_primes(idx[-1]) if idx else []
        super().__init__([(primes[i - 1], 0) for i in idx])

    def tail_bound(self, ell: int, s: Fraction, kind: str) -> Fraction | None:
        # the Euler product over the selected primes, past length -1 only: a
        # length the sum completed has taken index 1 at weight 1, so its
        # partial sum plus the product less 1 never beats the product
        if ell >= 0 or s.denominator != 1:
            return None
        k = s.numerator
        check_power(max((p for p, _ in self.parts), default=2), k)
        euler = Fraction(1)
        for p, _ in self.parts:
            euler *= Fraction(p ** k, p ** k - 1)
        # omega: 2^(-s floor(log2 n)) <= (2/n)^s
        return euler if kind == "zeta" else 2 ** k * euler


# the one list of each kind of name: validate_spec refuses any other, and
# domain_stream builds a description's stream from its entry
_GENERATORS: dict[str, Callable[[Builtin], DomainStream]] = {
    "all_strings": lambda spec: _AllStringsStream(),
    "lukasiewicz": lambda spec: _LukasiewiczStream(),
    # looked up at each call, so that tests can substitute the class
    "iota": lambda spec: _IotaHaltingStream(spec),
    "geometric": _GeometricStream,
}
_CONSTRUCTIONS: dict[str, Callable[[Construction], DomainStream]] = {
    "product": _ProductStream,
    "double": _DoubleStream,
    "tuatara_of": _TuataraOfStream,
    "universal_tuatara": _UniversalStream,
    "universal_convergent": _UniversalStream,
    "prime_product": _PrimeProductStream,
}


def domain_stream(spec: MachineSpec) -> DomainStream:
    """Build the enumeration stream for a validated machine description."""
    validate_spec(spec)
    if isinstance(spec, FiniteTable):
        return _FiniteStream(spec.indices)
    if isinstance(spec, Builtin):
        return _GENERATORS[spec.generator](spec)
    return _CONSTRUCTIONS[spec.kind](spec)


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
        m, m_hi, x = pow2_dyadic(-s.numerator * key, s.denominator, _TERM_PREC)
        lo = dyadic(m, x)
        return lo, lo if m == m_hi else dyadic(m_hi, x)
    if s.denominator == 1:
        check_power(key, s.numerator)
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
      as the omega kind does for the strings of one length it takes. On the
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
    - add_roots(keys, a, b) adds 2^p/(r + 1) <= key^(-a/b) <= 2^p/r for a
      block of keys, r one certified root each, as the zeta kind does at
      s = a/b; exact mode takes the integers unreduced, a key at a time, and
      the grid one floor and one ceiling division per key, summed in one pass.

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
        check_power(max(keys, default=1), k)
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

    def add_roots(self, keys: Sequence[int], a: int, b: int) -> None:
        """Add key^(-a/b) for each key >= 1 from r = floor(2^p key^(a/b)) >=
        2^p, p = _TERM_PREC + 4. On the grid a key past the cut has key^(a/b)
        > 2^_ACC_BITS: its term floors to 0 and ceils to 1 unit, which goes in
        with no root. In exact mode, where every sum starts, inverse_root
        checks the root and power caps; past it the root cap holds, as b is
        the same, and a key below the cut has floor(log2 key) <= _ACC_BITS b,
        under the power cap."""
        p, i = _TERM_PREC + 4, 0
        while self.exact and i < len(keys):
            p, r = inverse_root(keys[i], 1, a, b, _TERM_PREC)
            self._add_exact(1 << p, r + 1, 1 << p, r)
            i += 1
        one, cut = 1 << (p + _ACC_BITS), 1 << (_ACC_BITS * b // a + 1)
        lo = hi = 0
        for key in keys[i:]:
            if key >= cut:
                hi += 1
            else:
                r = _scaled_root(key ** a, 1, b, p)
                lo += one // (r + 1)
                hi -= -one // r
        self.lo_i += lo
        self.hi_i += hi

    @property
    def lo(self) -> Fraction:
        return Fraction(self.ln, self.ld) if self.exact else Fraction(self.lo_i, _ACC_ONE)

    @property
    def hi_pair(self) -> tuple[int, int]:
        """(num, den) with hi == num/den, unreduced: hi_i over _ACC_ONE on
        the grid, the exact upper (or lower) sum's integers before."""
        if not self.exact:
            return self.hi_i, _ACC_ONE
        return (self.ln, self.ld) if self.hn is None else (self.hn, self.hd)

    @property
    def hi(self) -> Fraction:
        return Fraction(*self.hi_pair)


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
    lengths it completed, how many strings it took and why it stopped.

    reach() keeps each completed length's upper sum as the accumulator's
    integers (hi_pair). report() forms each candidate (the total, then the
    bracket or the lengths ascending) as one unreduced integer pair, keeps
    the least by cross multiplication and reduces only the winner, n/d + tail."""

    def __init__(self, stream: DomainStream, kind: str, s: Fraction, budget: int):
        self.kind, self.s = kind, s
        self.acc = _IntervalAcc()
        # (ell, num, den), num/den the upper sum over the strings of length
        # <= ell, for every length ell >= 0 the enumeration has completed;
        # past length -1, the tail is the stream's total_upper
        self.complete: list[tuple[int, int, int]] = []
        self.consumed = 0
        self.stop = "budget"
        self.length = 0  # the length reach() last noted
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

    def reach(self, length: int) -> bool:
        """Note that every string shorter than length was read; False when
        the sum stops on the grid there."""
        self.length = length
        if length:
            self.complete.append((length - 1, *self.acc.hi_pair))
            if self.stop_len is not None and length >= self.stop_len:
                self.stop = "grid"
                return False
        return True

    def take(self, block: Sequence[int]) -> bool:
        """Add the leading keys of block, all of the length last reached, up
        to the limit; False once the limit is reached. The omega kind reads
        only len(block)."""
        n = min(len(block), self.limit - self.consumed)
        if n and self.kind == "omega":  # its weights depend on the length alone
            self.acc.add(*_weight_interval(self.length, self.s, "omega"), n)
        elif n:
            block = block[:n] if n < len(block) else block
            if self.k:
                self.acc.add_inverses(block, self.k)
            else:
                self.acc.add_roots(block, self.s.numerator, self.s.denominator)
        self.consumed += n
        return self.consumed < self.limit

    def report(self, stream: DomainStream) -> SumReport:
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
        # budget. A bracketed tail narrows with each string up to limit
        # instead. A later candidate wins only when strictly less, so ties go
        # to the first; bn/bd = 1/0 is infinity, and the winner alone is reduced
        total = stream.total_upper(s, kind)
        upper, bn, bd = (None, 1, 0) if total is None else ("total", *total.as_integer_ratio())
        if self.tail_at is not None:
            tail = self.tail_at(self.consumed)
            lo += tail.lo
            sums = [("bracket", *acc.hi_pair, tail.hi)]
        else:
            sums = ((ell, n, d, _tail_upper(stream, ell, s, kind)) for ell, n, d in self.complete)
        win = None
        for name, n, d, tail in sums:
            if tail is not None:
                tn, td = tail.as_integer_ratio()
                cn, cd = n * td + tn * d, d * td
                if cn * bd < bn * cd:
                    upper, bn, bd, win = name, cn, cd, (n, d, tail)
        hi = total if win is None else Fraction(win[0], win[1]) + win[2]
        return SumReport(Enclosure(lo, hi), self.consumed, self.stop, upper, exact_terms)


def weighted_domain_sums(
    spec: MachineSpec, requests: list[tuple[str, Fraction]], budget: int
) -> list[SumReport]:
    """Certified enclosures of several (kind, s) weight sums, each equal to
    its own weighted_domain_sum, from one enumeration of the domain.

    The stream's lengths() are read in order. Each request first notes the
    new length, where it may stop on the grid; then the length's strings are
    pulled, in blocks of at most _BLOCK, up to the most that a request still
    running can take, so no index is read that the longest of the separate
    sums would not read. Where every request still running is of the
    omega kind and the group is sized, they take its len and read none of it.
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
    groups = stream.lengths()
    rest, block = iter(()), []  # rest: the unread part of the last group
    try:
        for length, group in groups if live else ():  # at budget 0 nothing is pulled
            live = [r for r in live if r.reach(length)]
            if hasattr(group, "__len__") and all(r.kind == "omega" for r in live):
                want = max((r.limit - r.consumed for r in live), default=0)
                # a probe asks only whether the group holds more than want
                rest = iter(group if len(group) > want else ())
                live = [r for r in live if r.take(group)]
            else:
                rest = iter(group)
                while live:
                    want = min(max(r.limit - r.consumed for r in live), _BLOCK)
                    # extend keeps the strings yielded before a StreamCut
                    block.extend(itertools.islice(rest, want))
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
                    probe = next(rest, None) is None and next(groups, None) is None
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
    enclosure: Enclosure
    witness: str

    @property
    def certified(self) -> bool:
        return self.kind != "unknown"


@dataclass(frozen=True)
class Classification:
    zeta: Verdict
    omega: Verdict


def _is_all_strings(spec: MachineSpec) -> bool:
    return isinstance(spec, Builtin) and spec.generator == "all_strings"


def _threshold_verdict(enc: Enclosure, series: str) -> Verdict:
    if enc.hi is not None and enc.hi <= 1:
        kind, note = "tuatara", f"certified <= 1 (upper bound {frac_text(enc.hi)})"
    elif enc.hi is not None and enc.lo > 1:
        kind, note = "convergent", f"certified finite and > 1 (lower bound {frac_text(enc.lo)})"
    elif enc.hi is not None:
        kind, note = "convergent", (
            f"certified finite; the unit threshold lies inside "
            f"[{frac_text(enc.lo)}, {frac_text(enc.hi)}] and stays unresolved at this budget"
        )
    elif enc.lo > 1:
        kind, note = "unknown", "exceeds 1 but finiteness is not certified"
    else:
        kind, note = "unknown", "not separated from the unit threshold at this budget"
    return Verdict(kind, enc, f"{series} sum {note}")


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
                Enclosure(zeta_enc.lo, None),
                "index sum over every string is the harmonic series",
            ),
            omega=Verdict(
                "divergent",
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
