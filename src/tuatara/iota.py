"""The one-combinator calculus over the binary alphabet.

Programs follow the grammar L = 0 | 1 L L, so "0" is the single combinator
iota and "1" marks an application. Semantics are given by translation into
S and K: iota x rewrites to x S K, and the usual rules S x y z -> x z (y z),
K x y -> x apply. Reduction is normal order (leftmost outermost) under
explicit step and size budgets; running out of budget is an ordinary result,
not an exception. One kernel applies the rules, reducing a term to weak
head normal form: a stuck head atom and its unreduced arguments. It keeps
the pending arguments on a stack and its step, size and peak size counts in
locals, so a step builds at most one new cell. Full normalization
head-reduces and then normalizes each argument; the list decoder needs only
heads and stops there.

The parser reads a program once, left to right, and builds one shared cell
per distinct subprogram (hash-consing), so a combinator spelling that a
program repeats is a single object. A subprogram of at least 32 bits that
it builds a second time is remembered by its spelling, keyed by its first
32 bits, up to as many characters in all as the input has; where such a
spelling starts again, at a '1', the parser takes its cell and jumps past
its bits. This is exact, since programs form a prefix code: the subterm
that starts there is the one program the bits begin with. So past its
second element an encoded list is read a few bits per element: the
pairing spelling is jumped over, and only the boolean and the list's own
applications are read.

The first time a shared cell reaches head position, the kernel head-reduces
it alone, in a nested run on the budgets left, and the cell keeps what that
run found: the stuck head and its arguments, the step count k, the size
change d and the largest rise p above the cell's own size. Later visits
jump over those k steps when the step budget has k steps to spare and the
size budget room for the rise p; otherwise the cell is unwound like any
other. This is exact: a cell that reduces alone in k steps takes the same
k steps under any arguments, since normal order fires the head redex, and
the arguments only add a constant to every size. So step counts, sizes,
budget stops and their kinds are those of plain stepping, whatever the
budgets, and no step runs that plain stepping would not run. Nested runs
stop nesting at a fixed depth, past which a cell without facts is unwound.

Valid programs of length 2n-1 are counted by the Catalan number C_{n-1},
and the prefix code they form carries total weight
sum_n C_{n-1} 2^-(2n-1) = 1, with the partial sum through n falling short
of 1 by exactly binom(2n, n) 4^-n. The programs of each length are kept in
one table keyed by index, int("1" + w, 2): the ascending indices, and the
parsed terms in the same order, built as walks reach them, each one plain
cell (facts would last as long as the tables) over the cached terms of its
two subprograms. A term is never rewritten by reduction, and reduce is a
function of the term and the two budgets alone, so each program's outcome
under a budget pair is kept once per process, exactly: one byte, halted or
stopped, in the order of the table and as far as a walk has reached; 100 KB
for the 100,000 programs a default sum examines, where normal forms would
take tens of MB. The iota stream and the iota machine's searches read it
through one walk, which reduces a program only to learn its outcome or, in
a search, the normal form of a program that halts.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice, repeat
from math import comb, inf
from typing import Iterator, Sequence

from .binstr import bin_of, validate_bits
from .numerics import Enclosure, catalan

DEFAULT_STEP_BUDGET = 10 ** 5
DEFAULT_SIZE_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# terms


class Atom:
    """Inert leaf: one of the combinators, or a fresh probe mark."""

    __slots__ = ("name",)
    size = 1

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


class App:
    """Application cell with a cached node count."""

    __slots__ = ("f", "x", "size")

    def __init__(self, f: "Term", x: "Term"):
        self.f = f
        self.x = x
        self.size = f.size + x.size + 1

    def __repr__(self) -> str:
        # a work stack of cells and literal text, so deep terms cannot
        # exhaust the interpreter's recursion limit
        out: list[str] = []
        todo: list[Term | str] = [self]
        while todo:
            u = todo.pop()
            if isinstance(u, App):
                out.append("(")
                todo += (")", u.x, " ", u.f)
            else:
                out.append(u if isinstance(u, str) else u.name)
        return "".join(out)


class Cell(App):
    """Application cell built by parse, one per distinct subprogram.

    facts is None until the kernel has head-reduced the cell alone, then
    (head, stack, k, d, p): the stuck head, its arguments in stack order
    (first on top), the steps taken, the size change and the peak rise.
    """

    __slots__ = ("facts",)

    def __init__(self, f: "Term", x: "Term"):
        # App.__init__ inlined: parse builds one cell per new subprogram
        self.f = f
        self.x = x
        self.size = f.size + x.size + 1
        self.facts = None


Term = Atom | App

IOTA = Atom("i")
S = Atom("S")
K = Atom("K")


def size_of(t: Term) -> int:
    return t.size


def term_eq(a: Term, b: Term) -> bool:
    """Structural equality; atoms compare by identity."""
    todo = [(a, b)]
    while todo:
        u, v = todo.pop()
        if u is v:
            continue
        if isinstance(u, App) and isinstance(v, App):
            if u.size != v.size:
                return False
            todo.append((u.f, v.f))
            todo.append((u.x, v.x))
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# parsing and printing


class ParseFailure(ValueError):
    """Base class for the two ways a bit string can fail the grammar."""


class Incomplete(ParseFailure):
    """String ended with subterms still open; `missing` counts them."""

    def __init__(self, missing: int):
        self.missing = missing
        super().__init__(f"input ended with {missing} subterm(s) still open")


class TrailingBits(ParseFailure):
    """A complete program ended before the string did; `consumed` is its length."""

    def __init__(self, consumed: int):
        self.consumed = consumed
        super().__init__(f"complete program after {consumed} bit(s), trailing input")


def _clean(bits: str) -> str:
    out = "".join(bits.split())
    if out.count("0") + out.count("1") != len(out):
        raise ValueError(f"program text must be 0s and 1s: {bits!r}")
    return out


# a subprogram of at least this many bits that parse builds a second time is
# remembered, keyed by its first _SKIP_BITS bits, and skipped from then on
_SKIP_BITS = 32


def parse(bits: str) -> Term:
    """Parse a program, ignoring whitespace. Raises Incomplete or TrailingBits.

    One left-to-right scan: a '1' opens an application, and each finished
    subterm is the function of the innermost open one or, once it has that,
    its argument, which finishes it as the one cell over the pair; the
    children are shared already, so the pair of objects names the
    subprogram. Spellings built twice are jumped over (see the module).
    """
    s = _clean(bits)
    n = len(s)
    # the open applications, innermost last: None until the function is
    # finished, then the function, waiting for its argument
    stack: list[Term | None] = []
    push, pop = stack.append, stack.pop
    cells: dict[tuple[Term, Term], Cell] = {}
    # spellings of subprograms built twice, the first for each prefix, n
    # characters at most in all
    seen: dict[str, tuple[str, Cell]] = {}
    room = n
    it = iter(s)
    left = it.__length_hint__  # exact for a string: the bits not yet read
    try:
        for c in it:
            if c == "0":
                t = IOTA
            elif not seen:
                push(None)
                continue
            else:
                at = n - left() - 1
                hit = seen.get(s[at : at + _SKIP_BITS])
                if hit is None or not s.startswith(hit[0], at):
                    push(None)
                    continue
                spelling, t = hit
                next(islice(it, len(spelling) - 2, None))
            # t is finished; an empty stack (IndexError) means t is the program
            while (f := stack[-1]) is not None:
                pop()
                key = f, t
                t = cells.get(key)
                if t is None:
                    t = cells[key] = Cell(*key)
                elif _SKIP_BITS <= t.size <= room:
                    # a program has as many bits as nodes
                    end = n - left()
                    start = end - t.size
                    prefix = s[start : start + _SKIP_BITS]
                    if prefix not in seen:
                        seen[prefix] = s[start:end], t
                        room -= t.size
            stack[-1] = t
    except IndexError:
        if left():
            raise TrailingBits(n - left()) from None
        return t
    raise Incomplete(1 + s.count("1") - s.count("0"))


def is_program(bits: str) -> bool:
    """Whether bits, whitespace ignored, spell one whole program: the count of
    subterms owed starts at 1, each 1 adds one, and each 0 settles one."""
    need = 1
    for c in _clean(bits):
        if not need:
            return False  # a whole program, then trailing bits
        need += 1 if c == "1" else -1
    return not need


_SPELLINGS = {"i": "0", "K": "1010100", "S": "101010100"}
# the K and S spellings are programs that reduce to the bare combinators,
# so unparse . parse is the identity on meaning even after reduction


def unparse(t: Term) -> str:
    """Render a term back to program bits; probe marks are not renderable."""
    out: list[str] = []
    todo: list[Term] = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, App):
            out.append("1")
            todo.append(u.x)
            todo.append(u.f)
        else:
            spelling = _SPELLINGS.get(u.name)
            if spelling is None:
                raise ValueError(f"term contains a non-renderable atom: {u.name}")
            out.append(spelling)
    return "".join(out)


def count_programs(length: int) -> int:
    """Number of valid programs with exactly `length` bits."""
    if length < 1 or length % 2 == 0:
        return 0
    return catalan((length - 1) // 2)


# the program tables, one per odd length: the indices int("1" + w, 2) in
# ascending order, and the parsed terms in the same order; an index of a
# length below 64 fits an unsigned 64-bit entry, and no longer table fits in
# memory (C_31 programs have 63 bits)
_INDICES: dict[int, array] = {1: array("Q", (2,))}
# the terms built so far, and (bits left-aligned, |a|, k) for each first
# subprogram a whose block of terms is not built yet, in lex order
_TERMS: dict[int, tuple[list[Term], Iterator[tuple[int, int, int]]]] = {1: ([IOTA], iter(()))}


def program_indices(length: int) -> Sequence[int]:
    """Ascending indices of the programs of the given bit length.

    The program 1 a b has index ((ia + 2^(|a|+1)) << |b|) + ib - 2^|b| for
    the indices ia and ib of a and b, so each length is built from shorter
    tables by index arithmetic alone. Ascending index order is lex order.
    The table returned is the cached one, to be read and not changed.
    """
    if length < 1 or length % 2 == 0:
        return array("Q")
    got = _INDICES.get(length)
    if got is None:
        got = _INDICES[length] = array("Q", sorted(
            ((ia + (2 << na)) << nb) + ib - (1 << nb)
            for na in range(1, length - 1, 2)
            for nb in (length - 1 - na,)
            for ia in program_indices(na)
            for ib in program_indices(nb)
        ))
    return got


def _terms(length: int, k: float) -> list[Term]:
    """The cached terms of an odd length, built out until they hold term k
    or all of them. Programs form a prefix code, so the programs 1 a b that
    share a first subprogram a are contiguous in lex order, ordered by b; the
    list grows by such blocks, the a's compared on their bits left-aligned.
    """
    if length not in _TERMS:
        runs = (
            zip(map(int.__lshift__, program_indices(na), repeat(length - na)), repeat(na), count())
            for na in range(1, length - 1, 2)
        )
        _TERMS[length] = [], heapq.merge(*runs)
    terms, blocks = _TERMS[length]
    if len(terms) <= k:
        for _, na, j in blocks:
            terms += map(partial(App, _terms(na, j)[j]), _terms(length - 1 - na, inf))
            if len(terms) > k:
                break
    return terms


def program_terms(length: int) -> tuple[Term, ...]:
    """The terms of program_indices(length), in the same order; the term of
    1 a b is one App over the cached terms of a and b."""
    if length < 1 or length % 2 == 0:
        return ()
    return tuple(_terms(length, inf))


def words_of_length(length: int) -> tuple[str, ...]:
    """All valid programs of the given bit length, lexicographically sorted."""
    return tuple(map(bin_of, program_indices(length)))


# ---------------------------------------------------------------------------
# reduction


@dataclass(frozen=True)
class ReduceResult:
    """Outcome of a budgeted normalization.

    status is "normal" with the normal form in `term`, or "steps" / "size"
    naming the budget that ran out, with `term` unset. peak is the largest
    size the term reached, the size that broke the size budget included.
    """

    status: str
    steps: int
    peak: int
    term: Term | None = None

    @property
    def halted(self) -> bool:
        return self.status == "normal"


class _BudgetStop(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class _Meter:
    """Shared step, size and peak size accounting for one reduction session."""

    __slots__ = ("steps", "size", "peak", "step_budget", "size_budget")

    def __init__(self, size: int, step_budget: int, size_budget: int):
        self.steps = 0
        self.size = self.peak = size
        self.step_budget = step_budget
        self.size_budget = size_budget


# nested runs that record a shared cell's facts stop nesting at this depth;
# a deeper cell without facts is stepped through like a plain cell
_FACT_DEPTH = 40


def _whnf(t: Term, meter: _Meter, depth: int = 0) -> tuple[Term, list[Term]]:
    """Normal-order head reduction: the stuck head atom and its arguments.

    The head is a probe mark, or a combinator applied to too few arguments
    to fire; the arguments are left unreduced, in application order. They
    wait on a stack, the first on top, so a rule rewrites the head and the
    stack in place: iota x pushes K and S and goes on at x, K x y drops y,
    and S x y z builds only the cell y z. Each step counts in locals and
    tests the step budget before the size budget; the counts go back to the
    meter on every exit.

    The size budget is tested only when a step sets a new peak: the peak
    starts at most at the budget, so a size above the budget is always a
    new peak. A shared cell in head position jumps over the k steps of its
    facts when they fit the budgets left, and otherwise is unwound as a
    plain cell; facts not yet known are found first (see _cell_facts).
    """
    args: list[Term] = []
    push, pop = args.append, args.pop
    steps, size = meter.steps, meter.size
    step_budget, size_budget = meter.step_budget, meter.size_budget
    peak = min(max(meter.peak, size), size_budget)
    while True:
        while type(t) is App:
            push(t.x)
            t = t.f
        if t is IOTA and args:
            t = pop()
            args += (K, S)
            delta = 2
        elif t is K and len(args) >= 2:
            t = pop()
            delta = -(pop().size + 3)
        elif t is S and len(args) >= 3:
            t, y, z = pop(), pop(), pop()
            args += (App(y, z), z)
            delta = z.size - 1
        elif type(t) is Cell:
            facts = t.facts
            if facts is None and depth < _FACT_DEPTH:
                meter.steps, meter.size, meter.peak = steps, size, peak
                facts = _cell_facts(t, meter, depth)
            if facts and steps + facts[2] <= step_budget and size + facts[4] <= size_budget:
                t, stack, k, d, p = facts
                args += stack
                steps += k
                if size + p > peak:
                    peak = size + p
                size += d
            else:
                push(t.x)
                t = t.f
            continue
        else:
            meter.steps, meter.size, meter.peak = steps, size, peak
            return t, args[::-1]
        steps += 1
        if steps > step_budget:
            meter.steps, meter.size, meter.peak = steps, size, peak
            raise _BudgetStop("steps")
        size += delta
        if size > peak:
            peak = size
            if size > size_budget:
                meter.steps, meter.size, meter.peak = steps, size, peak
                raise _BudgetStop("size")


def _cell_facts(c: Cell, meter: _Meter, depth: int):
    """Head-reduce the shared cell c alone and record its facts on it.

    The meter holds the counts at the moment c reached head position inside
    a term of size meter.size. The nested run gets the steps left and the
    size budget less the rest of the term, so it stops exactly where plain
    stepping through c would; such a stop is passed on with the meter set to
    the counts plain stepping would show, and c keeps no facts. While the
    run goes on, c itself is marked False so that the run steps through it.
    """
    rest = meter.size - c.size
    sub = _Meter(c.size, meter.step_budget - meter.steps, meter.size_budget - rest)
    c.facts = False
    try:
        head, args = _whnf(c, sub, depth + 1)
    except _BudgetStop:
        c.facts = None
        meter.steps += sub.steps
        meter.size = rest + sub.size
        meter.peak = max(meter.peak, rest + sub.peak)
        raise
    c.facts = (head, tuple(reversed(args)), sub.steps, sub.size - c.size, sub.peak - c.size)
    return c.facts


def _normalize(root: Term, meter: _Meter) -> Term:
    """Full normal-order normalization: head-reduce, then each argument in turn.

    The work stack holds terms still to normalize and, below their
    arguments, the count of arguments to re-apply to a finished head.
    """
    done: list[Term] = []
    todo: list[Term | int] = [root]
    while todo:
        job = todo.pop()
        if isinstance(job, int):
            args = done[len(done) - job :]
            del done[len(done) - job :]
            head = done.pop()
            for a in args:
                head = App(head, a)
            done.append(head)
            continue
        head, args = _whnf(job, meter)
        done.append(head)
        if args:
            todo.append(len(args))
            todo.extend(reversed(args))
    return done[0]


def reduce(
    t: Term,
    step_budget: int = DEFAULT_STEP_BUDGET,
    size_budget: int = DEFAULT_SIZE_BUDGET,
) -> ReduceResult:
    """Normalize t under budgets; exhaustion is reported, never raised."""
    if t.size > size_budget:
        return ReduceResult("size", 0, t.size)
    meter = _Meter(t.size, step_budget, size_budget)
    try:
        nf = _normalize(t, meter)
    except _BudgetStop as stop:
        return ReduceResult(stop.kind, meter.steps, meter.peak)
    return ReduceResult("normal", meter.steps, meter.peak, nf)


def run_program(
    bits: str,
    step_budget: int = DEFAULT_STEP_BUDGET,
    size_budget: int = DEFAULT_SIZE_BUDGET,
) -> ReduceResult:
    """Parse and normalize program bits."""
    return reduce(parse(bits), step_budget, size_budget)


class ExamineLimit(Exception):
    """A walk examined its limit of programs with programs left."""


# per (length, step budget, size budget), one byte per program in index
# order, as far as a walk has reached: 1 if it halts, 0 if a budget stops it
_HALTS: dict[tuple[int, int, int], bytearray] = {}


def halting_programs(
    step_budget: int, size_budget: int, limit: int | None = None, last: int | None = None,
    forms: bool = False,
) -> Iterator[tuple[int, Term | None]]:
    """(index, normal form) for each program of index at most last that halts
    under the budgets, in ascending order. A program is reduced only when
    _HALTS lacks its outcome, or, with forms set, when it halts; otherwise
    its form is None. Raises ExamineLimit before a program past the first
    limit."""
    examined = 0
    # a program has as many nodes as bits: reduce refuses one past the size budget
    top = size_budget if last is None else min(last.bit_length() - 1, size_budget)
    for length in range(1, top + 1, 2):
        known = _HALTS.setdefault((length, step_budget, size_budget), bytearray())
        for k, n in enumerate(program_indices(length)):
            if last is not None and n > last:
                return
            if examined == limit:
                raise ExamineLimit
            examined += 1
            form = None
            if k == len(known) or forms and known[k]:
                r = reduce(_terms(length, k)[k], step_budget, size_budget)
                known[k : k + 1] = (r.halted,)  # appended, or the same flag again
                form = r.term
            if known[k]:
                yield n, form


# ---------------------------------------------------------------------------
# canonical constants


def _app_bits(f: str, x: str) -> str:
    return "1" + f + x


def _build_pairing() -> str:
    """Pairing combinator P with P x y z ->* z x y, as program bits.

    Bracket abstraction of the selector lambda:
      P = S (S (KS) (S (KK) (S (KS) (S (K (S I)) K)))) (K K)
    so that P x = S (K (S (S I (K x)))) K, P x y = S (S I (K x)) (K y),
    and P x y z -> z x y. Applying the pair to K selects x, applying it
    to S K selects y.
    """
    k = _SPELLINGS["K"]
    s = _SPELLINGS["S"]
    i = "100"  # iota iota, extensionally the identity
    ks = _app_bits(k, s)
    kk = _app_bits(k, k)
    si = _app_bits(s, i)
    inner = _app_bits(_app_bits(s, _app_bits(k, si)), k)
    lvl3 = _app_bits(_app_bits(s, ks), inner)
    lvl2 = _app_bits(_app_bits(s, kk), lvl3)
    lvl1 = _app_bits(_app_bits(s, ks), lvl2)
    return _app_bits(_app_bits(s, lvl1), kk)


@dataclass(frozen=True)
class Constants:
    """Program spellings of the false/true selectors and the pairing combinator."""

    F: str
    T: str
    P: str


_CONSTANTS = Constants(F="1010100", T="10100", P=_build_pairing())


def iota_constants() -> Constants:
    return _CONSTANTS


def selector_check(
    x: Term,
    y: Term,
    step_budget: int = 10 ** 4,
    size_budget: int = DEFAULT_SIZE_BUDGET,
) -> bool:
    """True when the pair built from x and y yields x under F and y under T."""
    c = iota_constants()
    pair = App(App(parse(c.P), x), y)
    for probe, want in ((parse(c.F), x), (parse(c.T), y)):
        r = reduce(App(pair, probe), step_budget, size_budget)
        if not r.halted or not term_eq(r.term, want):
            return False
    return True


# ---------------------------------------------------------------------------
# bit list codec


class MalformedList(ValueError):
    """Decoded term is not a proper list of booleans."""


class DecodeBudget(Exception):
    """Decoding ran out of reduction budget before the list shape settled."""


def encode_bits(w: str) -> str:
    """Program bits for the boolean list holding the bits of w.

    The empty list is F; a cons cell applies the pairing combinator to the
    bit (F for 0, T for 1) and the encoded tail. F is the longer bit
    spelling, so |encode(w)| <= (2 + |P| + |F|) * |w| + |F|. Spelled out,
    the list is the pieces "11" + P + bit, one per bit of w, and then F,
    so the output is one join, in time linear in |w|.
    """
    validate_bits(w)
    c = iota_constants()
    piece = {"0": "11" + c.P + c.F, "1": "11" + c.P + c.T}
    return "".join(map(piece.__getitem__, w)) + c.F


def decode_bits(
    bits: str,
    step_budget: int = DEFAULT_STEP_BUDGET,
    size_budget: int = DEFAULT_SIZE_BUDGET,
) -> str:
    """Inverse of encode_bits up to reduction, for any term of list shape.

    Each node is applied to two fresh marks and head-reduced: the empty list
    gives the bare first mark, a cons cell the first mark applied to head,
    tail and second mark. The head is read by behaviour (F m n -> m,
    T m n -> n), and the tail is probed without being reduced first. A weak
    head normal form has the head and argument count of the normal form, so
    wherever full normalization settles, the list or MalformedList is the
    same; as the rest of the list and discarded parts are never normalized,
    an input on which full normalization exhausts the budget may decode
    here. step_budget caps the steps of all probes together.

    The parsed list is built from shared cells, so the spellings of the
    pairing combinator and of each boolean that every element repeats are
    one cell each. Their head reductions are found on the first probe that
    needs them and jumped over on every later one; the steps still count,
    so the total, and where a budget stops the decode, are those of plain
    stepping under every budget.
    """
    t = parse(bits)
    meter = _Meter(0, step_budget, size_budget)
    out: list[str] = []
    probe_a, probe_b = Atom("a"), Atom("b")
    mark_f, mark_t = Atom("f"), Atom("t")

    def head_of(term: Term) -> tuple[Term, list[Term]]:
        meter.size = term.size
        try:
            return _whnf(term, meter)
        except _BudgetStop as stop:
            raise DecodeBudget(stop.kind) from None

    while True:
        head, args = head_of(App(App(t, probe_a), probe_b))
        if head is probe_a and not args:
            return "".join(out)
        if head is not probe_a or len(args) != 3:
            raise MalformedList("node is neither the empty list nor a cons cell")
        element, t, last = args
        if head_of(last) != (probe_b, []):
            raise MalformedList("cons probe did not pass through")
        picked = head_of(App(App(element, mark_f), mark_t))
        if picked == (mark_f, []):
            out.append("0")
        elif picked == (mark_t, []):
            out.append("1")
        else:
            raise MalformedList("list element is not a boolean")


# ---------------------------------------------------------------------------
# syntactic weight series


def program_tail_weight(n: int) -> Fraction:
    """The weight sum_{m>n} C_{m-1} 2^-(2m-1) of the programs longer than
    2n-1 bits, binom(2n, n) 4^-n by the module's identity."""
    return Fraction(comb(2 * n, n), 4 ** n)


def iota_zeta_partial(n: int) -> Enclosure:
    """Enclosure of the total program-length weight from the first n sizes.

    lo is sum_{m<=n} C_{m-1} 2^-(2m-1), the full weight 1 less the tail
    past size n; the exact tail brings hi to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Enclosure(1 - program_tail_weight(n), Fraction(1))
