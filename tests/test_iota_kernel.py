"""Differential tests of the reduction kernel and the program parser.

The reference kernel kept here is the earlier spine form of `_whnf`: it
walks a term down its application cells, builds the cells each rule's
right-hand side names, and charges every step through its own copy of the
meter's `spend`, which also keeps the peak size. It knows nothing of shared
cells and steps through them. The reference parser counts open subterms in
a Python loop and then builds a plain term right to left; the parser's
memory bound compares it with the build of the library's former two-pass
parser, one shared cell per distinct subprogram. The library's
argument-stack kernel, with the jumps its shared cells allow, its one-scan
parser, with the jumps over spellings it has built twice, and the
complexity search's program filter must agree with them on every head,
argument, step count, size count, peak size, output and error.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
import tracemalloc
from unittest import mock

import pytest

from tuatara import iota
from tuatara.complexity import ExecutableMachine
from tuatara.iota import (
    IOTA,
    App,
    Atom,
    Cell,
    DecodeBudget,
    Incomplete,
    K,
    ParseFailure,
    S,
    TrailingBits,
    _BudgetStop,
    _Meter,
    encode_bits,
    term_eq,
)
from tuatara.machines import Builtin

# the kernel is replaced by the reference in some tests, so no outcome a
# walk records may reach or leave the table across them
pytestmark = pytest.mark.usefixtures("fresh_outcomes")

_PROBES = (Atom("p"), Atom("q"))


def _spend(meter: _Meter, delta: int) -> None:
    meter.steps += 1
    if meter.steps > meter.step_budget:
        raise _BudgetStop("steps")
    meter.size += delta
    meter.peak = max(meter.peak, meter.size)
    if meter.size > meter.size_budget:
        raise _BudgetStop("size")


def _spine_whnf(t, meter):
    spine = []
    while True:
        while isinstance(t, App):
            spine.append(t)
            t = t.f
        if t is IOTA and spine:
            x = spine.pop().x
            t = App(App(x, S), K)
            _spend(meter, 2)
        elif t is K and len(spine) >= 2:
            x = spine.pop().x
            y = spine.pop().x
            _spend(meter, -(y.size + 3))
            t = x
        elif t is S and len(spine) >= 3:
            x = spine.pop().x
            y = spine.pop().x
            z = spine.pop().x
            _spend(meter, z.size - 1)
            t = App(App(x, z), App(y, z))
        else:
            return t, [a.x for a in reversed(spine)]


def _two_pass_parse(bits: str):
    s = "".join(bits.split())
    if any(c not in "01" for c in s):
        raise ValueError(f"program text must be 0s and 1s: {bits!r}")
    if not s:
        raise Incomplete(1)
    need = 1
    for pos, c in enumerate(s):
        need += 1 if c == "1" else -1
        if need == 0:
            if pos != len(s) - 1:
                raise TrailingBits(pos + 1)
            break
    if need > 0:
        raise Incomplete(need)
    stack = []
    for c in reversed(s):
        if c == "0":
            stack.append(IOTA)
        else:
            f = stack.pop()
            x = stack.pop()
            stack.append(App(f, x))
    return stack[0]


def _shared_build(s: str):
    # the two-pass parser's build, right to left with one cell per distinct
    # pair, for the memory it took
    stack, cells = [], {}
    for c in reversed(s):
        if c == "0":
            stack.append(IOTA)
        else:
            key = stack.pop(), stack.pop()
            if key not in cells:
                cells[key] = Cell(*key)
            stack.append(cells[key])
    return stack[0]


def _outcome(fn, *args):
    """A call's value, or its exception's class, message and attributes."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is compared
        return "raised", (type(exc), str(exc), getattr(exc, "missing", None),
                          getattr(exc, "consumed", None), getattr(exc, "kind", None))


def _same(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "raised":
        return a[1] == b[1]
    u, v = a[1], b[1]
    if isinstance(u, (App, Atom)):
        return term_eq(u, v)
    return u == v


def _whnf_outcome(kernel, t, steps, sizes, start):
    # the peak is the largest size reached from a start within the size
    # budget; from a start above it, the kernel keeps no peak to compare
    meter = _Meter(start, steps, sizes)
    try:
        head, args = kernel(t, meter)
    except _BudgetStop as stop:
        out = ("stop", stop.kind, meter.steps, meter.size)
    else:
        out = ("stuck", head, args, meter.steps, meter.size)
    return out + ((meter.peak,) if start <= sizes else ())


def _agree(t, steps, sizes, start):
    ref = _whnf_outcome(_spine_whnf, t, steps, sizes, start)
    got = _whnf_outcome(iota._whnf, t, steps, sizes, start)
    assert got[0] == ref[0]
    if ref[0] == "stop":
        assert got == ref
        return ref
    assert got[1] is ref[1]
    assert len(got[2]) == len(ref[2])
    assert all(term_eq(a, b) for a, b in zip(got[2], ref[2]))
    assert got[3:] == ref[3:]
    return ref


def test_whnf_meter_on_every_small_budget():
    # S (K i) i (i i) takes iota, K and S steps that grow and shrink the term
    t = App(App(App(S, App(K, IOTA)), IOTA), App(IOTA, IOTA))
    for steps, sizes in itertools.product(range(12), range(t.size - 1, t.size + 12)):
        _agree(t, steps, sizes, t.size)


def _with_kernel(kernel, fn, *args):
    with mock.patch.object(iota, "_whnf", kernel):
        return _outcome(fn, *args)


def _differs(fn, *args):
    return not _same(_with_kernel(_spine_whnf, fn, *args), _with_kernel(iota._whnf, fn, *args))


def _reduced(t, steps, sizes):
    # a ReduceResult as status, steps, peak size and the normal form's text
    r = iota.reduce(t, steps, sizes)
    return r.status, r.steps, r.peak, None if r.term is None else repr(r.term)


def _parent_run(machine, w):
    if w.strip("01"):
        return None  # the domain holds bit strings only, as a table's does
    try:
        term = _two_pass_parse(w)
    except ParseFailure:
        return None
    with mock.patch.object(iota, "_whnf", _spine_whnf):
        r = iota.reduce(term, machine._steps, machine._sizes)
    return iota.unparse(r.term) if r.halted else None


_SAMPLES = (
    "", " ", "\n", "0 ", " 0", "1 00", "10\t0", "1 0 0 0", "0 1", "2", "0 2",
    "12", "1a0", "100 x", "１00", "11000\n", "1 1 0 0 0",
)


@pytest.mark.parametrize("budgets", [(50, 200), (2000, 10 ** 4)])
def test_iota_machine_run_matches_on_short_strings(budgets):
    machine = ExecutableMachine(Builtin("iota", (), *budgets))
    words = ["".join(p) for n in range(13) for p in itertools.product("01", repeat=n)]
    for w in words + list(_SAMPLES):
        assert _same(_outcome(machine.run, w), _outcome(_parent_run, machine, w)), w


def test_deep_shared_cells_step_through_past_the_nesting_cap():
    # combs nest one facts run per level until the cap, then step plainly
    n = 3 * iota._FACT_DEPTH
    for bits in ("1" * n + "0" * (n + 1), "10" * n + "0"):
        for steps in range(0, 4 * n, 7):
            for sizes in (10 ** 6, 2 * n + 1, 2 * n + 2):
                t = iota.parse(bits)  # fresh cells, so facts are found under these budgets
                assert not _differs(_reduced, t, steps, sizes), (bits[:4], steps, sizes)


# a second pairing combinator and boolean pair, bracket-abstracted here the
# way the benchmark's reference codec builds them, so lists spelled with
# them share other cells than encode_bits output does


def _free(var, t):
    return t == var if not isinstance(t, tuple) else _free(var, t[0]) or _free(var, t[1])


def _abstract(var, t):
    if t == var:
        return (("S", "K"), "K")
    if not _free(var, t):
        return ("K", t)
    f, x = t
    if x == var and not _free(var, f):
        return f
    return (("S", _abstract(var, f)), _abstract(var, x))


def _spell(t):
    if isinstance(t, tuple):
        return "1" + _spell(t[0]) + _spell(t[1])
    return {"K": "1010100", "S": "101010100"}[t]


_PAIR2 = _abstract("x", _abstract("y", _abstract("z", (("z", "x"), "y"))))
_TRUE2, _FALSE2 = ("K", (("S", "K"), "K")), "K"


def _encode2(w):
    t = _FALSE2
    for bit in reversed(w):
        t = ((_PAIR2, _TRUE2 if bit == "1" else _FALSE2), t)
    return _spell(t)


def _decode_totals(bits):
    """The decoded bits, total steps and peak probe size under plain stepping."""
    totals = {"peak": 0}

    def spine_probe(t, meter):
        meter.peak = meter.size
        try:
            return _spine_whnf(t, meter)
        finally:
            totals["steps"] = meter.steps
            totals["peak"] = max(totals["peak"], meter.peak)

    with mock.patch.object(iota, "_whnf", spine_probe):
        out = iota.decode_bits(bits, 10 ** 7, 10 ** 7)
    return out, totals["steps"], totals["peak"]


def _subterms(t):
    # every object of a term, each once
    seen, todo = {}, [t]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            if isinstance(u, App):
                todo += (u.f, u.x)
    return list(seen.values())


def _parse_agrees(text):
    """parse and is_program against the two-pass parser; a program parses to
    one cell per distinct subprogram."""
    ref = _outcome(_two_pass_parse, text)
    got = _outcome(iota.parse, text)
    assert _same(got, ref)
    program = _outcome(iota.is_program, text)
    if ref[0] == "value" or ref[1][0] in (Incomplete, TrailingBits):
        assert program == ("value", ref[0] == "value")
    else:
        assert program == ref
    if got[0] == "value":
        cells = [u for u in _subterms(got[1]) if isinstance(u, App)]
        assert all(type(u) is Cell for u in cells)
        assert len({iota.unparse(u) for u in cells}) == len(cells)


def _variants(bits, cut, flip, pad):
    # the spelling, cut short, extended, and with one bit flipped
    return bits, bits[:cut], bits + pad, bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1 :]


# lists whose elements repeat the pairing spelling, so parse skips it from the
# third element on; "1" + P + F and "1" + P + T begin with the same 32 bits
_LISTS = [encode(w) for encode in (encode_bits, _encode2) for w in ("", "1", "0110", "1" * 9, "01" * 7)]


@pytest.mark.parametrize("bits", _LISTS, ids=range(len(_LISTS)))
def test_parse_of_lists_and_their_variants_matches_the_two_pass_parser(bits):
    n = len(bits)
    for at in sorted({*range(0, n, max(1, n // 23)), n - 1}):
        for text in _variants(bits, at, at, "0" if at % 2 else bits):
            _parse_agrees(text)
    _parse_agrees(" ".join(bits[i : i + 7] for i in range(0, n, 7)))


def test_parse_skips_the_spellings_it_has_built_twice():
    # a pairing spelling remembered at the second element is taken whole at
    # every later one; a bit flipped in it makes that element a plain read
    bits = encode_bits("0" * 8)
    with mock.patch.object(iota, "islice", wraps=iota.islice) as skip:
        t = iota.parse(bits)
    assert skip.call_count >= 6
    assert term_eq(t, _two_pass_parse(bits)) and iota.unparse(t) == bits
    late = bits.rindex(iota.iota_constants().P) + 40
    _parse_agrees(bits[:late] + "10"[int(bits[late])] + bits[late + 1 :])


def _random_program(rng, n):
    # a uniformly random program of n bits (n odd), by the cycle lemma: of the
    # rotations of a shuffled word with one 0 more than 1s, the one after the
    # first lowest point of its open-subterm count is the one program
    word = ["1"] * (n // 2) + ["0"] * (n // 2 + 1)
    rng.shuffle(word)
    need, low, at = 1, 1, 0
    for i, c in enumerate(word):
        need += 1 if c == "1" else -1
        if need < low:
            low, at = need, i + 1
    return "".join(word[at:] + word[:at])


def _stress_input(kind, scale):
    rng = random.Random(11)
    if kind == "random":
        return _random_program(rng, 10 ** 6 // scale + 1)
    if kind == "comb":
        return "10" * (200_000 // scale) + "0"
    # distinct random programs, each spelled twice: every subprogram of the
    # second copies is built twice and remembered, and none is seen again
    parts = list(dict.fromkeys(_random_program(rng, 201) for _ in range(2000 // scale))) * 2
    rng.shuffle(parts)
    return "1" * (len(parts) - 1) + "".join(parts)


def _peak(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cpu_time(fn, arg):
    gc.collect()  # no garbage of an earlier run is collected in this one
    start = time.process_time()
    fn(arg)
    return time.process_time() - start


@pytest.mark.parametrize("kind", ["random", "comb", "twice"])
def test_parse_of_inputs_without_skips_stays_linear(kind):
    # a 1M-bit random program, a 400K-bit right comb and 2,000 programs of
    # 201 bits each spelled twice: the skip check and its memo cost time and
    # memory, but time stays linear in size and the peak within twice the
    # former parser's. A doubling takes 1.6 to 3 times as long for the former
    # parser too (caches, allocation), so the bound is over a quadrupling:
    # 8 times, where a quadratic cost would take 16. The least of three
    # interleaved runs per size keeps one slow run from failing it
    quarter, full = _stress_input(kind, 4), _stress_input(kind, 1)
    t = iota.parse(full)
    assert iota.unparse(t) == full
    del t
    times = {len(s): [] for s in (quarter, full)}
    for s in (quarter, full) * 3:
        times[len(s)].append(_cpu_time(iota.parse, s))
    assert min(times[len(full)]) <= 8 * min(times[len(quarter)])
    assert _peak(iota.parse, quarter) <= 2 * _peak(_shared_build, quarter)


def _parses(text):
    """The former is_program: whether parse builds a term from the text."""
    try:
        iota.parse(text)
    except ParseFailure:
        return False
    return True


def test_is_program_of_a_million_bits_builds_nothing():
    # is_program counts the subterms still owed and builds no term: on a
    # 1M-bit random program it takes at most a third of parse's time, and its
    # peak stays within two copies of the text, where one object per bit
    # would take tens of megabytes
    full = _stress_input("random", 1)
    assert iota.is_program(full)
    # cut short, extended, or with a bit flipped, the counts no longer match
    assert not any(map(iota.is_program, _variants(full, len(full) - 1, len(full) // 2, "0")[1:]))
    built = _cpu_time(iota.parse, full)
    assert 3 * min(_cpu_time(iota.is_program, full) for _ in range(3)) <= built
    assert _peak(iota.is_program, full) <= 2 * len(full)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    def _terms(leaves, max_leaves=24):
        return st.recursive(leaves, lambda sub: st.builds(App, sub, sub), max_leaves=max_leaves)

    _TERM = _terms(st.sampled_from((IOTA, S, K) + _PROBES))

    @settings(max_examples=400, deadline=None)
    @given(t=_TERM, data=st.data())
    def test_whnf_matches_the_spine_kernel(t, data):
        # first with room to spare, then under budgets drawn from 0 to past the
        # steps and size the term used
        free = _agree(t, 5000, 10 ** 6, t.size)
        used_steps = free[3] if free[0] == "stuck" else 5000
        peak = data.draw(st.integers(0, t.size + 3 * used_steps + 8), label="size budget")
        steps = data.draw(st.integers(0, used_steps + 2), label="step budget")
        _agree(t, steps, peak, t.size)
        _agree(t, steps, 10 ** 6, t.size)
        _agree(t, 5000, peak, t.size)

    _PROGRAM = _terms(st.just(IOTA), 40).map(iota.unparse)

    @settings(max_examples=200, deadline=None)
    @given(t=_TERM, steps=st.integers(0, 300), sizes=st.integers(0, 400))
    def test_reduce_matches_under_small_budgets(t, steps, sizes):
        assert not _differs(_reduced, t, steps, sizes)

    @settings(max_examples=150, deadline=None)
    @given(bits=_PROGRAM, steps=st.integers(0, 400), sizes=st.integers(0, 2000))
    def test_reduce_and_decode_of_random_programs_match(bits, steps, sizes):
        assert not _differs(_reduced, iota.parse(bits), steps, sizes)
        assert not _differs(iota.decode_bits, bits, steps, sizes)

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.text(alphabet="01", max_size=64),
        steps=st.one_of(st.integers(0, 3000), st.just(iota.DEFAULT_STEP_BUDGET)),
        sizes=st.one_of(st.integers(0, 4000), st.just(iota.DEFAULT_SIZE_BUDGET)),
    )
    def test_decode_of_encoded_lists_matches(w, steps, sizes):
        assert not _differs(iota.decode_bits, encode_bits(w), steps, sizes)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="01 \n2", max_size=40))
    def test_parse_matches_the_two_pass_parser(text):
        _parse_agrees(text)

    @settings(max_examples=150, deadline=None)
    @given(w=st.text(alphabet="01", max_size=12), second=st.booleans(), data=st.data())
    def test_parse_of_list_variants_matches_the_two_pass_parser(w, second, data):
        # lists long enough to reach the skips, spelled with either pairing
        bits = (_encode2 if second else encode_bits)(w)
        cut, flip = (data.draw(st.integers(0, len(bits) - 1), label=k) for k in ("cut", "flip"))
        pad = data.draw(st.text(alphabet="01", min_size=1, max_size=40), label="pad")
        for text in _variants(bits, cut, flip, pad):
            _parse_agrees(text)

    _NEAR_PROGRAM = _PROGRAM.flatmap(lambda b: st.sampled_from(
        (b, b[:-1], b + "0", b + "10", "1" + b, " ".join(b), f"\t{b}\n", b + "2")))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(alphabet="01 \n2", max_size=60), _NEAR_PROGRAM))
    def test_is_program_matches_parse(text):
        # the same answer, or the same ValueError for text that is not bits
        assert _outcome(iota.is_program, text) == _outcome(_parses, text)

    # ---------------------------------------------------------------------------
    # shared cells
    @st.composite
    def _dags(draw, max_cells=12):
        # each new cell, shared or plain, joins two members of a growing pool, so
        # one cell can sit in many places and reach head position many times
        pool = [IOTA, S, K, *_PROBES]
        for _ in range(draw(st.integers(1, max_cells))):
            f, x = (pool[draw(st.integers(0, len(pool) - 1))] for _ in "fx")
            pool.append(draw(st.sampled_from((Cell, Cell, App)))(f, x))
        return pool[-1]

    @settings(max_examples=150, deadline=None)
    @given(t=_dags(), extra=st.integers(0, 4), rnd=st.randoms(use_true_random=False))
    def test_shared_cells_match_the_spine_kernel_at_every_small_budget(t, extra, rnd):
        # t sits in a term `extra` larger; facts found under one budget are
        # reused under the next, in a random order, from sizes below the start
        start = t.size + extra
        free = _agree(t, 40, 10 ** 6, start)
        used = free[3] if free[0] == "stuck" else 40
        peak = free[-1]
        sizes = set(range(max(0, start - 3), start + 3)) | set(range(peak - 2, peak + 2))
        sizes |= set(range(start, peak, max(1, (peak - start) // 8)))
        budgets = [(n, m) for n in range(used + 2) for m in sizes]
        rnd.shuffle(budgets)
        for n, m in budgets:
            _agree(t, n, m, start)

    @settings(max_examples=100, deadline=None)
    @given(t=_dags(), steps=st.integers(0, 200), sizes=st.integers(0, 400))
    def test_reduce_of_shared_cells_reports_the_spine_peak(t, steps, sizes):
        # status, steps, peak and normal form, twice: the second run jumps over
        # the cells whose facts the first one found
        ref = _with_kernel(_spine_whnf, _reduced, t, steps, sizes)
        for _ in range(2):
            assert _same(_with_kernel(iota._whnf, _reduced, t, steps, sizes), ref)

    @settings(max_examples=40, deadline=None)
    @given(w=st.text(alphabet="01", max_size=10))
    def test_decode_of_a_second_pairing_matches_at_its_exact_budgets(w):
        bits = _encode2(w)
        out, steps, peak = _decode_totals(bits)
        assert out == w
        assert iota.decode_bits(bits, steps, peak) == w
        with pytest.raises(DecodeBudget, match="steps"):
            iota.decode_bits(bits, steps - 1, 10 ** 7)
        for n in (steps - 1, steps, steps + 1):
            for m in (peak - 1, peak, peak + 1, 10 ** 7):
                assert not _differs(iota.decode_bits, bits, n, m), (n, m)

    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(_PROGRAM, min_size=1, max_size=4), shape=st.lists(st.integers(0, 7), max_size=12))
    def test_parse_shares_one_cell_per_distinct_subprogram(parts, shape):
        # programs joined under applications, drawn from a few parts so that
        # subprograms repeat
        bits = parts[0]
        for k in shape:
            part = parts[k % len(parts)]
            bits = "1" + bits + part if k < 4 else "1" + part + bits
        t, ref = iota.parse(bits), _two_pass_parse(bits)
        cells = _subterms(t)
        texts = [iota.unparse(u) for u in cells]
        assert len(set(texts)) == len(texts)
        assert all(type(u) is Cell for u in cells if isinstance(u, App))
        assert repr(t) == repr(ref)
        assert iota.unparse(t) == iota.unparse(ref) == bits
        assert term_eq(t, ref)
