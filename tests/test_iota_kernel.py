"""Differential tests of the reduction kernel and the program parser.

The reference kernel kept here is the earlier spine form of `_whnf`: it
walks a term down its application cells, builds the cells each rule's
right-hand side names, and charges every step through its own copy of the
meter's `spend`. The reference parser counts open subterms in a Python loop
and then builds the term. The library's argument-stack kernel, its parser
and the complexity search's program filter must agree with them on every
head, argument, step count, size count, output and error.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from tuatara import iota  # noqa: E402
from tuatara.complexity import ExecutableMachine  # noqa: E402
from tuatara.iota import (  # noqa: E402
    IOTA,
    App,
    Atom,
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
from tuatara.machines import Builtin  # noqa: E402

_PROBES = (Atom("p"), Atom("q"))


def _spend(meter: _Meter, delta: int) -> None:
    meter.steps += 1
    if meter.steps > meter.step_budget:
        raise _BudgetStop("steps")
    meter.size += delta
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


def _terms(leaves, max_leaves=24):
    return st.recursive(leaves, lambda sub: st.builds(App, sub, sub), max_leaves=max_leaves)


_TERM = _terms(st.sampled_from((IOTA, S, K) + _PROBES))


def _whnf_outcome(kernel, t, steps, sizes, start):
    meter = _Meter(start, steps, sizes)
    try:
        head, args = kernel(t, meter)
    except _BudgetStop as stop:
        return ("stop", stop.kind, meter.steps, meter.size)
    return ("stuck", head, args, meter.steps, meter.size)


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


@settings(max_examples=400, deadline=None)
@given(t=_TERM, data=st.data())
def test_whnf_matches_the_spine_kernel(t, data):
    # first with room to spare, then under budgets drawn from 0 to past the
    # steps and size the term used
    free = _agree(t, 5000, 10 ** 6, t.size)
    used_steps = free[-2] if free[0] == "stuck" else 5000
    peak = data.draw(st.integers(0, t.size + 3 * used_steps + 8), label="size budget")
    steps = data.draw(st.integers(0, used_steps + 2), label="step budget")
    _agree(t, steps, peak, t.size)
    _agree(t, steps, 10 ** 6, t.size)
    _agree(t, 5000, peak, t.size)


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


_PROGRAM = _terms(st.just(IOTA), 40).map(iota.unparse)


def _reduced(t, steps, sizes):
    # a ReduceResult as status, steps and the normal form's text
    r = iota.reduce(t, steps, sizes)
    return r.status, r.steps, None if r.term is None else repr(r.term)


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
    ref = _outcome(_two_pass_parse, text)
    assert _same(_outcome(iota.parse, text), ref)
    program = _outcome(iota.is_program, text)
    if ref[0] == "value" or ref[1][0] in (Incomplete, TrailingBits):
        assert program == ("value", ref[0] == "value")
    else:
        assert program == ref


def _parent_run(machine, w):
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
