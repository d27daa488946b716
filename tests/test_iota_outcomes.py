"""The per-process halting-outcome table against a walk that reduces afresh.

The reference walk kept here is the iota stream and search as they read
before the table: it lists the programs by the grammar L = 0 | 1 L L,
parses each one and reduces it under the machine's budgets, examining
every program up to its limit, or up to the search budget, and none past.
It never reads the table. Sums, classify rows, domain walks and least
indices read through the table must equal it on a first pass, on every
later pass and whatever ran before them in the process, under budget pairs
that stop some programs on steps and some on size, and the table must
reduce each program at most once per budget pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from tuatara import iota, machines
from tuatara.complexity import ExecutableMachine, least_indices
from tuatara.machines import (
    Builtin,
    StreamCut,
    classify,
    domain_stream,
    weighted_domain_sum,
)

pytestmark = pytest.mark.usefixtures("fresh_outcomes")

_REF_WORDS: dict[int, list[str]] = {1: ["0"]}


def _ref_programs():
    """Every program in length-lex order, one length at a time."""
    for length in itertools.count(1, 2):
        if length not in _REF_WORDS:
            _REF_WORDS[length] = sorted(
                "1" + a + b
                for na in range(1, length - 1, 2)
                for a in _REF_WORDS[na]
                for b in _REF_WORDS[length - 1 - na]
            )
        yield from _REF_WORDS[length]


def _ref_walk(steps, sizes, limit=None, last=None):
    """(index, ReduceResult) for each program examined, fresh from a parse;
    StreamCut before a program past the first limit. A program has as many
    nodes as bits, so none longer than the size budget is examined."""
    for examined, w in enumerate(itertools.takewhile(lambda w: len(w) <= sizes, _ref_programs())):
        n = int("1" + w, 2)
        if last is not None and n > last:
            return
        if examined == limit:
            raise StreamCut
        yield n, iota.reduce(iota.parse(w), steps, sizes)


class _FreshStream(machines._IotaHaltingStream):
    def indices(self):
        walk = _ref_walk(self.step_budget, self.size_budget, self.examine_limit)
        return (n for n, r in walk if r.halted)


def _fresh(fn, *args):
    # the call with the iota stream replaced by the reference walk
    with pytest.MonkeyPatch.context() as m:
        m.setattr(machines, "_IotaHaltingStream", _FreshStream)
        return fn(*args)


def _ref_outputs(steps, sizes, budget):
    return [(n, iota.unparse(r.term)) for n, r in _ref_walk(steps, sizes, last=budget) if r.halted]


def _ref_least(steps, sizes, targets, budget):
    found = {}
    for n, out in _ref_outputs(steps, sizes, budget):
        if out in targets:
            found.setdefault(out, n)
    return found


# (step budget, size budget): the first four stop some of the 2,056 programs
# of at most 17 bits on steps and some on size; the last are the defaults,
# under which every such program halts
_PAIRS = [(8, 25), (12, 30), (15, 20), (25, 30), (iota.DEFAULT_STEP_BUDGET, iota.DEFAULT_SIZE_BUDGET)]


def test_the_budget_pairs_stop_programs_on_steps_and_on_size():
    for steps, sizes in _PAIRS[:4]:
        kinds = Counter(r.status for _, r in _ref_walk(steps, sizes, last=1 << 18))
        assert kinds["steps"] and kinds["size"] and kinds["normal"], (steps, sizes, kinds)


@pytest.mark.parametrize("steps, sizes", _PAIRS)
def test_sums_match_the_fresh_walk_on_every_pass(steps, sizes):
    spec = Builtin("iota", (), steps, sizes)
    for kind, s, budget in itertools.product(("zeta", "omega"), (F(1), F(3, 2)), (0, 1, 7, 100, 2100)):
        ref = _fresh(weighted_domain_sum, spec, s, budget, kind)
        first = weighted_domain_sum(spec, s, budget, kind)
        again = weighted_domain_sum(spec, s, budget, kind)
        assert first == again == ref, (kind, s, budget)


@pytest.mark.parametrize("steps, sizes", _PAIRS)
def test_classify_matches_the_fresh_walk(steps, sizes):
    spec = Builtin("iota", (), steps, sizes)
    for budget in (1, 300, 2100):
        ref = _fresh(classify, spec, budget)
        assert classify(spec, budget) == classify(spec, budget) == ref, budget


@pytest.mark.parametrize("steps, sizes", _PAIRS)
def test_domain_walk_matches_the_fresh_walk_before_and_after_sums(steps, sizes):
    machine = ExecutableMachine(Builtin("iota", (), steps, sizes))
    spec = machine.spec
    for budget in (0, 1, 2, 300, 5000, 1 << 16):
        ref = _ref_outputs(steps, sizes, budget)
        targets = [out for _, out in ref[::3]] + ["1010100", "0"]
        ref_least = _ref_least(steps, sizes, set(targets), budget)
        assert list(machine.outputs(budget)) == ref, budget
        assert least_indices(machine, targets, budget) == ref_least, budget
        # a sum that reaches further teaches flags the next search reads
        weighted_domain_sum(spec, F(1), budget, "zeta")
        assert list(machine.outputs(budget)) == ref, budget
        assert least_indices(machine, targets, budget) == ref_least, budget


def _walk(spec, limit):
    # the indices a stream yields before its examine limit cuts it
    stream = domain_stream(spec)
    stream.limit_examined(limit)
    out = []
    with pytest.raises(StreamCut):
        out.extend(stream.indices())
    return out


def test_machines_with_different_budgets_share_no_flags():
    # 8 steps stop programs that 25 steps let halt, so a shared flag shows
    a, b = Builtin("iota", (), 8, 25), Builtin("iota", (), 25, 30)
    ref_a, ref_b = _fresh(_walk, a, 2056), _fresh(_walk, b, 2056)
    assert ref_a != ref_b
    assert _walk(a, 2056) == ref_a
    flags_a = {key: bytes(v) for key, v in iota._HALTS.items()}
    assert flags_a and all(key[1:] == (8, 25) for key in flags_a)
    assert _walk(b, 2056) == ref_b
    assert {key: bytes(v) for key, v in iota._HALTS.items() if key[1:] == (8, 25)} == flags_a
    assert _walk(a, 2056) == ref_a


def _count_reductions(monkeypatch):
    seen: Counter = Counter()
    reduce = iota.reduce

    def counting(t, *budgets):
        seen[iota.unparse(t), budgets] += 1
        return reduce(t, *budgets)

    monkeypatch.setattr(iota, "reduce", counting)
    return seen


@pytest.mark.parametrize("steps, sizes", _PAIRS)
def test_classify_reduces_each_program_at_most_once(monkeypatch, steps, sizes):
    seen = _count_reductions(monkeypatch)
    spec = Builtin("iota", (), steps, sizes)
    classify(spec, 1500)
    classify(spec, 1500)
    assert seen and max(seen.values()) == 1
    # the index sum examines programs up to its limit, and the halting
    # weight sum the same ones, each from the table
    assert len(seen) <= 1500


@pytest.mark.parametrize("limit", [0, 1, 7, 300])
def test_nothing_is_reduced_past_an_examine_limit(monkeypatch, limit):
    seen = _count_reductions(monkeypatch)
    steps, sizes = 12, 30
    words = list(itertools.islice(_ref_programs(), limit))
    for _ in range(2):  # the second pass reads every flag from the table
        stream = domain_stream(Builtin("iota", (), steps, sizes))
        stream.limit_examined(limit)
        with pytest.raises(StreamCut):
            list(stream.indices())
        assert seen == Counter({(w, (steps, sizes)): 1 for w in words})


def test_a_search_reduces_no_program_past_its_budget(monkeypatch):
    steps, sizes = 12, 30
    budget = 15000  # inside the 13-bit programs
    words = list(itertools.takewhile(lambda w: len(w) <= 13, _ref_programs()))
    examined = [w for w in words if int("1" + w, 2) <= budget]
    assert len(examined) < len(words)
    halting = {w for w in examined if iota.run_program(w, steps, sizes).halted}
    seen = _count_reductions(monkeypatch)
    machine = ExecutableMachine(Builtin("iota", (), steps, sizes))
    list(machine.outputs(budget))
    assert seen == Counter({(w, (steps, sizes)): 1 for w in examined})
    # a second search reduces again only the programs that halt, for their
    # normal forms
    list(machine.outputs(budget))
    assert seen == Counter({(w, (steps, sizes)): 1 + (w in halting) for w in examined})


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _OPS = st.lists(
        st.tuples(
            st.sampled_from(["zeta", "omega", "outputs", "least"]),
            st.sampled_from([0, 1, 2, 5, 40, 300, 1200, 1 << 14]),
        ),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(1, 40), sizes=st.integers(1, 30), ops=_OPS)
    def test_any_order_of_sums_and_searches_matches_the_fresh_walk(steps, sizes, ops):
        # the table keeps what earlier examples and earlier steps taught it, so
        # each result is checked against the reference whatever ran before
        spec = Builtin("iota", (), steps, sizes)
        machine = ExecutableMachine(spec)
        for op, budget in ops:
            if op in ("zeta", "omega"):
                got = weighted_domain_sum(spec, F(1), budget, op)
                assert got == _fresh(weighted_domain_sum, spec, F(1), budget, op), (op, budget)
            elif op == "outputs":
                assert list(machine.outputs(budget)) == _ref_outputs(steps, sizes, budget), budget
            else:
                targets = {"0", "1010100", "101010100", "11010100"}
                assert least_indices(machine, targets, budget) == _ref_least(steps, sizes, targets, budget)
