"""Single-pass deficiency and liminf proxy against one query per prefix, and
the complexity search's domain walk against a walk over every integer."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tuatara import iota
from tuatara.binstr import bin_of
from tuatara.complexity import (
    NO_WITNESS,
    ComplexityOracle,
    DeficiencyReport,
    DeficiencyRow,
    ExecutableMachine,
    NablaRow,
    deficiency,
    least_indices,
    liminf_proxy,
    nabla,
)
from tuatara.machines import Builtin, Construction, FiniteTable


def _deficiency_by_prefix(digits, s, oracle, budget):
    """Reference: one oracle query per prefix, as the definition reads."""
    rows, nabla_rows, worst = [], [], None
    for m in range(1, len(digits) + 1):
        c = oracle.value(digits[:m], budget)
        slack = None if c is NO_WITNESS else c - F(m) / s
        rows.append(DeficiencyRow(m, c, F(m) / s, slack))
        if slack is not None and (worst is None or slack < worst):
            worst = slack
        if oracle.kind == "nabla_log":
            idx = nabla(oracle.machine, digits[:m], budget)
            if idx is not NO_WITNESS:
                nabla_rows.append(NablaRow(m, idx, F(idx, 2 ** m)))
    return DeficiencyReport(tuple(rows), worst, tuple(nabla_rows))


def _liminf_by_prefix(digits, oracle, budget):
    ratios = [
        F(c, n)
        for n in range(1, len(digits) + 1)
        if (c := oracle.value(digits[:n], budget)) is not NO_WITNESS
    ]
    return min(ratios) if ratios else NO_WITNESS


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _assert_single_pass_matches(digits, s, oracle, budget):
    assert _outcome(deficiency, digits, s, oracle, budget) == _outcome(
        _deficiency_by_prefix, digits, F(s), oracle, budget
    )
    assert _outcome(liminf_proxy, digits, oracle, budget) == _outcome(
        _liminf_by_prefix, digits, oracle, budget
    )


_KINDS = ("plain", "prefix", "nabla_log")


@pytest.mark.parametrize("kind", _KINDS)
def test_single_pass_matches_per_prefix_on_iota(kind):
    oracle = ComplexityOracle(kind, ExecutableMachine(Builtin("iota")))
    for digits in ("0", "1010100", "110101000", "0110"):
        for budget in (1, 60, 300):
            _assert_single_pass_matches(digits, 2, oracle, budget)


# ---------------------------------------------------------------------------
# the domain walk against the integer walk
#
# The reference is the search as it read before searches walked the domain:
# every integer n from 1 to the budget, its string bin(n), and then a lookup
# in a string dict (a finite table, or the strings 0^J 1 w of a universal
# composition with J worked out here from the bounds) or, on iota, a parse
# and a reduction under the machine's budgets.


def _table_run(domain, outs):
    return dict(zip(domain, outs)).get


def _exponents(kind, count, bounds):
    if kind == "universal_tuatara":
        return list(range(1, count + 1))
    ranks, out = {}, []
    for b in bounds:
        m = max(1, -(-b.numerator // b.denominator))
        ranks[m] = ranks.get(m, 0) + 1
        out.append(2 ** ranks[m] * (2 * m + 1) - 1)
    return out


def _universal_run(kind, members, bounds):
    table = {}
    for j, (domain, outs) in zip(_exponents(kind, len(members), bounds), members):
        table.update(("0" * j + "1" + w, out) for w, out in zip(domain, outs))
    return table.get


def _iota_run(steps, sizes):
    def run(w):
        try:
            term = iota.parse(w)
        except iota.ParseFailure:
            return None
        r = iota.reduce(term, steps, sizes)
        return iota.unparse(r.term) if r.halted else None

    return run


def _integer_walk(run, budget):
    """(n, output) for every n <= budget whose string run maps somewhere."""
    hits = ((n, run(bin_of(n))) for n in range(1, budget + 1))
    return [(n, out) for n, out in hits if out is not None]


def _least_by_integer_walk(run, targets, budget):
    found = {}
    for n, out in _integer_walk(run, budget):
        if out in targets:
            found.setdefault(out, n)
    return found


def _assert_walks_agree(machine, run, targets, budget):
    assert list(machine.outputs(budget)) == _integer_walk(run, budget)
    assert least_indices(machine, targets, budget) == _least_by_integer_walk(
        run, set(targets), budget
    )
    for n in range(1, budget + 1):
        assert machine.run(bin_of(n)) == run(bin_of(n))


def test_universal_members_must_be_finite_tables():
    with pytest.raises(ValueError):
        ExecutableMachine(Construction("universal_tuatara", (Builtin("iota"),)))


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.text(alphabet="01", max_size=4)),
            min_size=1,
            max_size=12,
            unique_by=lambda pair: pair[0],
        ),
        st.text(alphabet="01", min_size=1, max_size=5),
        st.sampled_from(_KINDS),
        st.sampled_from([1, 2, F(3, 2)]),
        st.integers(0, 45),
    )
    def test_single_pass_matches_per_prefix_on_tables(pairs, digits, kind, s, budget):
        domain = tuple(bin_of(n) for n, _ in pairs)
        m = ExecutableMachine(FiniteTable(domain, tuple(out for _, out in pairs)))
        _assert_single_pass_matches(digits, s, ComplexityOracle(kind, m), budget)

    _BITS = st.text(alphabet="01", max_size=4)

    def _budgets(cap):
        # 0 walks nothing and 1 only the empty string; most other draws fall
        # inside a length
        return st.one_of(st.sampled_from([0, 1, cap]), st.integers(2, cap))

    @st.composite
    def _tables(draw):
        domain = draw(st.lists(_BITS, max_size=8, unique=True))
        outs = draw(st.lists(_BITS, min_size=len(domain), max_size=len(domain)))
        return tuple(domain), tuple(outs)

    @settings(max_examples=80, deadline=None)
    @given(_tables(), st.lists(_BITS, max_size=4), _budgets(40))
    def test_domain_walk_matches_the_integer_walk_on_tables(table, extra, budget):
        machine = ExecutableMachine(FiniteTable(*table))
        targets = list(table[1]) + extra
        _assert_walks_agree(machine, _table_run(*table), targets, budget)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["universal_tuatara", "universal_convergent"]),
        st.lists(_tables(), min_size=1, max_size=3),
        st.data(),
    )
    def test_domain_walk_matches_the_integer_walk_on_universal_machines(kind, members, data):
        # an empty filler member takes a prefix of its own and adds no string
        at = data.draw(st.integers(0, len(members)), label="filler position")
        members.insert(at, ((), ()))
        bounds = ()
        if kind == "universal_convergent":
            bound = st.sampled_from([F(1, 3), F(1), F(3, 2), F(2)])
            bounds = tuple(data.draw(bound, label="bound") for _ in members)
        spec = Construction(kind, tuple(FiniteTable(*m) for m in members), bounds)
        machine = ExecutableMachine(spec)
        run = _universal_run(kind, members, bounds)
        targets = [out for _, outs in members for out in outs]
        targets += data.draw(st.lists(_BITS, max_size=3), label="extra targets")
        _assert_walks_agree(machine, run, targets, data.draw(_budgets(1 << 12), label="budget"))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 12), _budgets(1 << 11), st.lists(_BITS, max_size=3))
    def test_domain_walk_matches_the_integer_walk_on_iota(steps, sizes, budget, extra):
        # the largest budget reaches the programs of 9 bits, which a size
        # budget below 9 refuses
        run = _iota_run(steps, sizes)
        outs = [out for _, out in _integer_walk(run, budget)]
        targets = outs[::2] + extra + ["1010100"]
        machine = ExecutableMachine(Builtin("iota", (), steps, sizes))
        _assert_walks_agree(machine, run, targets, budget)
