"""Single-pass deficiency and liminf proxy against one query per prefix."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from tuatara.binstr import bin_of  # noqa: E402
from tuatara.complexity import (  # noqa: E402
    NO_WITNESS,
    ComplexityOracle,
    DeficiencyReport,
    DeficiencyRow,
    ExecutableMachine,
    NablaRow,
    deficiency,
    liminf_proxy,
    nabla,
)
from tuatara.machines import Builtin, FiniteTable  # noqa: E402


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


@pytest.mark.parametrize("kind", _KINDS)
def test_single_pass_matches_per_prefix_on_iota(kind):
    oracle = ComplexityOracle(kind, ExecutableMachine(Builtin("iota")))
    for digits in ("0", "1010100", "110101000", "0110"):
        for budget in (1, 60, 300):
            _assert_single_pass_matches(digits, 2, oracle, budget)
