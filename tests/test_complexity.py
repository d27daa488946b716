"""Budgeted complexity measures, universal routing, and deficiency reports."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tuatara.binstr import bin_inv, bin_of
from tuatara.complexity import (
    NO_BOUND,
    NO_WITNESS,
    ComplexityOracle,
    ExecutableMachine,
    deficiency,
    identity_table,
    liminf_proxy,
    nabla,
    plain_k,
    program_size_h,
    universality_factor,
)
from tuatara.iota import run_program, unparse
from tuatara.machines import Builtin, Construction, FiniteTable, MachineSpecError

_POOL = identity_table([bin_of(n) for n in range(1, 32)])


def test_identity_measures():
    # on an identity table the least witness for x is x itself
    for x in ("", "0", "11", "0101"):
        assert plain_k(_POOL, x, 100) == len(x)
        assert nabla(_POOL, x, 100) == bin_inv(x)
    assert plain_k(_POOL, "00000", 100) is NO_WITNESS
    assert nabla(_POOL, "00000", 100) is NO_WITNESS


def test_finite_table_measures():
    m = ExecutableMachine(FiniteTable(("0", "11"), ("1", "1")))
    assert plain_k(m, "1", 100) == 1
    assert nabla(m, "1", 100) == 2
    assert plain_k(m, "0", 100) is NO_WITNESS


def test_program_size_h_requires_prefix_free():
    ok = ExecutableMachine(FiniteTable(("0", "11"), ("1", "1")))
    assert program_size_h(ok, "1", 100) == 1
    bad = ExecutableMachine(FiniteTable(("0", "01"), ("1", "1")))
    with pytest.raises(ValueError):
        program_size_h(bad, "1", 100)
    assert bad.domain_is_prefix_free() is False
    assert ok.domain_is_prefix_free() is True
    assert ExecutableMachine(Builtin("iota")).domain_is_prefix_free() is None


def test_empty_string_witnesses():
    to_empty = ExecutableMachine(FiniteTable(("0",), ("",)))
    assert nabla(to_empty, "", 10) == 2
    from_empty = ExecutableMachine(FiniteTable(("",), ("1",)))
    assert nabla(from_empty, "1", 10) == 1


def test_executable_guards():
    with pytest.raises(ValueError):
        ExecutableMachine(FiniteTable(("0",)))  # no outputs at all
    with pytest.raises(ValueError):
        ExecutableMachine(FiniteTable(("0", "11"), ("1", None)))
    with pytest.raises(ValueError):
        ExecutableMachine(Builtin("all_strings"))
    with pytest.raises(ValueError):
        ExecutableMachine(Construction("double", (FiniteTable(("0",), ("0",)),)))


def test_executable_specs_are_validated():
    # a repeated domain string would keep only its last output
    with pytest.raises(MachineSpecError):
        ExecutableMachine(FiniteTable(("0", "0"), ("1", "11")))
    # a bound this large needs a prefix past the cap; its key would be
    # tens of millions of bits long
    pair = FiniteTable(("0", "1"), ("0", "1"))
    with pytest.raises(MachineSpecError):
        ExecutableMachine(Construction("universal_convergent", (pair,), (F(10**7),)))


def test_iota_executable():
    m = ExecutableMachine(Builtin("iota"))
    assert m.run("0") == "0"
    assert m.run("1") is None  # not a program
    assert m.run("100") == unparse(run_program("100").term)


@pytest.mark.parametrize("w", ["2", "1 0 0", " 0", "0\n", "1x0", "١٠٠"])
def test_iota_run_of_a_non_bit_string_is_outside_the_domain(w):
    # as on a table: the domain holds bit strings only, so no character is
    # dropped and none raises
    assert ExecutableMachine(Builtin("iota")).run(w) is None
    assert ExecutableMachine(FiniteTable(("100",), ("1",))).run(w) is None


def test_universal_routing():
    v1 = FiniteTable(("0",), ("1",))
    v2 = FiniteTable(("",), ("0",))
    ut = ExecutableMachine(Construction("universal_tuatara", (v1, v2)))
    assert ut.run("010") == "1"
    assert ut.run("001") == "0"
    assert ut.run("10") is None  # no leading zero block
    assert ut.run("0001") is None  # no third slot
    assert ut.run("00") is None  # zeros with no selector bit
    uc = ExecutableMachine(
        Construction("universal_convergent", (v1, v2), bounds=(F(1), F(2)))
    )
    # slot exponents come from the declared bounds, not member position
    assert uc.run("0000010") == "1"
    assert uc.run("0" * 9 + "1") == "0"
    assert uc.run("010") is None


def test_universality_factor():
    v = ExecutableMachine(FiniteTable(("0", "1"), ("0", "1")))
    assert universality_factor(v, v, ("0", "1"), 100) == 1
    # slot 1 wrapping can exceed the doubled-index ratio: 10/2 = 5
    inner = FiniteTable(("0",), ("1",))
    w = ExecutableMachine(Construction("universal_tuatara", (inner,)))
    assert universality_factor(w, ExecutableMachine(inner), ("1",), 100) == 5
    assert universality_factor(w, v, ("11",), 100) is NO_BOUND
    assert universality_factor(w, v, (), 100) is NO_BOUND


def test_oracle_kinds():
    with pytest.raises(ValueError):
        ComplexityOracle("huffman", _POOL)
    plain = ComplexityOracle("plain", _POOL)
    nlog = ComplexityOracle("nabla_log", _POOL)
    # identity tables make the measures collapse to the length
    for x in ("0", "11", "101"):
        assert plain.value(x, 100) == len(x)
        assert nlog.value(x, 100) == len(x)
    assert nlog.value("000000", 100) is NO_WITNESS
    # the prefix kind insists on a prefix-free domain
    prefix = ComplexityOracle("prefix", identity_table(["00", "01", "10", "11"]))
    assert prefix.value("11", 100) == 2
    with pytest.raises(ValueError):
        ComplexityOracle("prefix", _POOL).value("0", 100)


def test_deficiency_identity():
    oracle = ComplexityOracle("nabla_log", _POOL)
    report = deficiency("0000", 1, oracle, 100)
    assert report.worst_slack == 0
    assert all(row.slack == 0 for row in report.rows)
    assert [row.statistic for row in report.nabla_rows] == [1, 1, 1, 1]


def test_deficiency_fixture():
    m = ExecutableMachine(FiniteTable(("0", "01"), ("0", "00")))
    oracle = ComplexityOracle("nabla_log", m)
    report = deficiency("00", 1, oracle, 100)
    assert [(r.n, r.index, r.statistic) for r in report.nabla_rows] == [
        (1, 2, F(1)),
        (2, 5, F(5, 4)),
    ]
    assert report.worst_slack == 0
    with pytest.raises(ValueError):
        deficiency("", 1, oracle, 100)
    with pytest.raises(ValueError):
        deficiency("0", F(1, 2), oracle, 100)


def test_deficiency_fractional_exponent():
    oracle = ComplexityOracle("plain", _POOL)
    report = deficiency("0101", 2, oracle, 100)
    # complexity m against threshold m/2 leaves slack m/2
    assert report.worst_slack == F(1, 2)
    assert report.rows[-1].slack == 2
    assert report.nabla_rows == ()  # only the nabla_log kind fills these


def test_liminf_proxy():
    oracle = ComplexityOracle("plain", _POOL)
    assert liminf_proxy("0101", oracle, 100) == 1
    unreachable = ComplexityOracle(
        "plain", ExecutableMachine(FiniteTable(("0",), ("1",)))
    )
    assert liminf_proxy("0", unreachable, 100) is NO_WITNESS
    with pytest.raises(ValueError):
        liminf_proxy("", oracle, 100)
