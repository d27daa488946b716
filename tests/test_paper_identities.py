"""The paper's identities between weight sums, as oracles on infinite streams.

A brute-force reference reaches only a truncation of an infinite stream, so
an unsound tail shows only when an enclosure is held against a fact about
the whole sum. For each pair of related sums, the two enclosures, mapped
through the identity, must share a point, at every budget:
- the chain 2^-s omega_s <= zeta_s <= omega_s, for every domain, since a
  string w of index n has 2^|w| <= n < 2^(|w|+1);
- tuatara_of(X) zeta at s = 1 equals X omega at s = 1, since each spawn
  set X(p) carries index weight exactly 2^-|p|;
- double(X) omega at s equals X omega at 2s;
- a universal_tuatara omega at s is the sum over members k >= 1 of
  2^-(k+1)s times member k's omega at s, member k being behind 0^k 1;
- lukasiewicz omega at s = 1 is 1, by the Kraft equality for a complete
  prefix code.
A lukasiewicz tail lowered by 2^-100 must fail the last of them.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tuatara import machines
from tuatara.binstr import is_prefix_free
from tuatara.machines import Builtin, Construction, FiniteTable, weighted_domain_sums
from tuatara.numerics import Enclosure, pow2_bounds

_LUKA = Builtin("lukasiewicz")
_GEO = Builtin("geometric")
_ALL = Builtin("all_strings")
_TABLE = FiniteTable(("00", "01", "10", "110"))
_MEMBERS = (FiniteTable(("",)), FiniteTable(("0", "1")), _TABLE)
MACHINES = {
    "all_strings": _ALL,
    "lukasiewicz": _LUKA,
    "geometric": _GEO,
    "tuatara_of(lukasiewicz)": Construction("tuatara_of", (_LUKA,)),
    "tuatara_of(table)": Construction("tuatara_of", (_TABLE,)),
    "double(lukasiewicz)": Construction("double", (_LUKA,)),
    "product(table)": Construction("product", (_TABLE,)),
    "prime_product(table)": Construction("prime_product", (_TABLE,)),
    "universal_tuatara": Construction("universal_tuatara", _MEMBERS),
}
EXPONENTS = (F(1), F(3, 2), F(2))
BUDGETS = (1, 7, 100, 3000)


def _omega(spec, s: F, budget: int) -> Enclosure:
    return weighted_domain_sums(spec, [("omega", s)], budget)[0].enclosure


def _meet(a: Enclosure, b: Enclosure) -> bool:
    """Whether two enclosures share a point; hi None is unbounded above."""
    return (a.hi is None or b.lo <= a.hi) and (b.hi is None or a.lo <= b.hi)


def _scaled(c: Enclosure, e: Enclosure) -> Enclosure:
    """An enclosure of c e for 0 < c and 0 <= e."""
    return Enclosure(c.lo * e.lo, None if e.hi is None else c.hi * e.hi)


def chain_holds(spec, s: F, budget: int) -> bool:
    """Whether some omega in its enclosure and zeta in its enclosure have
    2^-s omega <= zeta <= omega: the pairs' zeta values fill
    [2^-s omega.lo, omega.hi], widened here by the enclosure of 2^-s."""
    omega, zeta = (
        r.enclosure for r in weighted_domain_sums(spec, [("omega", s), ("zeta", s)], budget)
    )
    return _meet(zeta, Enclosure(pow2_bounds(-s).lo * omega.lo, omega.hi))


def tuatara_holds(operand, budget: int) -> bool:
    """tuatara_of(X) zeta at s = 1 against X omega at s = 1."""
    spawned = Construction("tuatara_of", (operand,))
    zeta = weighted_domain_sums(spawned, [("zeta", F(1))], budget)[0].enclosure
    return _meet(zeta, _omega(operand, F(1), budget))


def double_holds(operand, s: F, budget: int) -> bool:
    """double(X) omega at s against X omega at 2s."""
    doubled = _omega(Construction("double", (operand,)), s, budget)
    return _meet(doubled, _omega(operand, 2 * s, budget))


def universal_holds(members, s: F, budget: int) -> bool:
    """A universal_tuatara omega against its members' omegas behind 0^k 1."""
    parts = [
        _scaled(pow2_bounds(-(k + 1) * s), _omega(m, s, budget))
        for k, m in enumerate(members, start=1)
    ]
    total = Enclosure(sum(p.lo for p in parts), sum(p.hi for p in parts))
    return _meet(_omega(Construction("universal_tuatara", members), s, budget), total)


def kraft_holds(budget: int) -> bool:
    """lukasiewicz omega at s = 1 contains 1."""
    return _omega(_LUKA, F(1), budget).contains(F(1))


@pytest.mark.parametrize("s", EXPONENTS, ids=str)
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_zeta_lies_in_the_chain_below_omega(name, s):
    for budget in BUDGETS:
        assert chain_holds(MACHINES[name], s, budget), (name, s, budget)


@pytest.mark.parametrize(
    "operand", [_LUKA, _GEO, _TABLE], ids=["lukasiewicz", "geometric", "table"]
)
def test_tuatara_of_zeta_is_the_operand_omega(operand):
    for budget in BUDGETS:
        assert tuatara_holds(operand, budget), budget


@pytest.mark.parametrize("s", EXPONENTS, ids=str)
@pytest.mark.parametrize(
    "operand",
    [_ALL, _LUKA, _GEO, _TABLE],
    ids=["all_strings", "lukasiewicz", "geometric", "table"],
)
def test_double_omega_is_the_operand_omega_at_twice_s(operand, s):
    for budget in BUDGETS:
        assert double_holds(operand, s, budget), (s, budget)


@pytest.mark.parametrize("s", EXPONENTS, ids=str)
def test_universal_omega_is_the_weighted_member_omegas(s):
    for budget in BUDGETS:
        assert universal_holds(_MEMBERS, s, budget), (s, budget)


def test_lukasiewicz_omega_contains_one():
    for budget in BUDGETS:
        assert kraft_holds(budget), budget


def test_a_lukasiewicz_tail_too_small_fails_the_kraft_identity(monkeypatch):
    # each tail, the total past length -1 included, loses 2^-100: far more
    # than the 2^-192 grid's rounding, so every upper bound drops below 1
    tail_bound = machines._LukasiewiczStream.tail_bound

    def lowered(self, ell, s, kind):
        t = tail_bound(self, ell, s, kind)
        return None if t is None else t - F(1, 1 << 100)

    monkeypatch.setattr(machines._LukasiewiczStream, "tail_bound", lowered)
    assert not any(kraft_holds(budget) for budget in BUDGETS)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _tables = st.sets(st.text(alphabet="01", max_size=6), max_size=8).map(
        lambda ws: FiniteTable(tuple(sorted(ws)))
    )

    @settings(max_examples=100, deadline=None)
    @given(
        _tables,
        st.lists(_tables, min_size=1, max_size=3).map(tuple),
        st.sampled_from(EXPONENTS + (F(5, 2), F(7, 3))),
        st.integers(0, 3000),
    )
    def test_identities_hold_on_random_tables(table, members, s, budget):
        built = [Construction(kind, (table,)) for kind in ("double", "product", "prime_product")]
        if is_prefix_free(table.domain):
            built.append(Construction("tuatara_of", (table,)))
            assert tuatara_holds(table, budget)
        for spec in [table, *built, Construction("universal_tuatara", members)]:
            assert chain_holds(spec, s, budget), spec
        assert double_holds(table, s, budget)
        assert universal_holds(members, s, budget)
