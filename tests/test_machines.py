"""Machine descriptions, domain streams, and certified weight sums."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from tuatara.binstr import bin_inv, bin_of, is_prefix_free, rational_of_prefix
from tuatara.egyptian import kraft_chaitin
from tuatara.machines import (
    BudgetExhausted,
    Builtin,
    Construction,
    FiniteTable,
    MachineSpecError,
    StreamCut,
    _CONSTRUCTIONS,
    _GENERATORS,
    _IntervalAcc,
    _threshold_verdict,
    classify,
    density_statistic,
    domain_stream,
    fresh_index,
    j_pairing,
    omega_enclosure,
    sanity_chain,
    tuatara_unit_identity,
    universal_prefix_identity,
    validate_spec,
    weighted_domain_sum,
    zeta_enclosure,
)
from tuatara.numerics import Enclosure


def _head(spec, k: int) -> list[str]:
    return list(itertools.islice(iter(domain_stream(spec)), k))


def test_validate_spec_accepts():
    validate_spec(FiniteTable(("0", "10"), ("1", None)))
    validate_spec(Builtin("geometric", extras=("10", "0110")))
    validate_spec(Construction("tuatara_of", (FiniteTable(("1011", "00")),)))
    validate_spec(
        Construction(
            "universal_convergent",
            (FiniteTable(("0",)), FiniteTable(())),
            bounds=(F(1), F(2)),
        )
    )


def test_validate_spec_rejects():
    with pytest.raises(MachineSpecError):
        validate_spec(FiniteTable(("0", "0")))
    with pytest.raises(MachineSpecError):
        validate_spec(FiniteTable(("012",)))
    with pytest.raises(MachineSpecError):
        validate_spec(FiniteTable(("0",), ("1", "0")))
    with pytest.raises(MachineSpecError):
        validate_spec(Builtin("fibonacci"))
    with pytest.raises(MachineSpecError):
        validate_spec(Builtin("all_strings", extras=("0",)))
    # every 0^i 1 string already sits in the geometric base domain
    with pytest.raises(MachineSpecError):
        validate_spec(Builtin("geometric", extras=("1",)))
    with pytest.raises(MachineSpecError):
        validate_spec(Builtin("geometric", extras=("001",)))
    with pytest.raises(MachineSpecError):
        validate_spec(Construction("shuffle", (FiniteTable(("0",)),)))
    with pytest.raises(MachineSpecError):
        validate_spec(Construction("product", (Builtin("all_strings"),)))
    with pytest.raises(MachineSpecError):
        validate_spec(Construction("tuatara_of", (FiniteTable(("1", "10")),)))
    with pytest.raises(MachineSpecError):
        validate_spec(
            Construction("universal_tuatara", (Builtin("all_strings"),))
        )
    with pytest.raises(MachineSpecError):
        validate_spec(
            Construction("universal_convergent", (FiniteTable(("0",)),))
        )
    with pytest.raises(MachineSpecError):
        validate_spec(
            Construction("double", (FiniteTable(("0",)),), bounds=(F(1),))
        )


_ONE_ZERO = FiniteTable(("0",))


@pytest.mark.parametrize("check, error, message", [
    (lambda: validate_spec(Builtin("geometric", ("10", "0110", "10"))), MachineSpecError,
     "duplicate extra string '10'"),
    (lambda: validate_spec(Construction("double", (_ONE_ZERO, _ONE_ZERO))), MachineSpecError,
     "double takes exactly one operand"),
    (lambda: validate_spec(Construction("product", ())), MachineSpecError,
     "product takes exactly one operand"),
    (lambda: validate_spec(Construction("universal_tuatara", ())), MachineSpecError,
     "universal_tuatara needs at least one member"),
    (lambda: validate_spec(Construction("universal_convergent", ())), MachineSpecError,
     "universal_convergent needs at least one member"),
    (lambda: validate_spec(Construction("universal_convergent", (_ONE_ZERO,), (F(0),))),
     MachineSpecError, "declared bounds must be positive"),
    (lambda: validate_spec(Construction("universal_convergent", (_ONE_ZERO,), (F(-1, 2),))),
     MachineSpecError, "declared bounds must be positive"),
    (lambda: density_statistic(FiniteTable(("0000",)), 3), ValueError,
     "no domain strings up to that length"),
    (lambda: density_statistic(FiniteTable(()), 1), ValueError,
     "no domain strings up to that length"),
])
def test_description_refusals_name_their_fault(check, error, message):
    with pytest.raises(error) as exc:
        check()
    assert str(exc.value) == message


def test_validate_spec_rejects_bad_bits_as_spec_errors():
    # a malformed extra or output is a spec error, not a bare ValueError
    for spec in (Builtin("geometric", ("012",)), FiniteTable(("0",), ("2",))):
        with pytest.raises(MachineSpecError, match="not a bit string"):
            validate_spec(spec)


_BAD_TABLES = {
    "bad bit": FiniteTable(("0", "012")),
    "duplicate": FiniteTable(("10", "0", "10")),
    "outputs too short": FiniteTable(("0", "10"), ("1",)),
    "bad output": FiniteTable(("0", "10"), ("1", "2")),
    # int(x, 2) reads both as numerals, so the indices must not come first
    "underscore": FiniteTable(("1_0",)),
    "trailing space": FiniteTable(("10 ",)),
    "empty with bad output": FiniteTable((), ("x",)),
}


@pytest.mark.parametrize("name", list(_BAD_TABLES))
def test_a_bad_table_fails_its_check_on_every_call(name):
    table = _BAD_TABLES[name]
    calls = [
        lambda: validate_spec(table),
        lambda: table.indices,
        lambda: zeta_enclosure(table),
        lambda: omega_enclosure(table),
        lambda: weighted_domain_sum(table, F(3, 2), 10, "zeta"),
        lambda: classify(table),
        lambda: sanity_chain(table),
        lambda: domain_stream(Construction("universal_tuatara", (FiniteTable(("0",)), table))),
    ]
    for _ in range(2):  # a failed check is not remembered
        for call in calls:
            with pytest.raises(MachineSpecError):
                call()


def test_a_checked_table_reads_its_strings_no_more(monkeypatch):
    rng = random.Random(23)
    domain = tuple({bin_of(rng.randrange(1, 1 << 12)) for _ in range(200)})
    outputs = tuple(bin_of(rng.randrange(1, 64)) for _ in domain)
    table = FiniteTable(domain, outputs)
    validate_spec(table)

    from tuatara import binstr, machines

    calls = []
    counted = binstr.validate_bits

    def counting(*args):
        calls.append(args[0])
        return counted(*args)

    monkeypatch.setattr(binstr, "validate_bits", counting)
    monkeypatch.setattr(machines, "validate_bits", counting)
    member = Construction("universal_tuatara", (table,))
    sums = [
        zeta_enclosure(table),
        omega_enclosure(table),
        weighted_domain_sum(table, F(3, 2), 50, "zeta").enclosure,
        weighted_domain_sum(member, F(1), 50, "omega").enclosure,
        classify(table).zeta.enclosure,
        classify(member).omega.enclosure,
    ]
    chain = sanity_chain(table)
    validate_spec(table)
    assert calls == []
    # the remembered check changes no answer, nor the table's equality
    monkeypatch.undo()
    fresh = FiniteTable(domain, outputs)
    assert (fresh, hash(fresh)) == (table, hash(table))
    assert sums[2] == weighted_domain_sum(fresh, F(3, 2), 50, "zeta").enclosure
    assert chain == sanity_chain(FiniteTable(domain))
    assert sums[0].lo == sums[0].hi == sum(F(1, n) for n in map(bin_inv, domain))


def test_finite_table_output_for():
    t = FiniteTable(("0", "10"), ("1", None))
    assert t.output_for("0") == "1"
    assert t.output_for("10") is None
    assert t.output_for("111") is None  # outside the domain
    assert FiniteTable(("0",)).output_for("0") is None  # domain-only table


def test_stream_orders():
    assert _head(Builtin("geometric", extras=("11",)), 5) == [
        "1",
        "01",
        "11",
        "001",
        "0001",
    ]
    assert _head(Construction("tuatara_of", (FiniteTable(("1011",)),)), 6) == [
        "1011",
        "10110",
        "1011000",
        "10110000",
    ]
    assert _head(Construction("double", (FiniteTable(("0", "11")),)), 4) == [
        "00",
        "1111",
    ]
    assert _head(Builtin("all_strings"), 7) == ["", "0", "1", "00", "01", "10", "11"]
    assert _head(Builtin("lukasiewicz"), 4) == ["0", "100", "10100", "11000"]


def test_prime_product_indices():
    # domain {eps, "0"} has indices {1, 2}, hence primes {2, 3}
    pp = Construction("prime_product", (FiniteTable(("", "0")),))
    idx = list(itertools.islice(domain_stream(pp).indices(), 10))
    assert idx == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    # domain {"0", "10"} has indices {2, 6}, hence primes {3, 13}
    pp2 = Construction("prime_product", (FiniteTable(("0", "10")),))
    idx2 = list(itertools.islice(domain_stream(pp2).indices(), 10))
    assert idx2 == [1, 3, 9, 13, 27, 39, 81, 117, 169, 243]


def test_product_stream_matches_brute_force():
    for parts in (("0", "11"), ("00",), ("0", "1"), ("10", "111", "0")):
        spec = Construction("product", (FiniteTable(parts),))
        got = _head(spec, 60)
        ordered = sorted(set(parts), key=lambda w: (len(w), w))
        parts_cap = max(len(w) for w in got) // min(len(p) for p in ordered)
        brute = set()
        for n in range(0, parts_cap + 1):
            for combo in itertools.combinations_with_replacement(ordered, n):
                brute.add("".join(combo))
        want = sorted(brute, key=lambda w: (len(w), w))
        limit = max(len(w) for w in got) if got else 0
        assert got == [w for w in want if len(w) <= limit][: len(got)]


def test_universal_tuatara_stream():
    v1 = FiniteTable(("0",), ("1",))
    v2 = FiniteTable(("",), ("0",))
    spec = Construction("universal_tuatara", (v1, v2))
    stream = domain_stream(spec)
    assert stream.exhaustible
    assert list(stream) == ["001", "010"]
    enc = zeta_enclosure(spec)
    assert enc.lo == enc.hi == F(1, bin_inv("001")) + F(1, bin_inv("010"))


def test_universal_convergent_stream():
    spec = Construction(
        "universal_convergent",
        (FiniteTable(("0",), ("1",)), FiniteTable(())),
        bounds=(F(1), F(2)),
    )
    assert list(domain_stream(spec)) == ["0000010"]
    # slot exponents are J(i, M) values, so members with empty tables add nothing


def test_weighted_domain_sum_exact_finite():
    r = weighted_domain_sum(FiniteTable(("0", "10")), F(1), 100, "zeta")
    assert r.enclosure.lo == r.enclosure.hi == F(2, 3)
    assert r.exhausted and r.consumed == 2
    r = weighted_domain_sum(FiniteTable(("0", "10")), F(1), 100, "omega")
    assert r.enclosure.lo == r.enclosure.hi == F(3, 4)
    # budget exactly the domain size still detects exhaustion via the probe
    r = weighted_domain_sum(FiniteTable(("0", "10")), F(1), 2, "omega")
    assert r.exhausted


def test_weighted_domain_sum_values():
    assert omega_enclosure(FiniteTable(("0", "10", "11"))).lo == 1
    assert zeta_enclosure(FiniteTable(("",))).lo == 1
    assert zeta_enclosure(FiniteTable(("1011",))).lo == F(1, 27)
    unit = zeta_enclosure(Construction("tuatara_of", (FiniteTable(("1011",)),)))
    assert unit.lo == unit.hi == F(1, 16)


def test_weighted_domain_sum_guards():
    t = FiniteTable(("0",))
    with pytest.raises(ValueError):
        weighted_domain_sum(t, F(1), 10, "gamma")
    with pytest.raises(ValueError):
        weighted_domain_sum(t, F(0), 10, "omega")
    with pytest.raises(ValueError):
        weighted_domain_sum(t, F(1, 2), 10, "zeta")
    with pytest.raises(ValueError):
        weighted_domain_sum(t, F(1), -1, "omega")


def test_geometric_machine_enclosures():
    fact = Builtin("geometric", extras=("10",))
    om = omega_enclosure(fact)
    assert om.hi == F(5, 4)
    assert om.hi - om.lo < F(1, 1 << 100)
    zt = zeta_enclosure(fact)
    assert zt.hi < 1  # the index sum stays under the unit threshold
    near_total = F(1, 6) + sum(F(1, (1 << (i + 1)) + 1) for i in range(0, 200))
    assert zt.lo <= near_total <= zt.hi  # truncation error is far below the width


def test_enclosure_nesting_over_budgets():
    encs = [
        weighted_domain_sum(Builtin("lukasiewicz"), F(1), b, "omega").enclosure
        for b in (100, 400, 1600, 6400)
    ]
    for a, b in zip(encs, encs[1:]):
        assert a.lo <= b.lo and b.hi <= a.hi
    assert encs[0].hi == 1  # full-tree walk weight is exactly one


def test_classify_verdicts():
    fact = Builtin("geometric", extras=("10",))
    c = classify(fact)
    assert c.zeta.kind == "tuatara" and c.zeta.certified
    assert c.omega.kind == "convergent" and c.omega.certified
    assert c.omega.enclosure.lo > 1

    complete = classify(FiniteTable(("0", "10", "11")))
    assert complete.omega.kind == "tuatara"
    assert complete.omega.enclosure.hi == 1

    full = classify(Builtin("all_strings"))
    assert full.zeta.kind == "divergent" and full.zeta.certified
    assert full.omega.kind == "divergent" and full.omega.certified
    assert full.zeta.enclosure.hi is None

    luka = classify(Builtin("lukasiewicz"), 20000)
    assert luka.zeta.kind == "tuatara" and luka.zeta.certified
    assert luka.omega.kind == "tuatara" and luka.omega.certified


def test_threshold_verdicts_and_their_witnesses():
    cases = [
        (F(1, 2), F(3, 4), "tuatara", "x sum certified <= 1 (upper bound 3/4)"),
        (F(3, 2), F(2), "convergent", "x sum certified finite and > 1 (lower bound 3/2)"),
        (F(1, 2), F(2), "convergent", "x sum certified finite; the unit threshold lies "
         "inside [1/2, 2] and stays unresolved at this budget"),
        (F(3, 2), None, "unknown", "x sum exceeds 1 but finiteness is not certified"),
        (F(1), None, "unknown", "x sum not separated from the unit threshold at this budget"),
    ]
    for lo, hi, kind, witness in cases:
        v = _threshold_verdict(Enclosure(lo, hi), "x")
        assert (v.kind, v.enclosure, v.witness) == (kind, Enclosure(lo, hi), witness)
        assert v.certified == (kind != "unknown")
    full = classify(Builtin("all_strings"), 10)
    for v, witness in (
        (full.zeta, "index sum over every string is the harmonic series"),
        (full.omega, "each length k contributes a full unit 2^k 2^-k"),
    ):
        assert (v.kind, v.certified, v.enclosure.hi, v.witness) == (
            "divergent", True, None, witness)


def test_each_machine_name_builds_its_stream():
    table = FiniteTable(("0",))
    specs = {
        **{name: Builtin(name) for name in ("all_strings", "lukasiewicz", "iota", "geometric")},
        **{kind: Construction(kind, (table,))
           for kind in ("product", "double", "tuatara_of", "universal_tuatara", "prime_product")},
        "universal_convergent": Construction("universal_convergent", (table,), bounds=(F(1),)),
    }
    assert set(specs) == set(_GENERATORS) | set(_CONSTRUCTIONS)
    for name, spec in specs.items():
        stream = domain_stream(spec)
        assert next(iter(stream.indices()), None) is not None, name
    with pytest.raises(MachineSpecError, match="^unknown generator 'product'$"):
        domain_stream(Builtin("product"))
    with pytest.raises(MachineSpecError, match="^unknown construction 'iota'$"):
        domain_stream(Construction("iota", (table,)))


def test_density_statistic():
    luka = Builtin("lukasiewicz")
    assert density_statistic(luka, 1) == 0
    assert density_statistic(luka, 3) == F(1, 3)  # two words of length <= 3: exactly log2(2)/3
    # 9 words of length <= 7, so the statistic is log2(9)/7
    assert abs(float(density_statistic(luka, 7)) - 0.4528464287774732) < 1e-12
    d41 = density_statistic(luka, 41)
    assert F(4, 5) < d41 < 1
    with pytest.raises(ValueError):
        density_statistic(luka, 0)
    with pytest.raises(MachineSpecError):
        density_statistic(Construction("tuatara_of", (Builtin("lukasiewicz"),)), 3)


def test_fresh_index():
    t = FiniteTable(("0", "11"))
    assert fresh_index(t, "1") == ""
    assert fresh_index(t, "") == ""
    with pytest.raises(BudgetExhausted) as info:
        fresh_index(t, "11")  # 3/4 larger than the index sum 9/14
    assert "stream exhausted at partial sum 9/14" in str(info.value)
    with pytest.raises(BudgetExhausted):
        # the geometric index sum needs seven elements to pass 3/4
        fresh_index(Builtin("geometric"), "11", budget=3)


def test_fresh_index_random():
    rng = random.Random(47)
    for _ in range(50):
        pool = rng.sample(range(1, 300), rng.randint(1, 12))
        table = FiniteTable(tuple(bin_of(n) for n in sorted(pool)))
        total = sum(F(1, n) for n in pool)
        if total <= 0:
            continue
        # aim slightly below the sum so the threshold is crossed
        y = "0" * rng.randint(0, 3) + "1"
        if F(1, 1 << y.index("1") + 1) >= total:
            continue
        j = bin_inv(fresh_index(table, y))
        assert j not in pool
        assert all(m in pool for m in range(1, j))


def _fraction_fresh_index(spec, y: str, budget: int):
    """fresh_index as it was, with one exact Fraction add per element: the
    string, or ("budget" | "exhausted", consumed) where it gave up."""
    threshold = rational_of_prefix(y)
    acc = F(0)
    seen: set[int] = set()
    smallest = 1
    consumed = 0
    stream = domain_stream(spec)
    stream.limit_examined(budget)
    try:
        for n in stream.indices():
            if consumed >= budget:
                return ("budget", consumed)
            consumed += 1
            acc += F(1, n)
            seen.add(n)
            while smallest in seen:
                smallest += 1
            if acc > threshold:
                return bin_of(smallest)
    except StreamCut:
        return ("budget", consumed)
    return bin_of(smallest) if acc > threshold else ("exhausted", consumed)


def _fresh_outcome(spec, y: str, budget: int):
    try:
        return fresh_index(spec, y, budget)
    except BudgetExhausted as exc:
        return ("exhausted" if "stream exhausted" in str(exc) else "budget", exc.consumed)


def test_fresh_index_matches_fraction_sums_on_random_machines():
    rng = random.Random(71)
    for _ in range(120):
        top = 1 << rng.randint(2, 12)
        pool = rng.sample(range(1, top), rng.randint(1, min(40, top - 1)))
        boundary = FiniteTable(tuple(bin_of(n) for n in pool))
        machine = rng.choice(
            [
                FiniteTable(tuple(bin_of(n) for n in pool)),
                boundary,
                Builtin("geometric", extras=tuple({bin_of(n)[:6] + "0" for n in pool[:3]})),
                Builtin("lukasiewicz"),
                Construction("tuatara_of", (FiniteTable(("1011", "00")),)),
                Construction("product", (FiniteTable(("0", "10", "11")),)),
                Construction("double", (Builtin("lukasiewicz"),)),
                Construction("prime_product", (FiniteTable(("0", "101", "0110")),)),
                # a finite domain at 2 steps and 10 nodes; at 10 steps and
                # 20 nodes the search for more stops at the examine limit
                Builtin("iota", step_budget=2, size_budget=10),
                Builtin("iota", step_budget=10, size_budget=20),
            ]
        )
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 70)))
        budget = rng.randint(0, 60)
        if machine is boundary:
            budget = len(pool)  # the budget ends where the table does
        assert _fresh_outcome(machine, y, budget) == _fraction_fresh_index(machine, y, budget)


def test_fresh_index_sums_exactly_where_the_grid_cannot_decide():
    # the indices from 2,000 take the partial sum past exact mode; a 200-bit
    # threshold just below (or above) the exact sum of the first 2,900 lies
    # inside the grid enclosure there, and the exact sum decides whether
    # the 2,900th element crosses it
    indices = range(2000, 5001)
    table = FiniteTable(tuple(bin_of(n) for n in indices))
    acc = _IntervalAcc()
    for n in indices[:2900]:
        acc.add_inverses((n,), 1)
    exact = sum(F(1, n) for n in indices[:2900])
    below = exact.numerator * (1 << 200) // exact.denominator
    for numerator, want in ((below, ""), (below + 1, ("budget", 2900))):
        y = format(numerator, "0200b")
        assert acc.lo < rational_of_prefix(y) < acc.hi
        assert _fresh_outcome(table, y, 2900) == want == _fraction_fresh_index(table, y, 2900)


def test_fresh_index_holds_no_record_of_the_indices_taken():
    # the geometric index sum stays below 7/8; its 20,000 indices run to
    # 20,000 bits each, about 25 MB if the search kept them
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted):
            fresh_index(Builtin("geometric"), "111", 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sanity_chain():
    rep = sanity_chain(FiniteTable(("0", "10")))
    assert (rep.omega, rep.zeta) == (F(3, 4), F(2, 3))
    assert rep.holds and rep.strict
    collapsed = sanity_chain(FiniteTable(("0",)))
    assert collapsed.holds and not collapsed.strict  # zeta == omega/2 == 1/2
    with pytest.raises(MachineSpecError):
        sanity_chain(Builtin("all_strings"))


def test_tuatara_unit_identity():
    unit = tuatara_unit_identity("1011")
    assert unit.members == ("1011", "10110", "1011000", "10110000")
    assert unit.total == F(1, 16)
    assert unit.size == 4
    assert tuatara_unit_identity("1").members == ("1", "10")
    assert tuatara_unit_identity("1").total == F(1, 2)
    assert tuatara_unit_identity("0").members == ("0",)
    assert tuatara_unit_identity("0").total == F(1, 2)
    with pytest.raises(ValueError):
        tuatara_unit_identity("")


def test_universal_prefix_identity():
    assert universal_prefix_identity(1, 3) == ("011", 11)
    assert universal_prefix_identity(2, 1) == ("001", 9)
    for i in range(1, 5):
        for n in range(1, 40):
            w, idx = universal_prefix_identity(i, n)
            assert w == "0" * i + "1" + bin_of(n)
            assert bin_inv(w) == idx
    with pytest.raises(ValueError):
        universal_prefix_identity(0, 1)


def test_j_pairing():
    assert j_pairing(1, 1) == 5
    assert j_pairing(2, 1) == 11
    assert j_pairing(1, 2) == 9
    seen = {}
    for i in range(1, 17):
        for m in range(1, 17):
            j = j_pairing(i, m)
            assert j not in seen
            seen[j] = (i, m)
    with pytest.raises(ValueError):
        j_pairing(0, 1)


def test_tuatara_of_spawn_sets():
    # spawn sets nest internally (p is a prefix of p 0^i) but remain pairwise
    # disjoint across members, and their index weights add up to omega exactly
    rng = random.Random(59)
    for _ in range(25):
        lengths = []
        used = F(0)
        for _ in range(rng.randint(1, 6)):
            n = rng.randint(1, 8)
            if used + F(1, 1 << n) <= 1:
                lengths.append(n)
                used += F(1, 1 << n)
        pool = kraft_chaitin(lengths)
        assert is_prefix_free(pool)
        table = FiniteTable(tuple(sorted(pool)))
        units = [set(tuatara_unit_identity(p).members) for p in pool]
        for a, b in itertools.combinations(units, 2):
            assert not (a & b)
        spec = Construction("tuatara_of", (table,))
        words = list(domain_stream(spec))
        assert sorted(words) == sorted(set().union(*units))
        zt = zeta_enclosure(spec)
        om = omega_enclosure(table)
        assert zt.lo == zt.hi == om.lo


def test_tuatara_of_order_is_the_union_of_spawn_sets():
    # length-lex order of the union of X(p) over the operand, each string once;
    # every member of the finite operand's domain has length <= 8
    top = 12
    finite = FiniteTable(("0", "10", "1100", "1101", "111"))
    for operand in (finite, Builtin("geometric", extras=("10",)), Builtin("lukasiewicz")):
        ops = itertools.takewhile(lambda p: len(p) <= top, domain_stream(operand))
        members = {x for p in ops for x in tuatara_unit_identity(p).members}
        want = sorted((x for x in members if len(x) <= top), key=lambda w: (len(w), w))
        stream = domain_stream(Construction("tuatara_of", (operand,)))
        if operand is finite:
            assert list(stream) == want
            assert stream.count_up_to_length(5) == sum(len(x) <= 5 for x in want)
        else:
            assert list(itertools.islice(stream, len(want))) == want
    # an operand stream that ends (iota past its size budget) ends the stream
    small_iota = Construction("tuatara_of", (Builtin("iota", (), 100, 9),))
    rep = weighted_domain_sum(small_iota, F(1), 100, "omega")
    assert rep.exhausted and rep.enclosure.lo == rep.enclosure.hi == F(95, 128)


def test_sparse_iota_domain_stops_at_the_budget():
    # one step halts only the program 0; the budget bounds the candidates
    # examined, and what was not reached stays under the tail bound
    tight = Builtin("iota", (), 1)
    rep = weighted_domain_sum(tight, F(1), 30, "omega")
    assert (rep.consumed, rep.exhausted) == (1, False)
    assert (rep.enclosure.lo, rep.enclosure.hi) == (F(1, 2), 1)
    doubled = weighted_domain_sum(Construction("double", (tight,)), F(1), 30, "omega")
    assert (doubled.consumed, doubled.exhausted) == (1, False)
    assert doubled.enclosure.lo == F(1, 4) < doubled.enclosure.hi
    # nothing longer than the size budget halts, so that domain is finite
    small = weighted_domain_sum(Builtin("iota", (), 1, 9), F(1), 30, "omega")
    assert (small.consumed, small.exhausted) == (1, True)
    assert small.enclosure.lo == small.enclosure.hi == F(1, 2)
