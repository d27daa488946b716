"""Slow paths guarded by counted work, not by time, so a busy host cannot
move them.

A sum's report reduces only its winning candidate, n/d plus its tail
(Henrici's addition, as fractions does it), so every gcd it takes meets
the accumulator's own denominator: 2^_ACC_BITS on the grid, at most
_IntervalAcc._GUARD_BITS bits in exact mode. Reducing the cross sum
(n td + tn d) / (d td) instead takes the gcd of two integers as large as
the tail's, millions of bits at a large s. The tails themselves are the
stream hooks' work and are not counted here.

A deficiency report's search keeps one least index per prefix length and
builds no prefix string, so its traced memory is linear in the digits.

Counts and totals read a stream's lengths() groups, by their len or their
sum: a count walks no index, and the tuatara_of total at s = 1 builds one
Fraction per operand length.

A machine file records each run of plain domain or map lines at once: the
per-line directive code reads only the other lines, however long the table,
and checks each string of those lines once, as it reads the line.
"""

from __future__ import annotations

import fractions
import math
import sys
import tracemalloc
import types
from fractions import Fraction as F
from itertools import takewhile

import pytest

from tuatara import cli, machines
from tuatara.complexity import ComplexityOracle, ExecutableMachine, deficiency
from tuatara.machines import (
    _ACC_BITS,
    Builtin,
    Construction,
    FiniteTable,
    weighted_domain_sums,
)


def _report_gcd_bits(run) -> list[tuple[int, int]]:
    """For every gcd that report's own Fraction arithmetic takes while run()
    runs: the bit length of its smaller operand, and that of the largest
    denominator of the accumulator or of a completed length's upper sum.
    The gcds of the tail hooks (tail_bound, total_upper, _tail_upper, a
    bracket) and of the weights are taken in their own frames, and are not
    counted."""
    report = machines._Sum.report.__code__
    seen = []

    def gcd(a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == fractions.__file__:
            frame = frame.f_back
        if frame.f_code is report:
            acc, complete = frame.f_locals["acc"], frame.f_locals["self"].complete
            dens = [acc.ld, acc.hd] if acc.exact else [1 << _ACC_BITS]
            den = max(dens + [d for _, _, d in complete])
            seen.append((min(abs(a), abs(b)).bit_length(), den.bit_length()))
        return math.gcd(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractions, "math", types.SimpleNamespace(**{**vars(math), "gcd": gcd}))
        run()
    return seen


_LUKA = Builtin("lukasiewicz")
_SPECS = {
    "double_lukasiewicz": Construction("double", (_LUKA,)),
    "lukasiewicz": _LUKA,
    "geometric": Builtin("geometric"),
}


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_report_gcds_stay_within_the_grid(name):
    # at s = 100000 these sums are on the grid after their first term, so
    # no gcd of a report meets more than the _ACC_BITS + 1 bits of
    # 2^_ACC_BITS; reducing the total's or a cross sum's own integers
    # again would take gcds of s bits and more
    requests = [("omega", F(100000)), ("zeta", F(100000))]
    seen = _report_gcd_bits(lambda: weighted_domain_sums(_SPECS[name], requests, 2000))
    assert max((bits for bits, _ in seen), default=0) <= _ACC_BITS + 1


@pytest.mark.parametrize(
    "spec", [*_SPECS.values(), Builtin("all_strings")], ids=[*_SPECS, "all_strings"]
)
def test_report_gcds_meet_only_the_accumulator(spec):
    # where a completed length or a bracket wins, hi is n/d plus its tail,
    # in exact mode too: each gcd has an operand no larger than d, so none
    # passes the largest denominator the report holds
    requests = [(kind, s) for kind in ("omega", "zeta") for s in (F(2), F(7, 3), F(40))]
    reports = []
    seen = _report_gcd_bits(lambda: reports.extend(weighted_domain_sums(spec, requests, 2000)))
    assert any(r.upper not in ("total", "exhausted") for r in reports)
    assert all(bits <= den for bits, den in seen), seen


def test_deficiency_holds_no_prefix_strings():
    # the search keeps one least index per prefix length, so its memory is
    # linear in the digits: a report row each, 218-272 bytes on Python
    # 3.10-3.13; the prefixes themselves, digits[:m] for every m, would
    # hold n^2/2 bytes, 32 MB
    digits = "".join(format(i, "b") for i in range(1, 2000))[:8000]
    machine = ExecutableMachine(FiniteTable(("0", "1"), (digits[:3], digits)))
    tracemalloc.start()
    try:
        report = deficiency(digits, 2, ComplexityOracle("plain", machine), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.m for row in report.rows if row.slack is not None] == [3, len(digits)]
    assert peak < 512 * len(digits)


def test_counts_walk_no_index(monkeypatch):
    # each of these streams is counted from its groups' sizes; a product of
    # parts that are not a prefix code holds each length in one window here
    table = FiniteTable(("", "0", "10", "110", "1110", "0110", "111111"))
    specs = [
        table,
        Construction("universal_tuatara", (table, FiniteTable(("1", "01")))),
        Construction("double", (table,)),
        Construction("tuatara_of", (FiniteTable(("0", "10", "1100", "1101", "111")),)),
        Construction("product", (FiniteTable(("1", "01", "0")),)),
    ]

    def enumerated(spec):  # the strings of length <= ell for ell = -1..8, one at a time
        short = [len(w) for w in takewhile(lambda w: len(w) <= 8, machines.domain_stream(spec))]
        return [sum(length <= ell for length in short) for ell in range(-1, 9)]

    def walked(self):
        raise AssertionError("a count walked indices()")

    want = [enumerated(spec) for spec in specs]
    monkeypatch.setattr(machines.DomainStream, "indices", walked)
    for spec, counts in zip(specs, want):
        stream = machines.domain_stream(spec)
        assert [stream.count_up_to_length(ell) for ell in range(-1, 9)] == counts, spec


def test_tuatara_of_total_builds_a_fraction_per_operand_length(monkeypatch):
    # 64 prefix-free strings of lengths 5, 6 and 7: 0xxxx, 10xxxx and 11xxxxx
    domain = tuple(
        prefix + format(i, f"0{width}b")
        for prefix, width in (("0", 4), ("10", 4), ("11", 5))
        for i in range(1 << width)
    )
    stream = machines.domain_stream(Construction("tuatara_of", (FiniteTable(domain),)))
    want = sum(F(int("1" + w, 2), 4 ** len(w)) for w in domain)
    made = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(machines, "Fraction", Counted)
    total = stream.tail_bound(-1, 1, "omega")
    monkeypatch.undo()
    assert total == want
    assert len(made) <= 3 + 1, len(made)  # one per length, and the start value


def test_plain_domain_and_map_lines_skip_the_line_code(monkeypatch):
    # a run of "domain BITS" or "map BITS -> BITS" lines is one record; the
    # line code reads the machine, kind and prefix_free lines and no more,
    # so its calls are the same for a table of 800 lines and of 8000, and a
    # run's strings are bits by its pattern, so no token is checked alone
    calls, checks = [], []
    read_line, bits_token = cli._Reader.read_line, cli._bits_token

    def counted(self, lineno, text):
        calls.append(lineno)
        return read_line(self, lineno, text)

    def counted_bits(token, lineno):
        checks.append(lineno)
        return bits_token(token, lineno)

    monkeypatch.setattr(cli._Reader, "read_line", counted)
    monkeypatch.setattr(cli, "_bits_token", counted_bits)

    def table_text(domain, map_lines, end="\n"):
        return "".join(
            ["machine m\n", "kind finite\n"]
            + [f"domain {w}{end}" for w in domain]
            + [f"map {w} -> {w[-3:]}{end}" for w in domain[:map_lines]]
            + ["prefix_free\n"]
        )

    counts = []
    for domain_lines, map_lines in ((6000, 2000), (600, 200)):
        domain = [format(i, "013b") for i in range(domain_lines)]  # one length: prefix free
        calls.clear()
        table = cli.parse_machine_file(table_text(domain, map_lines))
        assert table.domain == tuple(domain)
        assert table.outputs == tuple(w[-3:] if i < map_lines else None for i, w in enumerate(domain))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3, counts
    assert checks == []
    # with a comment on every line, each string is checked once, where it is read
    domain = [format(i, "010b") for i in range(300)]
    table = cli.parse_machine_file(table_text(domain, 100, " # note\n"))
    assert table.domain == tuple(domain)
    assert len(checks) == 300 + 2 * 100, len(checks)
