"""Differential tests of the grid and kraft commands and the grid walk.

The reference kept here is the walk and the two commands as they were when
the grid built one Fraction per term and each table printed a line at a
time: `dyadic_row` doubles its remainder one bit per step, `grid_walk`
yields a GridTerm per cell, `_cmd_grid` prints str() of each term, and
`_emit` calls print once per row. The reference commands run through the
library's own argument parser and exit-code map, so the library's
commands must give the same exit code, stdout and stderr on every command
line, and its walk the same terms, rows, errors and code assignments.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest

from tuatara import cli
from tuatara.binstr import render_bits
from tuatara.egyptian import (
    CodeAssignment,
    GridTerm,
    KraftAllocator,
    KraftViolation,
    dyadic_diagonal,
    dyadic_row,
    grid_walk,
    kraft_chaitin,
    unit_sum_to_prefix_free,
)

# ---------------------------------------------------------------------------
# the reference


def _ref_dyadic_row(m):
    if m < 2:
        raise ValueError("rows need m >= 2")
    r = 1
    e = 0
    while r:
        r *= 2
        e += 1
        if r >= m:
            r -= m
            yield Fraction(1, 1 << e)


def _ref_grid_walk(ms, budget):
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rows = [_ref_dyadic_row(m) for m in ms]
    done = [False] * len(ms)
    emitted = 0
    d = 2
    while emitted < budget:
        hit = False
        for row in range(min(d - 1, len(ms)), 0, -1):
            t = next(rows[row - 1], None)
            if t is None:
                done[row - 1] = True
                continue
            hit = True
            yield GridTerm(d, row, d - row, t)
            emitted += 1
            if emitted >= budget:
                return
        if not hit and all(done):
            return
        d += 1


def _ref_unit_sum_to_prefix_free(ms, budget):
    alloc = KraftAllocator()
    terms, words = [], []
    for g in _ref_grid_walk(ms, budget):
        words.append(alloc.request(g.term.denominator.bit_length() - 1))
        terms.append(g.term)
    return CodeAssignment(tuple(terms), tuple(words), sum(terms, Fraction(0)))


def _ref_emit(header, rows, fmt):
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
        return
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _ref_cmd_kraft(args):
    cli._within_budget(args, "kraft length", max(args.lengths))
    words = kraft_chaitin(args.lengths)
    rows = [
        [str(i + 1), str(n), render_bits(w)]
        for i, (n, w) in enumerate(zip(args.lengths, words))
    ]
    _ref_emit(["index", "length", "word"], rows, args.format)


def _ref_cmd_grid(args):
    rows = []
    for t in _ref_grid_walk(args.ms, args.budget):
        try:
            term = str(t.term)
        except ValueError:
            size = t.term.denominator.bit_length() - 1
            raise cli._Refused(
                f"error: grid term 1/2^{size} passes the {sys.get_int_max_str_digits()}"
                f"-digit limit on printed integers; lower --budget {args.budget}"
            ) from None
        rows.append([str(t.d), str(t.row), str(t.col), term])
    _ref_emit(["diagonal", "row", "col", "term"], rows, args.format)


class _RefParser:
    """The library's parser, with the reference handler for grid and kraft."""

    def parse_args(self, argv):
        args = _PARSER.parse_args(argv)
        args.handler = {"grid": _ref_cmd_grid, "kraft": _ref_cmd_kraft}[args.command]
        return args


_PARSER = cli._build_parser()


def _outcome(argv, reference=False):
    out, err = io.StringIO(), io.StringIO()
    patch = mock.patch.object(cli, "_build_parser", _RefParser) if reference else None
    with patch or contextlib.nullcontext():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _agrees(*argv):
    """Both formats of the command line give the reference's code and bytes;
    the table format's outcome is returned."""
    argv = [str(a) for a in argv]
    for fmt in ("csv", "table"):
        got = _outcome([*argv, "--format", fmt])
        assert got == _outcome([*argv, "--format", fmt], reference=True), (argv, fmt)
    return got


def _walk(walk):
    """A walk's items until it ends or raises ValueError."""
    out = []
    try:
        out.extend(walk)
    except ValueError as exc:
        out.append(("ValueError", str(exc)))
    return out


def _assignment(fn, ms, budget):
    try:
        return fn(ms, budget)
    except KraftViolation as exc:
        return "KraftViolation", exc.index, exc.length


def _library_agrees(ms, budget):
    assert _walk(grid_walk(ms, budget)) == _walk(_ref_grid_walk(ms, budget))
    try:
        want = [g.term for g in _ref_grid_walk(ms, budget)]
    except ValueError:
        with pytest.raises(ValueError):
            dyadic_diagonal(ms, budget)
    else:
        assert dyadic_diagonal(ms, budget) == want
    for m in ms:
        assert _walk(itertools.islice(dyadic_row(m), 40)) == _walk(
            itertools.islice(_ref_dyadic_row(m), 40))


# ---------------------------------------------------------------------------
# fixed cases


def test_a_grid_without_terms_prints_its_header():
    assert _agrees("grid", 1, "--budget", 0) == (0, "diagonal  row  col  term\n", "")


def test_a_row_of_one_fails_at_its_first_read():
    assert _agrees("grid", 3, 1, "--budget", 1)[0] == cli.EXIT_OK
    assert _agrees("grid", 3, 1, "--budget", 2) == (
        cli.EXIT_COMPUTE, "", "error: rows need m >= 2\n")
    for argv in (("grid", 0), ("grid", -5, 3), ("grid", 2, 4, -1, "--budget", 9)):
        _agrees(*argv)


def test_rows_of_powers_of_two_end_early():
    code, out, _ = _agrees("grid", 2, 4, 8, 1024, "--budget", 100)
    assert code == cli.EXIT_OK and len(out.splitlines()) == 5
    _agrees("grid", 3, 16, 5, 2, "--budget", 60)
    _library_agrees((2, 4, 8, 1 << 40), 100)


_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_STR_DIGITS == 0, reason="str() prints integers of any size here")
def test_the_digit_limit_refusal():
    # 1/(2^20 - 1) has the terms 2^-20c; column c is the first past the limit
    c = next(c for c in itertools.count(1) if 2 ** (20 * c) >= 10 ** _STR_DIGITS)
    assert _agrees("grid", 2**20 - 1, "--budget", c - 1)[0] == cli.EXIT_OK
    for argv in ((2**20 - 1, "--budget", c), (3, 2**20 - 1, "--budget", 3 * c)):
        code, out, err = _agrees("grid", *argv)
        assert (code, out) == (cli.EXIT_BUDGET, "") and err.startswith("error: grid term 1/2^")


def test_kraft_tables_and_refusals():
    _agrees("kraft", 1, 2, 3, 3)
    _agrees("kraft", 0)
    _agrees("kraft", 1, 1, 1)  # the third word does not fit
    _agrees("kraft", 1, 3, "--budget", 2)  # a length past the budget
    _agrees("kraft", 2, -1)  # a negative length
    _agrees("kraft", 12, *range(1, 12), "--budget", 12)


def test_library_walks_match_on_fixed_rows():
    for ms, budget in (((2, 3, 4, 5, 6), 9), ((3,), 0), ((3, 5), 200), ((1,), 3), ((7, 0), 5)):
        _library_agrees(ms, budget)
    for ms, budget in (((3,), 20), ((3, 5, 9), 80), ((2, 2, 2), 5)):
        assert _assignment(unit_sum_to_prefix_free, ms, budget) == _assignment(
            _ref_unit_sum_to_prefix_free, ms, budget)


def test_random_command_lines():
    # the same draws as the property tests below, for runs without hypothesis
    rng = random.Random(61)
    for _ in range(60):
        ms = [rng.choice((rng.randint(-2, 40), 1 << rng.randint(0, 12), rng.randint(2, 1 << 21)))
              for _ in range(rng.randint(1, 8))]
        budget = rng.randint(0, 150)
        _agrees("grid", *ms, "--budget", budget)
        _library_agrees(ms, budget)
        lengths = [rng.randint(-1, 24) for _ in range(rng.randint(1, 30))]
        _agrees("kraft", *lengths, "--budget", rng.randint(0, 30))


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _M = st.one_of(st.integers(-3, 40), st.integers(0, 12).map(lambda k: 1 << k),
                   st.integers(2, 1 << 21))

    @settings(max_examples=150, deadline=None)
    @given(ms=st.lists(_M, min_size=1, max_size=8), budget=st.integers(0, 200))
    def test_grid_matches_the_reference(ms, budget):
        _agrees("grid", *ms, "--budget", budget)
        _library_agrees(ms, budget)

    @settings(max_examples=150, deadline=None)
    @given(lengths=st.lists(st.integers(-1, 30), min_size=1, max_size=40),
           budget=st.integers(0, 40))
    def test_kraft_matches_the_reference(lengths, budget):
        _agrees("kraft", *lengths, "--budget", budget)

    @settings(max_examples=100, deadline=None)
    @given(ms=st.lists(st.integers(2, 64), min_size=1, max_size=5), budget=st.integers(0, 60))
    def test_unit_sums_match_the_reference(ms, budget):
        got = _assignment(unit_sum_to_prefix_free, ms, budget)
        assert got == _assignment(_ref_unit_sum_to_prefix_free, ms, budget)
