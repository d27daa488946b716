"""End-to-end command runs, machine file parsing, and the exit code contract."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import tuatara
from tuatara import cli
from tuatara.binstr import bin_inv
from tuatara.cli import (
    DIGITS_CAP,
    EXIT_BUDGET,
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_USAGE,
    MachineFileError,
    parse_machine_file,
    run,
)
from tuatara.iota import count_programs, run_program, words_of_length
from tuatara.machines import (
    DENSITY_LENGTH_CAP,
    PRODUCT_COUNT_CAP,
    Builtin,
    Construction,
    FiniteTable,
    weighted_domain_sum,
)
from tuatara.numerics import POWER_BITS_CAP, ROOT_BITS_CAP, frac_text

_FINITE = "machine a\nkind finite\ndomain 0\ndomain 10\n"
_FINITE2 = "machine b\nkind finite\ndomain 0\ndomain 11\n"
_MAPPED = (
    "machine v\nkind finite\ndomain 0\ndomain 10\n"
    "map 0 -> 1\nmap 10 -> 00\n"
)
_FACT = "machine fact\nkind builtin\ngenerator geometric 10\n"
_LUKA = "machine l\nkind builtin\ngenerator lukasiewicz\n"
_IOTA = "machine h\nkind builtin\ngenerator iota\n"
_ALL = "machine a\nkind builtin\ngenerator all_strings\n"
_TOF = (
    "machine a\nkind finite\ndomain 1011\n"
    "machine w\nkind construction\nconstruct tuatara_of a\n"
)


def _file(tmp_path, text):
    p = tmp_path / "m.mt"
    p.write_text(text, encoding="utf-8")
    return str(p)


def _go(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_report_exact(tmp_path, capsys):
    f = _file(tmp_path, _FINITE)
    code, out, err = _go(capsys, "zeta", "--machine", f, "--format", "csv")
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "quantity,lo,hi,decimal,certified,budget",
        "zeta,2/3,2/3,0.666666666666,exact,100000",
    ]


def test_omega_interval_and_digits(tmp_path, capsys):
    f = _file(tmp_path, _FACT)
    code, out, err = _go(
        capsys, "omega", "--machine", f, "--digits", "8", "--format", "csv"
    )
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    fields = lines[1].split(",")
    assert fields[0] == "omega" and fields[2] == "5/4"
    assert fields[4] == "interval"
    assert F(fields[1]) < F(5, 4)
    assert lines[2] == "digits=1.00111111 determined=8"


def test_classify_report(tmp_path, capsys):
    f = _file(tmp_path, _FINITE)
    code, out, err = _go(capsys, "classify", "--machine", f, "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "sum,verdict,certified,lo,hi,notes"
    assert lines[1].startswith("zeta,tuatara,yes,2/3,2/3,")
    assert lines[2].startswith("omega,tuatara,yes,3/4,3/4,")


def test_uncertified_classify_says_why_on_one_line(tmp_path, capsys):
    # one element of tuatara_of(all_strings) leaves both sums unbounded above
    f = _file(tmp_path, _ALL + "machine t\nkind construction\nconstruct tuatara_of a\n")
    code, out, err = _go(capsys, "classify", "--machine", f, "--budget", "1", "--format", "csv")
    assert code == EXIT_BUDGET and out.splitlines()[1].startswith("zeta,unknown,no,")
    assert err == (
        "error: index sum not separated from the unit threshold at this budget; "
        "halting weight sum not separated from the unit threshold at this budget\n"
    )


def test_egyptian_command(capsys):
    code, out, err = _go(capsys, "egyptian", "4/5")
    assert (code, out) == (EXIT_OK, "1/2 + 1/4 + 1/20\n")
    # a remainder this size cannot materialize; the bit budget reports it
    code, out, err = _go(capsys, "egyptian", "5/3", "--floor", "28")
    assert code == EXIT_BUDGET
    assert err == "error: greedy denominator exceeded 100000 bits\n"
    code, out, err = _go(capsys, "egyptian", "0")
    assert code == EXIT_COMPUTE and err == "error: q must be positive\n"
    code, out, err = _go(capsys, "egyptian", "4/5", "--floor", "0")
    assert code == EXIT_COMPUTE and err == "error: floor must be >= 1\n"


def test_egyptian_prints_denominators_past_the_digit_limit(capsys):
    # the greedy tail ends in a 44,213-bit denominator, well inside the
    # default 100,000-bit budget but past str()'s default 4300-digit limit
    code, out, err = _go(capsys, "egyptian", "143299323/205428871", "--floor", "2")
    assert (code, err) == (EXIT_OK, "")
    terms = out.removesuffix("\n").split(" + ")
    assert all(t.startswith("1/") for t in terms)
    denoms = [int(Decimal(t[2:])) for t in terms]  # int() of the text has the limit too
    assert len(denoms) == 16 and max(denoms).bit_length() == 44_213
    assert sum(F(1, d) for d in denoms) == F(143299323, 205428871)


def test_kraft_command(capsys):
    code, out, err = _go(capsys, "kraft", "1", "2", "3", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "index,length,word",
        "1,1,0",
        "2,2,10",
        "3,3,110",
        "4,3,111",
    ]
    code, out, err = _go(capsys, "kraft", "1", "1", "1")
    assert code == EXIT_COMPUTE
    assert err == "error: request 3 (length 1) exceeds the remaining code space\n"


def test_grid_command(capsys):
    code, out, err = _go(
        capsys, "grid", "2", "3", "4", "--budget", "5", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "diagonal,row,col,term",
        "2,1,1,1/2",
        "3,2,1,1/4",
        "4,3,1,1/4",
        "4,2,2,1/16",
        "5,2,3,1/64",
    ]


_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_STR_DIGITS == 0, reason="str() prints integers of any size here")
def test_grid_refuses_a_term_past_the_digit_limit(capsys):
    # 1/(2^20 - 1) has the terms 2^-20c: find the first column c whose
    # denominator str() will not print, and ask for one term less, then for it
    c = next(c for c in itertools.count(1) if 2 ** (20 * c) >= 10 ** _STR_DIGITS)
    code, out, err = _go(capsys, "grid", str(2**20 - 1), "--budget", str(c - 1))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1].split() == [str(c), "1", str(c - 1), f"1/{2 ** (20 * c - 20)}"]
    # alone, and as the second row, whose column c comes first past the limit
    for ms, budget in (([2**20 - 1], c), ([3, 2**20 - 1], 3 * c)):
        argv = [*map(str, ms), "--budget", str(budget), "--format", "csv"]
        code, out, err = _go(capsys, "grid", *argv)
        assert (code, out) == (EXIT_BUDGET, "")  # no partial table
        assert err == (
            f"error: grid term 1/2^{20 * c} passes the {_STR_DIGITS}-digit limit on "
            f"printed integers; lower --budget {budget}\n"
        )
    if _STR_DIGITS == 4300:  # the default limit, where grid 3 prints at most 7142 terms
        code, out, err = _go(capsys, "grid", "3", "--budget", "7200")
        assert (code, out) == (EXIT_BUDGET, "")
        assert "1/2^14286 " in err and err.endswith(" --budget 7200\n")


def test_fresh_index_command(tmp_path, capsys):
    f = _file(tmp_path, _FINITE2)
    code, out, err = _go(capsys, "fresh-index", "1", "--machine", f)
    assert (code, out) == (EXIT_OK, "eps\n")
    code, out, err = _go(capsys, "fresh-index", "11", "--machine", f)
    assert code == EXIT_BUDGET
    assert err == (
        "error: budget exhausted after 2 stream element(s): "
        "stream exhausted at partial sum 9/14\n"
    )


def test_fresh_index_that_never_crosses_ends_in_one_short_line(tmp_path, capsys):
    # the geometric index sum stays below 1 - 2^-64; the partial sum runs on
    # the accumulator grid, so neither time nor the message grows with it
    f = _file(tmp_path, "machine g\nkind builtin\ngenerator geometric 10,0110\n")
    start = time.perf_counter()
    code, out, err = _go(capsys, "fresh-index", "1" * 64, "--machine", f, "--budget", "2000")
    assert time.perf_counter() - start < 5
    assert code == EXIT_BUDGET and out == ""
    assert err.count("\n") == 1 and len(err) < 400
    assert err.startswith("error: budget exhausted after 2000 stream element(s): partial sum in [")


def test_density_command(tmp_path, capsys):
    f = _file(tmp_path, _LUKA)
    code, out, err = _go(capsys, "density", "7", "--machine", f, "--format", "csv")
    assert code == EXIT_OK
    fields = out.splitlines()[1].split(",")
    assert fields[0] == "7" and fields[2] == "0.452846428777"
    code, out, err = _go(capsys, "density", "41", "--machine", f, "--format", "csv")
    assert out.splitlines()[1].split(",")[2] == "0.806469782349"


def test_density_text_and_cap(tmp_path, capsys):
    f = _file(tmp_path, _LUKA)
    code, out, err = _go(capsys, "density", "3000", "--machine", f, "--format", "csv")
    assert code == EXIT_OK and err == ""
    assert len(out.splitlines()[1].split(",")[1]) > 4300
    code, out, err = _go(capsys, "density", str(DENSITY_LENGTH_CAP + 1), "--machine", f)
    assert code == EXIT_COMPUTE and out == ""
    assert err == f"error: density length {DENSITY_LENGTH_CAP + 1} is past the cap of 8000\n"


def test_product_density_cap(tmp_path, capsys):
    # the counts of this product's strings grow like N^5: 532,801 up to
    # length 68, past PRODUCT_COUNT_CAP, so no longer length is counted
    f = _file(
        tmp_path,
        "machine a\nkind finite\n"
        + "".join(f"domain {w}\n" for w in ("0", "10", "110", "1110", "11110", "11111"))
        + "machine p\nkind construction\nconstruct product a\n",
    )
    code, out, err = _go(capsys, "density", "68", "--machine", f, "--format", "csv")
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[1].split(",")[2] == "0.279753489185"
    start = time.perf_counter()
    code, out, err = _go(capsys, "density", "200", "--machine", f)
    assert time.perf_counter() - start < 20
    assert code == EXIT_COMPUTE and out == ""
    assert err == (
        f"error: 532801 product strings up to length 68, past the cap of {PRODUCT_COUNT_CAP}\n"
    )


def test_exponent_range_is_the_engines(tmp_path, capsys):
    f = _file(tmp_path, _FINITE)
    for argv, message in (
        (("omega-s", "-s", "0"), "omega sums need s > 0"),
        (("zeta-s", "-s", "1/2"), "zeta sums need s >= 1"),
    ):
        code, out, err = _go(capsys, *argv, "--machine", f)
        assert (code, out, err) == (EXIT_COMPUTE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("omega-s", "-s", "1e-30"),
    ("kappa", "-s", "1000000000000000000000000000001/1000000000000000000000000000000"),
])
def test_exponent_denominators_past_the_root_cap_are_refused(tmp_path, capsys, argv):
    f = _file(tmp_path, "machine g\nkind builtin\ngenerator geometric\n")
    code, out, err = _go(capsys, *argv, "--machine", f)
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("error: a ") and err.count("\n") == 1 and err.endswith("\n")


def test_root_cap_refuses_a_table_sum_before_its_powers(tmp_path, capsys):
    f = _file(tmp_path, "machine t\nkind finite\n"
              "domain 0101010101010101010\ndomain 1101010101010101011\n")
    code, out, err = _go(capsys, "zeta-s", "-s", "10000001/10000000", "--machine", f)
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: a 10000000-th root needs 1640000000 operand bits, over 262144\n"


@pytest.mark.parametrize("command, machine", [
    ("omega-s", _ALL), ("zeta-s", _ALL), ("zeta-s", _FINITE),
])
def test_huge_integer_exponents_are_refused_before_their_powers(
    tmp_path, capsys, command, machine
):
    # at s = 10^9 a term or a tail is a power of about 10^9 bits; each of
    # these ran past 20 s before it was refused
    f = _file(tmp_path, machine)
    start = time.perf_counter()
    code, out, err = _go(capsys, command, "-s", "1000000000", "--budget", "5", "--machine", f)
    assert time.perf_counter() - start < 5
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("error: a power needs ") and err.count("\n") == 1


def test_huge_integer_exponents_still_answer_without_powers(tmp_path, capsys):
    # the normalized sums over all strings are 1 whatever s is
    f = _file(tmp_path, _ALL)
    for command in ("kappa", "kappa-natural"):
        argv = (command, "-s", "1000000000", "--machine", f, "--format", "csv")
        code, out, err = _go(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[1].split(",")[1:3] == ["1", "1"]


def test_kraft_lengths_past_budget(capsys):
    code, out, err = _go(capsys, "kraft", "1", "100000", "--format", "csv")
    assert code == EXIT_OK and out.splitlines()[2] == "2,100000,1" + "0" * 99999
    code, out, err = _go(capsys, "kraft", "1", "3", "--budget", "2")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: kraft length 3 is past --budget 2\n"


def test_sanity_command(tmp_path, capsys):
    f = _file(tmp_path, _FINITE2)
    code, out, err = _go(capsys, "sanity", "--machine", f, "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "quantity,value",
        "omega,3/4",
        "zeta,9/14",
        "chain_holds,yes",
        "strict,yes",
    ]
    f = _file(tmp_path, _LUKA)
    code, out, err = _go(capsys, "sanity", "--machine", f)
    assert code == EXIT_COMPUTE
    assert err == "error: sanity needs a finite table machine\n"


def test_sanity_prints_sums_of_any_size(tmp_path, capsys):
    # the exact zeta of this table has more digits than str() converts
    words = [format(i, "013b") for i in range(4500)]
    text = "machine big\nkind finite\n" + "".join(f"domain {w}\n" for w in words)
    code, out, err = _go(capsys, "sanity", "--machine", _file(tmp_path, text), "--format", "csv")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[1] == "omega,1125/2048"  # 4500 words of length 13
    label, value = lines[2].split(",")
    num, den = (int(Decimal(part)) for part in value.split("/"))
    assert label == "zeta" and len(value) > 4300
    assert F(num, den) == sum(F(1, 2 ** 13 + i) for i in range(4500))
    assert lines[3:] == ["chain_holds,yes", "strict,yes"]


def test_nabla_and_complexity_commands(tmp_path, capsys):
    f = _file(tmp_path, _MAPPED)
    code, out, err = _go(capsys, "nabla", "1", "--machine", f)
    assert (code, out) == (EXIT_OK, "2\n")
    code, out, err = _go(capsys, "nabla", "111", "--machine", f)
    assert code == EXIT_BUDGET and err == "no witness within budget\n"
    code, out, err = _go(capsys, "complexity", "00", "--machine", f)
    assert (code, out) == (EXIT_OK, "2\n")
    code, out, err = _go(
        capsys, "complexity", "1", "--machine", f, "--kind", "prefix"
    )
    assert (code, out) == (EXIT_OK, "1\n")


def test_deficiency_command(tmp_path, capsys):
    f = _file(tmp_path, _MAPPED)
    code, out, err = _go(
        capsys, "deficiency", "00", "--machine", f, "--kind", "nabla-log",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "m,complexity,threshold,slack",
        "1,none,1,",
        "2,2,2,0",
        "worst_slack=0",
        "n,index,statistic",
        "2,6,3/2",
    ]


def _bits(n: int, seed: int) -> str:
    rng = random.Random(seed)
    return "1" + "".join(rng.choice("01") for _ in range(n - 1))


def test_deficiency_prints_statistics_past_the_digit_limit(tmp_path, capsys):
    # the statistic 2/2^15000 has more digits than str() renders
    w = _bits(15000, 5)
    f = _file(tmp_path, f"machine a\nkind finite\ndomain 0\nmap 0 -> {w}\n")
    code, out, err = _go(
        capsys, "deficiency", w, "--machine", f, "--kind", "nabla-log", "--format", "csv"
    )
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-4:] == [
        "15000,1,15000,-14999",
        "worst_slack=-14999",
        "n,index,statistic",
        f"15000,2,{frac_text(F(1, 2 ** 14999))}",
    ]


def test_deficiency_prints_thresholds_past_the_digit_limit(tmp_path, capsys):
    # s = a/b parses, but each threshold m b/a and slack has 4,300 digits
    a, b = 10 ** 4299 + 1, 10 ** 4299
    f = _file(tmp_path, _MAPPED)
    code, out, err = _go(
        capsys, "deficiency", "0" * 10, "--machine", f, "-s", f"{a}/{b}", "--format", "csv"
    )
    assert (code, err) == (EXIT_OK, "")
    rows = out.splitlines()
    assert rows[2] == f"2,2,{frac_text(F(2 * b, a))},{frac_text(2 - F(2 * b, a))}"
    assert rows[-2:] == [f"10,none,{frac_text(F(10 * b, a))},", f"worst_slack={frac_text(F(2, a))}"]


def test_caps_name_integers_past_the_digit_limit(tmp_path, capsys):
    # -s a/b parses, but the operand bits of its b-th root pass str()'s
    # limit, as do the bits of a 15,000-bit index to the power a
    a, b = 10 ** 4299 + 1, 10 ** 4299
    f = _file(tmp_path, _MAPPED)
    code, out, err = _go(capsys, "zeta-s", "-s", f"{a}/{b}", "--machine", f)
    assert (code, out) == (EXIT_BUDGET, "")
    assert re.fullmatch(rf"error: a {b}-th root needs \d+ operand bits, over {ROOT_BITS_CAP}\n", err)
    f = _file(tmp_path, "machine a\nkind finite\ndomain " + _bits(15000, 5) + "\n")
    code, out, err = _go(capsys, "zeta-s", "-s", str(a), "--machine", f)
    assert (code, out) == (EXIT_BUDGET, "")
    assert re.fullmatch(rf"error: a power needs \d{{4301,}} bits, over {POWER_BITS_CAP}\n", err)


def _run_module(*argv, timeout=20):
    src = str(Path(tuatara.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "tuatara", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


_UNREACHED = "machine v\nkind finite\ndomain 0\ndomain 10\nmap 0 -> 0\nmap 10 -> 00\n"


@pytest.mark.parametrize("text", [
    _UNREACHED,
    _UNREACHED + "machine u\nkind construction\nconstruct universal_tuatara v\n",
], ids=["finite", "universal"])
def test_missing_targets_end_with_the_domain(tmp_path, text):
    # no output starts with 1: a search that walked every integer up to the
    # budget would take days here, one that walks the domain ends at once
    f = _file(tmp_path, text)
    budget = str(10 ** 12)
    proc = _run_module("nabla", "111", "--machine", f, "--budget", budget)
    assert (proc.returncode, proc.stdout) == (EXIT_BUDGET, "")
    assert proc.stderr == "no witness within budget\n"
    proc = _run_module(
        "deficiency", "111", "--machine", f, "--kind", "plain", "--budget", budget,
        "--format", "csv",
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    rows = proc.stdout.splitlines()[1:4]
    assert [row.split(",")[:2] for row in rows] == [["1", "none"], ["2", "none"], ["3", "none"]]


def test_iota_search_stops_at_its_witness(tmp_path):
    # the iota machine's domain is infinite; the walk ends at the target
    f = _file(tmp_path, _IOTA)
    proc = _run_module("nabla", "1010100", "--machine", f, "--budget", str(10 ** 12))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "212\n", "")


def test_iota_commands(capsys):
    code, out, err = _go(capsys, "iota", "parse", "11000")
    assert (code, out) == (EXIT_OK, "((i i) i)\n")
    code, out, err = _go(capsys, "iota", "run", "100")
    assert (code, out) == (EXIT_OK, "111010101001010100110101001010100\n")
    code, out, err = _go(capsys, "iota", "run", "1010100", "--steps", "1")
    assert code == EXIT_BUDGET
    assert err == "no normal form: steps budget hit after 2 step(s)\n"
    code, out, err = _go(capsys, "iota", "encode", "eps")
    assert (code, out) == (EXIT_OK, "1010100\n")
    code, out, err = _go(capsys, "iota", "decode", "1010100")
    assert (code, out) == (EXIT_OK, "eps\n")
    code, out, err = _go(capsys, "iota", "decode", "0")
    assert code == EXIT_COMPUTE
    assert err == "error: list element is not a boolean\n"
    code, out, err = _go(capsys, "iota", "decode", "1010100", "--steps", "2")
    assert code == EXIT_BUDGET
    assert err == "error: reduction steps budget exhausted mid-decode\n"
    code, out, err = _go(capsys, "iota", "count", "9")
    assert (code, out) == (EXIT_OK, "14\n")
    code, out, err = _go(capsys, "iota", "count", "-1")
    assert code == EXIT_COMPUTE and err == "error: length must be >= 0\n"
    # past str()'s 4,300 digits the count prints in full; past --budget it
    # is refused at once
    code, out, err = _go(capsys, "iota", "count", "100001")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: iota count 100001 is past --budget 100000\n"
    code, out, err = _go(capsys, "iota", "count", "99999")
    assert code == EXIT_OK and len(out) == 30097
    assert Decimal(out) == count_programs(99999)
    code, out, err = _go(capsys, "iota", "zeta", "4", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "iota-zeta[4],93/128,1,,interval,100000"
    # the closed form answers at the budget at once; one size past it is refused
    start = time.perf_counter()
    code, out, err = _go(capsys, "iota", "zeta", "5000", "--budget", "5000", "--format", "csv")
    assert code == EXIT_OK and out.splitlines()[1].split(",")[2] == "1"
    assert time.perf_counter() - start < 2
    code, out, err = _go(capsys, "iota", "zeta", "5001", "--budget", "5000")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: iota zeta 5001 is past --budget 5000\n"
    code, out, err = _go(capsys, "iota", "parse", "00")
    assert code == EXIT_COMPUTE
    assert err == "error: complete program after 1 bit(s), trailing input\n"


@pytest.mark.parametrize("comb", ["left", "right"])
def test_iota_commands_on_deep_combs(capsys, comb):
    # 60,000 nested applications: one facts run per level would pass any
    # recursion limit, so runs past a fixed depth step plainly; these
    # outputs are the plain kernel's
    n = 60_000
    if comb == "left":  # ((i i) i) ... i
        bits, text = "1" * n + "0" * (n + 1), "(" * n + "i i)" + " i)" * (n - 1)
    else:  # i (i (... (i i)))
        bits, text = "10" * n + "0", "(i " * n + "i" + ")" * n
    assert _go(capsys, "iota", "parse", bits) == (EXIT_OK, text + "\n", "")
    assert _go(capsys, "iota", "run", bits) == (
        EXIT_BUDGET, "", "no normal form: steps budget hit after 100001 step(s)\n")
    assert _go(capsys, "iota", "decode", bits) == (
        EXIT_BUDGET, "", "error: reduction steps budget exhausted mid-decode\n")


def test_usage_and_input_errors(tmp_path, capsys):
    code, out, err = _go(capsys, "frobnicate")
    assert code == EXIT_USAGE and "invalid choice" in err
    f = _file(tmp_path, _FINITE)
    code, out, err = _go(capsys, "zeta-s", "--machine", f)
    assert code == EXIT_COMPUTE and err == "error: this command needs -s RATIONAL\n"
    code, out, err = _go(capsys, "zeta")
    assert code == EXIT_COMPUTE and err == "error: this command needs --machine FILE\n"
    code, out, err = _go(capsys, "zeta", "--machine", str(tmp_path / "nope.mt"))
    assert code == EXIT_COMPUTE and "No such file" in err
    bad = _file(tmp_path, "machine x\nkind finite\ndomain 012\n")
    code, out, err = _go(capsys, "zeta", "--machine", bad)
    assert code == EXIT_COMPUTE
    assert err == "error: line 3: not a bit string: '012'\n"


_CLASSIFY_TABLE = (
    "sum    verdict  certified  lo  hi   notes\n"
    "zeta   unknown  no         1   inf  index sum not separated from the unit "
    "threshold at this budget\n"
    "omega  unknown  no         1   inf  halting weight sum not separated from the "
    "unit threshold at this budget\n"
)


@pytest.mark.parametrize("argv, code, out, err", [
    # every way a budget ends a command: exit 3 and one line on stderr
    ("iota run 100 --steps 0", EXIT_BUDGET, "",
     "no normal form: steps budget hit after 1 step(s)\n"),
    ("iota count 5 --budget 4", EXIT_BUDGET, "", "error: iota count 5 is past --budget 4\n"),
    ("iota zeta 5 --budget 4", EXIT_BUDGET, "", "error: iota zeta 5 is past --budget 4\n"),
    ("kraft 1 5 --budget 4", EXIT_BUDGET, "", "error: kraft length 5 is past --budget 4\n"),
    ("classify --machine tof.mt --budget 1", EXIT_BUDGET, _CLASSIFY_TABLE,
     "error: index sum not separated from the unit threshold at this budget; "
     "halting weight sum not separated from the unit threshold at this budget\n"),
    ("nabla 111 --machine mapped.mt", EXIT_BUDGET, "", "no witness within budget\n"),
    ("complexity 111 --machine mapped.mt --kind prefix", EXIT_BUDGET, "",
     "no witness within budget\n"),
    ("iota decode 0 --steps 0", EXIT_BUDGET, "",
     "error: reduction steps budget exhausted mid-decode\n"),
    ("fresh-index 1 --machine v.mt --budget 1", EXIT_BUDGET, "",
     "error: budget exhausted after 1 stream element(s): partial sum 1/2\n"),
    ("egyptian 5/3 --floor 28", EXIT_BUDGET, "",
     "error: greedy denominator exceeded 100000 bits\n"),
    ("zeta-s -s 3199/1599 --machine v.mt", EXIT_BUDGET, "",
     "error: a 1599-th root needs 262236 operand bits, over 262144\n"),
    # one case for each class of compute error: exit 2
    ("zeta --machine bad-line.mt", EXIT_COMPUTE, "", "error: line 3: not a bit string: '2'\n"),
    ("zeta --machine bad-spec.mt", EXIT_COMPUTE, "", "error: unknown generator 'nope'\n"),
    ("kraft 1 1 1", EXIT_COMPUTE, "",
     "error: request 3 (length 1) exceeds the remaining code space\n"),
    ("iota parse 1", EXIT_COMPUTE, "", "error: input ended with 2 subterm(s) still open\n"),
    ("iota decode 0", EXIT_COMPUTE, "", "error: list element is not a boolean\n"),
    ("egyptian 0", EXIT_COMPUTE, "", "error: q must be positive\n"),
    ("zeta --machine missing.mt", EXIT_COMPUTE, "",
     "error: [Errno 2] No such file or directory: 'missing.mt'\n"),
    # the arity of each directive, named with its line
    ("zeta --machine gen.mt", EXIT_COMPUTE, "", "error: line 3: generator needs a name\n"),
    ("zeta --machine geo-args.mt", EXIT_COMPUTE, "",
     "error: line 3: geometric takes one extras list\n"),
    ("zeta --machine luka-args.mt", EXIT_COMPUTE, "",
     "error: line 3: lukasiewicz takes no arguments\n"),
    ("zeta --machine construct.mt", EXIT_COMPUTE, "",
     "error: line 7: construct syntax is: construct KIND NAMES\n"),
    ("zeta --machine bound.mt", EXIT_COMPUTE, "", "error: line 8: bound needs one rational\n"),
    # the description checks behind a well-formed file
    ("zeta --machine dup-extra.mt", EXIT_COMPUTE, "", "error: duplicate extra string '10'\n"),
    ("zeta --machine two-operands.mt", EXIT_COMPUTE, "",
     "error: double takes exactly one operand\n"),
    ("zeta --machine bound-0.mt", EXIT_COMPUTE, "", "error: declared bounds must be positive\n"),
    ("density 2 --machine sparse.mt", EXIT_COMPUTE, "",
     "error: no domain strings up to that length\n"),
    # S (K K) (S (S (S I (K F)) (K F)) (K K)), with I = S K K: applied to
    # marks a and b it gives a F F K, a cons cell whose last argument is not b
    ("iota decode 11101010100110101001010100111010101001110101010011101010100111010101"
     "0010101001010100110101001010100110101001010100110101001010100", EXIT_COMPUTE, "",
     "error: cons probe did not pass through\n"),
    # --digits where no digit is determined, on an enclosure with no hi and
    # on one wider than 1 past the integer part of its lo
    ("omega --machine all.mt --budget 100 --digits 3", EXIT_OK,
     "quantity  lo      hi   decimal  certified    budget\n"
     "omega     421/64  inf           lower-bound  100\n"
     "digits= determined=0\n", ""),
    ("omega --machine tof-luka.mt --budget 1 --digits 3", EXIT_OK,
     "quantity  lo   hi  decimal  certified  budget\n"
     "omega     1/2  2            interval   1\n"
     "digits= determined=0\n", ""),
])
def test_refusals_end_in_their_exit_code_and_one_line(
    tmp_path, monkeypatch, capsys, argv, code, out, err
):
    for name, text in {
        "v.mt": _FINITE,
        "mapped.mt": _MAPPED,
        "tof.mt": _ALL + "machine t\nkind construction\nconstruct tuatara_of a\n",
        "bad-line.mt": "machine a\nkind finite\ndomain 2\n",
        "bad-spec.mt": "machine a\nkind builtin\ngenerator nope\n",
        "gen.mt": "machine a\nkind builtin\ngenerator\n",
        "geo-args.mt": "machine a\nkind builtin\ngenerator geometric 10 11\n",
        "luka-args.mt": "machine a\nkind builtin\ngenerator lukasiewicz 10\n",
        "construct.mt": _FINITE + "machine b\nkind construction\nconstruct double\n",
        "bound.mt": _FINITE + "machine b\nkind construction\n"
        "construct universal_convergent a\nbound\n",
        "dup-extra.mt": "machine a\nkind builtin\ngenerator geometric 10,10\n",
        "two-operands.mt": _FINITE + _FINITE2
        + "machine c\nkind construction\nconstruct double a,b\n",
        "bound-0.mt": _FINITE + "machine b\nkind construction\n"
        "construct universal_convergent a\nbound 0\n",
        "sparse.mt": "machine a\nkind finite\ndomain 0000\n",
        "all.mt": _ALL,
        "tof-luka.mt": _LUKA + "machine t\nkind construction\nconstruct tuatara_of l\n",
    }.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert _go(capsys, *argv.split()) == (code, out, err)


def test_digit_counts_are_checked_before_any_sum(tmp_path, capsys):
    f = _file(tmp_path, _FINITE)
    refusal = f"error: --digits must lie between 0 and {DIGITS_CAP}\n"
    for count in (-1, DIGITS_CAP + 1, 10 ** 9):
        assert _go(capsys, "zeta", "--machine", f, "--digits", str(count)) == (
            EXIT_COMPUTE, "", refusal)
    # the cap itself is accepted: 2/3 is 0.1010... in binary
    code, out, err = _go(capsys, "zeta", "--machine", f, "--digits", str(DIGITS_CAP))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == (
        f"digits=0.{'10' * (DIGITS_CAP // 2)} determined={DIGITS_CAP}")

def test_options_before_a_subcommand_are_usage_errors(tmp_path, capsys):
    # options go after the subcommand; before it they are refused, not
    # silently replaced by the subcommand's defaults
    f = _file(tmp_path, _FINITE)
    for argv in (
        ("--budget", "1", "zeta", "--machine", f),
        ("--machine", f, "zeta"),
        ("iota", "--budget", "3", "count", "5"),
    ):
        code, out, err = _go(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert "invalid choice" in err.splitlines()[-1], argv
    # after the subcommand they apply
    assert _go(capsys, "zeta", "--machine", f, "--budget", "1")[0] == EXIT_OK
    code, out, err = _go(capsys, "iota", "count", "5", "--budget", "3")
    assert code == EXIT_BUDGET and out == ""


def test_negative_budgets_are_usage_errors(capsys):
    for flag in ("--budget", "--steps", "--size-budget"):
        code, out, err = _go(capsys, "iota", "run", "0", flag, "-1")
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines()[-1].endswith(f"argument {flag}: must be >= 0: -1")
    code, out, err = _go(capsys, "iota", "run", "0", "--steps", "0")
    assert code == EXIT_OK and out == "0\n"


def test_sum_commands_honour_reduction_budgets(tmp_path, capsys):
    f = _file(tmp_path, _IOTA)
    base = ["zeta", "--machine", f, "--budget", "40", "--format", "csv"]
    code, full, err = _go(capsys, *base, "--steps", "100000")
    assert code == EXIT_OK
    assert _go(capsys, *base) == (EXIT_OK, full, "")  # the default budgets
    # with fewer steps or nodes fewer short programs halt, so the enclosure
    # moves; with one step only the program 0 halts, and the search for more
    # stops after the budget's 40 candidates with the tail bound
    for flag, value in (("--steps", "1"), ("--steps", "10"), ("--size-budget", "20")):
        code, out, err = _go(capsys, *base, flag, value)
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[1] != full.splitlines()[1]
    code, out, err = _go(capsys, *base, "--steps", "1")
    assert out.splitlines()[1] == "zeta,1/2,1,,interval,40"


def test_size_budget_ends_the_iota_domain(tmp_path, capsys):
    # no program longer than the size budget can halt, so the stream ends
    # and the sum is exact, however large the sum budget
    f = _file(tmp_path, _IOTA)
    halting = [
        w
        for n in range(1, 10, 2)
        for w in words_of_length(n)
        if run_program(w, size_budget=9).halted
    ]
    want = sum(F(1, 2 ** len(w)) for w in halting)
    code, out, err = _go(
        capsys, "omega", "--machine", f, "--size-budget", "9", "--budget", "100000",
        "--format", "csv",
    )
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[1] == f"omega,{want},{want},{float(want):.12f},exact,100000"
    code, out, err = _go(capsys, "fresh-index", "1", "--machine", f, "--steps", "1")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: budget exhausted after 1 stream element(s): partial sum 1/2\n"


def test_reduction_budgets_leave_other_generators_alone(tmp_path, capsys):
    f = _file(tmp_path, _LUKA)
    base = ["zeta", "--machine", f, "--budget", "50", "--format", "csv"]
    code, want, _ = _go(capsys, *base)
    assert code == EXIT_OK
    assert _go(capsys, *base, "--steps", "0", "--size-budget", "0") == (EXIT_OK, want, "")


def test_exponent_commands(tmp_path, capsys):
    f = _file(tmp_path, _TOF)
    code, out, err = _go(capsys, "zeta-s", "-s", "2", "--machine", f, "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "zeta[s=2],325/186624,325/186624,0.001741469478,exact,100000"
    f = _file(tmp_path, _FINITE)
    code, out, err = _go(capsys, "omega-s", "-s", "2", "--machine", f, "--format", "csv")
    assert out.splitlines()[1].startswith("omega[s=2],5/16,5/16,")
    code, out, err = _go(capsys, "kappa", "-s", "2", "--machine", f, "--format", "csv")
    assert out.splitlines()[1].startswith("kappa[s=2],5/32,5/32,")
    code, out, err = _go(
        capsys, "kappa-natural", "-s", "2", "--machine", f,
        "--budget", "10000", "--format", "csv", "--digits", "6",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    fields = lines[1].split(",")
    # zeta_s(2) = 5/18 divided by an enclosure of the full index sum at 2:
    # 5/(3 pi^2) = 0.16886863940389...
    assert fields[3] == "0.168868639403" and fields[4] == "interval"
    assert lines[2] == "digits=0.001010 determined=6"


def test_small_budget_gives_no_false_certificate(tmp_path, capsys):
    # the one element consumed is the empty string, weight 1 of zeta(3) ~ 1.202;
    # the integral test adds 1/8 to lo
    f = _file(tmp_path, _ALL)
    code, out, err = _go(
        capsys, "zeta-s", "-s", "3", "--machine", f, "--budget", "1", "--format", "csv"
    )
    assert code == EXIT_OK and err == ""
    _, lo, hi, _, cert, _ = out.splitlines()[1].split(",")
    assert cert == "interval" and F(lo) == F(9, 8) < F(6, 5) < F(hi)


def test_iota_parse_prints_deep_terms(capsys):
    n = 1200
    code, out, err = _go(capsys, "iota", "parse", "1" * n + "0" * (n + 1))
    assert (code, out, err) == (EXIT_OK, "(" * n + "i" + " i)" * n + "\n", "")
    code, out, err = _go(capsys, "iota", "parse", "10" * n + "0")
    assert (code, out, err) == (EXIT_OK, "(i " * n + "i" + ")" * n + "\n", "")


def test_runs_are_deterministic(tmp_path, capsys):
    f = _file(tmp_path, _FACT)
    first = _go(capsys, "classify", "--machine", f, "--format", "csv")
    second = _go(capsys, "classify", "--machine", f, "--format", "csv")
    assert first == second and first[0] == EXIT_OK


def test_parser_is_built_once(tmp_path, capsys):
    f = _file(tmp_path, _FINITE)
    cli._build_parser.cache_clear()
    for _ in range(20):
        assert _go(capsys, "zeta", "--machine", f)[0] == EXIT_OK
        assert _go(capsys, "kraft", "1", "2")[0] == EXIT_OK
        assert _go(capsys, "zeta", "--bogus")[0] == EXIT_USAGE
    assert cli._build_parser.cache_info().misses == 1


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    f = _file(tmp_path, _FINITE)
    argvs = [
        ["zeta", "--machine", f, "--bogus"],
        ["--help"],
        ["zeta", "--machine", f, "--budget", "5", "--format", "csv"],
        ["zeta", "--machine", f, "--format", "csv"],
        ["iota", "count", "5"],
        ["iota", "zeta", "3", "--format", "csv"],
    ]
    reused = [_go(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_go(capsys, *argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    assert "unrecognized arguments: --bogus" in reused[0][2]
    assert reused[1][1].startswith("usage: tuatara")
    # the budget column: the default comes back after an explicit budget
    assert reused[2][1].splitlines()[1].endswith(",exact,5")
    assert reused[3][1].splitlines()[1].endswith(",exact,100000")


def test_huge_rationals_in_witnesses_and_messages(tmp_path, capsys):
    # the exact index sum of 3,000 random 20-bit strings, the upper bound
    # while the budget has not exhausted the table, has more digits than
    # str() converts
    rng = random.Random(3000)
    words = sorted({format(rng.getrandbits(20), "020b") for _ in range(3000)})
    f = _file(tmp_path, "machine t\nkind finite\n" + "".join(f"domain {w}\n" for w in words))
    code, out, err = _go(capsys, "classify", "--machine", f, "--budget", "10", "--format", "csv")
    assert code == EXIT_OK and err == ""
    zeta = out.splitlines()[1].split(",")
    assert zeta[:3] == ["zeta", "tuatara", "yes"] and len(zeta[4]) > 4300
    assert zeta[5] == f"index sum certified <= 1 (upper bound {zeta[4]})"
    # so is the first index of the member of bound 4000; its one term takes
    # the partial sum past exact mode, and the message gives the sum's grid
    # enclosure instead
    f = _file(tmp_path, _convergent("4000"))
    code, out, err = _go(capsys, "fresh-index", "1", "--machine", f, "--budget", "1")
    assert code == EXIT_BUDGET and out == ""
    assert err == (
        "error: budget exhausted after 1 stream element(s): "
        f"partial sum in [0, 1/{1 << 192}]\n"
    )


def test_parse_machine_file_features():
    spec = parse_machine_file(_TOF)
    assert isinstance(spec, Construction) and spec.kind == "tuatara_of"
    assert spec.operands == (FiniteTable(("1011",)),)
    spec = parse_machine_file(_MAPPED)
    assert spec == FiniteTable(("0", "10"), ("1", "00"))
    spec = parse_machine_file(
        "machine g\nkind builtin\ngenerator geometric 10,110\n"
    )
    assert spec == Builtin("geometric", ("10", "110"))
    spec = parse_machine_file("machine e\nkind finite\ndomain eps\n")
    assert spec == FiniteTable(("",))
    text = (
        "machine m1\nkind finite\ndomain 0\nmap 0 -> 1\n"
        "machine m2\nkind finite\ndomain eps\nmap eps -> 0\n"
        "machine u\nkind construction\nconstruct universal_convergent m1,m2\n"
        "bound 1\nbound 2\n"
    )
    spec = parse_machine_file(text)
    assert spec.kind == "universal_convergent"
    assert spec.bounds == (F(1), F(2))
    # comments and blank lines are ignored; the last block is the result
    spec = parse_machine_file(
        "# header\nmachine a\nkind finite\ndomain 0  # inline\n\n"
        "machine b\nkind finite\ndomain 1\n"
    )
    assert spec == FiniteTable(("1",))
    spec = parse_machine_file(
        "machine p\nkind finite\nprefix_free\ndomain 0\ndomain 10\n"
    )
    assert spec == FiniteTable(("0", "10"))


def test_parse_machine_file_errors():
    cases = [
        ("kind finite\n", "directive before any machine"),
        ("machine a\ndomain 0\n", "has no kind"),
        ("machine a\nkind magic\n", "kind must be"),
        ("machine a\nkind finite\ndomain 0\ndomain 0\n", "duplicate domain"),
        ("machine a\nkind finite\ndomain 0\nmap 1 -> 0\n", "not in domain"),
        ("machine a\nkind finite\ndomain 0\nmap 0 = 1\n", "map syntax"),
        ("machine a\nkind builtin\n", "needs a generator"),
        ("machine a\nkind construction\nconstruct double z\n", "unknown machine 'z'"),
        ("machine a\nkind finite\nmachine a\nkind finite\n", "duplicate machine"),
        ("machine a\nkind finite\nflavor mild\n", "unknown directive"),
        ("machine a\nkind finite\nbound x\n", "not a rational"),
        ("", "no machine block"),
        (
            "machine a\nkind finite\nprefix_free\ndomain 0\ndomain 01\n",
            "not prefix-free",
        ),
    ]
    for text, fragment in cases:
        with pytest.raises(MachineFileError) as exc:
            parse_machine_file(text)
        assert fragment in str(exc.value), text


_ALL = "machine a\nkind builtin\ngenerator all_strings\n"


def test_root_size_cap_ends_in_exit_3(tmp_path, capsys):
    # kappa and kappa-natural are exactly 1 on all_strings, with no root, so
    # they take the table {1}
    for cmd, s, text in (("zeta-s", "100001/100000", _ALL), ("omega-s", "1/100000", _ALL),
                         ("kappa", "100001/100000", "machine a\nkind finite\ndomain 1\n"),
                         ("kappa-natural", "100001/100000", "machine a\nkind finite\ndomain 1\n")):
        f = _file(tmp_path, text)
        code, out, err = _go(capsys, cmd, "-s", s, "--machine", f, "--budget", "3")
        assert code == EXIT_BUDGET and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "operand bits, over" in err


def test_denominator_1000_is_accepted(tmp_path, capsys):
    f = _file(tmp_path, _ALL)
    code, out, err = _go(
        capsys, "zeta-s", "-s", "1001/1000", "--machine", f, "--budget", "20", "--format", "csv"
    )
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[1].startswith("zeta[s=1001/1000],")
    assert out.splitlines()[1].endswith(",interval,20")


def test_module_entry_point(tmp_path):
    f = _file(tmp_path, _FINITE)
    proc = _run_module("zeta", "--machine", f, "--format", "csv", timeout=60)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert proc.stdout.splitlines()[1] == "zeta,2/3,2/3,0.666666666666,exact,100000"
    proc = _run_module("zeta", "--machine", str(tmp_path / "missing.mt"), timeout=60)
    assert proc.returncode == EXIT_COMPUTE and proc.stderr.startswith("error: ")


def test_prime_product_index_cap(tmp_path, capsys):
    f = _file(tmp_path, "machine a\nkind finite\ndomain " + "1" * 21 + "\n"
              "machine p\nkind construction\nconstruct prime_product a\n")
    code, out, err = _go(capsys, "zeta", "--machine", f)
    assert code == EXIT_COMPUTE and out == ""
    assert err == "error: 4194303 primes requested, past the cap of 1048576\n"
    # an index past str()'s digit limit is named in full, as the module's own error
    w = _bits(15000, 7)
    f = _file(tmp_path, "machine a\nkind finite\ndomain " + w + "\n"
              "machine p\nkind construction\nconstruct prime_product a\n")
    code, out, err = _go(capsys, "zeta", "--machine", f)
    assert code == EXIT_COMPUTE and out == ""
    index = frac_text(F(bin_inv(w)))
    assert err == f"error: {index} primes requested, past the cap of 1048576\n"


def _convergent(bound: str) -> str:
    return (
        "machine a\nkind finite\ndomain 0\ndomain 1\n"
        f"machine u\nkind construction\nconstruct universal_convergent a\nbound {bound}\n"
    )


def test_universal_sum_stopped_short_has_a_finite_hi(tmp_path, capsys):
    # three strings 010, 0110 and 0011; two of them bound the third by its
    # halting weight, so both sums are certified at or below 1
    f = _file(
        tmp_path,
        _FINITE + "machine b\nkind finite\ndomain 1\n"
        "machine u\nkind construction\nconstruct universal_tuatara a,b\n",
    )
    code, out, err = _go(capsys, "classify", "--machine", f, "--budget", "2", "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:] == [
        "zeta,tuatara,yes,29/190,9/40,index sum certified <= 1 (upper bound 9/40)",
        "omega,tuatara,yes,3/16,1/4,halting weight sum certified <= 1 (upper bound 1/4)",
    ]


def test_universal_sums_at_the_prefix_cap_end_quickly(tmp_path, capsys):
    # a lone member of bound 2^20 - 1 sits behind 4,194,301 zeros; a sum that
    # stops at budget 1 bounds the other string by its halting weight
    f = _file(tmp_path, _convergent("1048575"))
    for cmd in ("zeta", "classify"):
        start = time.perf_counter()
        code, out, err = _go(capsys, cmd, "--machine", f, "--budget", "1", "--format", "csv")
        assert time.perf_counter() - start < 5, cmd
        assert (code, err) == (EXIT_OK, ""), cmd
        assert "inf" not in out, cmd


def test_omega_at_the_budget_cap_counts_each_length(tmp_path, capsys):
    # 2^40 - 1 strings fill the lengths 0..39 of all_strings, each length
    # one unit at s = 1; doubled, length 2L holds 2^L strings of weight 4^-L.
    # The omega kind counts each length and reads none of its strings
    budget = (1 << 40) - 1
    double = _ALL + "machine d\nkind construction\nconstruct double a\n"
    for text, lo in ((_ALL, F(40)), (double, 2 - F(1, 1 << 39))):
        start = time.perf_counter()
        code, out, err = _go(
            capsys, "omega", "--machine", _file(tmp_path, text), "--budget", str(budget),
            "--format", "csv",
        )
        assert time.perf_counter() - start < 2
        assert (code, err) == (EXIT_OK, "")
        assert F(out.splitlines()[1].split(",")[1]) == lo
    for spec in (Builtin("all_strings"), Construction("double", (Builtin("all_strings"),))):
        rep = weighted_domain_sum(spec, F(1), budget, "omega")
        assert (rep.consumed, rep.stop) == (budget, "budget")


def test_convergent_prefix_cap(tmp_path, capsys):
    # J = 2 (2M + 1) - 1 zeros for the lone member of bound M: 4,194,301 at
    # M = 2^20 - 1, past the cap of 2^22 from M = 2^20 on
    message = "error: member 1: its declared bound gives a prefix of more than 4194304 zeros\n"
    for bound in ("1e400", "1048576", "1048575.5"):
        f = _file(tmp_path, _convergent(bound))
        for cmd in ("zeta", "omega", "classify"):
            assert _go(capsys, cmd, "--machine", f) == (EXIT_COMPUTE, "", message)
    f = _file(tmp_path, _convergent("1048575"))
    code, out, err = _go(capsys, "omega", "--machine", f, "--format", "csv")
    assert code == EXIT_OK and err == ""


def test_huge_exponent_numerator_stops_below_the_grid(tmp_path, capsys):
    # past n = 1 every term of zeta(200001/2) lies below the 2^-160 grid
    f = _file(tmp_path, _ALL)
    reports = {}
    for budget in ("2", "1000"):
        start = time.perf_counter()
        code, out, err = _go(
            capsys, "kappa-natural", "-s", "200001/2", "--machine", f,
            "--budget", budget, "--format", "csv",
        )
        assert code == EXIT_OK and err == ""
        assert time.perf_counter() - start < 5
        # the endpoints have more digits than str() converts
        reports[budget] = [
            F(*(int(Decimal(part)) for part in x.split("/")))
            for x in out.splitlines()[1].split(",")[1:3]
        ]
    (lo2, hi2), (lo, hi) = reports["2"], reports["1000"]
    assert lo2 <= lo <= hi <= hi2
