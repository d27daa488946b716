"""Tests of the benchmark itself: generator, references, checker and tracer.

Run from the repository root with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import iotaref
import refmath
import tracer
import workloads
from workloads import LUKA, Request

ROOT = Path(__file__).resolve().parents[2]


def _check(request: Request, code: int, out: str):
    return checks.check_request(checks.Reference(), request, code, out)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("name", workloads.WHY)
def test_generator_is_deterministic(name):
    a = workloads.generate(name, 7, 10, "d")
    b = workloads.generate(name, 7, 10, "d")
    assert a.requests == b.requests and a.files == b.files


@pytest.mark.parametrize("name", workloads.WHY)
def test_second_seed_gives_another_mix_of_the_same_size(name):
    a = workloads.generate(name, 7, 10, "d")
    b = workloads.generate(name, 8, 10, "d")
    assert len(a.requests) == len(b.requests) == workloads.requests_per_pass(10)
    assert sorted(r.argv[0] for r in a.requests) == sorted(r.argv[0] for r in b.requests)
    assert a.requests != b.requests
    assert len(set(a.requests) & set(b.requests)) < len(a.requests) // 2


def test_pass_size_grows_with_seconds():
    assert len(workloads.generate("streams", 1, 20, "d").requests) == 200


def test_machine_text_round_trips_through_the_parser():
    from tuatara.cli import parse_machine_file
    from tuatara.machines import Construction, FiniteTable

    model = ("universal", (("finite", ("0", "11"), ("1", "eps")), ("finite", ("",), ("0",))))
    spec = parse_machine_file(workloads.machine_text(model))
    assert isinstance(spec, Construction) and spec.kind == "universal_tuatara"
    assert spec.operands[1] == FiniteTable(("",), ("0",))
    spec = parse_machine_file(workloads.machine_text(("double", LUKA)))
    assert spec.kind == "double" and spec.operands[0].generator == "lukasiewicz"


# ---------------------------------------------------------------------------
# references


def test_lukasiewicz_words_match_the_catalan_counts_and_order():
    from tuatara.iota import words_of_length

    for n in range(1, 16, 2):
        assert len(checks.luka_words(n)) == refmath.catalan((n - 1) // 2)
        assert tuple(checks.luka_words(n)) == words_of_length(n)


@pytest.mark.parametrize("n,s", [(7, Fraction(3, 2)), (12345, Fraction(101, 100)), (2, Fraction(7, 3))])
def test_pow_bracket_is_sound_and_tight(n, s):
    lo, hi = refmath.pow_bracket(n, s)
    a, b = s.numerator, s.denominator
    assert lo ** b * n ** a <= 1 <= hi ** b * n ** a
    assert hi - lo < lo / 2 ** 30


def test_double_lukasiewicz_omega_is_two_minus_root_three():
    lo, hi = checks.Reference().total(("double", LUKA), "omega", Fraction(1))
    assert lo <= 2 - Fraction(1732050807568877, 10 ** 15) <= hi + Fraction(1, 10 ** 14)
    assert hi - lo < Fraction(1, 2 ** 190)


def test_pairing_constants_behave():
    pair = ((((iotaref.PAIR, "$x"), "$y"), "$z"))
    nf, _ = iotaref.normalize(pair, 1000)
    assert nf == (("$z", "$x"), "$y")
    assert iotaref.normalize((((iotaref.TRUE, "$m"), "$n")), 100)[0] == "$n"
    with pytest.raises(iotaref.StepLimit):
        iotaref.normalize(iotaref.OMEGA, 5000)


def test_reference_codec_agrees_with_tuatara():
    from tuatara.iota import decode_bits, encode_bits

    for bits in ("", "0", "1101", "0010111"):
        assert iotaref.decode(encode_bits(bits)) == bits
        assert decode_bits(iotaref.encode(bits)) == bits


def test_grid_reference_on_a_small_case():
    rows = checks.grid_reference((2, 4, 3), 10)
    assert rows[:4] == [["2", "1", "1", "1/2"], ["3", "2", "1", "1/4"], ["4", "3", "1", "1/4"],
                        ["5", "3", "2", "1/16"]]
    assert len(rows) == 10


# ---------------------------------------------------------------------------
# checker


def _enclosure(label, lo, hi):
    cert = "exact" if lo == hi else ("lower-bound" if hi == "inf" else "interval")
    return f"quantity,lo,hi,decimal,certified,budget\n{label},{lo},{hi},,{cert},100\n"


def test_checker_flags_a_perturbed_enclosure():
    req = Request(("omega",), ("sum", LUKA, "omega", Fraction(1), "plain"))
    assert _check(req, 0, _enclosure("omega", "1/2", "1"))[0] is None
    assert _check(req, 0, _enclosure("omega", "1/2", "99/100"))[0] is not None  # true value is 1
    table = ("finite", ("0", "10", "110"), None)
    req = Request(("zeta",), ("sum", table, "zeta", Fraction(1), "plain"))
    exact = Fraction(1, 2) + Fraction(1, 6) + Fraction(1, 14)  # indices 2, 6 and 14
    assert _check(req, 0, _enclosure("zeta", exact, exact))[0] is None
    bumped = exact + Fraction(1, 10 ** 9)
    assert _check(req, 0, _enclosure("zeta", bumped, bumped))[0] is not None


def test_checker_flags_a_finite_bound_on_a_divergent_sum():
    req = Request(("zeta",), ("sum", ("all_strings",), "zeta", Fraction(1), "plain"))
    assert _check(req, 0, _enclosure("zeta", "3", "inf"))[0] is None
    assert _check(req, 0, _enclosure("zeta", "3", "1000"))[0] is not None


def test_checker_flags_a_wrong_decode_and_a_wrong_encode():
    req = Request(("iota", "decode"), ("decode", "0110"))
    assert _check(req, 0, "0110\n")[0] is None
    assert _check(req, 0, "0111\n")[0] is not None
    req = Request(("iota", "encode"), ("encode", "0110"))
    assert _check(req, 0, iotaref.encode("0110") + "\n")[0] is None
    assert _check(req, 0, iotaref.encode("0111") + "\n")[0] is not None


def test_checker_flags_wrong_exit_codes_and_bad_codes_for_kraft_and_egyptian():
    req = Request(("kraft",), ("kraft", (1, 2, 2)))
    good = "index,length,word\n1,1,0\n2,2,10\n3,2,11\n"
    assert _check(req, 0, good)[0] is None
    assert _check(req, 0, good.replace("3,2,11", "3,2,10"))[0] is not None
    assert _check(req, 2, "")[0] is not None
    req = Request(("egyptian",), ("egyptian", Fraction(19, 20), 2))
    assert _check(req, 0, "1/2 + 1/3 + 1/9 + 1/180\n")[0] is None
    assert _check(req, 0, "1/2 + 1/3 + 1/9 + 1/181\n")[0] is not None


def test_checker_flags_an_unreduced_run_output():
    prog = iotaref.spell((("K", "S"), "K"))
    req = Request(("iota", "run"), ("run", prog, True))
    assert _check(req, 0, iotaref.S_BITS + "\n")[0] is None
    assert _check(req, 0, prog + "\n")[0] is not None


def test_certified_bits():
    assert refmath.certified_bits(Fraction(1), Fraction(1)) == 256
    assert refmath.certified_bits(Fraction(1), None) == 0
    assert refmath.certified_bits(Fraction(0), Fraction(1, 1024)) == 10


# ---------------------------------------------------------------------------
# tracer and BENCHMARK.json


_RUN_REQUESTS = """
import contextlib, io, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import workloads, tracer
wl = workloads.generate({name!r}, 3, 10, {mdir!r})
import os
os.makedirs({mdir!r}, exist_ok=True)
for fname, text in wl.files.items():
    open(os.path.join({mdir!r}, fname), "w").write(text)
import tuatara.cli as cli
t = None
if {traced}:
    t = tracer.Tracer()
    tracer.install(t)
outs = []
for req in wl.requests[:{count}]:
    out, err = io.StringIO(), io.StringIO()
    if t:
        t.begin_request()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(req.argv))
    if t:
        t.end_request(1.0)
    outs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({{"outs": outs, "times": dict(t.times) if t else {{}},
                  "counts": dict(t.counts) if t else {{}}}}))
"""


def _run_requests(tmp_path, name: str, traced: bool, count: int) -> dict:
    code = _RUN_REQUESTS.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"),
                                name=name, mdir=str(tmp_path / name), traced=traced, count=count)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", workloads.WHY)
def test_traced_and_untraced_outputs_are_identical(tmp_path, name):
    plain = _run_requests(tmp_path, name, False, 30)
    traced = _run_requests(tmp_path, name, True, 30)
    assert traced["outs"] == plain["outs"]
    assert traced["times"]["cli.run"][0] == 30
    metrics = tracer.layer_metrics(traced["times"], traced["counts"], 0.1)
    assert metrics["cli.self_s"][0] > 0


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(tracer.layer_metrics({}, {}, 0.0))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in tracer.layer_metrics({}, {}, 0.0).items())
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb",
                     "certified_bits", "passed_frac"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup_bound = spec["end_to_end"][0]["bound"]
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])
