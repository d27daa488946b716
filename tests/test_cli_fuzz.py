"""Fuzzed command lines: every argv ends in an exit code and a message.

Each argv is drawn from the command and option names, small integers and
rationals, bit strings and junk tokens. Integer arguments stay within 64,
except those that the budget or a cap bounds: iota zeta's N reaches 3000
and kraft's lengths and iota count's N 10^9 (all are refused past
--budget), and density's n reaches from past DENSITY_LENGTH_CAP to 10^12;
and every argv ends with --budget at most 2000 and --steps at most 1000
(argparse keeps the last occurrence of an option), so every run is
bounded. run() is called in-process and no subprocess is started. The same
argv runs twice and must give the same result both times, which would
catch state leaking between calls through the parser that run() keeps.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from tuatara.cli import EXIT_BUDGET, EXIT_COMPUTE, run
from tuatara.machines import DENSITY_LENGTH_CAP

_COMMANDS = (
    "zeta", "omega", "zeta-s", "omega-s", "kappa", "kappa-natural", "classify",
    "egyptian", "kraft", "grid", "fresh-index", "density", "sanity", "nabla",
    "complexity", "deficiency", "iota", "parse", "run", "encode", "decode",
    "count",
)
_OPTIONS = (
    "--budget", "--digits", "--format", "--machine", "-s", "--steps",
    "--size-budget", "--floor", "--kind", "--help",
)
_WORDS = ("table", "csv", "json", "plain", "prefix", "nabla-log", "nabla", "eps")
_JUNK = ("", "-", "--", "x", "1/0", "0/0", "nan", "inf", "-1/2", "0b1", "2,3", "é", " ")
_MACHINES = {
    "finite.mt": "machine a\nkind finite\ndomain 0\ndomain 10\nmap 0 -> 1\nmap 10 -> eps\n",
    "all.mt": "machine a\nkind builtin\ngenerator all_strings\n",
    "geometric.mt": "machine g\nkind builtin\ngenerator geometric 10,0110\n",
    "luka.mt": "machine l\nkind builtin\ngenerator lukasiewicz\n",
    "iota.mt": "machine h\nkind builtin\ngenerator iota\n",
    "tuatara_of.mt": (
        "machine a\nkind finite\ndomain 1011\n"
        "machine w\nkind construction\nconstruct tuatara_of a\n"
    ),
    "convergent.mt": (
        "machine a\nkind finite\ndomain 0\ndomain 1\n"
        "machine u\nkind construction\nconstruct universal_convergent a\nbound 3\n"
    ),
    "broken.mt": "machine a\nkind finite\ndomain 2\n",
}


@pytest.fixture(scope="module")
def machine_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("machines")
    for name, text in _MACHINES.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in _MACHINES] + [str(root / "missing.mt")]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _int = st.integers(-2, 64).map(str)

    _rational = st.one_of(
        st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 64), st.integers(0, 64)),
        st.sampled_from(("1", "2", "3/2", "1.5", "0.25")),
    )

    _s = st.one_of(
        st.builds(lambda a, b: f"{a}/{b}", st.integers(1, 64), st.integers(1, 64)), _rational
    )

    # past the budget or the cap; an n at or just below the density cap is left
    # out, as each such run takes seconds
    _length = st.one_of(_int, st.integers(-2, 3000).map(str), st.integers(-2, 10 ** 9).map(str))

    _density_n = st.one_of(_int, st.integers(DENSITY_LENGTH_CAP + 1, 10 ** 12).map(str))

    _bits = st.one_of(st.text("01", max_size=64), st.just("eps"))

    _kind = st.sampled_from(("plain", "prefix", "nabla-log"))

    # each command's arguments: positionals, then options it needs or takes
    _ARGUMENTS = {
        "zeta": (),
        "omega": (),
        "classify": (),
        "sanity": (),
        "zeta-s": ("-s", _s),
        "omega-s": ("-s", _s),
        "kappa": ("-s", _s),
        "kappa-natural": ("-s", _s),
        "egyptian": (_rational, "--floor", _int),
        "kraft": (_length, _length, _length),
        "grid": (_int, _int),
        "fresh-index": (_bits,),
        "density": (_density_n,),
        "nabla": (_bits,),
        "complexity": (_bits, "--kind", _kind),
        "deficiency": (_bits, "--kind", _kind, "-s", _s),
        "iota parse": (_bits,),
        "iota run": (_bits,),
        "iota encode": (_bits,),
        "iota decode": (_bits,),
        "iota count": (_length,),
        "iota zeta": (st.integers(-2, 3000).map(str),),
    }

    # options every command takes
    _COMMON = {
        "--digits": _int,
        "--format": st.sampled_from(("table", "csv")),
        "--size-budget": st.integers(0, 2000).map(str),
    }

    @st.composite
    def _argv(draw, paths: list[str]) -> list[str]:
        """A command with arguments of the right types, now and then a token
        from anywhere in place of one of them or between them."""
        # short bit strings only: a long one read as an integer argument would
        # pass the bound of 64
        anything = st.one_of(
            st.sampled_from(_COMMANDS + _OPTIONS + _WORDS + _JUNK),
            st.sampled_from(paths),
            _int,
            _rational,
            st.text("01", max_size=2),
        )

        def token(typed):
            return draw(anything if draw(st.integers(0, 9)) == 0 else typed)

        command = draw(st.sampled_from(sorted(_ARGUMENTS)))
        argv = command.split()
        for arg in _ARGUMENTS[command]:
            argv.append(token(st.just(arg) if isinstance(arg, str) else arg))
        argv += ["--machine", token(st.sampled_from(paths))]
        for _ in range(draw(st.integers(0, 2))):
            option = draw(st.sampled_from(sorted(_COMMON)))
            argv += [option, token(_COMMON[option])]
        if draw(st.integers(0, 4)) == 0:
            argv.insert(draw(st.integers(0, len(argv))), draw(anything))
        budget, steps = draw(st.integers(0, 2000)), draw(st.integers(0, 1000))
        return argv + ["--budget", str(budget), "--steps", str(steps)]

    # the deadline leaves room for the slowest commands within these bounds
    @settings(max_examples=300, deadline=60_000)
    @given(data=st.data())
    def test_any_argv_ends_in_an_exit_code_and_one_message(machine_paths, data):
        argv = data.draw(_argv(machine_paths), label="argv")
        result = _run(argv)
        code, out, err = result
        assert code in (0, 1, 2, 3)
        if code in (EXIT_COMPUTE, EXIT_BUDGET):
            assert err.count("\n") == 1 and err.endswith("\n"), err
        assert _run(argv) == result
