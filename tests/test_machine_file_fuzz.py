"""Fuzzed machine files: any text ends in an exit code and one message, and
a machine written out as text parses back to itself.

The texts are built from the directive grammar of parse_machine_file:
blocks of machine, kind, domain, map, generator, construct, bound and
prefix_free lines, with wrong arities, unknown names and values, comments
and blank lines mixed in, or the text of a valid machine with a few lines
inserted, dropped or repeated. Each runs in-process through cli.run on omega, zeta or
classify. Budgets stay at most 200 elements and --steps at most 50, bit
strings at most 5 bits and bounds small or refused by the prefix cap, so
every run is bounded; no subprocess is started.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction as F

import pytest

from tuatara.binstr import render_bits
from tuatara.cli import EXIT_BUDGET, EXIT_COMPUTE, parse_machine_file, run
from tuatara.machines import Builtin, Construction, FiniteTable

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_bits = st.text("01", max_size=5)

# ---------------------------------------------------------------------------
# valid machines, and their text


def _prefix_free(domain: list[str]) -> list[str]:
    kept: list[str] = []
    for w in sorted(domain, key=len):
        if not any(w.startswith(v) for v in kept):
            kept.append(w)
    return kept


@st.composite
def _finite(draw, prefix_free: bool = False) -> FiniteTable:
    domain = draw(st.lists(_bits, unique=True, max_size=6))
    if prefix_free:
        domain = _prefix_free(domain)
    outputs = draw(st.lists(st.one_of(st.none(), _bits), min_size=len(domain),
                            max_size=len(domain)))
    mapped = any(o is not None for o in outputs)
    return FiniteTable(tuple(domain), tuple(outputs) if mapped else None)


def _builtin(steps: int, size: int):
    extras = st.lists(
        _bits.filter(lambda w: not (w.endswith("1") and set(w[:-1]) <= {"0"})),
        unique=True, max_size=3,
    )
    return st.one_of(
        st.sampled_from((Builtin("all_strings"), Builtin("lukasiewicz"))),
        st.just(Builtin("iota", (), steps, size)),
        extras.map(lambda e: Builtin("geometric", tuple(e))),
    )


def _construction(operand):
    finite = _finite()
    members = st.lists(finite, min_size=1, max_size=3).map(tuple)
    bound = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
    convergent = members.flatmap(lambda ms: st.lists(
        bound, min_size=len(ms), max_size=len(ms)
    ).map(lambda bs: Construction("universal_convergent", ms, tuple(bs))))
    # tuatara_of needs a prefix-free finite operand
    tuatara_operand = operand.flatmap(
        lambda op: _finite(prefix_free=True) if isinstance(op, FiniteTable) else st.just(op)
    )
    return st.one_of(
        st.builds(lambda k, op: Construction(k, (op,)),
                  st.sampled_from(("product", "prime_product")), finite),
        st.builds(lambda op: Construction("double", (op,)), operand),
        st.builds(lambda op: Construction("tuatara_of", (op,)), tuatara_operand),
        members.map(lambda ms: Construction("universal_tuatara", ms)),
        convergent,
    )


def _spec(steps: int, size: int):
    return st.recursive(
        st.one_of(_finite(), _builtin(steps, size)), _construction, max_leaves=4
    )


def _write(spec) -> str:
    """Machine file text for spec: operands first, the machine last."""
    blocks: list[str] = []

    def emit(m) -> str:
        if isinstance(m, FiniteTable):
            lines = ["kind finite"] + [f"domain {render_bits(w)}" for w in m.domain]
            for w, out in zip(m.domain, m.outputs or ()):
                if out is not None:
                    lines.append(f"map {render_bits(w)} -> {render_bits(out)}")
        elif isinstance(m, Builtin):
            extras = ",".join(render_bits(w) for w in m.extras)
            lines = ["kind builtin", f"generator {m.generator} {extras}".rstrip()]
        else:
            names = ",".join(emit(op) for op in m.operands)
            lines = ["kind construction", f"construct {m.kind} {names}"]
            lines += [f"bound {b}" for b in m.bounds]
        name = f"m{len(blocks)}"  # after the operands' blocks
        blocks.append("\n".join([f"machine {name}"] + lines))
        return name

    emit(spec)
    return "\n\n".join(blocks) + "\n"


@settings(max_examples=150, deadline=5_000)
@given(data=st.data(), steps=st.integers(1, 50), size=st.integers(1, 300))
def test_written_machines_parse_back(data, steps, size):
    spec = data.draw(_spec(steps, size), label="spec")
    assert parse_machine_file(_write(spec), steps, size) == spec


# ---------------------------------------------------------------------------
# any text from the grammar

_NAMES = ("a", "b", "m0", "m1", "x")
_KINDS = ("finite", "builtin", "construction", "table", "")
_GENERATORS = ("all_strings", "lukasiewicz", "iota", "geometric", "fibonacci")
_CONSTRUCTS = (
    "product", "double", "tuatara_of", "universal_tuatara", "universal_convergent",
    "prime_product", "sum",
)
_BOUNDS = ("1", "3/2", "1/3", "7", "0", "-1", "2/0", "x", "1e9")
_bit_token = st.one_of(_bits.map(render_bits), st.sampled_from(("2", "eps0", "", "0b1")))


def _names():
    return st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3).map(",".join)


def _line():
    return st.one_of(
        st.builds(lambda n: f"machine {n}", st.sampled_from(_NAMES)),
        st.builds(lambda k: f"kind {k}", st.sampled_from(_KINDS)),
        st.builds(lambda w: f"domain {w}", _bit_token),
        st.builds(lambda a, b: f"map {a} -> {b}", _bit_token, _bit_token),
        st.builds(lambda g: f"generator {g}", st.sampled_from(_GENERATORS)),
        st.builds(lambda ws: f"generator geometric {','.join(ws)}",
                  st.lists(_bit_token, min_size=1, max_size=3)),
        st.builds(lambda k, ns: f"construct {k} {ns}", st.sampled_from(_CONSTRUCTS), _names()),
        st.builds(lambda b: f"bound {b}", st.sampled_from(_BOUNDS)),
        st.sampled_from(("prefix_free", "prefix_free yes", "", "# note", "machine",
                         "map 0 1", "construct double", "junk 1", "domain 0 1")),
    )


@st.composite
def _text(draw, steps: int, size: int) -> str:
    """A valid machine's text with up to two lines inserted, dropped or
    repeated, or blocks of lines from the grammar."""
    if draw(st.booleans()):
        lines = _write(draw(_spec(steps, size))).splitlines()
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(("insert", "drop", "repeat")))
            if edit == "insert":
                lines.insert(at, draw(_line()))
            elif edit == "drop":
                del lines[at]
            else:
                lines.insert(at, lines[at])
    else:
        lines = []
        for name in draw(st.lists(st.sampled_from(_NAMES), max_size=3)):
            lines += [f"machine {name}"] + draw(st.lists(_line(), max_size=5))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def machine_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.mt"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=20_000)
@given(
    data=st.data(),
    command=st.sampled_from(("omega", "zeta", "classify")),
    budget=st.integers(0, 200),
    steps=st.integers(0, 50),
)
def test_any_machine_text_ends_in_an_exit_code_and_one_message(
    machine_path, data, command, budget, steps
):
    text = data.draw(_text(steps, 2000), label="text")
    machine_path.write_text(text, encoding="utf-8")
    code, out, err = _run(
        [command, "--machine", str(machine_path), "--budget", str(budget), "--steps", str(steps)]
    )
    assert code in (0, 1, 2, 3)
    if code in (EXIT_COMPUTE, EXIT_BUDGET):
        assert err.count("\n") == 1 and err.endswith("\n"), err
