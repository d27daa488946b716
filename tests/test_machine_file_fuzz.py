"""Fuzzed machine files: any text ends in an exit code and one message, and
a machine written out as text parses back to itself.

The texts are built from the directive grammar of parse_machine_file:
blocks of machine, kind, domain, map, generator, construct, bound and
prefix_free lines, with wrong arities, unknown names and values, comments
and blank lines mixed in, or the text of a valid machine with a few lines
inserted, dropped or repeated. Each runs in-process through cli.run on omega, zeta or
classify. The same texts, with comments, tabs, CRLF line ends and trailing
spaces added, also run against a copy of the original line loop, which must
give the same exit code, output and message. Budgets stay at most 200
elements and --steps at most 50, bit strings at most 5 bits and bounds
small or refused by the prefix cap, so every run is bounded; no subprocess
is started.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction as F
from unittest import mock

import pytest

from tuatara import cli
from tuatara.binstr import parse_bits, render_bits
from tuatara.cli import EXIT_BUDGET, EXIT_COMPUTE, MachineFileError, parse_machine_file, run
from tuatara.machines import Builtin, Construction, FiniteTable, validate_spec
from tuatara.numerics import parse_rational


# ---------------------------------------------------------------------------
# valid machines, and their text


def _prefix_free(domain: list[str]) -> list[str]:
    kept: list[str] = []
    for w in sorted(domain, key=len):
        if not any(w.startswith(v) for v in kept):
            kept.append(w)
    return kept


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


@pytest.fixture(scope="module")
def machine_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.mt"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the line loop against a plain copy of it


def _reference_parse(text: str, step_budget: int, size_budget: int):
    """parse_machine_file as first written: every line has its comment cut
    and is stripped, and each bit token goes through parse_bits."""
    known: dict = {}
    block = None
    last = None

    def bits(token: str, line: int) -> str:
        try:
            return parse_bits(token)
        except ValueError as exc:
            raise MachineFileError(line, str(exc)) from None

    def close() -> None:
        nonlocal block, last
        if block is not None:
            spec = cli._finish_block(block, known, (step_budget, size_budget))
            known[block.name] = spec
            last = spec
            block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "machine":
            if len(tokens) != 2:
                raise MachineFileError(lineno, "machine needs exactly one name")
            close()
            if tokens[1] in known:
                raise MachineFileError(lineno, f"duplicate machine {tokens[1]!r}")
            block = cli._Block(tokens[1], lineno)
            continue
        if block is None:
            raise MachineFileError(lineno, "directive before any machine line")
        if key == "kind":
            if len(tokens) != 2 or tokens[1] not in ("finite", "builtin", "construction"):
                raise MachineFileError(lineno, "kind must be finite, builtin or construction")
            if block.kind is not None:
                raise MachineFileError(lineno, "duplicate kind line")
            block.kind = tokens[1]
        elif key == "domain":
            if len(tokens) != 2:
                raise MachineFileError(lineno, "domain needs exactly one string")
            w = bits(tokens[1], lineno)
            if w in block.domain:
                raise MachineFileError(lineno, f"duplicate domain string {tokens[1]!r}")
            block.domain[w] = None
        elif key == "map":
            if len(tokens) != 4 or tokens[2] != "->":
                raise MachineFileError(lineno, "map syntax is: map BITS -> BITS")
            src = bits(tokens[1], lineno)
            dst = bits(tokens[3], lineno)
            if src not in block.domain:
                raise MachineFileError(lineno, f"map source {tokens[1]!r} not in domain")
            if src in block.maps:
                raise MachineFileError(lineno, f"duplicate map for {tokens[1]!r}")
            block.maps[src] = dst
        elif key == "generator":
            if block.generator is not None:
                raise MachineFileError(lineno, "duplicate generator line")
            if len(tokens) < 2:
                raise MachineFileError(lineno, "generator needs a name")
            block.generator = tokens[1]
            if tokens[1] == "geometric":
                if len(tokens) > 3:
                    raise MachineFileError(lineno, "geometric takes one extras list")
                if len(tokens) == 3:
                    block.extras = tuple(bits(t, lineno) for t in tokens[2].split(","))
            elif len(tokens) != 2:
                raise MachineFileError(lineno, f"{tokens[1]} takes no arguments")
        elif key == "construct":
            if block.construct is not None:
                raise MachineFileError(lineno, "duplicate construct line")
            if len(tokens) != 3:
                raise MachineFileError(lineno, "construct syntax is: construct KIND NAMES")
            block.construct = tokens[1]
            block.operand_names = tokens[2].split(",")
        elif key == "bound":
            if len(tokens) != 2:
                raise MachineFileError(lineno, "bound needs one rational")
            try:
                block.bounds.append(parse_rational(tokens[1]))
            except ValueError as exc:
                raise MachineFileError(lineno, str(exc)) from None
        elif key == "prefix_free":
            if len(tokens) != 1:
                raise MachineFileError(lineno, "prefix_free takes no arguments")
            block.check_prefix_free = True
        else:
            raise MachineFileError(lineno, f"unknown directive {key!r}")
    close()
    if last is None:
        raise MachineFileError(1, "no machine block found")
    validate_spec(last)
    return last


_ODD_LINES = (
    "domain", "domain 0 1 0", "domain eps", "domain 01#x", "domain 0#", "domain 0 # note",
    "domain 0\t# tab", "domain 1_0", "domain 10\u00a0", "map 0 -> 1 # note", "map eps -> eps",
    "#machine a", "# machine a", "#", "kind finite", "kind finite # again", "machine a#b",
    "prefix_free #", "\t", " ",
)


def _outcome(parse, text: str, steps: int):
    try:
        return parse(text, steps, 2000)
    except ValueError as exc:
        return type(exc), str(exc)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    _bits = st.text("01", max_size=5)

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

    @settings(max_examples=150, deadline=5_000)
    @given(data=st.data(), steps=st.integers(1, 50), size=st.integers(1, 300))
    def test_written_machines_parse_back(data, steps, size):
        spec = data.draw(_spec(steps, size), label="spec")
        assert parse_machine_file(_write(spec), steps, size) == spec

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

    @st.composite
    def _decorated_text(draw, steps: int, size: int) -> str:
        """A text from _text, or a finite table's, with odd lines mixed in, and
        with tabs or runs of blanks between tokens, blanks after them, comments
        after them or at the line start, and LF or CRLF line ends."""
        lines = draw(st.one_of(_text(steps, size), _finite().map(_write))).splitlines()
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)))
        out = []
        for line in lines:
            sep = draw(st.sampled_from((" ", " ", "\t", "  ", " \t ")))
            line = sep.join(line.split(" "))
            lead, trail = draw(st.sampled_from(("", "", " ", "\t"))), draw(st.sampled_from(
                ("", "", " ", "\t ", " # note", "#", "\t#x y")))
            if draw(st.integers(0, 39)) == 0:
                line = "#" + line
            out.append(lead + line + trail)
        return draw(st.sampled_from(("\n", "\r\n"))).join(out) + "\n"

    @settings(max_examples=200, deadline=20_000)
    @given(
        data=st.data(),
        command=st.sampled_from(("omega", "zeta", "classify", "sanity")),
        budget=st.integers(0, 200),
        steps=st.integers(0, 50),
    )
    def test_the_line_loop_answers_as_its_plain_copy(machine_path, data, command, budget, steps):
        text = data.draw(_decorated_text(steps, 2000), label="text")
        machine_path.write_bytes(text.encode("utf-8"))
        argv = [command, "--machine", str(machine_path), "--budget", str(budget), "--steps", str(steps)]
        if command == "sanity":
            argv = argv[:3]
        got = _run(argv)
        with mock.patch.object(cli, "parse_machine_file", _reference_parse):
            want = _run(argv)
        assert got == want
        # the file is read with universal newlines; the text itself keeps CRLF
        assert _outcome(parse_machine_file, text, steps) == _outcome(_reference_parse, text, steps)
