"""Command-line front end: machine files, reports, and exit-code contracts.

Exit codes: 0 success, 1 usage error, 2 computation error (bad input data,
violated preconditions), 3 budget exhausted without a certificate.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import iota as iota_mod
from .binstr import is_prefix_free, parse_bits, render_bits
from .complexity import (
    NO_WITNESS,
    ComplexityOracle,
    ExecutableMachine,
    deficiency,
    nabla,
)
from .egyptian import (
    ExpansionOverflow,
    KraftViolation,
    egyptian_floor,
    grid_cells,
    kraft_chaitin,
)
from .machines import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    Builtin,
    Construction,
    FiniteTable,
    MachineSpec,
    classify,
    density_statistic,
    fresh_index,
    omega_enclosure,
    sanity_chain,
    validate_spec,
    zeta_enclosure,
)
from .numerics import Enclosure, PrecisionLimit, digits as digit_extract, frac_text, parse_rational
from .spectral import kappa, kappa_natural, omega_s, zeta_s

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_BUDGET = 3

DIGITS_CAP = 1 << 20  # most binary digits --digits may ask for


class MachineFileError(ValueError):
    """Machine description rejected, with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# machine description files

# a run of lines of one directive in the shape files mostly hold: exactly
# "domain BITS" or "map BITS -> BITS", with single spaces, no eps, no comment
_RUNS = re.compile(r"^(?:domain [01]+\n)+|^(?:map [01]+ -> [01]+\n)+", re.M)
# str.splitlines breaks lines at these besides \n, and at \x85, \u2028 and \u2029
_ASCII_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


class _Block:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.kind: str | None = None
        self.domain: dict[str, None] = {}  # the strings, in line order
        self.maps: dict[str, str] = {}
        self.generator: str | None = None
        self.extras: tuple[str, ...] = ()
        self.construct: str | None = None
        self.operand_names: list[str] = []
        self.bounds: list[Fraction] = []
        self.check_prefix_free = False


def _bits_token(token: str, line: int) -> str:
    try:
        return parse_bits(token)
    except ValueError as exc:
        raise MachineFileError(line, str(exc)) from None


def _finish_block(
    block: _Block, known: dict[str, MachineSpec], budgets: tuple[int, int]
) -> MachineSpec:
    if block.kind is None:
        raise MachineFileError(block.line, f"machine {block.name!r} has no kind")
    if block.kind == "finite":
        outputs = tuple(map(block.maps.get, block.domain)) if block.maps else None
        table = FiniteTable(tuple(block.domain), outputs)
        if block.check_prefix_free and not is_prefix_free(table.domain):
            raise MachineFileError(block.line, f"machine {block.name!r} domain is not prefix-free")
        return table
    if block.kind == "builtin":
        if block.generator is None:
            raise MachineFileError(block.line, "builtin block needs a generator")
        if block.generator == "iota":
            return Builtin(block.generator, block.extras, *budgets)
        return Builtin(block.generator, block.extras)
    if block.construct is None:
        raise MachineFileError(block.line, "construction block needs construct")
    operands = []
    for name in block.operand_names:
        if name not in known:
            raise MachineFileError(block.line, f"unknown machine {name!r}")
        operands.append(known[name])
    return Construction(block.construct, tuple(operands), tuple(block.bounds))


class _Reader:
    """A machine file as read so far: the spec of each closed block by name,
    the last spec closed, and the open block."""

    def __init__(self, budgets: tuple[int, int]):
        self.budgets = budgets
        self.known: dict[str, MachineSpec] = {}
        self.last: MachineSpec | None = None
        self.block: _Block | None = None

    def close(self) -> None:
        if self.block is not None:
            spec = _finish_block(self.block, self.known, self.budgets)
            self.known[self.block.name] = self.last = spec
            self.block = None

    def read_run(self, first: int, run: str) -> int:
        """Read a match of _RUNS whose first line is line first, and return
        the number of the line after it. Its strings are bits by the
        pattern, and are recorded at once, as its lines one at a time would
        record them, unless a line would fail a check: a duplicate string, a
        map source not yet in the domain or a duplicate map. Then the run is
        read line by line, to name the line at fault."""
        block = self.block
        if block is None:
            return self.read_lines(first, run)
        if run[0] == "d":
            words = run[7:-1].split("\ndomain ")
            new = dict.fromkeys(words)
            if len(new) == len(words) and block.domain.keys().isdisjoint(new):
                block.domain |= new
                return first + len(new)
        else:
            parts = run[4:-1].replace("\nmap ", " -> ").split(" -> ")
            new = dict(zip(parts[::2], parts[1::2]))  # source: target
            if (
                2 * len(new) == len(parts)
                and new.keys() <= block.domain.keys()
                and block.maps.keys().isdisjoint(new)
            ):
                block.maps |= new
                return first + len(new)
        return self.read_lines(first, run)

    def read_lines(self, first: int, text: str) -> int:
        """Read text line by line, its first line being line first, and
        return the number of the line after it."""
        lines = text.splitlines()
        for lineno, line in enumerate(lines, first):
            self.read_line(lineno, line)
        return first + len(lines)

    def read_line(self, lineno: int, line: str) -> None:
        """Read one line: the code of every directive."""
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            return
        key = tokens[0]
        if key == "machine":
            if len(tokens) != 2:
                raise MachineFileError(lineno, "machine needs exactly one name")
            self.close()
            if tokens[1] in self.known:
                raise MachineFileError(lineno, f"duplicate machine {tokens[1]!r}")
            self.block = _Block(tokens[1], lineno)
            return
        block = self.block
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
            w = _bits_token(tokens[1], lineno)
            if w in block.domain:
                raise MachineFileError(lineno, f"duplicate domain string {tokens[1]!r}")
            block.domain[w] = None
        elif key == "map":
            if len(tokens) != 4 or tokens[2] != "->":
                raise MachineFileError(lineno, "map syntax is: map BITS -> BITS")
            src = _bits_token(tokens[1], lineno)
            dst = _bits_token(tokens[3], lineno)
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
                    block.extras = tuple(_bits_token(t, lineno) for t in tokens[2].split(","))
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


def parse_machine_file(
    text: str,
    step_budget: int = iota_mod.DEFAULT_STEP_BUDGET,
    size_budget: int = iota_mod.DEFAULT_SIZE_BUDGET,
) -> MachineSpec:
    """Parse a machine description; the last block is the result.

    Earlier blocks become named operands for later construction blocks.
    Iota generator blocks run their programs under the given reduction
    budgets. Each string is checked as its line is read, so the first
    error reported is the first line at fault. Runs of domain or map lines
    in their plain shape are read at once; all other lines, and a run that
    fails a check, are read one at a time, in the same order.
    """
    reader = _Reader((step_budget, size_budget))
    if not text.isascii() or any(map(text.__contains__, _ASCII_BREAKS)):
        text = "\n".join(text.splitlines())  # the same lines, broken at \n only
    lineno, pos = 1, 0
    for match in _RUNS.finditer(text):
        lineno = reader.read_lines(lineno, text[pos : match.start()])
        lineno = reader.read_run(lineno, match[0])
        pos = match.end()
    reader.read_lines(lineno, text[pos:])
    reader.close()
    if reader.last is None:
        raise MachineFileError(1, "no machine block found")
    validate_spec(reader.last)
    return reader.last


# ---------------------------------------------------------------------------
# rendering


def _frac(x: Fraction | None) -> str:
    return "inf" if x is None else frac_text(x)


def _decimal_common(e: Enclosure, places: int = 12) -> str:
    """Decimal digits shared by every value in the enclosure."""
    if e.hi is None:
        return ""
    scale = 10 ** places
    a = (e.lo.numerator * scale) // e.lo.denominator
    b = (e.hi.numerator * scale) // e.hi.denominator
    sa = f"{a:0{places + 1}d}"
    sb = f"{b:0{places + 1}d}"
    shared = 0
    while shared < len(sa) and shared < len(sb) and sa[shared] == sb[shared]:
        shared += 1
    if len(sa) != len(sb) or shared <= len(sa) - places:
        return ""  # not even the integer part is pinned down
    head = sa[: len(sa) - places] or "0"
    tail = sa[len(sa) - places : shared]
    return head + ("." + tail if tail else "")


def _emit(header: list[str], rows: list[list[str]], fmt: str) -> None:
    table = [header, *rows]
    if fmt == "csv":
        lines = map(",".join, table)
    else:
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)
    # writelines takes each line as made; print(*lines) would hold a second table
    sys.stdout.writelines(f"{line}\n" for line in lines)


def _enclosure_report(label: str, e: Enclosure, args) -> None:
    if e.hi is None:
        cert = "lower-bound"
    elif e.lo == e.hi:
        cert = "exact"
    else:
        cert = "interval"
    _emit(
        ["quantity", "lo", "hi", "decimal", "certified", "budget"],
        [[label, _frac(e.lo), _frac(e.hi), _decimal_common(e), cert, str(args.budget)]],
        args.format,
    )
    if args.digits is not None:
        print(_digit_line(e, args.digits))


def _digit_line(e: Enclosure, count: int) -> str:
    if e.hi is None:
        return "digits= determined=0"
    whole = e.lo.numerator // e.lo.denominator
    if e.hi - whole > 1:
        return "digits= determined=0"
    r = digit_extract(e.shift(-whole), count)
    return f"digits={whole}.{r.digits} determined={r.determined}"


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _machine_from(args) -> MachineSpec:
    if not args.machine:
        raise ValueError("this command needs --machine FILE")
    with open(args.machine, encoding="utf-8") as fh:
        return parse_machine_file(fh.read(), args.steps, args.size_budget)


def _machine(args) -> ExecutableMachine:
    return ExecutableMachine(_machine_from(args))


def _oracle(args) -> ComplexityOracle:
    return ComplexityOracle(args.kind.replace("-", "_"), _machine(args))


def _parse_s(args, default: str | None = None) -> Fraction:
    text = args.s if args.s is not None else default
    if text is None:
        raise ValueError("this command needs -s RATIONAL")
    return parse_rational(text)


class _Refused(Exception):
    """A budget ran out before an answer; the message is the whole stderr line."""


def _within_budget(args, what: str, n: int) -> None:
    if n > args.budget:
        raise _Refused(f"error: {what} {n} is past --budget {args.budget}")


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_total(args, total) -> None:
    _enclosure_report(args.command, total(_machine_from(args), args.budget), args)


def _cmd_sum_s(args, total) -> None:
    s = _parse_s(args)
    label = f"{args.command.removesuffix('-s')}[s={s}]"
    _enclosure_report(label, total(_machine_from(args), s, args.budget), args)


def _cmd_classify(args) -> None:
    outcome = classify(_machine_from(args), args.budget)
    rows = []
    for label, v in (("zeta", outcome.zeta), ("omega", outcome.omega)):
        rows.append(
            [
                label,
                v.kind,
                "yes" if v.certified else "no",
                _frac(v.enclosure.lo),
                _frac(v.enclosure.hi),
                v.witness,
            ]
        )
    _emit(["sum", "verdict", "certified", "lo", "hi", "notes"], rows, args.format)
    unsettled = [v.witness for v in (outcome.zeta, outcome.omega) if not v.certified]
    if unsettled:
        raise _Refused(f"error: {'; '.join(unsettled)}")


def _cmd_deficiency(args) -> None:
    oracle = _oracle(args)
    report = deficiency(parse_bits(args.prefix_digits), _parse_s(args, "1"), oracle, args.budget)
    rows = []
    for r in report.rows:
        c = "none" if r.complexity is NO_WITNESS else str(r.complexity)
        slack = "" if r.slack is None else _frac(r.slack)
        rows.append([str(r.m), c, _frac(r.threshold), slack])
    _emit(["m", "complexity", "threshold", "slack"], rows, args.format)
    print(f"worst_slack={'none' if report.worst_slack is None else _frac(report.worst_slack)}")
    if report.nabla_rows:
        _emit(
            ["n", "index", "statistic"],
            [[str(r.n), str(r.index), _frac(r.statistic)] for r in report.nabla_rows],
            args.format,
        )


def _cmd_egyptian(args) -> None:
    q = parse_rational(args.q)
    # the budget caps greedy denominator bits; unbudgeted runs can outgrow memory
    denoms = egyptian_floor(q, args.floor, bit_budget=args.budget)
    print(" + ".join(f"1/{frac_text(Fraction(d))}" for d in denoms))


def _cmd_kraft(args) -> None:
    _within_budget(args, "kraft length", max(args.lengths))
    words = kraft_chaitin(args.lengths)
    pairs = zip(args.lengths, words)
    rows = [[str(i), str(n), render_bits(w)] for i, (n, w) in enumerate(pairs, 1)]
    _emit(["index", "length", "word"], rows, args.format)


def _cmd_grid(args) -> None:
    rows = []
    for d, row, col, e in grid_cells(args.ms, args.budget):
        try:
            term = f"1/{1 << e}"  # the text of Fraction(1, 2^e)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise _Refused(
                f"error: grid term 1/2^{e} passes the {sys.get_int_max_str_digits()}"
                f"-digit limit on printed integers; lower --budget {args.budget}"
            ) from None
        rows.append([str(d), str(row), str(col), term])
    _emit(["diagonal", "row", "col", "term"], rows, args.format)


def _cmd_density(args) -> None:
    value = density_statistic(_machine_from(args), args.n)
    e = Enclosure.exact(value)
    _emit(
        ["n", "value", "decimal"],
        [[str(args.n), _frac(value), _decimal_common(e)]],
        args.format,
    )


def _cmd_sanity(args) -> None:
    spec = _machine_from(args)
    if not isinstance(spec, FiniteTable):
        raise ValueError("sanity needs a finite table machine")
    rep = sanity_chain(spec)
    _emit(
        ["quantity", "value"],
        [
            ["omega", _frac(rep.omega)],
            ["zeta", _frac(rep.zeta)],
            ["chain_holds", "yes" if rep.holds else "no"],
            ["strict", "yes" if rep.strict else "no"],
        ],
        args.format,
    )


def _print_witness(value) -> None:
    if value is NO_WITNESS:
        raise _Refused("no witness within budget")
    print(value)


def _cmd_iota_run(args) -> None:
    r = iota_mod.run_program(parse_bits(args.bits), args.steps, args.size_budget)
    if not r.halted:
        raise _Refused(f"no normal form: {r.status} budget hit after {r.steps} step(s)")
    print(iota_mod.unparse(r.term))


def _cmd_iota_count(args) -> None:
    if args.length < 0:
        raise ValueError("length must be >= 0")
    _within_budget(args, "iota count", args.length)
    print(frac_text(iota_mod.count_programs(args.length)))


def _cmd_iota_zeta(args) -> None:
    _within_budget(args, "iota zeta", args.n)
    _enclosure_report(f"iota-zeta[{args.n}]", iota_mod.iota_zeta_partial(args.n), args)


def _arg(*flags, **kwargs):
    return flags, kwargs


_BITS = (_arg("bits"),)
_KIND = _arg("--kind", choices=("plain", "prefix", "nabla-log"), default="plain")

# every subcommand, in the order usage lists them ("iota X" is X under iota):
# its handler and the arguments it takes besides the common options; the
# lambdas look library functions up when called, so wrappers installed on this
# module after import still see every call
_COMMANDS = {
    "zeta": (lambda a: _cmd_total(a, zeta_enclosure), ()),
    "omega": (lambda a: _cmd_total(a, omega_enclosure), ()),
    "classify": (_cmd_classify, ()),
    "zeta-s": (lambda a: _cmd_sum_s(a, zeta_s), ()),
    "omega-s": (lambda a: _cmd_sum_s(a, omega_s), ()),
    "kappa": (lambda a: _cmd_sum_s(a, kappa), ()),
    "kappa-natural": (lambda a: _cmd_sum_s(a, kappa_natural), ()),
    "egyptian": (_cmd_egyptian, (_arg("q"), _arg("--floor", type=int, default=2))),
    "kraft": (_cmd_kraft, (_arg("lengths", type=int, nargs="+"),)),
    "grid": (_cmd_grid, (_arg("ms", type=int, nargs="+"),)),
    "fresh-index": (
        lambda a: print(render_bits(fresh_index(_machine_from(a), parse_bits(a.y), a.budget))),
        (_arg("y"),),
    ),
    "density": (_cmd_density, (_arg("n", type=int),)),
    "sanity": (_cmd_sanity, ()),
    "nabla": (
        lambda a: _print_witness(nabla(_machine(a), parse_bits(a.x), a.budget)),
        (_arg("x"),),
    ),
    "complexity": (
        lambda a: _print_witness(_oracle(a).value(parse_bits(a.x), a.budget)),
        (_arg("x"), _KIND),
    ),
    "deficiency": (_cmd_deficiency, (_arg("prefix_digits"), _KIND)),
    "iota parse": (lambda a: print(repr(iota_mod.parse(parse_bits(a.bits)))), _BITS),
    "iota run": (_cmd_iota_run, _BITS),
    "iota encode": (lambda a: print(iota_mod.encode_bits(parse_bits(a.bits))), _BITS),
    "iota decode": (
        lambda a: print(
            render_bits(iota_mod.decode_bits(parse_bits(a.bits), a.steps, a.size_budget))
        ),
        _BITS,
    ),
    "iota count": (_cmd_iota_count, (_arg("length", type=int),)),
    "iota zeta": (_cmd_iota_zeta, (_arg("n", type=int),)),
}


@functools.cache
def _build_parser() -> _Parser:
    def count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
        return value

    common = _Parser(add_help=False)
    common.add_argument("--budget", type=count, default=DEFAULT_BUDGET)
    common.add_argument("--digits", type=int, default=None)
    common.add_argument("--format", choices=("table", "csv"), default="table")
    common.add_argument("--machine", default=None)
    common.add_argument("-s", dest="s", default=None)
    common.add_argument("--steps", type=count, default=iota_mod.DEFAULT_STEP_BUDGET)
    common.add_argument(
        "--size-budget", type=count, default=iota_mod.DEFAULT_SIZE_BUDGET
    )

    # options go after the subcommand, whose defaults would overwrite them
    top = _Parser(prog="tuatara")
    subs = {"": top.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for name, (handler, arguments) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group).add_subparsers(
                dest=f"{group}_command", required=True, parser_class=_Parser
            )
        p = subs[group].add_parser(leaf, parents=[common])
        p.set_defaults(handler=handler)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return top


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code.

    The argument parser is built on the first call and reused by every later
    call in the process: parsing starts each call from a fresh namespace, and
    usage errors and --help look sys.stderr and sys.stdout up when they write,
    so redirected streams still see their output. Handlers return nothing;
    every refusal reaches this function as an exception, and the clauses
    below are the whole map from exceptions to exit codes.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.digits is not None and not 0 <= args.digits <= DIGITS_CAP:
            raise ValueError(f"--digits must lie between 0 and {DIGITS_CAP}")
        args.handler(args)
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return EXIT_BUDGET
    except iota_mod.DecodeBudget as exc:
        print(f"error: reduction {exc} budget exhausted mid-decode", file=sys.stderr)
        return EXIT_BUDGET
    except (BudgetExhausted, ExpansionOverflow, PrecisionLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KraftViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
