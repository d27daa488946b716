"""Command-line front end: machine files, reports, and exit-code contracts.

Exit codes: 0 success, 1 usage error, 2 computation error (bad input data,
violated preconditions), 3 budget exhausted without a certificate.
"""

from __future__ import annotations

import argparse
import functools
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
    grid_walk,
    kraft_chaitin,
)
from .machines import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    Builtin,
    Construction,
    FiniteTable,
    MachineSpec,
    MachineSpecError,
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


class MachineFileError(ValueError):
    """Machine description rejected, with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# machine description files


class _Block:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.kind: str | None = None
        self.domain: dict[str, None] = {}  # ordered, with O(1) membership
        self.maps: dict[str, str] = {}
        self.generator: str | None = None
        self.extras: tuple[str, ...] = ()
        self.construct: str | None = None
        self.operand_names: list[str] = []
        self.bounds: list[Fraction] = []
        self.check_prefix_free = False


def _bits_token(token: str, line: int) -> str:
    if not token.strip("01"):  # a run of 0s and 1s, the common case
        return token
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
        if block.check_prefix_free and not is_prefix_free(block.domain):
            raise MachineFileError(
                block.line, f"machine {block.name!r} domain is not prefix-free"
            )
        outputs = None
        if block.maps:
            outputs = tuple(block.maps.get(w) for w in block.domain)
        return FiniteTable(tuple(block.domain), outputs)
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


def parse_machine_file(
    text: str,
    step_budget: int = iota_mod.DEFAULT_STEP_BUDGET,
    size_budget: int = iota_mod.DEFAULT_SIZE_BUDGET,
) -> MachineSpec:
    """Parse a machine description; the last block is the result.

    Earlier blocks become named operands for later construction blocks.
    Iota generator blocks run their programs under the given reduction
    budgets.
    """
    known: dict[str, MachineSpec] = {}
    block: _Block | None = None
    last: MachineSpec | None = None

    def close() -> None:
        nonlocal block, last
        if block is not None:
            spec = _finish_block(block, known, (step_budget, size_budget))
            known[block.name] = spec
            last = spec
            block = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "machine":
            if len(tokens) != 2:
                raise MachineFileError(lineno, "machine needs exactly one name")
            close()
            if tokens[1] in known:
                raise MachineFileError(lineno, f"duplicate machine {tokens[1]!r}")
            block = _Block(tokens[1], lineno)
            continue
        if block is None:
            raise MachineFileError(lineno, "directive before any machine line")
        if key == "kind":
            if len(tokens) != 2 or tokens[1] not in (
                "finite",
                "builtin",
                "construction",
            ):
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
                    block.extras = tuple(
                        _bits_token(t, lineno) for t in tokens[2].split(",")
                    )
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
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
        return
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


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


@functools.cache
def _build_parser() -> _Parser:
    def count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
        return value

    common = _Parser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler) -> _Parser:
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    for name in _SUMS:
        add(name, _cmd_sum)
        if name == "omega":  # classify keeps its place in the usage listing
            add("classify", _cmd_classify)
    p = add("egyptian", _cmd_egyptian)
    p.add_argument("q")
    p.add_argument("--floor", type=int, default=2)
    add("kraft", _cmd_kraft).add_argument("lengths", type=int, nargs="+")
    add("grid", _cmd_grid).add_argument("ms", type=int, nargs="+")
    add("fresh-index", _cmd_fresh_index).add_argument("y")
    add("density", _cmd_density).add_argument("n", type=int)
    add("sanity", _cmd_sanity)
    add("nabla", _cmd_nabla).add_argument("x")
    p = add("complexity", _cmd_complexity)
    p.add_argument("x")
    p.add_argument("--kind", choices=("plain", "prefix", "nabla-log"), default="plain")
    p = add("deficiency", _cmd_deficiency)
    p.add_argument("prefix_digits")
    p.add_argument("--kind", choices=("plain", "prefix", "nabla-log"), default="plain")

    iota_p = sub.add_parser("iota")
    iota_p.set_defaults(handler=_cmd_iota)
    iota_sub = iota_p.add_subparsers(dest="iota_command", required=True, parser_class=_Parser)

    def add_iota(name: str) -> _Parser:
        return iota_sub.add_parser(name, parents=[common])

    add_iota("parse").add_argument("bits")
    add_iota("run").add_argument("bits")
    add_iota("encode").add_argument("bits")
    add_iota("decode").add_argument("bits")
    add_iota("count").add_argument("length", type=int)
    add_iota("zeta").add_argument("n", type=int)
    return top


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_iota(args) -> int:
    cmd = args.iota_command
    if cmd == "parse":
        print(repr(iota_mod.parse(parse_bits(args.bits))))
        return EXIT_OK
    if cmd == "run":
        r = iota_mod.run_program(parse_bits(args.bits), args.steps, args.size_budget)
        if not r.halted:
            print(
                f"no normal form: {r.status} budget hit after {r.steps} step(s)",
                file=sys.stderr,
            )
            return EXIT_BUDGET
        print(iota_mod.unparse(r.term))
        return EXIT_OK
    if cmd == "encode":
        print(iota_mod.encode_bits(parse_bits(args.bits)))
        return EXIT_OK
    if cmd == "decode":
        out = iota_mod.decode_bits(parse_bits(args.bits), args.steps, args.size_budget)
        print(render_bits(out))
        return EXIT_OK
    n = args.length if cmd == "count" else args.n
    if cmd == "count" and n < 0:
        raise ValueError("length must be >= 0")
    if n > args.budget:
        print(f"error: iota {cmd} {n} is past --budget {args.budget}", file=sys.stderr)
        return EXIT_BUDGET
    if cmd == "count":
        print(frac_text(iota_mod.count_programs(n)))
        return EXIT_OK
    e = iota_mod.iota_zeta_partial(n)
    _enclosure_report(f"iota-zeta[{n}]", e, args)
    return EXIT_OK


def _parse_s(args, default: str | None = None) -> Fraction:
    text = args.s if args.s is not None else default
    if text is None:
        raise ValueError("this command needs -s RATIONAL")
    return parse_rational(text)


# each sum command and its enclosure of (machine, s, budget); the lambdas look
# the library functions up when called, so wrappers installed on this module
# after import still see every call
_SUMS = {
    "zeta": lambda spec, s, budget: zeta_enclosure(spec, budget),
    "omega": lambda spec, s, budget: omega_enclosure(spec, budget),
    "zeta-s": lambda spec, s, budget: zeta_s(spec, s, budget),
    "omega-s": lambda spec, s, budget: omega_s(spec, s, budget),
    "kappa": lambda spec, s, budget: kappa(spec, s, budget),
    "kappa-natural": lambda spec, s, budget: kappa_natural(spec, s, budget),
}


def _cmd_sum(args) -> int:
    name = args.command
    s = None if name in ("zeta", "omega") else _parse_s(args)
    label = name if s is None else f"{name.removesuffix('-s')}[s={s}]"
    _enclosure_report(label, _SUMS[name](_machine_from(args), s, args.budget), args)
    return EXIT_OK


def _cmd_classify(args) -> int:
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
        print(f"error: {'; '.join(unsettled)}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_deficiency(args) -> int:
    machine = ExecutableMachine(_machine_from(args))
    kind = args.kind.replace("-", "_")
    oracle = ComplexityOracle(kind, machine)
    report = deficiency(
        parse_bits(args.prefix_digits), _parse_s(args, "1"), oracle, args.budget
    )
    rows = []
    for r in report.rows:
        c = "none" if r.complexity is NO_WITNESS else str(r.complexity)
        slack = "" if r.slack is None else str(r.slack)
        rows.append([str(r.m), c, str(r.threshold), slack])
    _emit(["m", "complexity", "threshold", "slack"], rows, args.format)
    print(f"worst_slack={'none' if report.worst_slack is None else report.worst_slack}")
    if report.nabla_rows:
        _emit(
            ["n", "index", "statistic"],
            [[str(r.n), str(r.index), str(r.statistic)] for r in report.nabla_rows],
            args.format,
        )
    return EXIT_OK


def _cmd_egyptian(args) -> int:
    q = parse_rational(args.q)
    # the budget caps greedy denominator bits; unbudgeted runs can outgrow memory
    denoms = egyptian_floor(q, args.floor, bit_budget=args.budget)
    print(" + ".join(f"1/{d}" for d in denoms))
    return EXIT_OK


def _cmd_kraft(args) -> int:
    longest = max(args.lengths)
    if longest > args.budget:
        print(f"error: kraft length {longest} is past --budget {args.budget}", file=sys.stderr)
        return EXIT_BUDGET
    words = kraft_chaitin(args.lengths)
    rows = [
        [str(i + 1), str(n), render_bits(w)]
        for i, (n, w) in enumerate(zip(args.lengths, words))
    ]
    _emit(["index", "length", "word"], rows, args.format)
    return EXIT_OK


def _cmd_grid(args) -> int:
    rows = [
        [str(t.d), str(t.row), str(t.col), str(t.term)]
        for t in grid_walk(args.ms, args.budget)
    ]
    _emit(["diagonal", "row", "col", "term"], rows, args.format)
    return EXIT_OK


def _cmd_fresh_index(args) -> int:
    result = fresh_index(_machine_from(args), parse_bits(args.y), args.budget)
    print(render_bits(result))
    return EXIT_OK


def _cmd_density(args) -> int:
    value = density_statistic(_machine_from(args), args.n)
    e = Enclosure.exact(value)
    _emit(
        ["n", "value", "decimal"],
        [[str(args.n), _frac(value), _decimal_common(e)]],
        args.format,
    )
    return EXIT_OK


def _cmd_sanity(args) -> int:
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
    return EXIT_OK


def _print_witness(value) -> int:
    if value is NO_WITNESS:
        print("no witness within budget", file=sys.stderr)
        return EXIT_BUDGET
    print(value)
    return EXIT_OK


def _cmd_nabla(args) -> int:
    machine = ExecutableMachine(_machine_from(args))
    return _print_witness(nabla(machine, parse_bits(args.x), args.budget))


def _cmd_complexity(args) -> int:
    machine = ExecutableMachine(_machine_from(args))
    oracle = ComplexityOracle(args.kind.replace("-", "_"), machine)
    return _print_witness(oracle.value(parse_bits(args.x), args.budget))


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code.

    The argument parser is built on the first call and reused by every later
    call in the process: parsing starts each call from a fresh namespace, and
    usage errors and --help look sys.stderr and sys.stdout up when they write,
    so redirected streams still see their output.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except iota_mod.DecodeBudget as exc:
        print(f"error: reduction {exc} budget exhausted mid-decode", file=sys.stderr)
        return EXIT_BUDGET
    except (ExpansionOverflow, PrecisionLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        MachineFileError,
        MachineSpecError,
        KraftViolation,
        iota_mod.ParseFailure,
        iota_mod.MalformedList,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
