"""Seeded requests and machine files for the four benchmark workloads.

A workload is a deck of request groups with fixed counts per 100 requests.
The seed draws every parameter (machines, budgets, exponents, list bits,
table contents) and the order of the requests.  Within a group, budgets,
sizes and exponents come one from each of a fixed set of strata with a
little jitter, so two seeds give different requests of comparable cost and
the metrics stay steady from seed to seed.  The program under test sees only
the argv lists and the machine files written from them.

Machines are described here by small tuples ("models") that the checker
also reads to compute its references:

    ("lukasiewicz",) ("all_strings",) ("iota",) ("geometric", extras)
    ("finite", domain, outputs_or_None) ("product", parts)
    ("prime_product", domain) ("double", model) ("tuatara_of", model)
    ("universal", (finite models with outputs, ...))
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import iotaref
from refmath import bits_of

LUKA = ("lukasiewicz",)
ALL = ("all_strings",)
IOTA = ("iota",)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: tuple  # what the checker verifies; see checks.py
    expect_exit: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: tuple[Request, ...]
    files: dict  # machine file name -> text


WHY = {
    "streams": "integer-exponent sums over infinite streams: enumeration, grid-mode"
    " accumulator, tail bounds and binstr; no pow call and no reduction",
    "exponents": "rational exponents: numerics pow/pow2/root bounds and spectral;"
    " small denominators mostly, a fixed share of denominators 50 and up",
    "reducer": "iota codec round trips, iota run, sums over the iota generator and"
    " complexity searches: reduction and candidate search, no numerics",
    "tables": "large finite machine files (exact-mode accumulator, quadratic parser),"
    " sanity, kraft, egyptian and grid",
}


def _scale(seconds: int) -> int:
    return max(1, seconds // 10)


def requests_per_pass(seconds: int) -> int:
    """Requests in one pass: 100 per 10 s of measuring, never fewer than 100."""
    return 100 * _scale(seconds)


def generate(name: str, seed: int, seconds: int, machine_dir: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    deck = _Deck(rng, machine_dir, _scale(seconds))
    {"streams": _streams, "exponents": _exponents, "reducer": _reducer, "tables": _tables}[
        name
    ](deck)
    rng.shuffle(deck.requests)
    return Workload(name, WHY[name], tuple(deck.requests), deck.files)


# ---------------------------------------------------------------------------
# machine files


def bits_token(w: str) -> str:
    return w if w else "eps"


def machine_text(model) -> str:
    """Machine file for a model; operands become earlier blocks."""
    blocks: list[str] = []

    def emit(m) -> str:
        kind = m[0]
        if kind in ("double", "tuatara_of"):
            body = f"kind construction\nconstruct {kind} {emit(m[1])}\n"
        elif kind in ("product", "prime_product"):
            body = f"kind construction\nconstruct {kind} {emit(('finite', m[1], None))}\n"
        elif kind == "universal":
            names = ",".join(emit(x) for x in m[1])
            body = f"kind construction\nconstruct universal_tuatara {names}\n"
        elif kind == "finite":
            lines = ["kind finite"]
            lines += [f"domain {bits_token(w)}" for w in m[1]]
            if m[2] is not None:
                lines += [f"map {bits_token(w)} -> {bits_token(o)}" for w, o in zip(m[1], m[2])]
            body = "\n".join(lines) + "\n"
        elif kind == "geometric":
            extras = " " + ",".join(m[1]) if m[1] else ""
            body = f"kind builtin\ngenerator geometric{extras}\n"
        else:
            body = f"kind builtin\ngenerator {kind}\n"
        name = f"m{len(blocks)}"
        blocks.append(f"machine {name}\n{body}")
        return name

    emit(model)
    return "\n".join(blocks)


# ---------------------------------------------------------------------------
# shared drawing helpers


class _Deck:
    def __init__(self, rng: random.Random, machine_dir: str, scale: int):
        self.rng = rng
        self.dir = machine_dir
        self.scale = scale
        self.requests: list[Request] = []
        self.files: dict[str, str] = {}
        self._paths: dict = {}

    def path(self, model, extra: str = "") -> str:
        """File for a model (one file per distinct model and extra text)."""
        key = (model, extra)
        if key not in self._paths:
            name = f"m{len(self._paths)}.mt"
            self.files[name] = machine_text(model) + extra
            self._paths[key] = f"{self.dir}/{name}"
        return self._paths[key]

    def strata(self, lo: float, hi: float, count: int) -> list[int]:
        """count integers from [lo, hi], one from the middle of each of count
        geometric strata, in random order: every seed draws a group's values
        from the same levels, so group costs stay comparable across seeds."""
        values = [
            round(lo * (hi / lo) ** ((j + self.rng.uniform(0.45, 0.55)) / count))
            for j in range(count)
        ]
        self.rng.shuffle(values)
        return values

    def pick(self, items: list, count: int) -> list:
        """count items, one from each of count equal slices of the list, in random order."""
        out = [items[int((j + self.rng.random()) * len(items) / count)] for j in range(count)]
        self.rng.shuffle(out)
        return out

    def add(self, argv: list[str], check: tuple, expect_exit: int = 0) -> None:
        self.requests.append(Request(tuple(argv), check, expect_exit))

    def times(self, count: int) -> int:
        return count * self.scale


def prefix_code(rng: random.Random, n: int) -> list[str]:
    """A complete prefix code with n >= 2 words, grown by splitting random leaves."""
    leaves = ["0", "1"]
    while len(leaves) < n:
        i = rng.randrange(len(leaves))
        w = leaves[i]
        leaves[i] = w + "0"
        leaves.append(w + "1")
    return leaves


def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _threshold_bits(rng: random.Random, lo: float, hi: float) -> str:
    """Eight-bit y with lo <= 0.y <= hi."""
    return format(rng.randint(math.ceil(lo * 256), math.floor(hi * 256)), "08b")


# ---------------------------------------------------------------------------
# streams


# machine variants differ in their bits but share one shape (sizes and
# lengths), so that every seed's variants cost about the same


def _geometric(rng):
    extras = []
    for n in (3, 5):
        w = "0" * (n - 1) + "1"
        while w == "0" * (n - 1) + "1":
            w = random_bits(rng, n)
        extras.append(w)
    return ("geometric", tuple(extras))


def _product(rng):
    """Three prefix-free parts of lengths 1, 2 and 3."""
    a, b = rng.choice([("0", "1"), ("1", "0")])
    c = b + rng.choice("01")
    return ("product", (a, c, b + ("1" if c[-1] == "0" else "0") + rng.choice("01")))


def _prime_product(rng):
    idx = [rng.randint(1, 3), rng.randint(4, 6), rng.randint(7, 10)]
    return ("prime_product", tuple(bits_of(i) for i in idx))


def _mapped_table(rng, size: int, outputs: list[str]):
    domain = sorted(rng.sample([bits_of(i) for i in range(2, 32)], size))
    return ("finite", tuple(domain), tuple(rng.choice(outputs) for _ in domain))


def _universal(rng):
    outputs = [random_bits(rng, n) for n in (1, 2, 3, 3, 4)]
    return ("universal", tuple(_mapped_table(rng, size, outputs) for size in (4, 6, 8)))


# command, machine key, count per 100 requests
_STREAMS_DECK = [
    ("zeta", "L", 4), ("zeta", "TL", 4), ("zeta", "DL", 3), ("zeta", "P", 3),
    ("zeta", "PP", 3), ("zeta", "G", 2), ("zeta", "U", 2), ("zeta", "A", 3),
    ("omega", "L", 4), ("omega", "TL", 3), ("omega", "DL", 3), ("omega", "P", 3),
    ("omega", "PP", 3), ("omega", "G", 2), ("omega", "U", 2), ("omega", "A", 3),
    ("zeta-s", "L", 2), ("zeta-s", "TL", 2), ("zeta-s", "DL", 2), ("zeta-s", "P", 2),
    ("zeta-s", "PP", 2), ("zeta-s", "G", 1), ("zeta-s", "A", 3),
    ("omega-s", "L", 2), ("omega-s", "TL", 2), ("omega-s", "DL", 2), ("omega-s", "P", 2),
    ("omega-s", "PP", 2), ("omega-s", "G", 1), ("omega-s", "A", 3),
    ("classify", "L", 2), ("classify", "TL", 2), ("classify", "DL", 2), ("classify", "P", 2),
    ("classify", "PP", 2), ("classify", "G", 1), ("classify", "U", 1), ("classify", "A", 1),
    ("fresh-index", "L", 2), ("fresh-index", "TL", 2), ("fresh-index", "DL", 1),
    ("fresh-index", "G", 1),
    ("density", "L", 1), ("density", "A", 1), ("density", "G", 1), ("density", "P", 1),
    ("density", "DL", 1), ("density", "U", 1),
]

# fresh-index thresholds sit well below each machine's partial index sum at
# the smallest budget, so every request crosses its threshold
_FRESH_RANGE = {"L": (0.30, 0.55), "TL": (0.30, 0.60), "DL": (0.10, 0.20), "G": (0.30, 0.50)}
_DENSITY_RANGE = {"L": (9, 25), "A": (5, 60), "G": (5, 40), "P": (6, 16), "DL": (6, 30), "U": (6, 12)}


def _streams(deck: _Deck) -> None:
    rng = deck.rng
    variants = {
        "G": [_geometric(rng) for _ in range(3)],
        "P": [_product(rng) for _ in range(3)],
        "PP": [_prime_product(rng) for _ in range(3)],
        "U": [_universal(rng) for _ in range(2)],
    }
    fixed = {"L": LUKA, "TL": ("tuatara_of", LUKA), "DL": ("double", LUKA), "A": ALL}
    for cmd, key, count in _STREAMS_DECK:
        n = deck.times(count)
        budgets = deck.strata(1200, 12000, n)
        exps = deck.pick([2, 3], n)
        for i in range(n):
            model = fixed.get(key) or rng.choice(variants[key])
            path = deck.path(model)
            b = budgets[i]
            if cmd in ("zeta", "omega", "zeta-s", "omega-s"):
                s = Fraction(exps[i]) if cmd.endswith("-s") else Fraction(1)
                argv = [cmd, "--machine", path, "--budget", str(b), "--format", "csv"]
                if cmd.endswith("-s"):
                    argv[1:1] = ["-s", str(s)]
                deck.add(argv, ("sum", model, cmd.split("-")[0], s, "plain"))
            elif cmd == "classify":
                deck.add([cmd, "--machine", path, "--budget", str(b), "--format", "csv"],
                         ("classify", model))
            elif cmd == "fresh-index":
                y = _threshold_bits(rng, *_FRESH_RANGE[key])
                deck.add([cmd, y, "--machine", path, "--budget", str(b)], ("fresh", model, y, b))
            else:
                length = rng.randint(*_DENSITY_RANGE[key])
                deck.add([cmd, str(length), "--machine", path, "--format", "csv"],
                         ("density", model, length))


# ---------------------------------------------------------------------------
# exponents

_EXP_SMALL = [
    ("zeta-s", "A", 6), ("zeta-s", "L", 5), ("zeta-s", "G", 3), ("zeta-s", "DL", 3),
    ("zeta-s", "TL", 3), ("zeta-s", "F", 3), ("zeta-s", "P", 3),
    ("omega-s", "A", 4), ("omega-s", "L", 4), ("omega-s", "G", 3), ("omega-s", "DL", 3),
    ("omega-s", "TL", 3), ("omega-s", "F", 2), ("omega-s", "P", 3),
    ("kappa", "A", 4), ("kappa", "L", 4), ("kappa", "G", 2), ("kappa", "DL", 2),
    ("kappa", "TL", 2), ("kappa", "F", 2), ("kappa", "P", 2),
    ("kappa-natural", "A", 6), ("kappa-natural", "L", 5), ("kappa-natural", "G", 3),
    ("kappa-natural", "DL", 3), ("kappa-natural", "TL", 3), ("kappa-natural", "F", 2),
    ("kappa-natural", "P", 2),
]
_EXP_LARGE = [
    ("zeta-s", "A", 2), ("zeta-s", "L", 2), ("kappa-natural", "A", 2),
    ("kappa-natural", "L", 1), ("kappa-natural", "G", 1), ("omega-s", "L", 1), ("kappa", "A", 1),
]


def _rational_exponent(den: int, target: float) -> Fraction:
    """The s = a/den nearest target whose denominator is exactly den."""
    a = round(target * den)
    while math.gcd(a, den) != 1:
        a += 1
    return Fraction(a, den)


def _exponents(deck: _Deck) -> None:
    rng = deck.rng
    variants = {
        "G": [_geometric(rng) for _ in range(2)],
        "P": [_product(rng) for _ in range(2)],
        "F": [("finite", tuple(rng.sample(prefix_code(rng, n), n - n // 4)), None)
              for n in (24, 96)],
    }
    fixed = {"A": ALL, "L": LUKA, "DL": ("double", LUKA), "TL": ("tuatara_of", LUKA)}
    plan = [(c, k, n, False) for c, k, n in _EXP_SMALL] + [(c, k, n, True) for c, k, n in _EXP_LARGE]
    for cmd, key, count, large in plan:
        n = deck.times(count)
        if large:
            budgets, dens = deck.strata(30, 90, n), deck.strata(50, 101, n)
            targets = deck.strata(150, 250, n)
        else:
            budgets, dens = deck.strata(150, 2000, n), deck.strata(2, 10, n)
            targets = deck.strata(125, 300, n)
        # a term costs more as the denominator grows, so the largest budget
        # goes with the smallest denominator and request costs stay level
        budgets.sort()
        dens.sort(reverse=True)
        for b, den, target in zip(budgets, dens, targets):
            model = fixed.get(key) or rng.choice(variants[key])
            s = _rational_exponent(den, target / 100)
            argv = [cmd, "-s", str(s), "--machine", deck.path(model), "--budget", str(b),
                    "--format", "csv"]
            if cmd in ("zeta-s", "omega-s"):
                check = ("sum", model, cmd.split("-")[0], s, "plain")
            else:
                check = ("sum", model, "omega" if cmd == "kappa" else "zeta", s,
                         cmd.replace("-", "_"))
            deck.add(argv, check)


# ---------------------------------------------------------------------------
# reducer

# outputs of the iota machine paired with the least index whose program
# yields them; the checker recomputes every witness by its own search
IOTA_TARGETS = [
    ("1010100", 212), ("101010100", 852), ("110101000", 936),
    ("11010101000", 3752), ("1110101010000", 15696), ("11010101001010100", 52),
    ("1110101010010101000", 232), ("111010101001010101001010100", 3412),
    ("111010101001010100101010100", 13652),
    ("11010100111010101001010100110101001010100", 3748),
]
_DEFICIENCY_TARGETS = IOTA_TARGETS[:3] + IOTA_TARGETS[6:7]


def _normal_form(rng, depth: int):
    """A random S/K term with no redex."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice("SK")
    if r < 0.55:
        return ("K", _normal_form(rng, depth - 1))
    if r < 0.8:
        return ("S", _normal_form(rng, depth - 1))
    return (("S", _normal_form(rng, depth - 1)), _normal_form(rng, depth - 1))


def _halting_program(rng, depth: int):
    """A term that reaches its normal form in few steps: each shape below
    discards or passes through normalizing parts, so no shape can loop."""
    if depth <= 0:
        return _normal_form(rng, 3)
    r = rng.random()
    if r < 0.35:
        return (("K", _halting_program(rng, depth - 1)), _halting_program(rng, depth - 1))
    if r < 0.6:
        return ((("S", "K"), "K"), _halting_program(rng, depth - 1))
    if r < 0.8:
        head = rng.choice(["K", "S", ("S", _normal_form(rng, 2))])
        return ((("S", ("K", head)), ("K", _normal_form(rng, 3))), _halting_program(rng, depth - 1))
    return _normal_form(rng, 4)


def _program_near(rng, size: int) -> str:
    """Bits of a halting program between size and 1.25 * size bits long."""
    best = ""
    for _ in range(500):
        bits = iotaref.spell(_halting_program(rng, rng.randint(2, 8)))
        if size <= len(bits) <= size * 1.25:
            return bits
        if abs(len(bits) - size) < abs(len(best) - size):
            best = bits
    return best


def _reducer(deck: _Deck) -> None:
    rng = deck.rng
    # list lengths spread evenly, so decodes and iota sums fill the middle and
    # decodes the slowest tenth of the requests; encodes, runs and universal
    # searches are cheap, and only every other list is also encoded
    n = deck.times(20)
    for j in range(n):
        bits = random_bits(rng, round(8 + (176 - 8) * (j + rng.uniform(0.45, 0.55)) / n))
        if j % 2:
            deck.add(["iota", "encode", bits], ("encode", bits))
        deck.add(["iota", "decode", iotaref.encode(bits)], ("decode", bits))
    for size in deck.strata(60, 600, deck.times(10)):
        prog = _program_near(rng, size)
        deck.add(["iota", "run", prog], ("run", prog, True))
    for _ in range(deck.times(2)):
        prog = iotaref.spell(iotaref.OMEGA)
        deck.add(["iota", "run", prog, "--steps", "20000"], ("run", prog, False), 3)

    iota_path = deck.path(IOTA)
    for kind, count in (("omega", 14), ("zeta", 14)):
        for b in deck.strata(100, 1500, deck.times(count)):
            deck.add([kind, "--machine", iota_path, "--budget", str(b), "--format", "csv"],
                     ("sum", IOTA, kind, Fraction(1), "plain"))

    universals = [_universal(rng) for _ in range(2)]
    # nabla and complexity on the iota machine share out every target once per
    # hundred requests and deficiency takes each of its targets twice, so the
    # search work per pass is the same for every seed
    searches = IOTA_TARGETS * deck.scale
    rng.shuffle(searches)
    for cmd, on_iota, count in (
        ("nabla", True, 5), ("nabla", False, 4), ("complexity", True, 5),
        ("complexity", False, 4), ("deficiency", True, 8), ("deficiency", False, 4),
    ):
        n = deck.times(count)
        kinds = deck.pick(["plain", "prefix", "nabla-log"], n)
        if cmd == "deficiency":
            targets = deck.pick(_DEFICIENCY_TARGETS, n)
        elif on_iota:
            targets, searches = searches[:n], searches[n:]
        budgets = deck.strata(500, 5000, n)
        for i in range(n):
            model = IOTA if on_iota else rng.choice(universals)
            kind = kinds[i]
            if cmd == "deficiency":
                if on_iota:
                    x, witness = targets[i]
                    budget = int(witness * rng.uniform(1.4, 1.6))
                else:
                    x = random_bits(rng, 3 + i % 4)
                    budget = budgets[i]
                s = rng.choice(["1", "2", "3/2"])
                argv = [cmd, x, "-s", s, "--kind", kind, "--format", "csv"]
                check = ("deficiency", model, x, Fraction(s), kind, budget)
            else:
                if on_iota:
                    x, witness = targets[i]
                else:
                    member = rng.randrange(len(model[1]))
                    table = model[1][member]
                    j = rng.randrange(len(table[1]))
                    x, witness = table[2][j], int("1" + "0" * (member + 1) + "1" + table[1][j], 2)
                budget = int(witness * rng.uniform(1.2, 3.0))
                argv = [cmd, x]
                if cmd == "complexity":
                    argv += ["--kind", kind]
                check = ("search", model, "nabla" if cmd == "nabla" else kind, x, budget)
            deck.add(argv + ["--machine", deck.path(model), "--budget", str(budget)], check)


# ---------------------------------------------------------------------------
# tables


def _table(rng, size: int, mapped: bool):
    """A finite model: a prefix code with a tenth of it dropped, in random
    order, optionally mapping every word to an output."""
    words = prefix_code(rng, size)
    words = rng.sample(words, size - size // 10)
    outputs = tuple(random_bits(rng, rng.randint(1, 8)) for _ in words) if mapped else None
    return ("finite", tuple(words), outputs)


def _egyptian_input(rng, k: int) -> tuple[Fraction, int]:
    """q = 1/f + ... + 1/(f+k-1) + a/d with a/d < 1/(f+k) and a <= 3, so the
    expansion is the run f..f+k-1 and then at most three greedy terms."""
    f = rng.randint(2, 40)
    a = rng.randint(1, 3)
    d = rng.randint(a * (f + k) + 1, a * (f + k) * 6)
    q = sum((Fraction(1, f + i) for i in range(k)), Fraction(a, d))
    return q, f


def _tables(deck: _Deck) -> None:
    rng = deck.rng
    # twelve zeta requests on the largest files (codes of 4000 to 6000 words,
    # evenly spaced, a tenth dropped, no map lines) make up the slowest tenth
    # of the requests, so p90 is set by large-file parsing; sanity prints
    # exact sums, and above about 4000 words their decimals pass Python's
    # int-to-str digit limit and the command fails
    groups = [("zeta", 9, 2500), ("omega", 9, 2500), ("classify", 7, 2500), ("density", 5, 2500),
              ("sanity", 8, 2000), ("zeta", 12, None)]
    for cmd, count, top in groups:
        n = deck.times(count)
        if top:
            sizes = deck.strata(100, top, n)
        else:
            sizes = [round(4000 + 2000 * (j + rng.uniform(0.45, 0.55)) / n) for j in range(n)]
        # a third of each smaller group's files carry map lines and a third
        # assert prefix_free, spread over the sizes the same way for every seed
        for i, size in enumerate(sorted(sizes)):
            model = _table(rng, size, top is not None and i % 3 == 1)
            extra = "prefix_free\n" if i % 3 == 2 else ""
            argv = [cmd, "--machine", deck.path(model, extra), "--format", "csv"]
            if cmd in ("zeta", "omega"):
                check = ("sum", model, cmd, Fraction(1), "plain")
            elif cmd == "density":
                length = rng.randint(max(8, min(map(len, model[1]))), 24)
                argv[1:1] = [str(length)]
                check = ("density", model, length)
            else:
                check = (cmd, model)
            deck.add(argv, check)
    for n in deck.strata(100, 6000, deck.times(15)):
        lengths = [len(w) for w in rng.sample(prefix_code(rng, n), n - n // 10)]
        deck.add(["kraft", *map(str, lengths), "--format", "csv"], ("kraft", tuple(lengths)))
    for k in deck.strata(1, 300, deck.times(14)):
        q, f = _egyptian_input(rng, k)
        deck.add(["egyptian", str(q), "--floor", str(f)], ("egyptian", q, f))
    # the run 28..143 leaves a remainder whose greedy denominators outgrow
    # any bit budget, so this request must end with exit 3
    deck.add(["egyptian", "5/3", "--floor", "28"], ("egyptian", Fraction(5, 3), 28), 3)
    n = deck.times(20)
    for b, rows in zip(deck.strata(100, 3000, n), deck.strata(3, 40, n)):
        ms = rng.sample(range(2, 300), rows)
        deck.add(["grid", *map(str, ms), "--budget", str(b), "--format", "csv"], ("grid", tuple(ms), b))
