"""Independent references for every request, and the output checks.

Nothing here imports tuatara.  Each reference is a certified interval (or an
exact value) computed from a closed form, an exact brute-force sum, or an
exact partial sum plus a proven tail; a reported enclosure passes when it
intersects the reference, which a correct enclosure always does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import iotaref
from refmath import (
    DyadicSum,
    bits_of,
    catalan,
    certified_bits,
    exact_unit_sum,
    first_primes,
    index_of,
    intersects,
    iv_div,
    iv_mul,
    pow_bracket,
    sqrt_bracket,
)

# enumeration depths of the references; a rational exponent needs a certified
# root per term, so those sums stop earlier and lean on their tails
LUKA_DEPTH = (19, 13)  # longest Lukasiewicz word enumerated, at integer / rational s
TOF_DEPTH = (15, 11)  # longest operand word expanded for tuatara_of
IOTA_DEPTH = 15  # longest program reduced for the iota halting stream
ALL_TERMS = (4096, 512)  # explicit terms before the integral tail for all_strings
GEO_TERMS = 80  # explicit base strings of a geometric machine
PRODUCT_DEPTH = 24  # longest product string enumerated
SMOOTH_BITS = 40  # prime_product partial sums run over indices below 2^(SMOOTH_BITS+1)
RUN_STEPS = 10 ** 5  # the iota machine's default step budget

class CheckFailed(Exception):
    pass


def _need(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def _frac(text: str) -> Fraction | None:
    return None if text == "inf" else Fraction(text)


def _weight(w: str, kind: str, s: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket of one term: 2^(-s|w|) for omega, index(w)^-s for zeta."""
    if kind == "omega":
        return pow_bracket(2, s * len(w))
    return pow_bracket(index_of(w), s)


def _sum_words(words, kind: str, s: Fraction) -> tuple[Fraction, Fraction]:
    acc = DyadicSum()
    for w in words:
        acc.add(*_weight(w, kind, s))
    return acc.interval()


# ---------------------------------------------------------------------------
# enumerations of model domains


_LUKA_CACHE: dict[int, list[str]] = {}


def luka_words(length: int) -> list[str]:
    """All programs of exactly `length` bits, in lexicographic order."""
    if length not in _LUKA_CACHE:
        out: list[str] = []

        def grow(prefix: str, need: int) -> None:
            rest = length - len(prefix)
            if rest == 0:
                if need == 0:
                    out.append(prefix)
                return
            # a prefix stays completable while 1 <= need <= rest
            if need - 1 >= (1 if rest > 1 else 0):
                grow(prefix + "0", need - 1)
            if need + 1 <= rest - 1:
                grow(prefix + "1", need + 1)

        grow("", 1)
        _LUKA_CACHE[length] = out
    return _LUKA_CACHE[length]


def luka_upto(max_len: int) -> list[str]:
    return [w for n in range(1, max_len + 1, 2) for w in luka_words(n)]


def tof_members(p: str) -> list[str]:
    """X(p): p together with p 0^i for every position i (1-based) where p has a 1."""
    return [p] + [p + "0" * i for i, c in enumerate(p, start=1) if c == "1"]


def product_strings(parts: tuple[str, ...], max_len: int) -> list[str]:
    """Concatenations of multisets of parts, in length-lex part order, up to max_len."""
    order = sorted(parts, key=lambda w: (len(w), w))
    out: list[str] = []

    def grow(start: int, acc: str) -> None:
        out.append(acc)
        for i in range(start, len(order)):
            if len(acc) + len(order[i]) <= max_len:
                grow(i, acc + order[i])

    grow(0, "")
    return out


def smooth_numbers(primes: list[int], limit: int) -> list[int]:
    out = [1]
    for p in primes:
        out = [n * p ** k for n in out for k in range(64) if n * p ** k < limit]
    return sorted(out)


def universal_domain(model) -> list[str]:
    return [
        "0" * j + "1" + w for j, member in enumerate(model[1], start=1) for w in member[1]
    ]


def _table_domain(model) -> list[str]:
    return list(model[1]) if model[0] == "finite" else universal_domain(model)


def _pp_primes(model) -> list[int]:
    idx = sorted(index_of(w) for w in model[1])
    primes = first_primes(idx[-1])
    return [primes[i - 1] for i in idx]


# ---------------------------------------------------------------------------
# reference sums


class Reference:
    """Reference values for one pass, cached by model and exponent."""

    def __init__(self) -> None:
        self._cache: dict = {}
        self._iota_halting: tuple | None = None
        self._search: dict = {}

    def total(self, model, kind: str, s: Fraction):
        """Interval (lo, hi) holding the weight sum; hi None for a divergent sum."""
        key = (model, kind, s)
        if key not in self._cache:
            self._cache[key] = self._total(model, kind, s)
        return self._cache[key]

    def _total(self, model, kind, s):
        name = model[0]
        rational = s.denominator != 1
        luka, tof = LUKA_DEPTH[rational], TOF_DEPTH[rational]
        if name in ("finite", "universal"):
            return self._finite(tuple(_table_domain(model)), kind, s)
        if name == "lukasiewicz":
            if kind == "omega":
                return self.luka_omega(s)
            part = _sum_words(luka_upto(luka), "zeta", s)
            return part[0], part[1] + self.luka_tail((luka + 1) // 2, s)
        if name == "tuatara_of":
            if kind == "zeta" and s == 1:
                return Fraction(1), Fraction(1)  # each X(p) carries index weight 2^-|p|
            words = [x for p in luka_upto(tof) for x in tof_members(p)]
            part = _sum_words(words, kind, s)
            # X(p) weighs at most 2 * 2^(-s|p|), both kinds
            return part[0], part[1] + 2 * self.luka_tail((tof + 1) // 2, s)
        if name == "double":
            if kind == "omega":
                return self.luka_omega(2 * s)
            part = _sum_words([w + w for w in luka_upto(luka)], "zeta", s)
            return part[0], part[1] + self.luka_tail((luka + 1) // 2, 2 * s)
        if name == "all_strings":
            return self._all_strings(kind, s)
        if name == "geometric":
            return self._geometric(model[1], kind, s)
        if name == "product":
            return self._product(model[1], kind, s)
        if name == "prime_product":
            return self._prime_product(model, kind, s)
        if name == "iota":
            return self._iota(kind, s)
        raise ValueError(f"no reference for {name}")

    def _finite(self, domain, kind, s):
        if s.denominator == 1 and kind == "zeta":
            v = exact_unit_sum([index_of(w) ** s.numerator for w in domain])
            return v, v
        if s.denominator == 1:
            top = max(map(len, domain)) * s.numerator
            v = Fraction(sum(1 << (top - s.numerator * len(w)) for w in domain), 1 << top)
            return v, v
        return _sum_words(domain, kind, s)

    def luka_omega(self, s: Fraction):
        """Halting weight of the complete program code at exponent s >= 1."""
        if s.denominator == 1:
            # 2^-s C(4^-s) with C(x) = (1 - sqrt(1 - 4x)) / 2x, so 2 - sqrt 3 at s = 2
            x = Fraction(1, 4 ** s.numerator)
            r_lo, r_hi = sqrt_bracket(1 - 4 * x)
            scale = Fraction(1, 2 ** s.numerator) / (2 * x)
            return (1 - r_hi) * scale, (1 - r_lo) * scale
        m = (LUKA_DEPTH[1] + 1) // 2
        acc = DyadicSum()
        for k in range(1, m + 1):
            lo, hi = pow_bracket(2, s * (2 * k - 1))
            acc.add(catalan(k - 1) * lo, catalan(k - 1) * hi)
        lo, hi = acc.interval()
        return lo, hi + self.luka_tail(m, s)

    def luka_tail(self, m: int, s: Fraction) -> Fraction:
        """Upper bound on the omega weight at s of programs longer than 2m - 1 bits."""
        if s == 1:
            return 1 - sum(Fraction(catalan(k - 1), 2 ** (2 * k - 1)) for k in range(1, m + 1))
        # term ratios C_k / C_(k-1) stay below 4, so the tail is geometric in 2^(2-2s)
        first = catalan(m) * pow_bracket(2, s * (2 * m + 1))[1]
        return first / (1 - pow_bracket(2, 2 * s - 2)[1])

    def _all_strings(self, kind, s):
        if s <= 1:
            return Fraction(0), None
        if kind == "omega":  # sum of 2^k 2^(-sk) = 1 / (1 - 2^(1-s))
            r_lo, r_hi = pow_bracket(2, s - 1)
            return 1 / (1 - r_lo), 1 / (1 - r_hi)
        return self.riemann(s)

    def riemann(self, s: Fraction):
        """Sum of n^-s over n >= 1: explicit terms plus the integral bracket of the tail."""
        n_top = ALL_TERMS[s.denominator != 1]
        acc = DyadicSum()
        for n in range(1, n_top + 1):
            acc.add(*pow_bracket(n, s))
        lo, hi = acc.interval()
        tail_lo = pow_bracket(n_top + 1, s - 1)[0] / (s - 1)
        tail_hi = pow_bracket(n_top, s - 1)[1] / (s - 1)
        return lo + tail_lo, hi + tail_hi

    def _geometric(self, extras, kind, s):
        ex = _sum_words(extras, kind, s)
        r_lo, r_hi = pow_bracket(2, s)  # weight ratio between 0^i 1 and 0^(i+1) 1
        if kind == "omega":
            return ex[0] + r_lo / (1 - r_lo), ex[1] + r_hi / (1 - r_hi)
        base = _sum_words(["0" * i + "1" for i in range(GEO_TERMS)], kind, s)
        tail = r_hi ** (GEO_TERMS + 1) / (1 - r_hi)
        return ex[0] + base[0], ex[1] + base[1] + tail

    def _product(self, parts, kind, s):
        lo, hi = Fraction(1), Fraction(1)
        for p in parts:  # one geometric series per part
            w_lo, w_hi = pow_bracket(2, s * len(p))
            lo /= 1 - w_lo
            hi /= 1 - w_hi
        if kind == "omega":
            return lo, hi
        words = product_strings(parts, PRODUCT_DEPTH)
        z = _sum_words(words, "zeta", s)
        o = _sum_words(words, "omega", s)
        return z[0], z[1] + (hi - o[0])

    def _prime_product(self, model, kind, s):
        primes = _pp_primes(model)
        k = s.numerator  # integer exponents only
        euler = Fraction(1)
        for p in primes:
            euler *= Fraction(p ** k, p ** k - 1)
        if kind == "zeta":
            return euler, euler
        nums = smooth_numbers(primes, 1 << (SMOOTH_BITS + 1))
        omega = sum(Fraction(1, 2 ** (k * (n.bit_length() - 1))) for n in nums)
        zeta_part = sum(Fraction(1, n ** k) for n in nums)
        # 2^(-s floor(log2 n)) <= 2^s n^-s
        return omega, omega + 2 ** k * (euler - zeta_part)

    def iota_halting(self):
        """Programs up to IOTA_DEPTH bits that halt, and those left undecided."""
        if self._iota_halting is None:
            halting, undecided = [], []
            for w in luka_upto(IOTA_DEPTH):
                try:
                    iotaref.normalize(iotaref.parse(w), 10 ** 4)
                    halting.append(w)
                except iotaref.StepLimit:
                    undecided.append(w)
            self._iota_halting = (halting, undecided)
        return self._iota_halting

    def _iota(self, kind, s):
        halting, undecided = self.iota_halting()
        part = _sum_words(halting, kind, s)
        slack = _sum_words(undecided, "omega", s)[1] + self.luka_tail((IOTA_DEPTH + 1) // 2, s)
        return part[0], part[1] + slack

    def operation(self, model, kind: str, s: Fraction, op: str):
        if op == "plain":
            return self.total(model, kind, s)
        if model[0] == "all_strings":
            return Fraction(1), Fraction(1)  # both normalizations are exactly 1 here
        if op == "kappa":
            r_lo, r_hi = pow_bracket(2, s - 1)
            return iv_mul((1 - r_hi, 1 - r_lo), self.total(model, "omega", s))
        return iv_div(self.total(model, "zeta", s), self.riemann(s))

    # -----------------------------------------------------------------------
    # searches

    def index_order(self, model):
        """Domain indices in increasing order, as far as the reference enumerates."""
        name = model[0]
        if name == "lukasiewicz":
            words = luka_upto(LUKA_DEPTH[0])
        elif name == "double":
            words = [w + w for w in luka_upto(LUKA_DEPTH[0])]
        elif name == "tuatara_of":
            depth = TOF_DEPTH[0]
            words = [x for p in luka_upto(depth) for x in tof_members(p) if len(x) <= depth]
        elif name == "geometric":
            words = ["0" * i + "1" for i in range(GEO_TERMS)] + list(model[1])
            words = [w for w in words if len(w) <= GEO_TERMS]
        else:
            raise ValueError(f"no index order for {name}")
        return sorted(index_of(w) for w in words)

    def machine_output(self, model, w: str):
        """Output of an executable machine on input w, or None."""
        if model[0] == "iota":
            if not iotaref.is_program(w):
                return None
            nf, _ = iotaref.normalize(iotaref.parse(w), RUN_STEPS)
            return iotaref.spell(nf)
        zeros = len(w) - len(w.lstrip("0"))
        if zeros < 1 or zeros > len(model[1]) or zeros >= len(w) or w[zeros] != "1":
            return None
        member = model[1][zeros - 1]
        table = dict(zip(member[1], member[2]))
        return table.get(w[zeros + 1 :])

    def least_index(self, model, x: str, budget: int):
        """Least n <= budget whose input bits_of(n) the machine maps to x, or None."""
        first, reach = self._search.setdefault(model, ({}, [0]))
        while reach[0] < budget:
            reach[0] += 1
            out = self.machine_output(model, bits_of(reach[0]))
            if out is not None and out not in first:
                first[out] = reach[0]
        n = first.get(x)
        return n if n is not None and n <= budget else None


# ---------------------------------------------------------------------------
# output checks


def _enclosure_line(out: str):
    lines = out.strip().splitlines()
    _need(len(lines) == 2 and lines[0].startswith("quantity,"), "not one enclosure row")
    label, lo, hi, _decimal, cert, _budget = lines[1].split(",")
    lo, hi = _frac(lo), _frac(hi)
    _need(hi is None or lo <= hi, "empty enclosure")
    want = "lower-bound" if hi is None else ("exact" if lo == hi else "interval")
    _need(cert == want, f"certified column says {cert}, endpoints say {want}")
    return lo, hi


def _against(enc, ref, what: str) -> None:
    if ref[1] is None:
        _need(enc[1] is None, f"{what}: finite upper bound on a divergent sum")
    else:
        _need(intersects(enc, ref), f"{what}: enclosure misses the reference")


def check_sum(ref: Reference, check, out: str):
    _, model, kind, s, op = check
    enc = _enclosure_line(out)
    _against(enc, ref.operation(model, kind, s, op), f"{op} {kind}")
    return [enc]


def check_classify(ref: Reference, check, out: str):
    model = check[1]
    lines = out.strip().splitlines()
    _need(len(lines) == 3 and lines[0].startswith("sum,verdict"), "not a classify table")
    encs = []
    for line, kind in zip(lines[1:], ("zeta", "omega")):
        label, verdict, certified, lo, hi, _notes = line.split(",", 5)
        _need(label == kind, "rows out of order")
        enc = (_frac(lo), _frac(hi))
        reference = ref.total(model, kind, Fraction(1))
        _against(enc, reference, f"classify {kind}")
        if reference[1] is None:
            _need(verdict == "divergent" and certified == "yes", "divergence not certified")
        else:
            _need(certified == "yes" and enc[1] is not None, "finite sum left uncertified")
            _need(verdict == ("tuatara" if enc[1] <= 1 else "convergent"), f"verdict {verdict}")
        encs.append(enc)
    return encs


def check_fresh(ref: Reference, check, out: str):
    _, model, y, budget = check
    threshold = Fraction(int(y, 2), 1 << len(y))
    acc, seen, smallest = Fraction(0), set(), 1
    for consumed, n in enumerate(ref.index_order(model), start=1):
        _need(consumed <= budget, "reference crossing lies beyond the budget")
        acc += Fraction(1, n)
        seen.add(n)
        while smallest in seen:
            smallest += 1
        if acc > threshold:
            _need(out.strip() == (bits_of(smallest) or "eps"), "wrong fresh index")
            return []
    raise CheckFailed("reference enumeration too short to cross the threshold")


def _count_upto(model, n: int) -> int:
    name = model[0]
    if name == "lukasiewicz":
        return sum(catalan((m - 1) // 2) for m in range(1, n + 1, 2))
    if name == "double":
        return _count_upto(model[1], n // 2)
    if name == "all_strings":
        return (1 << (n + 1)) - 1
    if name == "geometric":
        return n + sum(1 for w in model[1] if len(w) <= n)
    if name == "product":
        return len(product_strings(model[1], n))
    return sum(1 for w in _table_domain(model) if len(w) <= n)


def check_density(ref: Reference, check, out: str):
    _, model, n = check
    lines = out.strip().splitlines()
    _need(len(lines) == 2, "not one density row")
    got_n, value, _decimal = lines[1].split(",")
    count = _count_upto(model, n)
    _need(int(got_n) == n and count >= 1, "wrong row")
    want = math.log2(count) / n if count > 1 else 0.0
    _need(abs(float(Fraction(value)) - want) <= 1e-9, "density value off")
    return []


def check_sanity(ref: Reference, check, out: str):
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    omega = ref.total(check[1], "omega", Fraction(1))[0]
    zeta = ref.total(check[1], "zeta", Fraction(1))[0]
    _need(Fraction(rows["omega"]) == omega and Fraction(rows["zeta"]) == zeta, "wrong sums")
    holds = 1 >= omega >= zeta >= omega / 2 >= 0
    strict = 1 > omega > zeta > omega / 2 > 0
    _need(rows["chain_holds"] == ("yes" if holds else "no"), "wrong chain_holds")
    _need(rows["strict"] == ("yes" if strict else "no"), "wrong strict")
    return []


def check_encode(ref: Reference, check, out: str):
    _need(iotaref.decode(out.strip()) == check[1], "encoding does not decode to the input")
    return []


def check_decode(ref: Reference, check, out: str):
    _need(out.strip() == (check[1] or "eps"), "wrong decoded bits")
    return []


def check_run(ref: Reference, check, out: str):
    want, _ = iotaref.normalize(iotaref.parse(check[1]), RUN_STEPS)
    got = iotaref.read_back(iotaref.parse(out.strip()))
    _need(not iotaref.has_redex(got), "output still has a redex")
    _need(iotaref.equal(got, want), "output is not the normal form")
    return []


def check_search(ref: Reference, check, out: str):
    _, model, kind, x, budget = check
    n = ref.least_index(model, x, budget)
    _need(n is not None, "reference finds no witness within the budget")
    want = n if kind == "nabla" else len(bits_of(n))
    _need(out.strip() == str(want), f"expected {want}")
    return []


def check_deficiency(ref: Reference, check, out: str):
    _, model, digits, s, kind, budget = check
    lines = out.strip().splitlines()
    _need(lines[0] == "m,complexity,threshold,slack", "not a deficiency table")
    rows = [line.split(",") for line in lines[1 : 1 + len(digits)]]
    worst = None
    nabla_rows = []
    for m, row in enumerate(rows, start=1):
        n = ref.least_index(model, digits[:m], budget)
        c = None if n is None else len(bits_of(n))
        threshold = Fraction(m) / s
        slack = None if c is None else c - threshold
        want = [str(m), "none" if c is None else str(c), str(threshold), "" if slack is None else str(slack)]
        _need(row == want, f"row {m} differs")
        if slack is not None and (worst is None or slack < worst):
            worst = slack
        if kind == "nabla-log" and n is not None:
            nabla_rows.append([str(m), str(n), str(Fraction(n, 2 ** m))])
    _need(lines[1 + len(digits)] == f"worst_slack={'none' if worst is None else worst}", "worst slack")
    tail = [line.split(",") for line in lines[3 + len(digits) :]]
    _need(tail == nabla_rows, "nabla rows differ")
    return []


def check_kraft(ref: Reference, check, out: str):
    lengths = check[1]
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    _need(len(rows) == len(lengths), "wrong number of words")
    words = []
    for i, (row, n) in enumerate(zip(rows, lengths), start=1):
        w = "" if row[2] == "eps" else row[2]
        _need(row[0] == str(i) and row[1] == str(n) and len(w) == n, f"word {i} has the wrong length")
        words.append(w)
    words.sort()
    _need(all(not b.startswith(a) for a, b in zip(words, words[1:])), "words are not prefix-free")
    return []


def check_egyptian(ref: Reference, check, out: str):
    _, q, floor = check
    dens = [int(t.strip()[2:]) for t in out.strip().split("+")]
    _need(all(t.strip().startswith("1/") for t in out.strip().split("+")), "not unit fractions")
    _need(len(set(dens)) == len(dens), "repeated denominator")
    _need(min(dens) >= floor, "denominator below the floor")
    _need(exact_unit_sum(dens) == q, "terms do not sum to the input")
    return []


def dyadic_terms(m: int):
    """Nonzero terms 2^-e of the binary expansion of 1/m, in order."""
    r, e = 1, 0
    while r:
        r *= 2
        e += 1
        if r >= m:
            r -= m
            yield Fraction(1, 1 << e)


def grid_reference(ms, budget: int) -> list[list[str]]:
    """Rows d,row,col,term of the anti-diagonal walk, bottom row first on each diagonal."""
    terms = [[] for _ in ms]
    gens = [dyadic_terms(m) for m in ms]
    finite = [False] * len(ms)
    out: list[list[str]] = []
    d = 2
    while len(out) < budget:
        hit = False
        for row in range(min(d - 1, len(ms)), 0, -1):
            col = d - row
            while len(terms[row - 1]) < col and not finite[row - 1]:
                t = next(gens[row - 1], None)
                if t is None:
                    finite[row - 1] = True
                else:
                    terms[row - 1].append(t)
            if len(terms[row - 1]) >= col:
                hit = True
                out.append([str(d), str(row), str(col), str(terms[row - 1][col - 1])])
                if len(out) == budget:
                    break
        if not hit and all(finite):
            break
        d += 1
    return out


def check_grid(ref: Reference, check, out: str):
    _, ms, budget = check
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    _need(rows == grid_reference(ms, budget), "grid walk differs")
    return []


CHECKS = {
    "sum": check_sum,
    "classify": check_classify,
    "fresh": check_fresh,
    "density": check_density,
    "sanity": check_sanity,
    "encode": check_encode,
    "decode": check_decode,
    "run": check_run,
    "search": check_search,
    "deficiency": check_deficiency,
    "kraft": check_kraft,
    "egyptian": check_egyptian,
    "grid": check_grid,
}


def check_request(ref: Reference, request, code: int, out: str) -> tuple[str | None, list]:
    """(None or the reason the request failed, enclosures it returned)."""
    if code != request.expect_exit:
        return f"exit {code}, expected {request.expect_exit}", []
    if code != 0:
        return None, []
    try:
        return None, CHECKS[request.check[0]](ref, request.check, out)
    except CheckFailed as exc:
        return str(exc), []
    except (iotaref.StepLimit, ArithmeticError) as exc:
        return f"reference inconclusive: {exc!r}", []
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}", []


def mean_certified_bits(enclosures) -> float:
    return sum(certified_bits(lo, hi) for lo, hi in enclosures) / max(1, len(enclosures))
