"""Budget-bounded complexity measures over executable machine specs.

Every value returned here is an enumeration truth: the least witness among
the first `budget` candidate inputs. For finite tables that is the exact
complexity; for reducer-backed machines it is exact relative to the step
and size budgets baked into the machine.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import iota as iota_mod
from .binstr import bin_of, is_prefix_free
from .machines import (
    Builtin,
    Construction,
    FiniteTable,
    MachineSpec,
    _member_exponents,
)


class _Marker:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


NO_WITNESS = _Marker("NoWitness")
NO_BOUND = _Marker("NoBound")


class ExecutableMachine:
    """A machine spec with a runnable input -> output map.

    Supported shapes: a finite table whose every domain string carries an
    output, the iota builtin run through the reducer, and universal
    compositions 0^i 1 x -> member_i(x) over executable members.
    """

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self._run: Callable[[str], str | None]
        if isinstance(spec, FiniteTable):
            domain = tuple(spec.domain)
            outs = spec.outputs
            if (
                outs is None
                or len(tuple(outs)) != len(domain)
                or any(o is None for o in outs)
            ):
                raise ValueError("finite table must map every domain string")
            table = dict(zip(domain, outs))
            self._run = table.get
        elif isinstance(spec, Builtin) and spec.generator == "iota":
            self._run = self._run_iota
            self._steps = spec.step_budget
            self._sizes = spec.size_budget
        elif isinstance(spec, Construction) and spec.kind in (
            "universal_tuatara",
            "universal_convergent",
        ):
            members = tuple(ExecutableMachine(op) for op in spec.operands)
            # prefix 0^j 1 routes to the member owning exponent j
            self._slots = dict(zip(_member_exponents(spec), members))
            self._run = self._run_universal
        else:
            raise ValueError("machine spec is not executable")

    def _run_iota(self, w: str) -> str | None:
        plain = not w.strip("01")
        if plain and w.count("0") != w.count("1") + 1:
            return None  # a program has one more 0 than 1s
        if plain and len(w) < self._steps.bit_length():
            # the tables up to length |w| hold fewer than 2^|w| <= steps
            # programs, so building them costs no more than one run may take;
            # no word with these counts lies past the last program 1^m 0^(m+1)
            indices, n = iota_mod.program_indices(len(w)), int("1" + w, 2)
            k = bisect_left(indices, n)
            if indices[k] != n:
                return None
            term = iota_mod.program_terms(len(w))[k]
        else:
            try:  # text that is not plain bits, or a long word, goes to parse
                term = iota_mod.parse(w)
            except iota_mod.ParseFailure:
                return None
        r = iota_mod.reduce(term, self._steps, self._sizes)
        if not r.halted:
            return None
        return iota_mod.unparse(r.term)

    def _run_universal(self, w: str) -> str | None:
        zeros = len(w) - len(w.lstrip("0"))
        if zeros < 1 or zeros >= len(w) or w[zeros] != "1":
            return None
        member = self._slots.get(zeros)
        if member is None:
            return None
        return member.run(w[zeros + 1 :])

    def run(self, w: str) -> str | None:
        """Output for input w, or None when w is outside the domain."""
        return self._run(w)

    def domain_is_prefix_free(self) -> bool | None:
        """True/False for finite tables, None when not decidable here."""
        if isinstance(self.spec, FiniteTable):
            return is_prefix_free(self.spec.domain)
        return None


def least_indices(
    machine: ExecutableMachine, targets: Iterable[str], budget: int
) -> dict[str, int]:
    """Least n <= budget with machine(bin(n)) = x, for each target x hit.

    One pass over the candidates serves every target; it stops as soon as
    each target has its witness.
    """
    wanted = set(targets)
    found: dict[str, int] = {}
    for n in range(1, budget + 1):
        out = machine.run(bin_of(n))
        if out in wanted and out not in found:
            found[out] = n
            if len(found) == len(wanted):
                break
    return found


def _length_of_index(n):
    # bin is length-monotone, so the least index is also a shortest input
    return n if n is NO_WITNESS else len(bin_of(n))


def plain_k(machine: ExecutableMachine, x: str, budget: int):
    """Least |w| with machine(w) = x among the first budget inputs."""
    return _length_of_index(least_indices(machine, (x,), budget).get(x, NO_WITNESS))


def _require_prefix_free(machine: ExecutableMachine) -> None:
    if machine.domain_is_prefix_free() is False:
        raise ValueError("domain is not prefix-free")


def program_size_h(machine: ExecutableMachine, x: str, budget: int):
    """plain_k restricted to machines with a prefix-free domain."""
    _require_prefix_free(machine)
    return plain_k(machine, x, budget)


def nabla(machine: ExecutableMachine, x: str, budget: int):
    """Least index n with machine(bin(n)) = x among the first budget inputs."""
    return least_indices(machine, (x,), budget).get(x, NO_WITNESS)


def universality_factor(
    w_machine: ExecutableMachine,
    v_machine: ExecutableMachine,
    sample: Sequence[str],
    budget: int,
):
    """Max of nabla_W(x)/nabla_V(x) over the sample, or NoBound."""
    best: Fraction | None = None
    for x in sample:
        nw = nabla(w_machine, x, budget)
        nv = nabla(v_machine, x, budget)
        if nw is NO_WITNESS or nv is NO_WITNESS:
            return NO_BOUND
        ratio = Fraction(nw, nv)
        if best is None or ratio > best:
            best = ratio
    return NO_BOUND if best is None else best


@dataclass(frozen=True)
class ComplexityOracle:
    """A complexity measure bound to one executable machine.

    kind: 'plain' for K, 'prefix' for H, 'nabla_log' for |bin(nabla)|.
    """

    kind: str
    machine: ExecutableMachine

    def __post_init__(self):
        if self.kind not in ("plain", "prefix", "nabla_log"):
            raise ValueError(f"unknown complexity kind {self.kind!r}")

    def _check_domain(self) -> None:
        if self.kind == "prefix":
            _require_prefix_free(self.machine)

    def value(self, x: str, budget: int):
        self._check_domain()
        return _length_of_index(nabla(self.machine, x, budget))

    def prefix_indices(self, digits: str, budget: int) -> list:
        """Least index (or NO_WITNESS) of each prefix of digits; one pass.

        Every kind's value is the length of bin(least index): a shortest
        input for plain and prefix, |bin(nabla)| for nabla_log.
        """
        self._check_domain()
        prefixes = [digits[:m] for m in range(1, len(digits) + 1)]
        least = least_indices(self.machine, prefixes, budget)
        return [least.get(p, NO_WITNESS) for p in prefixes]


@dataclass(frozen=True)
class DeficiencyRow:
    m: int
    complexity: object  # int or NO_WITNESS
    threshold: Fraction
    slack: Fraction | None


@dataclass(frozen=True)
class NablaRow:
    n: int
    index: int
    statistic: Fraction  # 2^-n * nabla(prefix of length n)


@dataclass(frozen=True)
class DeficiencyReport:
    rows: tuple[DeficiencyRow, ...]
    worst_slack: Fraction | None
    nabla_rows: tuple[NablaRow, ...]


def deficiency(
    digits: str, s, oracle: ComplexityOracle, budget: int
) -> DeficiencyReport:
    """Per-prefix slack complexity(alpha[m]) - m/s and its minimum."""
    if not digits:
        raise ValueError("digits must be nonempty")
    s = Fraction(s)
    if s < 1:
        raise ValueError("s must be >= 1")
    rows = []
    worst: Fraction | None = None
    nabla_rows = []
    for m, idx in enumerate(oracle.prefix_indices(digits, budget), start=1):
        c = _length_of_index(idx)
        threshold = Fraction(m) / s
        slack = None if c is NO_WITNESS else c - threshold
        rows.append(DeficiencyRow(m, c, threshold, slack))
        if slack is not None and (worst is None or slack < worst):
            worst = slack
        if oracle.kind == "nabla_log" and idx is not NO_WITNESS:
            nabla_rows.append(NablaRow(m, idx, Fraction(idx, 2 ** m)))
    return DeficiencyReport(tuple(rows), worst, tuple(nabla_rows))


def liminf_proxy(digits: str, oracle: ComplexityOracle, budget: int):
    """Min over n of complexity(alpha[n])/n; a finite-prefix proxy only."""
    if not digits:
        raise ValueError("digits must be nonempty")
    ratios = [
        Fraction(_length_of_index(idx), n)
        for n, idx in enumerate(oracle.prefix_indices(digits, budget), start=1)
        if idx is not NO_WITNESS
    ]
    return min(ratios) if ratios else NO_WITNESS


def identity_table(strings: Sequence[str]) -> ExecutableMachine:
    """Executable finite table mapping each given string to itself."""
    ordered = tuple(strings)
    return ExecutableMachine(FiniteTable(ordered, ordered))
