"""Budget-bounded complexity measures over executable machine specs.

Every value returned here is an enumeration truth: the least witness among
the domain strings of index at most `budget`. For finite tables and
universal compositions that is the exact complexity; for the iota machine
it is exact relative to the step and size budgets baked into the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Iterable, Iterator, Sequence

from . import iota as iota_mod
from .binstr import bin_inv, is_prefix_free
from .machines import (
    Builtin,
    Construction,
    FiniteTable,
    MachineSpec,
    _member_exponents,
    _prefixed_index,
    validate_spec,
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
    output and universal compositions 0^J 1 x -> member(x) over such tables,
    each one map from domain index to output, and the iota builtin, which
    reduces the programs of its index tables.
    """

    def __init__(self, spec: MachineSpec):
        validate_spec(spec)  # a table already checked is not read again
        self.spec = spec
        self._table: dict[int, str] | None = None
        if isinstance(spec, Builtin) and spec.generator == "iota":
            self._steps = spec.step_budget
            self._sizes = spec.size_budget
            return
        if isinstance(spec, FiniteTable):
            outs = spec.outputs
            if outs is None or None in outs:
                raise ValueError("finite table must map every domain string")
            self._table = dict(zip(map(bin_inv, spec.domain), outs))
        elif isinstance(spec, Construction) and spec.kind.startswith("universal"):
            members = zip(_member_exponents(spec), map(ExecutableMachine, spec.operands))
            self._table = {
                _prefixed_index(j, n): out for j, m in members for n, out in m._table.items()
            }
        else:
            raise ValueError("machine spec is not executable")
        self._keys = sorted(self._table)

    def run(self, w: str) -> str | None:
        """Output for input w, or None when w is outside the domain."""
        if w.strip("01"):
            return None
        if self._table is not None:
            return self._table.get(bin_inv(w))
        try:
            term = iota_mod.parse(w)
        except iota_mod.ParseFailure:
            return None
        r = iota_mod.reduce(term, self._steps, self._sizes)
        return iota_mod.unparse(r.term) if r.halted else None

    def outputs(self, budget: int) -> Iterator[tuple[int, str]]:
        """(n, output) for each domain index n <= budget, in ascending order."""
        if self._table is not None:
            yield from ((n, self._table[n]) for n in takewhile(budget.__ge__, self._keys))
            return
        walk = iota_mod.halting_programs(self._steps, self._sizes, last=budget, forms=True)
        yield from ((n, iota_mod.unparse(form)) for n, form in walk)

    def domain_is_prefix_free(self) -> bool | None:
        """True/False for finite tables, None when not decidable here."""
        if isinstance(self.spec, FiniteTable):
            return is_prefix_free(self.spec.domain)
        return None


def least_indices(
    machine: ExecutableMachine, targets: Iterable[str], budget: int
) -> dict[str, int]:
    """Least domain index n <= budget with machine(bin(n)) = x, for each
    target x hit.

    One walk of the machine's domain serves every target; it stops as soon
    as each target has its witness.
    """
    wanted = set(targets)
    found: dict[str, int] = {}
    for n, out in machine.outputs(budget):
        if out in wanted and out not in found:
            found[out] = n
            if len(found) == len(wanted):
                break
    return found


def _length_of_index(n):
    # bin is length-monotone, so the least index is also a shortest input
    return n if n is NO_WITNESS else n.bit_length() - 1


def plain_k(machine: ExecutableMachine, x: str, budget: int):
    """Least |w| with machine(w) = x among domain strings of index <= budget."""
    return _length_of_index(least_indices(machine, (x,), budget).get(x, NO_WITNESS))


def _require_prefix_free(machine: ExecutableMachine) -> None:
    if machine.domain_is_prefix_free() is False:
        raise ValueError("domain is not prefix-free")


def program_size_h(machine: ExecutableMachine, x: str, budget: int):
    """plain_k restricted to machines with a prefix-free domain."""
    _require_prefix_free(machine)
    return plain_k(machine, x, budget)


def nabla(machine: ExecutableMachine, x: str, budget: int):
    """Least index n <= budget of a domain string w = bin(n) with machine(w) = x."""
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
        """Least index (or NO_WITNESS) of each prefix of digits; one pass
        over the domain, which keeps an index per prefix length, not a prefix.

        Every kind's value is the length of bin(least index): a shortest
        input for plain and prefix, |bin(nabla)| for nabla_log.
        """
        self._check_domain()
        least, missing = [NO_WITNESS] * len(digits), len(digits)
        for n, out in self.machine.outputs(budget):
            if out and digits.startswith(out) and least[len(out) - 1] is NO_WITNESS:
                least[len(out) - 1] = n
                missing -= 1
                if not missing:
                    break
        return least


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
