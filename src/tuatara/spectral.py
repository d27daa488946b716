"""Exponent-weighted domain sums and normalized halting statistics.

Everything here is certified interval arithmetic over exact rationals:
partial sums plus explicit tail brackets, with outward rounding whenever
an endpoint is irrational.
"""

from __future__ import annotations

from fractions import Fraction

from .machines import _TERM_PREC, DEFAULT_BUDGET, MachineSpec, weighted_domain_sum
from .numerics import Enclosure, first_primes, ln_bounds, pow2_bounds, pow_bounds


def omega_s(spec: MachineSpec, s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of the length-weighted domain sum at exponent s > 0."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("omega_s needs s > 0")
    return weighted_domain_sum(spec, s, budget, "omega").enclosure


def zeta_s(spec: MachineSpec, s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of the index-weighted domain sum at exponent s >= 1."""
    s = Fraction(s)
    if s < 1:
        raise ValueError("zeta_s needs s >= 1")
    return weighted_domain_sum(spec, s, budget, "zeta").enclosure


def riemann_zeta(s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of sum over all n >= 1 of n^-s for rational s > 1.

    Partial sum over n <= N plus the integral tail bracket
    [(N+1)^(1-s), N^(1-s)] / (s-1), where N is the budget. Terms accumulate
    outward-rounded on a fixed dyadic grid; exact summation would grow
    endpoint denominators with the least common multiple of the term
    denominators, far past any printable or comparable size. The loop stops
    early at the first n whose term lies below the grid, where each further
    term would add nothing to the lower sum and a whole grid unit to the
    upper one; the tail from that n lies in
    [n^(1-s), n^(1-s)] / (s-1) + [0, n^-s].
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("riemann_zeta needs s > 1")
    n_top = max(int(budget), 1)
    grid = 1 << _TERM_PREC
    lo_i = 0
    hi_i = 0
    below = None  # an upper bound on n^-s at the first n below the grid
    if s.denominator == 1:
        k = s.numerator
        for n in range(1, n_top + 1):
            q, r = divmod(grid, n ** k)
            if not q:
                below = Fraction(1, n ** k)
                break
            lo_i += q
            hi_i += q + (r != 0)
    else:
        for n in range(1, n_top + 1):
            b = pow_bounds(Fraction(n), -s, _TERM_PREC)
            q = (b.lo.numerator * grid) // b.lo.denominator
            if not q:
                below = b.hi
                break
            lo_i += q
            hi_i += -((-b.hi.numerator * grid) // b.hi.denominator)
    if below is None:
        lo_tail = pow_bounds(Fraction(n_top + 1), 1 - s, _TERM_PREC).lo / (s - 1)
        hi_tail = pow_bounds(Fraction(n_top), 1 - s, _TERM_PREC).hi / (s - 1)
    else:
        tail = pow_bounds(Fraction(n), 1 - s, _TERM_PREC)
        lo_tail = tail.lo / (s - 1)
        hi_tail = below + tail.hi / (s - 1)
    return Enclosure(Fraction(lo_i, grid) + lo_tail, Fraction(hi_i, grid) + hi_tail)


def _normalizer(s: Fraction) -> Enclosure:
    # 1 - 2^(1-s), positive for s > 1
    if s.denominator == 1:
        v = 1 - Fraction(1, 2 ** (s.numerator - 1))
        return Enclosure.exact(v)
    b = pow2_bounds(1 - s, _TERM_PREC)
    return Enclosure(1 - b.hi, 1 - b.lo)


def kappa(spec: MachineSpec, s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Normalized length-weighted sum (1 - 2^(1-s)) * omega_s at s > 1."""
    s = Fraction(s)
    if s <= 1:
        raise ValueError("kappa needs s > 1")
    return _normalizer(s).mul(omega_s(spec, s, budget))


def kappa_natural(
    spec: MachineSpec, s, budget: int = DEFAULT_BUDGET
) -> Enclosure:
    """Index-weighted sum normalized by the full zeta value at s > 1."""
    s = Fraction(s)
    if s <= 1:
        raise ValueError("kappa_natural needs s > 1")
    return zeta_s(spec, s, budget).div(riemann_zeta(s, budget))


def dyadic_weight_sum(length_cap: int) -> Fraction:
    """Sum over 1 <= n < 2^L of 2^(-2 floor(log2 n)), exactly 2 - 2^(1-L)."""
    if length_cap < 1:
        raise ValueError("length cap must be >= 1")
    total = Fraction(0)
    for k in range(length_cap):
        # 2^k integers share floor(log2 n) = k
        total += Fraction(2 ** k, 4 ** k)
    return total


def pnt_check(upper: int) -> list[int]:
    """Indices i in (5, upper] where i*ln(i) >= p_i could not be ruled out.

    Comparisons use certified rational bounds on ln; the expected result
    is an empty list.
    """
    if upper < 6:
        raise ValueError("upper must be >= 6")
    primes = first_primes(upper)
    violations = []
    for i in range(6, upper + 1):
        p_i = primes[i - 1]
        prec = 32
        while True:
            b = ln_bounds(Fraction(i), prec)
            if i * b.hi < p_i:
                break
            if i * b.lo >= p_i:
                violations.append(i)
                break
            prec *= 2
    return violations
