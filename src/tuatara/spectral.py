"""Exponent-weighted domain sums and normalized halting statistics.

Everything here is certified interval arithmetic over exact rationals:
partial sums plus explicit tail brackets, with outward rounding whenever
an endpoint is irrational.
"""

from __future__ import annotations

from fractions import Fraction

from .machines import (
    _TERM_PREC, DEFAULT_BUDGET, Builtin, MachineSpec, _is_all_strings, weighted_domain_sum
)
from .numerics import Enclosure, first_primes, ln_bounds, pow2_bounds


def omega_s(spec: MachineSpec, s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of the length-weighted domain sum at exponent s > 0."""
    return weighted_domain_sum(spec, s, budget, "omega").enclosure


def zeta_s(spec: MachineSpec, s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of the index-weighted domain sum at exponent s >= 1."""
    return weighted_domain_sum(spec, s, budget, "zeta").enclosure


def riemann_zeta(s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of sum over all n >= 1 of n^-s for rational s > 1.

    The index sum over every string. The sum engine adds the terms n^-s
    up to the budget, and at most to _element_stop(s), where a further term
    would narrow the enclosure by less than the 2^-192 grid; from the next
    index N on, the integral test brackets the rest by
    [N^(1-s)/(s-1), N^(1-s)/(s-1) + N^-s]. Where both the budget and that
    stop pass 24 terms (s below about 40.8), it stops at 24 instead and
    intersects that bracket with the Euler–Maclaurin one, rounded out to the
    grid: N^(1-s) times 1/(s-1) + 1/(2N) + the sum over k <= 40 of
    B_2k/(2k)! s(s+1)...(s+2k-2) N^-2k, widened on both sides by the first
    omitted term, which bounds the remainder for every real s > 1
    (H. M. Edwards, Riemann's Zeta Function, 1974, §6.4).
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("riemann_zeta needs s > 1")
    return zeta_s(Builtin("all_strings"), s, max(int(budget), 1))


def _normalizer(s: Fraction) -> Enclosure:
    # 1 - 2^(1-s), positive for s > 1
    b = pow2_bounds(1 - s, _TERM_PREC)
    return Enclosure(1 - b.hi, 1 - b.lo)


def kappa(spec: MachineSpec, s, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Normalized length-weighted sum (1 - 2^(1-s)) * omega_s at s > 1."""
    s = Fraction(s)
    if s <= 1:
        raise ValueError("kappa needs s > 1")
    if _is_all_strings(spec):
        return Enclosure.exact(Fraction(1))  # (1 - 2^(1-s)) sum over k of 2^k 2^-sk
    return _normalizer(s).mul(omega_s(spec, s, budget))


def kappa_natural(
    spec: MachineSpec, s, budget: int = DEFAULT_BUDGET
) -> Enclosure:
    """Index-weighted sum normalized by the full zeta value at s > 1."""
    s = Fraction(s)
    if s <= 1:
        raise ValueError("kappa_natural needs s > 1")
    if _is_all_strings(spec):
        return Enclosure.exact(Fraction(1))  # the index sum over every string is zeta(s)
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
    is an empty list. ln is increasing, so one upper bound on ln(a), with a
    the next multiple of 64 at or above i, rules out every i of that block
    with i*ln_hi(a) < p_i; only the rest get bounds of their own.
    """
    if upper < 6:
        raise ValueError("upper must be >= 6")
    primes = first_primes(upper)
    violations = []
    top = 0
    for i in range(6, upper + 1):
        p_i = primes[i - 1]
        if i > top:
            top = -(-i // 64) * 64
            ln_top = ln_bounds(Fraction(top), 32).hi
        if i * ln_top < p_i:
            continue
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
