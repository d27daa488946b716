"""Bit strings and the order isomorphism with the positive integers.

The map sends n >= 1 to its binary numeral with the leading 1 removed:
1 -> "" (the empty string), 2 -> "0", 3 -> "1", 4 -> "00", and so on. It is
a bijection onto all finite bit strings that carries the usual order on
integers to length-lexicographic order on strings, and |bin_of(n)| equals
floor(log2 n).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

EPS = "eps"  # rendering of the empty string in reports and machine files
_DROP_BITS = str.maketrans("", "", "01")


def validate_bits(w: str, error: type[ValueError] = ValueError) -> str:
    """Return w unchanged if it consists only of 0s and 1s (empty allowed);
    otherwise raise error."""
    if w.count("0") + w.count("1") != len(w):
        raise error(f"not a bit string: {w!r}")
    return w


def all_bits(strings: Sequence[str]) -> bool:
    """True when every member is a bit string: one pass over the members
    joined, at C speed, in place of one check per member."""
    return not "".join(strings).translate(_DROP_BITS)


def validate_all_bits(strings: Sequence[str], error: type[ValueError] = ValueError) -> None:
    """Raise error for the first member, in order, that is not a bit string;
    the members are read one at a time only when all_bits fails."""
    if not all_bits(strings):
        for w in strings:
            validate_bits(w, error)


def render_bits(w: str) -> str:
    return w if w else EPS


def parse_bits(text: str) -> str:
    """Inverse of render_bits; accepts 'eps' or a run of 0s and 1s."""
    if text == EPS:
        return ""
    return validate_bits(text)


def bin_of(n: int) -> str:
    """String for n >= 1: binary numeral of n without its leading 1."""
    if n < 1:
        raise ValueError("bin_of requires n >= 1")
    return format(n, "b")[1:]


def bin_inv(w: str) -> int:
    """Integer for the string w: the numeral '1' + w read in base 2."""
    validate_bits(w)
    return int("1" + w, 2)


def hamming_weight(w: str) -> int:
    validate_bits(w)
    return w.count("1")


def lenlex_succ(w: str) -> str:
    """Successor of w in length-lexicographic order."""
    return bin_of(bin_inv(w) + 1)


def rational_of_prefix(w: str) -> Fraction:
    """Left endpoint 0.w of the dyadic interval covered by extensions of w."""
    validate_bits(w)
    if not w:
        return Fraction(0)
    return Fraction(int(w, 2), 1 << len(w))


def is_prefix_free(strings: Iterable[str]) -> bool:
    """True when no member is a proper or improper prefix of another member.

    Duplicates count as prefixes, so any repeated member fails. A set
    containing the empty string is prefix free only when it is {""}. Raises
    ValueError for the first member, in order, that is not a bit string.
    """
    seen = list(strings)
    validate_all_bits(seen)
    seen.sort()
    # after sorting, a prefix is adjacent to some extension of itself
    return not any(map(str.startswith, seen[1:], seen))


def all_strings(limit: int | None = None) -> Iterator[str]:
    """Every bit string in length-lex order, optionally stopping after `limit`."""
    n = 1
    while limit is None or n <= limit:
        yield bin_of(n)
        n += 1
