"""The integer/bit-string bijection and prefix-freeness helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tuatara.binstr import (
    EPS,
    all_strings,
    bin_inv,
    bin_of,
    hamming_weight,
    is_prefix_free,
    lenlex_succ,
    parse_bits,
    rational_of_prefix,
    render_bits,
    validate_bits,
)


def test_table_rows():
    assert bin_of(1) == ""
    assert bin_of(2) == "0"
    assert bin_of(3) == "1"
    assert bin_of(4) == "00"
    assert bin_of(6) == "10"
    assert bin_inv("") == 1
    assert bin_inv("1011") == 27


def test_round_trip_small():
    for n in range(1, 50_000):
        assert bin_inv(bin_of(n)) == n


def test_round_trip_strings():
    for w in ["", "0", "1", "0000", "101101", "1" * 20]:
        assert bin_of(bin_inv(w)) == w


def test_length_is_floor_log2():
    for n in range(1, 4096):
        assert len(bin_of(n)) == n.bit_length() - 1


def test_bin_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        bin_of(0)
    with pytest.raises(ValueError):
        bin_of(-3)


def test_order_isomorphism():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randrange(1, 1 << 20)
        b = rng.randrange(1, 1 << 20)
        wa, wb = bin_of(a), bin_of(b)
        assert (a < b) == ((len(wa), wa) < (len(wb), wb))


def test_lenlex_succ_walk():
    w = ""
    seen = [w]
    for _ in range(14):
        w = lenlex_succ(w)
        seen.append(w)
    assert seen == [bin_of(n) for n in range(1, 16)]


def test_validate_and_render():
    assert validate_bits("0101") == "0101"
    assert validate_bits("") == ""
    with pytest.raises(ValueError):
        validate_bits("012")
    assert render_bits("") == EPS
    assert render_bits("10") == "10"
    assert parse_bits(EPS) == ""
    assert parse_bits("10") == "10"
    with pytest.raises(ValueError):
        parse_bits("abc")


def test_validate_bits_rejects_every_other_character():
    # every string of up to three characters over an alphabet with spaces,
    # underscores (which int() accepts) and non-ASCII digits
    alphabet = "01 _2\n\u0661\uff12"
    words = [""]
    for _ in range(3):
        words += [w + c for w in words if len(w) == len(words[-1]) for c in alphabet]
    for w in words:
        if set(w) <= {"0", "1"}:
            assert validate_bits(w) == w
        else:
            with pytest.raises(ValueError):
                validate_bits(w)


def test_hamming_weight():
    assert hamming_weight("") == 0
    assert hamming_weight("1011") == 3
    assert hamming_weight("0000") == 0


def test_rational_of_prefix():
    assert rational_of_prefix("") == 0
    assert rational_of_prefix("1") == Fraction(1, 2)
    assert rational_of_prefix("11") == Fraction(3, 4)
    assert rational_of_prefix("01") == Fraction(1, 4)
    assert rational_of_prefix("000") == 0


def test_prefix_free():
    assert is_prefix_free(["0", "10", "11"])
    assert is_prefix_free([])
    assert is_prefix_free([""])
    assert not is_prefix_free(["1", "10"])
    assert not is_prefix_free(["10", "1"])
    assert not is_prefix_free(["0", "0"])
    assert not is_prefix_free(["", "0"])
    # the first member that is not bits is named, though a later one sorts first
    with pytest.raises(ValueError, match=r"^not a bit string: 'a'$"):
        is_prefix_free(["1", "a", "0", "2"])


def test_all_strings_prefix():
    assert list(all_strings(7)) == ["", "0", "1", "00", "01", "10", "11"]
    gen = all_strings()
    assert [next(gen) for _ in range(3)] == ["", "0", "1"]


def _ref_prefix_free(strings: list[str]) -> bool:
    """Every ordered pair of positions, one at a time; a member that is not
    bits is refused first, the first one in order."""
    for w in strings:
        validate_bits(w)
    return not any(
        i != j and b.startswith(a)
        for i, a in enumerate(strings)
        for j, b in enumerate(strings)
    )


def _prefix_free_outcome(test, strings):
    try:
        return test(strings)
    except ValueError as exc:
        return str(exc)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the tests above need no hypothesis
    given = None

if given is not None:
    # short bit strings, so prefixes and duplicates are common; the empty
    # string, and members that are not bits, some of them bits plus a tail
    _members = st.one_of(
        st.text("01", max_size=4),
        st.text("01", max_size=4),
        st.just(""),
        st.sampled_from(("2", "0a", "1 ", "1_0", "eps", "\u0661")),
    )

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_members, max_size=12))
    def test_prefix_free_answers_as_every_pair(strings):
        given_order = list(strings)
        got = _prefix_free_outcome(is_prefix_free, strings)
        assert got == _prefix_free_outcome(_ref_prefix_free, strings)
        # the sort is on a copy: the list keeps its order, and an iterator,
        # read once, gives the same answer
        assert strings == given_order
        assert _prefix_free_outcome(is_prefix_free, iter(strings)) == got
