"""Program parsing, budgeted reduction, the bit-list codec, and length weights."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from math import comb

import pytest

from tuatara.iota import (
    IOTA,
    App,
    Atom,
    DecodeBudget,
    Incomplete,
    K,
    MalformedList,
    S,
    TrailingBits,
    count_programs,
    decode_bits,
    encode_bits,
    iota_constants,
    iota_zeta_partial,
    is_program,
    parse,
    reduce,
    run_program,
    selector_check,
    size_of,
    term_eq,
    unparse,
    words_of_length,
)

_SKK = App(App(S, K), K)  # extensional identity from the bare combinators
_LOOP = App(App(App(S, _SKK), _SKK), App(App(S, _SKK), _SKK))


def test_parse_unparse_roundtrip():
    for length in (1, 3, 5, 7, 9, 11):
        for w in words_of_length(length):
            assert unparse(parse(w)) == w


def test_parse_failures():
    with pytest.raises(Incomplete) as exc:
        parse("")
    assert exc.value.missing == 1
    with pytest.raises(Incomplete) as exc:
        parse("10")
    assert exc.value.missing == 1
    with pytest.raises(Incomplete) as exc:
        parse("111")
    assert exc.value.missing == 4
    with pytest.raises(TrailingBits) as exc:
        parse("00")
    assert exc.value.consumed == 1
    with pytest.raises(TrailingBits) as exc:
        parse("100 100")  # two programs back to back
    assert exc.value.consumed == 3
    with pytest.raises(ValueError):
        parse("012")
    assert parse("1 0\n0") is not None  # whitespace is ignored
    assert is_program("11000") and not is_program("110")


def test_program_counts():
    got = [count_programs(n) for n in range(1, 11)]
    assert got == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0]
    assert count_programs(17) == 1430
    assert count_programs(0) == 0
    for length in range(1, 14):
        assert len(words_of_length(length)) == count_programs(length)
    assert words_of_length(5) == ("10100", "11000")
    assert words_of_length(4) == ()


def test_run_program_values():
    r = run_program("0")
    assert r.halted and r.steps == 0 and r.term is IOTA
    r = run_program("100")
    assert r.halted
    assert term_eq(r.term, App(App(S, K), App(K, K)))
    # the K and S spellings reduce back to the bare combinators
    c = iota_constants()
    assert term_eq(run_program("1010100").term, K)
    assert term_eq(run_program("101010100").term, S)
    assert term_eq(run_program(c.F).term, K)
    assert term_eq(run_program(c.T).term, App(S, K))


def test_reduce_budget_exhaustion():
    r = reduce(_LOOP, step_budget=50)
    assert r.status == "steps" and not r.halted and r.term is None
    # an initial term over the size budget is rejected without any steps
    r = run_program("100", size_budget=1)
    assert r.status == "size" and r.steps == 0
    with pytest.raises(ValueError):
        unparse(Atom("z"))  # probe marks have no program spelling
    assert unparse(parse("10100")) == "10100"
    # bare combinators render as the programs that reduce to them
    assert unparse(App(IOTA, K)) == "101010100"


def test_constants():
    c = iota_constants()
    assert len(c.F) == 7 and len(c.T) == 5 and len(c.P) == 147
    for bits in (c.F, c.T, c.P):
        assert is_program(bits)


def test_selector_check():
    assert selector_check(K, S)
    assert selector_check(IOTA, K)
    assert selector_check(App(K, S), S)
    # a component with no normal form makes the probe time out
    assert not selector_check(_LOOP, K, step_budget=500)


def test_encode_values():
    c = iota_constants()
    assert encode_bits("") == c.F
    assert len(encode_bits("1")) == 161
    for n in range(0, 9):
        w = bin(256 + n)[-8:]
        assert len(encode_bits(w)) <= 193 * len(w) + 7
    with pytest.raises(ValueError):
        encode_bits("02")


def _fold_encode(w):
    # the cons-by-cons fold the encoder's join spells out
    c = iota_constants()
    out = c.F
    for bit in reversed(w):
        out = "1" + ("1" + c.P + (c.T if bit == "1" else c.F)) + out
    return out


def test_encode_is_the_fold_and_linear():
    rng = random.Random(3)
    words = [bin(m)[3:] for m in range(1, 1 << 9)]
    words += ["".join(rng.choice("01") for _ in range(rng.randint(9, 200))) for _ in range(40)]
    for w in words:
        assert encode_bits(w) == _fold_encode(w), w
    # prepending to a growing string, as the fold does, is quadratic in |w|
    w = "".join(rng.choice("01") for _ in range(60_000))
    t0 = time.perf_counter()
    out = encode_bits(w)
    assert time.perf_counter() - t0 < 2.0
    c = iota_constants()
    assert len(out) == len(c.F) + sum(2 + len(c.P) + len(c.T if b == "1" else c.F) for b in w)


def test_codec_roundtrip():
    for w in ("", "0", "1", "0110", "111000111", "1" * 16):
        assert decode_bits(encode_bits(w)) == w
    rng = random.Random(11)
    for _ in range(20):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 24)))
        assert decode_bits(encode_bits(w)) == w


def test_decode_errors():
    with pytest.raises(MalformedList):
        decode_bits("0")
    with pytest.raises(DecodeBudget):
        decode_bits(encode_bits("0101"), step_budget=10)


_F = parse(iota_constants().F)
_AFF = App(App(S, App(App(S, _SKK), App(K, _F))), App(K, _F))  # a -> a F F
_BAD_CONS = App(App(S, App(K, K)), App(App(S, _AFF), App(K, K)))  # a b -> a F F K


@pytest.mark.parametrize("term, message", [
    # K I a b is b: neither a bare a nor a applied to three arguments
    (App(K, _SKK), "node is neither the empty list nor a cons cell"),
    # a cons cell whose last argument is not the probe's b
    (_BAD_CONS, "cons probe did not pass through"),
    (parse("0"), "list element is not a boolean"),
])
def test_each_malformed_list_is_named(term, message):
    with pytest.raises(MalformedList) as exc:
        decode_bits(unparse(term))
    assert str(exc.value) == message


def test_iota_zeta_partial_equals_the_sum_over_sizes():
    # the closed form against the loop it replaced, one Catalan term per size
    lo = F(0)
    for n in range(1, 301):
        lo += F(count_programs(2 * n - 1), 1 << (2 * n - 1))
        enc = iota_zeta_partial(n)
        assert (enc.lo, enc.hi) == (lo, lo + F(comb(2 * n, n), 4 ** n))


def test_iota_zeta_partial():
    one = iota_zeta_partial(1)
    assert (one.lo, one.hi) == (F(1, 2), 1)
    four = iota_zeta_partial(4)
    assert (four.lo, four.hi) == (F(93, 128), 1)
    prev = None
    for n in range(1, 41):
        enc = iota_zeta_partial(n)
        assert enc.hi == 1
        assert enc.lo == 1 - F(comb(2 * n, n), 4 ** n)
        if prev is not None:
            assert prev.lo <= enc.lo  # enclosures are nested
        prev = enc
    with pytest.raises(ValueError):
        iota_zeta_partial(0)


def test_size_of():
    assert size_of(IOTA) == 1
    assert size_of(App(IOTA, App(K, S))) == 5
