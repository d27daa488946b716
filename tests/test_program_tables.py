"""The index-keyed program tables against the string enumeration they replace.

The reference kept here is the earlier `words_of_length`: a string recursion
that joins "1", every program a and every program b of the complementary
length, then sorts. The tables must list the same programs, the terms must
be the parsed programs, sharing the cells of their subprograms, and a
cached term must reduce exactly as a fresh parse does, so the iota stream
and the iota machine examine, stop and answer as before.
"""

from __future__ import annotations

import itertools

import pytest

from tuatara import iota
from tuatara.complexity import ExecutableMachine
from tuatara.iota import (
    parse,
    program_indices,
    program_terms,
    reduce,
    run_program,
    term_eq,
    words_of_length,
)
from tuatara.machines import Builtin, StreamCut, domain_stream

_REF_WORDS: dict[int, tuple[str, ...]] = {1: ("0",)}


def _ref_words(length):
    if length < 1 or length % 2 == 0:
        return ()
    if length not in _REF_WORDS:
        acc = []
        for left_len in range(1, length - 1, 2):
            for a in _ref_words(left_len):
                for b in _ref_words(length - 1 - left_len):
                    acc.append("1" + a + b)
        _REF_WORDS[length] = tuple(sorted(acc))
    return _REF_WORDS[length]


def _first_part(w):
    """Length of the program a in w = 1 a b."""
    for end in range(2, len(w)):
        if iota.is_program(w[1:end]):
            return end - 1
    raise AssertionError(w)


def _ref_programs(max_length):
    return [w for length in range(1, max_length + 1) for w in _ref_words(length)]


@pytest.mark.parametrize("length", range(1, 18, 2))
def test_tables_match_the_string_recursion(length):
    words = _ref_words(length)
    assert list(program_indices(length)) == [int("1" + w, 2) for w in words]
    terms = program_terms(length)
    assert len(terms) == len(words)
    for w, term in zip(words, terms):
        assert term_eq(term, parse(w)), w
        if length >= 3:
            na = _first_part(w)
            a, b = w[1 : 1 + na], w[1 + na :]
            assert term.f is program_terms(len(a))[_ref_words(len(a)).index(a)]
            assert term.x is program_terms(len(b))[_ref_words(len(b)).index(b)]


def test_words_of_length_is_unchanged():
    for length in range(-3, 18):
        assert words_of_length(length) == _ref_words(length)
    assert words_of_length(4) == () and words_of_length(0) == ()
    assert len(program_indices(-1)) == len(program_indices(6)) == 0
    assert program_terms(-1) == program_terms(6) == ()


@pytest.mark.parametrize("budgets", [(5, 9), (50, 200), (10 ** 5, 10 ** 6)])
def test_cached_terms_reduce_as_a_fresh_parse(budgets):
    for length in range(1, 16, 2):
        for w, term in zip(_ref_words(length), program_terms(length)):
            got, ref = reduce(term, *budgets), reduce(parse(w), *budgets)
            assert (got.status, got.steps) == (ref.status, ref.steps), w
            if ref.halted:
                assert term_eq(got.term, ref.term), w


def _ref_halting(steps, sizes, words):
    return [int("1" + w, 2) for w in words if run_program(w, steps, sizes).halted]


@pytest.mark.parametrize("limit", [0, 1, 2, 7, 40, 200])
def test_iota_stream_is_cut_exactly_at_its_examine_limit(limit):
    # 626 programs have at most 15 bits, so a stream that misses its cut
    # exhausts instead of running on
    steps, sizes = 30, 15
    stream = domain_stream(Builtin("iota", (), steps, sizes))
    stream.limit_examined(limit)
    got = []
    with pytest.raises(StreamCut):
        for n in stream.indices():
            got.append(n)
    assert got == _ref_halting(steps, sizes, _ref_programs(15)[:limit])


def test_iota_stream_exhausts_at_its_size_budget():
    steps, sizes = 10 ** 5, 9
    stream = domain_stream(Builtin("iota", (), steps, sizes))
    stream.limit_examined(10 ** 6)
    assert list(stream.indices()) == _ref_halting(steps, sizes, _ref_programs(9))


@pytest.mark.parametrize("budgets", [(3, 40), (2000, 10 ** 4)])
def test_iota_machine_finds_candidates_in_the_tables(budgets):
    machine = ExecutableMachine(Builtin("iota", (), *budgets))
    for w in ("".join(p) for n in range(16) for p in itertools.product("01", repeat=n)):
        if not iota.is_program(w):
            assert machine.run(w) is None
            continue
        r = run_program(w, *budgets)
        assert machine.run(w) == (iota.unparse(r.term) if r.halted else None), w
