"""Property and differential tests of the bit-list codec.

The decoder stops each probe at weak head normal form; a reference decoder
kept here reduces every probe to full normal form, and the two must agree
on lists hidden behind redexes, with odd elements and ends.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from tuatara.iota import (  # noqa: E402
    App,
    Atom,
    DecodeBudget,
    K,
    MalformedList,
    S,
    decode_bits,
    encode_bits,
    iota_constants,
    parse,
    reduce,
    unparse,
)

_SKK = App(App(S, K), K)
_LOOP = App(App(App(S, _SKK), _SKK), App(App(S, _SKK), _SKK))


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="01", max_size=64))
def test_codec_roundtrip_property(w):
    assert decode_bits(encode_bits(w)) == w


def _decode_by_normal_form(bits, step_budget, size_budget=10 ** 6):
    """Reference decoder: every probe is reduced to full normal form."""
    t = parse(bits)
    out = []
    probe_a, probe_b, mark_f, mark_t = Atom("a"), Atom("b"), Atom("f"), Atom("t")

    def nf(term):
        r = reduce(term, step_budget, size_budget)
        if not r.halted:
            raise DecodeBudget(r.status)
        return r.term

    while True:
        u = nf(App(App(t, probe_a), probe_b))
        if u is probe_a:
            return "".join(out)
        args = []
        while isinstance(u, App):
            args.append(u.x)
            u = u.f
        if u is not probe_a or len(args) != 3:
            raise MalformedList("node is neither the empty list nor a cons cell")
        last, t, element = args
        if last is not probe_b:
            raise MalformedList("cons probe did not pass through")
        picked = nf(App(App(element, mark_f), mark_t))
        if picked is mark_f:
            out.append("0")
        elif picked is mark_t:
            out.append("1")
        else:
            raise MalformedList("list element is not a boolean")


def _outcome(decode, bits):
    try:
        return decode(bits)
    except (MalformedList, DecodeBudget) as exc:
        return type(exc), str(exc)


_C = iota_constants()
_K_BITS = "1010100"
_LOOP_BITS = unparse(_LOOP)


def _app(f, x):
    return "1" + f + x


# ways to hide a term behind redexes that reduce back to it
_WRAPS = {
    "none": lambda t: t,
    "k": lambda t: _app(_app(_K_BITS, t), "0"),  # K t i
    "k-loop": lambda t: _app(_app(_K_BITS, t), _LOOP_BITS),  # discarded loop
    "ii": lambda t: _app("100", t),  # (i i) t ->* t
}
# elements: the two booleans and terms that are not booleans
_ELEMENTS = {
    "0": _C.F, "1": _C.T, "S": "101010100", "i": "0", "ii": "100", "KK": "110101001010100",
}
# list ends: the empty list, non-lists, and a term with no normal form
_ENDS = {"nil": _C.F, "S": "101010100", "K": _K_BITS, "loop": _LOOP_BITS}


@st.composite
def _odd_lists(draw):
    # booleans and proper ends are drawn more often, so that many lists decode
    wrap = st.sampled_from(sorted(_WRAPS))
    element = st.sampled_from(["0", "1"] * 10 + sorted(_ELEMENTS))
    nodes = draw(st.lists(st.tuples(element, wrap, wrap), max_size=6))
    end = draw(st.sampled_from(["nil"] * 4 + sorted(_ENDS)))
    bits = _WRAPS[draw(wrap)](_ENDS[end])
    for element, element_wrap, tail_wrap in reversed(nodes):
        cell = _app(_app(_C.P, _WRAPS[element_wrap](_ELEMENTS[element])), bits)
        bits = _WRAPS[tail_wrap](cell)
    return bits


@settings(max_examples=60, deadline=None)
@given(_odd_lists())
def test_decode_agrees_with_normal_form(bits):
    # the reference's budget is per probe; the decoder's total is ten times
    # that, ample for lists this short
    ref = _outcome(lambda b: _decode_by_normal_form(b, 4000), bits)
    new = _outcome(lambda b: decode_bits(b, step_budget=40000), bits)
    if isinstance(ref, tuple) and ref[0] is DecodeBudget:
        # only inputs without a normal form; head reduction may get further
        assert _LOOP_BITS in bits
    else:
        assert new == ref


def test_decode_diverging_parts():
    loop_tail = _app(_app(_C.P, _C.T), _LOOP_BITS)
    with pytest.raises(DecodeBudget):
        _decode_by_normal_form(loop_tail, 2000)
    with pytest.raises(DecodeBudget):
        decode_bits(loop_tail, step_budget=2000)
    # an element that ignores a diverging part decodes by its behaviour,
    # while its full normal form does not exist
    lazy_true = _app(_app("101010100", _app(_K_BITS, _C.T)), _LOOP_BITS)  # S (K T) loop
    one = _app(_app(_C.P, lazy_true), _C.F)
    assert decode_bits(one, step_budget=2000) == "1"
    with pytest.raises(DecodeBudget):
        _decode_by_normal_form(one, 2000)
