"""Crash-class fuzzing: decoders reject junk with their declared errors only,
and anything they accept re-encodes canonically."""

import random

import pytest
from hypothesis import given, strategies as st

from fmwb.aristotelian import (
    BitReader, MalformedBenc, MalformedCode, NotAristotelian, decode_nat, reconstruct,
)
from fmwb.cfg import MalformedGrammar, decode_grammar, encode_grammar
from fmwb.core import Vocabulary
from fmwb.logic import (
    FormulaSyntaxError, MalformedGodelCode, godel_decode, godel_encode,
    parse_formula, print_formula,
)
from fmwb.machines import MalformedMachine, decode_tm, encode_tm
from oracles import naive_decode_nat, naive_parse

V_MON = Vocabulary((("R", 1),))


@given(st.text(alphabet="01", max_size=64))
def test_godel_decode_junk(bits):
    try:
        f = godel_decode(bits)
    except MalformedGodelCode:
        return
    assert godel_encode(f) == bits


@given(st.text(alphabet="01", max_size=160))
def test_tm_decode_junk(bits):
    try:
        m = decode_tm(bits)
    except MalformedMachine:
        return
    assert encode_tm(m) == bits


@given(st.text(alphabet="01", max_size=120))
def test_grammar_decode_junk(bits):
    try:
        g = decode_grammar(bits)
    except MalformedGrammar:
        return
    # decoding normalizes production order; one pass reaches the fixpoint
    assert decode_grammar(encode_grammar(g)) == g


@given(st.text(alphabet="01", max_size=40))
def test_benc_junk(bits):
    try:
        a = reconstruct(V_MON, bits)
    except (MalformedBenc, NotAristotelian):
        return
    assert a.n >= 2


# int() also takes '_', blanks and signs, and str.find skips all but '0'.
JUNK = st.text(alphabet="01_ x2+-", max_size=64)


def _is_bits(text):
    return not text.strip("01")


@given(JUNK, st.integers(0, 8))
def test_decode_nat_reads_bits_only(text, pos):
    try:
        value, used = decode_nat(text, pos)
    except MalformedCode:
        return
    assert _is_bits(text[pos : pos + used])
    assert (value, used) == naive_decode_nat(text[pos : pos + used])


@given(JUNK)
def test_bit_reader_refuses_non_bits_before_any_read(text):
    reads = (lambda r: r.nat(), lambda r: r.index(3), lambda r: r.take(2),
             lambda r: r.string(), lambda r: r.payload())
    for read in reads:
        try:
            read(BitReader(text))
        except MalformedCode:
            continue
        assert _is_bits(text)


@given(JUNK)
def test_decoders_refuse_non_bits_with_their_declared_errors(text):
    decoders = ((godel_decode, MalformedGodelCode), (decode_tm, MalformedMachine),
                (decode_grammar, MalformedGrammar),
                (lambda bits: reconstruct(V_MON, bits), MalformedBenc))
    for decode, error in decoders:
        try:
            decode(text)
        except error:
            continue
        assert _is_bits(text)


def test_parser_mutation_fuzz():
    rng = random.Random(404)
    seeds = [
        "Ex R(x)",
        "EQ:2 Ax Ay (Q(x,y) -> Q(y,x))",
        "TC[u,v: E(u,v)](s,t)",
        "LFP[Q,x1: (R(x1) | Q(x1))](y1)",
        "CHAR_ORD{5,6}",
        "Ex Ay ((x < y & BIT(x,y)) | x = y)",
    ]
    glyphs = "EAxyzQR()[]{}<>=!&|~->:, 015"
    for _ in range(2000):
        text = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            pos = rng.randrange(len(text) + 1)
            if kind < 0.4 and text:
                text.pop(rng.randrange(len(text)))
            elif kind < 0.8:
                text.insert(pos, rng.choice(glyphs))
            elif text:
                text[rng.randrange(len(text))] = rng.choice(glyphs)
        mutated = "".join(text)
        try:
            expected = naive_parse(mutated)
        except FormulaSyntaxError as exc:
            # the same error at the same place as the reference parser
            with pytest.raises(FormulaSyntaxError) as info:
                parse_formula(mutated)
            assert (str(info.value), info.value.pos) == (str(exc), exc.pos)
            continue
        f = parse_formula(mutated)
        assert f == expected
        # whatever still parses must round trip
        assert parse_formula(print_formula(f)) == f
