import itertools

import pytest

from fmwb.cfg import (
    AlphabetMismatch, Grammar, GrammarError, MalformedGrammar, cyk_member,
    decode_grammar, encode_grammar, find_missing, parse_grammar, to_cnf,
)
from helpers import format_grammar
from oracles import derivable_strings

AN_BN = parse_grammar("S -> a S b | eps")
UNIVERSAL = parse_grammar("S -> a S | b S | eps")
PALINDROME = parse_grammar("S -> a S a | b S b | a | b | eps")
EQUAL_AB = parse_grammar("S -> a S b S | b S a S | eps")
DOUBLE_A = parse_grammar("S -> a a S | b S | eps")

CORPUS = (AN_BN, UNIVERSAL, PALINDROME, EQUAL_AB, DOUBLE_A)


def strings_upto(alphabet, max_len):
    for length in range(max_len + 1):
        for word in itertools.product(alphabet, repeat=length):
            yield word


def test_grammar_invariants():
    with pytest.raises(GrammarError):
        Grammar.make(("S",), ("a",), [("S", ("a",))], "S")  # one-letter alphabet
    with pytest.raises(GrammarError):
        Grammar.make(("S",), ("a", "b"), [("S", ("T",))], "S")
    with pytest.raises(GrammarError):
        Grammar.make(("S",), ("a", "b"), [], "T")


def test_parse_and_format_roundtrip():
    for g in CORPUS:
        assert parse_grammar(format_grammar(g)) == g


def test_cyk_examples():
    assert cyk_member(AN_BN, "aabb")
    assert not cyk_member(AN_BN, "aab")
    assert cyk_member(AN_BN, "")
    assert not cyk_member(AN_BN, "ba")
    with pytest.raises(AlphabetMismatch):
        cyk_member(AN_BN, "abc")


def test_cnf_shape():
    cnf = to_cnf(AN_BN)
    for head, body in cnf.productions:
        assert len(body) <= 2
        if len(body) == 2:
            assert all(s in cnf.nonterminals for s in body)
        elif len(body) == 1:
            assert body[0] in cnf.terminals
        else:
            assert head == cnf.start
    rhs_symbols = {s for _, body in cnf.productions for s in body}
    assert cnf.start not in rhs_symbols


def test_cnf_preserves_language():
    for g in CORPUS:
        cnf = to_cnf(g)
        derivable = derivable_strings(g, 16, 6)
        for word in strings_upto(g.terminals, 6):
            assert cyk_member(cnf, word) == (word in derivable)


def test_cnf_of_cnf_grammar():
    g = parse_grammar("S -> A B | a\nA -> a\nB -> b")
    cnf = to_cnf(g)
    for word in strings_upto(("a", "b"), 5):
        assert cyk_member(g, word) == cyk_member(cnf, word)


def test_cnf_drops_unreachable():
    g = parse_grammar("S -> a S | b\nU -> a U b")
    cnf = to_cnf(g)
    assert "U" not in cnf.nonterminals


def test_cyk_matches_derivation_enumeration():
    for g in CORPUS:
        derivable = derivable_strings(g, 16, 6)
        for word in strings_upto(g.terminals, 6):
            assert cyk_member(g, word) == (word in derivable), (g, word)


def test_find_missing_examples():
    assert find_missing(UNIVERSAL, 4) is None
    assert find_missing(AN_BN, 4) == ("a",)
    empty_only = parse_grammar("S -> eps", terminals=("a", "b"))
    assert find_missing(empty_only, 0) is None
    no_empty = parse_grammar("S -> a | b")
    assert find_missing(no_empty, 0) == ()


def test_find_missing_order_is_length_then_alphabet():
    missing_b = parse_grammar("S -> a S | eps", terminals=("a", "b"))
    assert find_missing(missing_b, 3) == ("b",)


def test_grammar_code_roundtrip():
    for g in CORPUS:
        assert decode_grammar(encode_grammar(g)) == g
    codes = {encode_grammar(g) for g in CORPUS}
    assert len(codes) == len(CORPUS)


def test_grammar_code_rejects_junk():
    with pytest.raises(MalformedGrammar):
        decode_grammar("0")
    with pytest.raises(MalformedGrammar):
        decode_grammar(encode_grammar(AN_BN) + "1")


def test_empty_language_grammar():
    hopeless = parse_grammar("S -> a S", terminals=("a", "b"))
    assert not cyk_member(hopeless, "")
    assert not cyk_member(hopeless, "a")
    assert find_missing(hopeless, 1) == ()
