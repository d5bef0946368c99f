import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fmwb

from fmwb.cfg import (
    AlphabetMismatch, Grammar, GrammarError, MalformedGrammar, cyk_member,
    decode_grammar, encode_grammar, find_missing, parse_grammar, to_cnf,
)
from helpers import format_grammar
from oracles import derivable_strings, span_member
from randgen import random_grammar

AN_BN = parse_grammar("S -> a S b | eps")
UNIVERSAL = parse_grammar("S -> a S | b S | eps")
PALINDROME = parse_grammar("S -> a S a | b S b | a | b | eps")
EQUAL_AB = parse_grammar("S -> a S b S | b S a S | eps")
DOUBLE_A = parse_grammar("S -> a a S | b S | eps")

CORPUS = (AN_BN, UNIVERSAL, PALINDROME, EQUAL_AB, DOUBLE_A)
# Random grammars, and one that already uses S0, X and T_a, the first names
# to_cnf would give its fresh symbols.
SEEDED = (parse_grammar("S0 -> X T_a S0 | eps\nX -> a X b | T_a\nT_a -> b b a"),
          *(random_grammar(random.Random(seed)) for seed in range(300)))


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
    for g in (AN_BN, *SEEDED):
        cnf = to_cnf(g)
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


def _languages():
    """(grammar, its words up to max_len, max_len) from two oracles: the
    derivation search for the corpus, the span fixpoint for the seeded
    grammars, whose derivations it would not finish."""
    for g in CORPUS:
        yield g, derivable_strings(g, 16, 6), 6
    for g in SEEDED:
        words = strings_upto(g.terminals, 5)
        yield g, {word for word in words if span_member(g, word)}, 5


def test_cnf_preserves_language():
    for g, derivable, max_len in _languages():
        cnf = to_cnf(g)
        for word in strings_upto(g.terminals, max_len):
            assert cyk_member(cnf, word) == (word in derivable)


def test_cnf_is_the_same_under_every_string_hash():
    # Fresh names (X, X2, ...) were given in set order, so the grammar
    # depended on PYTHONHASHSEED: three outputs over seeds 0-7.
    src = str(Path(fmwb.__file__).resolve().parent.parent)
    texts = [format_grammar(g) for g in CORPUS]
    script = ("from fmwb.cfg import parse_grammar, to_cnf\n"
              f"for text in {texts!r}:\n"
              "    print(to_cnf(parse_grammar(text)).productions)\n")
    outputs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_parse_rejects_bad_production_lines():
    for text in ("S a b", "-> a", "S T -> a"):
        with pytest.raises(GrammarError, match="bad production line"):
            parse_grammar(text)


def test_grammar_text_spells_the_empty_body_eps_alone():
    assert parse_grammar("S -> a | eps | b").productions == (
        ("S", ()), ("S", ("a",)), ("S", ("b",)))
    for text in ("S -> a | | b", "S -> a | b |", "S ->\nT -> a | b", "S -> | a b"):
        with pytest.raises(GrammarError, match="empty alternative"):
            parse_grammar(text)
    for text in ("S -> a eps b", "S -> eps eps | a b", "S -> a b | eps S"):
        with pytest.raises(GrammarError, match="eps must stand alone"):
            parse_grammar(text)


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
