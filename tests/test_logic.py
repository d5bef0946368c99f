import random

import pytest

from fmwb.core import Structure, Vocabulary, parse_vocab
from fmwb.forms import fo_sentences
from fmwb.logic import (
    FO, FO_LFP, FO_TC, OTHER, SO_A, SO_E, SO_PFP,
    And, AristotelianTarget, CharOrd, EmptyString, Exists,
    FormulaError, FormulaSyntaxError, MalformedGodelCode, Neq,
    NoOrderInTarget, Not, Or, OrderedTarget, Rel, SOExists,
    WrongSourceVocabulary, all_variables, apply_T_ord, apply_T_unord,
    char_free, fragment_of, free_vars, godel_decode, godel_encode,
    in_fragment, n_nodes, pad_structure_ord, pad_structure_unord,
    parse_formula, print_formula, psi_encode, psi_recognize,
    validate_sentence,
)
from randgen import random_formula


def test_parse_examples():
    f = parse_formula("Ex R(x)")
    assert f == Exists("x", Rel("R", ("x",)))
    g = parse_formula("EQ:2 Ax Ay (Q(x,y) -> Q(y,x))")
    assert isinstance(g, SOExists) and g.arity == 2
    assert fragment_of(g) == SO_E
    with pytest.raises(FormulaSyntaxError):
        parse_formula("Ex R(x")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("Ex R(x) extra")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")


def test_parse_sugar_and_brackets():
    assert parse_formula("R(x) -> S(x)") == Or(Not(Rel("R", ("x",))),
                                               Rel("S", ("x",)))
    assert parse_formula("Ex1 [x1 = x1]") == parse_formula("Ex1 (x1 = x1)")
    assert parse_formula("P(x) & Q(x) & S(x)") == And(
        And(Rel("P", ("x",)), Rel("Q", ("x",))), Rel("S", ("x",))
    )


def test_print_parse_identity_examples():
    texts = [
        "Ex R(x)",
        "Ax (R(x) | ~R(x))",
        "EQ:2 Ax Ay (~Q(x,y) | Q(y,x))",
        "Ex Ay ((x < y & BIT(x,y)) | x = y)",
        "TC[u,v: E(u,v)](s,t)",
        "LFP[Q,x1,x2: (E(x1,x2) | Q(x2,x1))](y1,y2)",
        "PFP[Q,x1: ~Q(x1)](y1)",
        "CHAR_ORD{5,6}",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


def test_roundtrip_random_corpus():
    rng = random.Random(2024)
    vocab = parse_vocab("R:1 E:2 <")
    for i in range(1000):
        f = random_formula(rng, vocab, rng.randint(1, 12))
        assert parse_formula(print_formula(f)) == f, print_formula(f)
        bits = godel_encode(f)
        assert godel_decode(bits) == f


def test_godel_distinct_codes_exhaustive(v_graph):
    corpus = fo_sentences(v_graph, 4)
    codes = {godel_encode(f) for f in corpus}
    assert len(codes) == len(corpus)


def test_godel_rejects_junk():
    with pytest.raises(MalformedGodelCode):
        godel_decode("0")
    with pytest.raises(MalformedGodelCode):
        godel_decode(godel_encode(parse_formula("Ex R(x)")) + "1")
    with pytest.raises(MalformedGodelCode):
        godel_decode("1010")  # tag 0 is unassigned


def test_free_vars_and_validation(v_graph):
    f = parse_formula("Ex E(x,y)")
    assert free_vars(f) == {"y"}
    with pytest.raises(FormulaError):
        validate_sentence(f, v_graph)
    with pytest.raises(FormulaError):
        validate_sentence(parse_formula("Ex E(x,x,x)"), v_graph)
    with pytest.raises(FormulaError):
        # numeric order atoms need an ordered vocabulary
        validate_sentence(parse_formula("Ex x < x"), v_graph)
    validate_sentence(parse_formula("Ex x < x"), parse_vocab("E:2 <"))
    # an encoding sentence is closed, and next to one the checks still apply
    psi = psi_encode("10" * 2000)
    validate_sentence(And(psi, parse_formula("Ex E(x,x)")), v_graph)
    with pytest.raises(FormulaError):
        validate_sentence(And(psi, f), v_graph)


def test_apply_T_ord_examples():
    ups = parse_formula("Ex R(x)")
    assert print_formula(apply_T_ord(ups, parse_vocab("R1:1 <"))) == "Ex R1(x)"
    assert (print_formula(apply_T_ord(ups, parse_vocab("E:2 <")))
            == "Ex Ey1 E(y1,x)")
    assert (print_formula(apply_T_ord(ups, parse_vocab("H:3 <")))
            == "Ex Ey1 H(y1,y1,x)")
    with pytest.raises(WrongSourceVocabulary):
        apply_T_ord(parse_formula("Ex Ey E(x,y)"), parse_vocab("R1:1 <"))
    with pytest.raises(NoOrderInTarget):
        apply_T_ord(ups, parse_vocab("R1:1"))


def test_apply_T_ord_fresh_variable_skips_used():
    ups = parse_formula("Ex Ey1 (R(x) & R(y1))")
    out = apply_T_ord(ups, parse_vocab("E:2 <"))
    assert "y2" in all_variables(out)
    assert print_formula(out) == "Ex Ey1 (Ey2 E(y2,x) & Ey2 E(y2,y1))"


def test_apply_T_unord_examples():
    ups = parse_formula("Ex Ey R(x,y)")
    assert (print_formula(apply_T_unord(ups, parse_vocab("P:1 E:2")))
            == "Ex Ey E(x,y)")
    assert (print_formula(apply_T_unord(ups, parse_vocab("H:3")))
            == "Ex Ey Ez1 H(x,y,z1)")
    with pytest.raises(AristotelianTarget):
        apply_T_unord(ups, parse_vocab("P:1 Q:1"))
    with pytest.raises(OrderedTarget):
        apply_T_unord(ups, parse_vocab("E:2 <"))
    with pytest.raises(WrongSourceVocabulary):
        apply_T_unord(parse_formula("Ex R(x)"), parse_vocab("E:2"))


def test_operators_reject_char_nodes():
    bad = Or(Exists("x", Rel("R", ("x",))), CharOrd("1", "1"))
    with pytest.raises(WrongSourceVocabulary):
        apply_T_ord(bad, parse_vocab("E:2 <"))


def test_padding_images():
    src_ord = Vocabulary((("R", 1),), has_order=True)
    a = Structure.make(src_ord, 3, {"R": [(1,)]})
    b = pad_structure_ord(a, parse_vocab("E:2 <"))
    assert b.rel["E"] == {(0, 1)} and b.n == 3
    src = Vocabulary((("R", 2),))
    c = Structure.make(src, 3, {"R": [(0, 2)]})
    d = pad_structure_unord(c, parse_vocab("H:3"))
    assert d.rel["H"] == {(0, 2, 0)}
    e = pad_structure_unord(c, parse_vocab("P:1 E:2"))
    assert e.rel["E"] == {(0, 2)} and e.rel["P"] == frozenset()


def test_psi_examples():
    f = psi_encode("10")
    assert print_formula(f) == "Ex1 Ax2 (x1 != x1 & x2 != x2)"
    assert psi_encode("1") == Exists("x1", Neq("x1", "x1"))
    with pytest.raises(EmptyString):
        psi_encode("")
    with pytest.raises(FormulaError):
        psi_encode("102")


def test_psi_recognize_examples():
    for w in ("0", "1", "101", "0011", "1" * 10):
        assert psi_recognize(psi_encode(w)) == w
    assert psi_recognize(parse_formula("Ex1 x1 = x1")) is None
    assert psi_recognize(parse_formula("Ax1 x1 != x1")) == "0"
    assert psi_recognize(parse_formula("Ex2 x2 != x2")) is None
    assert psi_recognize(parse_formula("Ex1 (x1 != x1 & x1 != x1)")) is None
    assert psi_recognize(parse_formula("Ex1 Ax2 (x2 != x2 & x1 != x1)")) is None


def test_psi_roundtrip_all_short():
    for k in range(1, 11):
        for i in range(1 << k):
            w = format(i, f"0{k}b")
            assert psi_recognize(psi_encode(w)) == w


def test_fragments():
    assert fragment_of(parse_formula("EQ:1 Ax (Q(x) | ~Q(x))")) == SO_E
    assert fragment_of(parse_formula("AQ:1 Ex Q(x)")) == SO_A
    assert fragment_of(parse_formula("Ex Ey TC[u,v: E(u,v)](x,y)")) == FO_TC
    assert fragment_of(parse_formula("Ex LFP[Q,y: E(y,y)](x)")) == FO_LFP
    assert fragment_of(parse_formula("Ex PFP[Q,y: ~Q(y)](x)")) == SO_PFP
    assert fragment_of(parse_formula("Ex R(x)")) == FO
    mixed = parse_formula("EQ:1 AP:1 Ex (Q(x) & P(x))")
    assert fragment_of(mixed) == SO_PFP
    assert not in_fragment(mixed, SO_E)
    assert not in_fragment(mixed, SO_A)
    assert in_fragment(mixed, SO_PFP)
    assert in_fragment(parse_formula("Ex R(x)"), SO_E)
    both = parse_formula("Ex (TC[u,v: E(u,v)](x,x) & LFP[Q,y: E(y,y)](x))")
    assert fragment_of(both) == OTHER


def test_char_free_and_node_count():
    f = parse_formula("(CHAR_ORD{5,6} & Ex R(x))")
    assert not char_free(f)
    assert char_free(parse_formula("Ex R(x)"))
    assert n_nodes(parse_formula("Ex (R(x) & R(x))")) == 4
