import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from fmwb.aristotelian import encode_nat, encode_str
from fmwb.core import Structure, Vocabulary, parse_vocab
from fmwb import logic
from fmwb.forms import fo_sentences
from fmwb.logic import (
    FO, FO_LFP, FO_TC, OTHER, SO_A, SO_E, SO_PFP,
    And, AristotelianTarget, Bit, CharCfg, CharNpconp, CharOrd, CharUnord,
    CoCharUnord, EmptyString, Eq, Exists, Forall, FormulaError,
    FormulaSyntaxError, Lfp, Lt, MAX_DEPTH, MalformedGodelCode, Neq,
    NoOrderInTarget, Not, Or, OrderedTarget, Pfp, Psi, Rel, SOExists,
    SOForall, Tc, WrongSourceVocabulary, all_variables, apply_T_ord,
    apply_T_unord, char_free, children, fragment_of, free_vars, godel_decode,
    godel_encode, in_fragment, pad_structure_ord,
    pad_structure_unord, parse_formula, print_formula, psi_encode,
    psi_recognize, validate_sentence, walk, with_children,
)
from helpers import n_nodes
from oracles import naive_parse, psi_expansion
from randgen import random_formula, single_node_mutations


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


# One node of each class at the root, with its text and Goedel code as
# the printer and encoder produced them before the syntax table existed.
GOLDEN = [
    (Rel("E", ("x", "y", "x")), "E(x,y,x)",
     "10111011010001011101011101101111000101101111001101101111000"),
    (Eq("x", "y1"), "x = y1", "110101010110111100011010100111100100110001"),
    (Neq("x", "y"), "x != y", "1101011101101111000101101111001"),
    (Lt("x", "y"), "x < y", "11011100101101111000101101111001"),
    (Bit("x", "y"), "BIT(x,y)", "11011101101101111000101101111001"),
    (And(Rel("P", ("x",)), Eq("x", "y")), "(P(x) & x = y)",
     "11011110101110110101000010111011011110001101010101101111000101101111001"),
    (Or(Lt("x", "y"), Not(Rel("P", ("y",)))), "(x < y | ~P(y))",
     "11011111110111001011011110001011011110011110100100010111011010100001011101"
     "101111001"),
    (Not(Rel("P", ("x",))), "~P(x)",
     "1110100100010111011010100001011101101111000"),
    (Exists("x", Rel("P", ("x",))), "Ex P(x)",
     "1110100100110110111100010111011010100001011101101111000"),
    (Forall("y", Exists("x", Rel("E", ("x", "y")))), "Ay Ex E(x,y)",
     "11101001010101101111001111010010011011011110001011101101000101110101010110"
     "1111000101101111001"),
    (SOExists("Q", 2, Rel("Q", ("x", "y"))), "EQ:2 Q(x,y)",
     "11101001011101101010001110101010111011010100011101010101101111000101101111"
     "001"),
    (SOForall("Q1", 1, Rel("Q1", ("x",))), "AQ1:1 Q1(x)",
     "11101001100110101001010001001100011011101111010100101000100110001101110110"
     "1111000"),
    (Tc("u", "v", Rel("E", ("u", "v")), "x", "y"), "TC[u,v: E(u,v)](x,y)",
     "11101001101101101110101101101110110101110110100010111010101011011101011011"
     "01110110101101111000101101111001"),
    (Lfp("Q", ("u", "v"), Or(Rel("E", ("u", "v")), Rel("Q", ("v", "u"))),
         ("x", "y")),
     "LFP[Q,u,v: (E(u,v) | Q(v,u))](x,y)",
     "11101001110101101010001110101010110111010110110111011011011111101110110100"
     "01011101010101101110101101101110110101110110101000111010101011011101101011"
     "01110101101101111000101101111001"),
    (Pfp("S", ("u",), Not(Rel("S", ("u",))), ("x",)), "PFP[S,u: ~S(u)](x)",
     "11101001111101101010011101110110111010111101001000101110110101001110111011"
     "01110101101101111000"),
    (CharOrd("101", "0011"), "CHAR_ORD{d,13}",
     "1110101100001101011101110111000011"),
    (CharUnord("", "1"), "CHAR_UNORD{1,3}", "111010110001101010111"),
    (CoCharUnord("1", ""), "COCHAR_UNORD{3,1}", "111010110010101111010"),
    (CharNpconp("0", "110"), "CHAR_NPCONP{2,e}", "111010110011101101101011110"),
    (CharCfg("10110"), "CHAR_CFG{36}", "1110101101001101110110110"),
]


@pytest.mark.parametrize("node,text,code", GOLDEN,
                         ids=[type(node).__name__ for node, _, _ in GOLDEN])
def test_golden_syntax(node, text, code):
    assert print_formula(node) == text
    assert parse_formula(text) == node
    assert godel_encode(node) == code
    assert godel_decode(code) == node


def test_unknown_nodes_are_rejected():
    for fn in (print_formula, godel_encode, free_vars, all_variables):
        for junk in (None, Not(None)):
            with pytest.raises(FormulaError):
                fn(junk)
    with pytest.raises(FormulaError):
        children(None)


def test_print_and_encode_do_not_recurse():
    w = "10" * 10_000
    f = psi_encode(w)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text, code = print_formula(f), godel_encode(f)
    finally:
        sys.setrecursionlimit(limit)
    k = len(w)
    prefix = "".join(f"{'E' if b == '1' else 'A'}x{i} " for i, b in enumerate(w, 1))
    assert text == (prefix + "(" * (k - 1) + "x1 != x1"
                    + "".join(f" & x{i} != x{i})" for i in range(2, k + 1)))
    quantifiers = "".join(encode_nat(9 if b == "1" else 10) + encode_str(f"x{i}")
                          for i, b in enumerate(w, 1))
    atoms = "".join(encode_nat(3) + encode_str(f"x{i}") * 2 for i in range(1, k + 1))
    assert code == quantifiers + encode_nat(6) * (k - 1) + atoms


def test_parser_matches_the_reference_parser():
    texts = [print_formula(f) for f in fo_sentences(parse_vocab("E:2 <"), 5)]
    assert len(texts) == 9480
    rng = random.Random(77)
    vocab = parse_vocab("R:1 E:2 <")
    texts += [print_formula(random_formula(rng, vocab, rng.randint(1, 14)))
              for _ in range(2000)]
    for text in texts:
        assert parse_formula(text) == naive_parse(text), text


def test_nesting_ceiling():
    deepest = "~" * (MAX_DEPTH - 1) + "x = x"
    assert godel_decode(godel_encode(parse_formula(deepest))) == naive_parse(deepest)
    for text in ("~" * MAX_DEPTH + "x = x",
                 "x = x" + " & x = x" * MAX_DEPTH,
                 "(x = x | " * MAX_DEPTH + "x = x" + ")" * MAX_DEPTH,
                 "Ex " * 20_000 + "x = x"):
        with pytest.raises(FormulaSyntaxError, match="deeper than"):
            parse_formula(text)
    # Brackets alone add no level.
    assert parse_formula("(" * 20_000 + "x = x" + ")" * 20_000) == Eq("x", "x")
    f = Eq("x", "x")
    for _ in range(20_000):
        f = Not(f)
    with pytest.raises(MalformedGodelCode, match="deeper than"):
        godel_decode(godel_encode(f))
    # A Psi is one level, however long its code.
    w = "01" * 10_000
    assert godel_decode(godel_encode(Not(Psi(w)))) == Not(Psi(w))


def test_node_hashes_tell_classes_with_equal_fields_apart():
    f = parse_formula("Ex R(x)")
    g = Rel("R", ("y",))
    groups = [
        (Exists("x", f), Forall("x", f)),
        (And(f, g), Or(f, g)),
        (Eq("x", "y"), Neq("x", "y"), Lt("x", "y"), Bit("x", "y")),
        (SOExists("Q", 1, f), SOForall("Q", 1, f)),
        (Lfp("Q", ("x",), g, ("y",)), Pfp("Q", ("x",), g, ("y",))),
        (CharOrd("10", "01"), CharUnord("10", "01"), CoCharUnord("10", "01"),
         CharNpconp("10", "01")),
        (Psi("10"), Psi("01")),
    ]
    for group in groups:
        assert len({hash(node) for node in group}) == len(group), group
    # Every encoding sentence of one length hashes apart from the others.
    assert len({hash(Psi(format(i, "06b"))) for i in range(64)}) == 64


def test_psi_is_its_expansion():
    for k in range(1, 11):
        for i in range(1 << k):
            w = format(i, f"0{k}b")
            psi, nested = Psi(w), psi_expansion(w)
            assert psi == nested and nested == psi
            assert not (psi != nested or nested != psi)
            assert hash(psi) == hash(nested)
            text, code = print_formula(nested), godel_encode(nested)
            assert print_formula(psi) == text and godel_encode(psi) == code
            # Square brackets take the parser off the printed-form fast path.
            square = text.replace("(", "[").replace(")", "]")
            for back in (parse_formula(text), parse_formula(square), godel_decode(code)):
                assert type(back) is Psi and back.bits == w
            assert all_variables(psi) == all_variables(nested)
            assert free_vars(psi) == set() and children(psi) == ()
            assert with_children(psi, ()) is psi
            assert psi_recognize(psi) == psi_recognize(nested) == w
            assert fragment_of(psi) == fragment_of(nested) == FO
    # Inside other nodes, and in any text that spells one.
    f = parse_formula("(Ex0 Ex1 x1 != x1 | Ax1 [Ex2 ((x1 != x1) & x2 != x2)])")
    assert f == Or(Exists("x0", Psi("1")), Psi("01"))
    assert type(f.left.sub) is Psi and type(f.right) is Psi
    flat = parse_formula("Ex1 Ex2 Ex3 (x1 != x1 & x2 != x2 & x3 != x3)")
    assert type(flat) is Psi and flat.bits == "111"
    for text in ("Ex1 (x1 != x1 & x1 != x1)", "Ex2 Ex1 (x1 != x1 & x2 != x2)",
                 "Ex1 Ax2 x1 != x1 & x2 != x2", "x1 != x1 & x2 != x2"):
        assert parse_formula(text) == naive_parse(text)
        assert not any(type(node) is Psi for node in walk(parse_formula(text)))


def _agrees_with_text(f, g):
    """f == g exactly when their printed texts are equal, in both orders,
    and equal nodes hash equal."""
    same = print_formula(f) == print_formula(g)
    assert (f == g) is same and (g == f) is same and (f != g) is not same
    if same:
        assert hash(f) == hash(g)


def test_equality_and_hash_follow_the_printed_text():
    # Printed text is canonical, and a Psi prints as its expansion.
    rng = random.Random(16)
    sample = rng.sample(fo_sentences(parse_vocab("E:2 <"), 5), 150)
    copies = [parse_formula(print_formula(f)) for f in sample]
    for _ in range(2):  # first with no hash stored, then with every one
        for f in sample:
            for g in copies:
                _agrees_with_text(f, g)
    for f in sample:
        for mutant in single_node_mutations(f, rng, 8):
            _agrees_with_text(f, mutant)
    g = parse_formula("Ex Ay (E(x,y) | x < y)")
    for w in ("1", "0", "10", "0110", "1" * 12, "01" * 40):
        packed, nested = And(g, Psi(w)), And(g, psi_expansion(w))
        for f in (packed, nested):
            for mutant in single_node_mutations(f, rng, 12):
                _agrees_with_text(packed, mutant)
                _agrees_with_text(nested, mutant)
        _agrees_with_text(packed, nested)
        _agrees_with_text(And(psi_expansion(w), g), And(Psi(w), g))


def test_unpickled_sentences_equal_and_hash_as_parsed_there():
    text = ("((Ex1 Ax2 (x1 != x1 & x2 != x2) | EQ:2 Ex Ey Q(x,y))"
            " & (TC[u,v: E(u,v)](s,t) & (LFP[S,u: ~S(u)](x) & CHAR_ORD{d,13})))")
    f = parse_formula(text)
    hash(f)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(logic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import pickle, sys\n"
        "from fmwb.logic import parse_formula\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "g = parse_formula(sys.argv[1])\n"
        "print(f == g, g == f, hash(f) == hash(g), hash('x1'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, text], env=env,
                          input=pickle.dumps(f), capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *verdicts, string_hash = done.stdout.split()
    assert verdicts == [b"True"] * 3
    assert int(string_hash) != hash("x1")  # the child hashes strings differently


def test_hash_and_equality_do_not_recurse():
    # The deepest sentence the parser takes, and chains twice as deep built
    # by hand; the last of each three differs at the bottom.
    deepest = "~" * (MAX_DEPTH - 1) + "x = "
    parsed = [parse_formula(deepest + v) for v in "xxy"]
    chains = []
    for v in "xxy":
        f = Eq("x", v)
        for _ in range(20_000):
            f = Not(f)
        chains.append(f)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for f, g, h in (parsed, chains):
            for _ in range(2):  # first with no hash stored, then with them
                assert f == g and g == f
                assert f != h and h != f
                assert Not(f) != g and f != Not(g)
                assert hash(f) == hash(g) != hash(h)
    finally:
        sys.setrecursionlimit(limit)


def test_godel_decode_does_not_recurse():
    deepest = "~" * (MAX_DEPTH - 1) + "x = x"
    code = godel_encode(parse_formula(deepest))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        f = godel_decode(code)
    finally:
        sys.setrecursionlimit(limit)
    assert print_formula(f) == deepest


def plain_parse(text):
    """parse_formula with every token from the tokenizer: no span of a
    printed encoding sentence is read as one token."""
    return logic._Parser(text, ()).parse()


def outcome(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        return str(exc)


# A printed encoding sentence where no operand goes.  Reading it as one
# token everywhere changes five of these eight messages.
MISPLACED_PSI = [
    "R(x) Ex1 x1 != x1",
    "Ex R(x) Ex1 Ax2 (x1 != x1 & x2 != x2)",
    "R(Ex1 x1 != x1)",
    "(Ex1 x1 != x1",
    "Ex1 x1 != x1)",
    "TC[Ex1 x1 != x1]",
    "CHAR_CFG{Ex1 x1 != x1}",
    "Ex1 x1 != x1 ~",
]


def test_printed_encoding_sentences_parse_as_their_plain_tokens():
    rng = random.Random(91)
    ws = [format(rng.getrandbits(k), f"0{k}b") for k in range(1, 13)]
    ws.append(format(rng.getrandbits(2000) | 1 << 1999, "b"))
    texts = MISPLACED_PSI + ["Ex1 x1 != x10", "x1 != x10", "Ex1 x1 != x1 R(x)"]
    for w in ws:
        psi = print_formula(Psi(w))
        k = len(w)
        assert list(logic._psi_spans(psi)) == [(0, len(psi), w)]
        assert type(parse_formula(psi)) is Psi and parse_formula(psi).bits == w
        old, new = ("Ex", "Ax") if w[-1] == "1" else ("Ax", "Ex")
        flipped = psi.replace(f"{old}{k} ", f"{new}{k} ", 1)
        broken = psi.replace(f"x{k} ", f"x{k + 1} ", 1)
        texts += [
            psi, f"R(x) | {psi}", f"~{psi}", f"Ey {psi}", f"Ax3 {psi}",
            f"({psi})", f"({psi} & {psi})", f"({psi} -> R(x))",
            f"{{{psi}}}", f"TC[x,y: {psi}](x,y)", f"TC[{psi}](x,y)",
            f"R({psi})", f"LFP[Q,x: {psi}](y)", f"{psi} R(x)", f"{psi})",
            f"{psi} & x1 != x1", f"x1 != x1 & {psi}", f"{psi}0", f"y{psi}",
            f"Ey{psi}", f"Ax3{psi}", flipped, broken, psi[:-1], psi + " ~",
        ]
        # No span without a token boundary at both ends.
        for glued in (f"{psi}0", f"y{psi}", f"Ey{psi}", f"Ax3{psi}"):
            assert not any(logic._psi_spans(glued)), glued
        if k > 1:
            # The last two quantifiers swapped.
            head = psi[:psi.index("(")].split()
            head[-2:] = head[:-3:-1]
            texts.append(" ".join(head) + psi[psi.index("(") - 1:])
    for text in texts:
        got = outcome(parse_formula, text)
        assert got == outcome(plain_parse, text), text
        assert got == outcome(naive_parse, text), text
    assert outcome(parse_formula, MISPLACED_PSI[0]) \
        == "trailing input 'Ex1' (at position 5)"
    assert outcome(parse_formula, MISPLACED_PSI[6]) \
        == "expected '}', found 'x1' (at position 13)"


@pytest.mark.parametrize("text", [
    "Ex1 Ax1 " * 4500 + "R(x1)",
    "Ex1  Ex1  " * 4500 + "R(x1)",
    "Ex1 Ax2 " * 4500 + "(x1 != x1 & x2 != x2)",
    "(Ex1 x1 != x1 | " * 3000 + "R(x)" + ")" * 3000,
], ids=["repeated-x1", "double-spaces", "long-run", "many-spans"])
def test_quantifier_runs_parse_in_linear_time_and_memory(text):
    # Each takes about 0.05 s.  A regex alternative for the whole run of
    # quantifiers backtracks in quadratic time here, 3 s at 4,000 repeats.
    start = time.perf_counter()
    got = outcome(parse_formula, text)
    assert time.perf_counter() - start < 2.0
    assert got == outcome(plain_parse, text)
    tracemalloc.start()
    try:
        parse_formula(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(text)


def test_a_long_printed_encoding_sentence_parses_without_its_tokens():
    w = format(random.Random(3).getrandbits(12_000) | 1 << 11_999, "b")
    text = print_formula(Psi(w))
    tracemalloc.start()
    try:
        f = parse_formula(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(f) is Psi and f.bits == w
    # About 2 MB, against 8 MB to split the text into its tokens.
    assert peak < 4_000_000


def test_roundtrip_random_corpus():
    rng = random.Random(2024)
    vocab = parse_vocab("R:1 E:2 <")
    # At the fixed size 12 of the second thousand, an inner binder often
    # reuses the name of an outer relation variable.
    for i in range(2000):
        f = random_formula(rng, vocab, rng.randint(1, 12) if i < 1000 else 12)
        validate_sentence(f, vocab)
        assert parse_formula(print_formula(f)) == f, print_formula(f)
        bits = godel_encode(f)
        assert godel_decode(bits) == f


def test_random_formulas_outlast_the_variable_pool():
    # At size 30 a path often binds all 18 first-order names of the pool.
    vocab = parse_vocab("P:1 E:2")
    for seed in range(300):
        rng = random.Random(seed)
        for _ in range(3):
            validate_sentence(random_formula(rng, vocab, 30), vocab)


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


def test_validation_does_not_recurse(v_graph):
    closed, open_ = parse_formula("Ex E(x,x)"), parse_formula("Ex E(x,y)")
    for _ in range(9_990):
        closed, open_ = Not(closed), Not(open_)
    deep = Or(And(closed, open_), Rel("S", ("x",)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        validate_sentence(closed, v_graph)
        with pytest.raises(FormulaError, match=r"free variables \['y'\]"):
            validate_sentence(deep, v_graph)
    finally:
        sys.setrecursionlimit(limit)
    # The first error is the leftmost: the body of a TC or fixpoint before
    # its arguments, and each check of a node before its body.
    for text, message in [
        ("(E(x,y) & S(x))", r"free variables \['x', 'y'\]"),
        ("TC[u,v: E(u,w)](s,t)", r"free variables \['w'\]"),
        ("Es Et TC[u,v: S(u)](s,z)", "unknown relation 'S'"),
        ("LFP[Q,u: Q(u,u)](y,z)", "arity mismatch"),
        ("Ey LFP[Q,u: Q(u,u)](y)", "Q expects 1 arguments, got 2"),
        ("(Ex x < x | Ex x = y)", "ordered vocabulary"),
    ]:
        with pytest.raises(FormulaError, match=message):
            validate_sentence(parse_formula(text), v_graph)


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


def test_operators_reject_bound_variables_named_like_the_target_symbol():
    # Unchecked, the transport captured R under a bound Q, or left a sentence
    # that is not over tau.
    for transport, tau, texts in (
            (apply_T_ord, "Q:1 <", ("EQ:1 (Ex Q(x) & Ax R(x))", "EQ:2 Ex R(x)")),
            (apply_T_unord, "Q:2",
             ("EQ:2 (Ex Ey Q(x,y) & Ax Ay R(x,y))", "EQ:1 Ex Ey R(x,y)"))):
        for text in texts:
            with pytest.raises(WrongSourceVocabulary) as raised:
                transport(parse_formula(text), parse_vocab(tau))
            assert str(raised.value) == (
                "bound relation variables must not shadow the target symbol Q")
    for text in ("Ex LFP[E,u: (R(u) | E(u))](x)", "Ex PFP[E,u: R(u)](x)",
                 "AE:1 Ex R(x)"):
        with pytest.raises(WrongSourceVocabulary, match="target symbol E"):
            apply_T_ord(parse_formula(text), parse_vocab("E:2 <"))
    # the source check comes first, and other names stay allowed
    with pytest.raises(WrongSourceVocabulary, match="source symbol R"):
        apply_T_ord(parse_formula("EQ:1 ER:1 Ex R(x)"), parse_vocab("Q:1 <"))
    assert (print_formula(apply_T_ord(parse_formula("EP:1 Ax (P(x) -> R(x))"),
                                      parse_vocab("Q:1 <")))
            == "EP:1 Ax (~P(x) | Q(x))")


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
