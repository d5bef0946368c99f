import random

import pytest

from fmwb import charsets
from fmwb.charsets import char_sentence
from fmwb.core import Structure, Vocabulary, enumerate_structures, parse_vocab
from fmwb.forms import fo_sentences
from fmwb.logic import (
    SIGMA_UNORD, SO_A, SO_E, fragment_of, parse_formula, print_formula,
    psi_encode, validate_sentence,
)
from fmwb.machines import identity_machine
from fmwb.semantics import (
    EvalConfig, MissingDistinguished, NoLeastFixpoint, PositivityViolation,
    RecursionBudgetExhausted, mod_eq_upto, models, valid_upto,
)
from oracles import colorable, naive_models, reachable_pairs, table_models
from randgen import random_structure
from test_acceptance import ORD_UPSILONS, UNORD_UPSILONS

V_E = Vocabulary((("E", 2),))

TWO_COLORABLE = parse_formula(
    "EQ:1 Ax Ay (E(x,y) -> ((Q(x) & ~Q(y)) | (~Q(x) & Q(y))))"
)

# Graph 3-colorability over {R:2} and its universal complement.
_COLORING_MATRIX = (
    "(Ax (Q1(x) | (Q2(x) | Q3(x)))"
    " & Ax Ay (R(x,y) ->"
    " ~((Q1(x) & Q1(y)) | ((Q2(x) & Q2(y)) | (Q3(x) & Q3(y))))))"
)
THREE_COLORABLE = parse_formula(f"EQ1:1 EQ2:1 EQ3:1 {_COLORING_MATRIX}")
NOT_THREE_COLORABLE = parse_formula(f"AQ1:1 AQ2:1 AQ3:1 ~{_COLORING_MATRIX}")

REACH_ALL_TC = parse_formula("Ax Ay TC[u,v: E(u,v)](x,y)")
REACH_ALL_LFP = parse_formula(
    "Ax Ay LFP[Q,u,v: (u = v | Ew (E(u,w) & Q(w,v)))](x,y)"
)


def cycle(n):
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
        edges.add(((i + 1) % n, i))
    return Structure.make(V_E, n, {"E": edges})


def test_models_examples():
    two_cycle = Structure.make(V_E, 2, {"E": [(0, 1), (1, 0)]})
    assert models(two_cycle, parse_formula("Ex Ey E(x,y)"))
    assert not models(Structure.make(V_E, 2), parse_formula("Ex Ey E(x,y)"))


def test_numeric_atoms():
    v = parse_vocab("R:1 <")
    a = Structure.make(v, 4, {"R": [(2,)]})
    assert models(a, parse_formula("Ex Ay (R(x) & (x = y | (y < x | x < y)))"))
    # 2 has bit 1 set and bit 0 clear
    assert models(a, parse_formula(
        "Ex Ey (R(x) & (BIT(x,y) & Ez (~BIT(x,z) & z < y)))"
    ))
    assert not models(a, parse_formula("Ex (R(x) & BIT(x,x))"))


def test_so_exists_matches_coloring_bruteforce():
    for n in (3, 4, 5, 6):
        a = cycle(n)
        assert models(a, TWO_COLORABLE) == colorable(a, 2) == (n % 2 == 0)
    rng = random.Random(9)
    for _ in range(15):
        a = random_structure(rng, V_E, rng.randint(2, 4), density=0.3)
        assert models(a, TWO_COLORABLE) == colorable(a, 2)


def complete_graph(n):
    edges = {(u, v) for u in range(n) for v in range(n) if u != v}
    return Structure.make(SIGMA_UNORD, n, {"R": edges})


def test_three_colorability_sentences_are_well_formed():
    validate_sentence(THREE_COLORABLE, SIGMA_UNORD)
    validate_sentence(NOT_THREE_COLORABLE, SIGMA_UNORD)
    assert fragment_of(THREE_COLORABLE) == SO_E
    assert fragment_of(NOT_THREE_COLORABLE) == SO_A


def test_three_colorability_verdicts():
    for n in (2, 3):
        g = complete_graph(n)
        assert models(g, THREE_COLORABLE) == colorable(g, 3, "R") is True
        assert not models(g, NOT_THREE_COLORABLE)
    k4 = complete_graph(4)
    assert models(k4, THREE_COLORABLE) == colorable(k4, 3, "R") is False
    assert models(k4, NOT_THREE_COLORABLE)


def test_tc_examples():
    path = Structure.make(V_E, 3, {"E": [(0, 1), (1, 2)]})
    # 0 reaches 2 but 2 reaches only itself
    assert models(path, parse_formula(
        "Ex Ey (TC[u,v: E(u,v)](x,y) & ~Ez E(y,z))"))
    edgeless = Structure.make(V_E, 3)
    assert models(edgeless, parse_formula("Ax Ay (TC[u,v: E(u,v)](x,y) -> x = y)"))
    assert models(path, REACH_ALL_TC) is False


def test_tc_and_lfp_match_closure_oracle():
    rng = random.Random(41)
    for _ in range(20):
        a = random_structure(rng, V_E, rng.randint(2, 5), density=0.35)
        want = reachable_pairs(a) == {
            (u, v) for u in range(a.n) for v in range(a.n)
        }
        assert models(a, REACH_ALL_TC) == want
        assert models(a, REACH_ALL_LFP) == want


def test_pfp_on_positive_operand_equals_lfp():
    reach_pfp = parse_formula(
        "Ax Ay PFP[Q,u,v: (u = v | Ew (E(u,w) & Q(w,v)))](x,y)"
    )
    rng = random.Random(43)
    for _ in range(12):
        a = random_structure(rng, V_E, rng.randint(2, 4), density=0.4)
        assert models(a, reach_pfp) == models(a, REACH_ALL_LFP)


def test_pfp_without_fixpoint_is_empty():
    # the operator flips the full relation each stage, so it never converges
    flip = parse_formula("Ex PFP[Q,u: ~Q(u)](x)")
    assert not models(Structure.make(V_E, 2), flip)


def test_lfp_positivity_violation():
    bad = parse_formula("Ex LFP[Q,u: ~Q(u)](x)")
    with pytest.raises(PositivityViolation):
        models(Structure.make(V_E, 2), bad)


def test_rebound_relvar_is_not_a_violation():
    nested = parse_formula("Ex LFP[Q,u: Ay (PFP[Q,v: ~Q(v)](y) -> E(u,u))](x)")
    models(Structure.make(V_E, 2, {"E": [(0, 0)]}), nested)


def test_negation_soundness():
    from fmwb.logic import Not

    rng = random.Random(77)
    corpus = fo_sentences(V_E, 4)
    sample = rng.sample(corpus, 80)
    structs = list(enumerate_structures(V_E, 3))
    for f in sample:
        neg = Not(f)
        for a in rng.sample(structs, 10):
            assert models(a, neg) == (not models(a, f))


def test_agreement_with_naive_oracle_sampled():
    rng = random.Random(101)
    corpus = fo_sentences(V_E, 5)
    sample = rng.sample(corpus, 150)
    structs = list(enumerate_structures(V_E, 3))
    for f in sample:
        for a in rng.sample(structs, 8):
            assert models(a, f) == naive_models(a, f)


def test_table_oracle_agrees_with_naive():
    rng = random.Random(103)
    corpus = fo_sentences(V_E, 5)
    sample = rng.sample(corpus, 60)
    structs = [a for a in enumerate_structures(V_E, 3) if a.n == 3]
    for f in sample:
        table = table_models(V_E, structs, f)
        for i in rng.sample(range(len(structs)), 12):
            assert bool(table[i]) == naive_models(structs[i], f)


def test_psi_is_false_everywhere_short_and_long():
    structs = list(enumerate_structures(V_E, 3))
    for w in ("1", "01", "111", "0101", "1" * 64):
        psi = psi_encode(w)
        for a in structs[:: 37]:
            assert not models(a, psi)


def test_isomorphism_closure_of_mod():
    from helpers import apply_permutation

    rng = random.Random(55)
    corpus = fo_sentences(V_E, 5)
    sample = rng.sample(corpus, 60)
    for f in sample:
        a = random_structure(rng, V_E, rng.randint(2, 4))
        perm = list(range(a.n))
        rng.shuffle(perm)
        assert models(a, f) == models(apply_permutation(a, perm), f)


def test_valid_upto_examples():
    assert valid_upto(parse_formula("Ax x = x"), V_E, 3) is None
    witness = valid_upto(psi_encode("1"), V_E, 2)
    assert witness is not None and witness.n == 2
    with pytest.raises(ValueError):
        valid_upto(parse_formula("Ax x = x"), V_E, 1)


def test_mod_eq_upto_examples():
    v = Vocabulary((("P", 1),))
    f = parse_formula("Ex P(x)")
    assert mod_eq_upto(f, f, v, 3) is None
    assert mod_eq_upto(f, parse_formula("~Ax ~P(x)"), v, 4) is None
    witness = mod_eq_upto(f, parse_formula("Ax P(x)"), v, 3)
    # first disagreement in enumeration order: n=2 with P = {1}
    assert witness is not None
    assert witness.n == 2 and witness.rel["P"] == {(1,)}


def test_char_budget_exhaustion():
    from fmwb.charsets import char_sentence
    from fmwb.machines import identity_machine

    ups = parse_formula("Ex R(x)")
    v = parse_vocab("R1:1 <")
    gamma = parse_formula("Ex R1(x)")
    char = char_sentence("ord", gamma=gamma, machine=identity_machine())
    a = Structure.make(v, 2, {"R1": [(0,)]})
    config = EvalConfig(upsilon_ord=ups, char_budget=0)
    with pytest.raises(RecursionBudgetExhausted):
        models(a, char, config)
    assert models(a, char, EvalConfig(upsilon_ord=ups))
    with pytest.raises(MissingDistinguished):
        models(a, char, EvalConfig())


# --- models against the naive truth definition ------------------------------
# models runs the compiled program on the batch of one structure.  It must
# give naive_models' verdict or exception type, and compute each leaf that
# naive_models reaches, once per check, in the order it first reaches them.

V_ORD = parse_vocab("R1:1 <")
V_R = parse_vocab("R:1 <")
UPS_ORD = parse_formula("Ex R(x)")
LEAF_CONFIG = EvalConfig(UPS_ORD, parse_formula("Ax Ey R(x,y)"))
ORD_LEAF = print_formula(char_sentence("ord", gamma=parse_formula("Ex R1(x)"),
                                       machine=identity_machine()))
CYCLING_LFP = "Ex LFP[Q,u: PFP[S,v: ((Q(v) & ~S(v)) | u = v)](u)](x)"


def _outcome(evaluate):
    try:
        return evaluate()
    except Exception as exc:
        return type(exc)


@pytest.fixture
def models_matches_naive(monkeypatch):
    compute = charsets.leaf_verdict
    calls = []

    def record(vocab, n, node, config, budget):
        calls.append((vocab, n, node, budget))
        return compute(vocab, n, node, config, budget)
    monkeypatch.setattr(charsets, "leaf_verdict", record)

    def check(texts, structures, config=LEAF_CONFIG):
        """The outcomes of models over every sentence and structure."""
        outcomes = []
        for f in map(parse_formula, texts):
            for a in structures:
                reached = []

                def leaf(node):
                    if config.char_budget <= 0:
                        raise RecursionBudgetExhausted("leaf budget")
                    reached.append((a.vocab, a.n, node, config.char_budget - 1))
                    return compute(a.vocab, a.n, node, config, config.char_budget - 1)
                want = _outcome(lambda: naive_models(a, f, leaf=leaf))
                calls.clear()
                got = _outcome(lambda: models(a, f, config))
                assert got == want, (print_formula(f), a.n, a.bits)
                assert calls == list(dict.fromkeys(reached)), (print_formula(f), a.n, a.bits)
                outcomes.append(got)
        return outcomes
    return check


def _upto(vocab, n_max, step=1):
    return list(enumerate_structures(vocab, n_max))[::step]


def test_models_matches_naive_on_second_order_sentences(models_matches_naive):
    texts = [
        print_formula(TWO_COLORABLE),
        "AQ:1 (Ex Q(x) | Ax ~Q(x))",
        "EQ:1 (Ex Q(x) & Ax (Q(x) -> E(x,x)))",
        "AQ:1 EP:1 Ax (Q(x) -> (P(x) & Ey E(x,y)))",
        "EQ:2 Ax Ay (Q(x,y) -> (E(y,x) & x != y))",
        "EQ:2 (Ex Ey Q(x,y) & Ax Ay (Q(x,y) -> E(x,y)))",
        "AQ:1 Ex (Q(x) | E(x,x))",
    ]
    outcomes = models_matches_naive(texts, _upto(V_E, 3, 5))
    assert True in outcomes and False in outcomes


def test_models_matches_naive_on_fixpoint_sentences(models_matches_naive):
    graph = [
        "Ax Ay TC[u,v: E(u,v)](x,y)",
        "Ex Ey (x != y & ~TC[u,v: E(u,v)](x,y))",
        "Ax Ay LFP[Q,u,v: (E(u,v) | Ew (Q(u,w) & E(w,v)))](x,y)",
        "Ex Ey (x != y & PFP[Q,u,v: (E(u,v) | Ew (Q(u,w) & Q(w,v)))](x,y))",
        "Ex PFP[Q,u: ((E(u,u) & ~Q(u)) | Ey (Q(y) & E(y,u)))](x)",
        "Ax LFP[Q,u: Ay (E(u,y) -> Q(y))](x)",
        "EQ:1 (Ex Q(x) & Ax Ay ((Q(x) & ~Q(y)) -> ~TC[u,v: E(u,v)](x,y)))",
    ]
    models_matches_naive(graph, _upto(V_E, 3, 3))
    models_matches_naive(ORD_UPSILONS, _upto(V_R, 5))
    models_matches_naive(UNORD_UPSILONS, _upto(parse_vocab("R:2"), 3, 3))


def test_models_matches_naive_on_a_cycling_least_fixpoint(models_matches_naive):
    outcomes = models_matches_naive(
        [CYCLING_LFP, f"(Ex R(x) & {CYCLING_LFP})", f"(Ax ~R(x) | ~{CYCLING_LFP})"],
        _upto(V_R, 4))
    assert NoLeastFixpoint in outcomes and False in outcomes and True in outcomes


def test_models_matches_naive_on_leaves(models_matches_naive):
    texts = [
        ORD_LEAF,
        f"(Ax ~R1(x) | {ORD_LEAF})",
        f"Ex (R1(x) & ~{ORD_LEAF})",
        f"EQ:1 (Ex (Q(x) & R1(x)) & {ORD_LEAF})",
        f"AQ:1 (Ex Q(x) | ~{ORD_LEAF})",
        f"Ex Ey ((x < y & {ORD_LEAF}) | (R1(y) & ~{ORD_LEAF}))",
        # first reached in a later stage of a partial fixpoint
        f"Ax PFP[Q,u: (Q(u) | R1(u) | (Ey Q(y) & {ORD_LEAF}))](x)",
        f"Ax PFP[Q,u: (Q(u) | R1(u) | (Ey Q(y) & ~{ORD_LEAF}))](x)",
    ]
    structures = _upto(V_ORD, 4)
    assert True in models_matches_naive(texts, structures)
    budget_spent = EvalConfig(UPS_ORD, None, 0)
    assert RecursionBudgetExhausted in models_matches_naive(
        texts, structures, budget_spent)
    assert MissingDistinguished in models_matches_naive(
        texts, structures, EvalConfig())


def test_models_matches_the_table_oracle_on_a_sample_of_the_fo_corpus():
    corpus = fo_sentences(V_E, 6)[::97]
    assert len(corpus) == 528
    sizes = [[a for a in enumerate_structures(V_E, 3) if a.n == n] for n in (2, 3)]
    for f in corpus:
        for structures in sizes:
            table = table_models(V_E, structures, f)
            assert [models(a, f) for a in structures] == table.tolist()
