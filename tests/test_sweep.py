"""The bit-parallel sweep against the per-structure checker.

Every bit of a batch truth table must equal the checker's verdict on the
structure with that index; sweeps must return what a structure-by-structure
scan returns, exceptions included.
"""

import random

import pytest

from fmwb import charsets
from fmwb.charsets import char_sentence
from fmwb.cli import main
from fmwb.core import encoding_length, parse_vocab, structure_from_index
from fmwb.forms import build_form, fo_sentences
from fmwb.logic import (
    Psi, apply_T_ord, apply_T_unord, parse_formula, print_formula, psi_encode,
)
from fmwb.machines import (
    BLANK, POLYTIME, RESERVED, SYMBOLS, OracleMachine, always_reject_machine,
    identity_machine,
)
from fmwb.semantics import (
    CHUNK_BITS, EvalConfig, MissingDistinguished, NoLeastFixpoint,
    RecursionBudgetExhausted, _Batch, _batch_program, _InexactCare,
    _LeafPending, sentence_checker, sweep,
)
from oracles import psi_expansion
from test_acceptance import ORD_UPSILONS, UNORD_UPSILONS

V_E = parse_vocab("E:2")
V_ORD = parse_vocab("R1:1 <")
UPS_ORD = parse_formula("Ex R(x)")
UPS_UNORD = parse_formula("Ax Ey R(x,y)")
CONFIG = EvalConfig(UPS_ORD, UPS_UNORD)


def table(f, vocab, n, chunk=0, config=CONFIG):
    """f's batch table on every structure, computing each leaf it reaches."""
    low = min(encoding_length(vocab, n), CHUNK_BITS)
    batch, program = _Batch(vocab, n, chunk, low, config), _batch_program(f)
    while True:
        try:
            return program(batch, batch.full)
        except _LeafPending as pending:
            pending.resolve()


def assert_tables_match(sentences, vocab, sizes, config=CONFIG):
    for n in sizes:
        structures = [structure_from_index(vocab, n, i)
                      for i in range(1 << encoding_length(vocab, n))]
        for f in sentences:
            bits = table(f, vocab, n, config=config)
            check = sentence_checker(f, config)
            assert bits >> len(structures) == 0
            for i, a in enumerate(structures):
                assert (bits >> i & 1) == check(a), (print_formula(f), n, i)


def test_fo_corpus_unordered():
    assert_tables_match(fo_sentences(V_E, 5), V_E, (2, 3))


def test_fo_corpus_ordered():
    assert_tables_match(fo_sentences(V_ORD, 5), V_ORD, (2, 3, 4, 5))


def test_operator_sentences():
    ordered = [parse_formula(text) for text in ORD_UPSILONS]
    assert_tables_match(ordered, parse_vocab("R:1 <"), range(2, 7))
    e_ord = parse_vocab("E:2 <")
    assert_tables_match([apply_T_ord(f, e_ord) for f in ordered], e_ord, (2, 3))
    unordered = [parse_formula(text) for text in UNORD_UPSILONS]
    assert_tables_match(unordered, parse_vocab("R:2"), (2, 3))
    tau = parse_vocab("P:1 E:2")
    assert_tables_match([apply_T_unord(f, tau) for f in unordered], tau, (2, 3))


# Fixpoints whose truth depends on paths longer than one edge.
GRAPH_FIXPOINTS = [
    "Ax Ay TC[u,v: E(u,v)](x,y)",
    "Ex Ey (x != y & ~TC[u,v: E(u,v)](x,y))",
    "Ax Ey (x != y & TC[u,v: (E(u,v) & ~E(v,u))](x,y))",
    "Ax Ay LFP[Q,u,v: (E(u,v) | Ew (Q(u,w) & E(w,v)))](x,y)",
    "Ex Ey (x != y & PFP[Q,u,v: (E(u,v) | Ew (Q(u,w) & Q(w,v)))](x,y))",
    "Ex PFP[Q,u: ((E(u,u) & ~Q(u)) | Ey (Q(y) & E(y,u)))](x)",
    "Ax LFP[Q,u: Ay (E(u,y) -> Q(y))](x)",
    "EQ:1 (Ex Q(x) & Ex ~Q(x) & Ax Ay ((Q(x) & ~Q(y)) -> ~TC[u,v: E(u,v)](x,y)))",
]


def test_graph_fixpoints():
    assert_tables_match([parse_formula(t) for t in GRAPH_FIXPOINTS], V_E, (2, 3))


def test_canonical_forms_with_leaves():
    ord5 = build_form("ord5", apply_T_ord(UPS_ORD, V_ORD), tau=V_ORD, cls="NP",
                      machine=identity_machine(), upsilon=UPS_ORD).formula
    wrong = build_form("ord5", parse_formula("Ax R1(x)"), tau=V_ORD, cls="NP",
                       machine=identity_machine(), upsilon=UPS_ORD).formula
    assert_tables_match([ord5, wrong], V_ORD, (2, 3, 4))
    unord6 = build_form("unord6", apply_T_unord(UPS_UNORD, V_E), tau=V_E,
                        cls="coNP", machine=always_reject_machine(),
                        upsilon=UPS_UNORD).formula
    assert_tables_match([unord6], V_E, (2, 3))


def test_leaf_errors_match_the_checker():
    leaf = char_sentence("ord", gamma=parse_formula("Ex R1(x)"),
                         machine=identity_machine())
    with pytest.raises(MissingDistinguished):
        sweep(V_ORD, 3, leaf, None, EvalConfig())
    with pytest.raises(RecursionBudgetExhausted):
        sweep(V_ORD, 3, leaf, None, EvalConfig(UPS_ORD, UPS_UNORD, 0))


def test_chunked_tables_match_checker_on_samples():
    rng = random.Random(5)
    sentences = rng.sample(fo_sentences(V_E, 5), 6) + [
        parse_formula("Ax Ey (E(x,y) & ~E(y,x))"),
        parse_formula("Ex Ey Ez (E(x,y) & E(y,z) & E(z,x))"),
    ]
    assert encoding_length(V_E, 5) - CHUNK_BITS == 5
    for chunk in (0, 13, 31):
        for f in sentences:
            bits = table(f, V_E, 5, chunk)
            check = sentence_checker(f, CONFIG)
            for i in [0, (1 << CHUNK_BITS) - 1] + rng.sample(range(1 << CHUNK_BITS), 150):
                a = structure_from_index(V_E, 5, (chunk << CHUNK_BITS) | i)
                assert (bits >> i & 1) == check(a), (print_formula(f), chunk, i)


# Holds on every structure with n <= 4; at n = 5 it fails exactly where
# every element has a loop, first at chunk 16 of 32.
FIVE_LOOPS = ("~(Ax E(x,x) & Ea Eb Ec Ed Ee (a != b & a != c & a != d & a != e"
              " & b != c & b != d & b != e & c != d & c != e & d != e))")


def test_sweep_finds_first_counterexample_in_a_later_chunk():
    witness = sweep(V_E, 5, parse_formula(FIVE_LOOPS))
    assert witness.n == 5
    assert witness.rel["E"] == {(i, i) for i in range(5)}


@pytest.fixture
def write(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text + "\n")
        return str(path)
    return write


def test_cli_jobs_2_prints_what_jobs_1_prints(write, capsys):
    path = write("loops.sent", FIVE_LOOPS)
    outputs = []
    for jobs in ("1", "2"):
        code = main(["valid-upto", path, "--tau", "E:2", "--nmax", "5",
                     "--jobs", jobs])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, captured = outputs[0]
    assert code == 1 and captured.out.startswith("counterexample:\nvocab E:2\nn = 5\n")
    taut = write("taut.sent", "Ax Ey (E(x,y) | ~E(x,y))")
    assert main(["valid-upto", taut, "--tau", "E:2", "--nmax", "5",
                 "--jobs", "2"]) == 0
    assert capsys.readouterr().out == "valid up to n = 5\n"


def scan(vocab, n_max, f, config=CONFIG):
    """The first falsifying structure, checked one structure at a time."""
    check = sentence_checker(f, config)
    for n in range(2, n_max + 1):
        for i in range(1 << encoding_length(vocab, n)):
            a = structure_from_index(vocab, n, i)
            if not check(a):
                return a
    return None


@pytest.fixture
def leaf_calls(monkeypatch):
    """Sizes at which a leaf verdict is computed; each one raises instead."""
    calls = []

    def record(vocab, n, node, config, budget):
        calls.append(n)
        raise AssertionError("leaf verdict computed")
    monkeypatch.setattr(charsets, "leaf_verdict", record)
    return calls


def spinning_leaf():
    # The machine never halts and its clocks are 2^40, but each run ends at
    # its first repeated configuration, so the verdict is quick to compute.
    # The leaf_calls fixture, not the verdict's cost, shows that a sweep
    # never computes it.
    spin = OracleMachine.make(
        ("q0",) + RESERVED, "q0", POLYTIME, 2**40, 2**40,
        {("q0", sym, BLANK): ("q0", BLANK, "S", "S", "") for sym in SYMBOLS})
    return char_sentence("unord", gamma=parse_formula("Ex E(x,x)"), machine=spin)


def test_leaf_no_structure_reaches_is_never_computed(leaf_calls):
    leaf = print_formula(spinning_leaf())
    f = parse_formula(f"(Ax ~E(x,x) & ~(Ex E(x,x) & {leaf}))")
    assert sweep(V_E, 3, f, None, CONFIG) == structure_from_index(V_E, 2, 1)
    assert sweep(V_E, 3, f, parse_formula("Ax ~E(x,x)"), CONFIG) is None
    assert leaf_calls == []


def test_leaf_reached_only_after_the_first_counterexample_is_never_computed(
        leaf_calls):
    # Structure 1 (E = {(1,1)}) is the first counterexample; structure 3 is
    # the first whose checker reaches the leaf.
    leaf = print_formula(spinning_leaf())
    f = parse_formula(f"Ax (E(x,x) -> (Ay E(x,y) & {leaf}))")
    assert sweep(V_E, 3, f, None, CONFIG) == structure_from_index(V_E, 2, 1)
    assert leaf_calls == []


def test_leaf_is_computed_once_per_size_when_the_scan_reaches_it(monkeypatch):
    calls = []
    compute = charsets.leaf_verdict

    def record(vocab, n, node, config, budget):
        calls.append(n)
        return compute(vocab, n, node, config, budget)
    monkeypatch.setattr(charsets, "leaf_verdict", record)
    leaf = char_sentence("unord", gamma=parse_formula("Ax Ey E(x,y)"),
                         machine=always_reject_machine())
    # First reached at structure 1 at each size.
    for text in (f"(Ax ~E(x,x) | {print_formula(leaf)})",
                 f"(Ax ~E(x,x) | ~{print_formula(leaf)})"):
        f = parse_formula(text)
        calls.clear()
        witness = sweep(V_E, 3, f, None, CONFIG)
        assert calls == ([2] if witness else [2, 3])
        calls.clear()
        assert witness == scan(V_E, 3, f)


def test_leaf_first_reached_in_a_later_pfp_stage_goes_to_the_checker():
    leaf = char_sentence("ord", gamma=parse_formula("Ex R1(x)"),
                         machine=identity_machine())
    for text in ("Ax PFP[Q,u: (Q(u) | R1(u) | (Ey Q(y) & LEAF))](x)",
                 "Ax PFP[Q,u: (Q(u) | R1(u) | (Ey Q(y) & ~LEAF))](x)"):
        f = parse_formula(text.replace("LEAF", print_formula(leaf)))
        with pytest.raises(_InexactCare):
            table(f, V_ORD, 2)
        assert sweep(V_ORD, 4, f, None, CONFIG) == scan(V_ORD, 4, f)


def test_cli_prints_the_counterexample_before_an_unreached_leaf(
        write, capsys, leaf_calls):
    # Checked one structure at a time, the leaf is never reached before the
    # counterexample P = {1}.  Without a distinguished sentence it would raise.
    leaf = char_sentence("ord", gamma=parse_formula("Ex P(x)"),
                         machine=identity_machine())
    path = write("unreached.sent",
                 f"(Ax ~P(x) & ~(Ex P(x) & {print_formula(leaf)}))")
    assert main(["valid-upto", path, "--tau", "P:1 <", "--nmax", "3"]) == 1
    assert capsys.readouterr().out == "counterexample:\nvocab P:1 <\nn = 2\nP = (1)\n"
    assert leaf_calls == []


def test_sweep_raises_what_the_checker_raises(write, capsys):
    leaf = char_sentence("ord", gamma=parse_formula("Ex P(x)"),
                         machine=identity_machine())
    path = write("leaf.sent", f"(Ex P(x) | {print_formula(leaf)})")
    assert main(["valid-upto", path, "--tau", "P:1 <", "--nmax", "3"]) == 2
    assert "distinguished sentence" in capsys.readouterr().err


def test_cycling_least_fixpoint_goes_to_the_checker():
    # Q occurs positively, but the inner PFP makes the stages alternate
    # between empty and full, so the checker would loop on any structure
    # that reaches the LFP.  Structure 0 falsifies the guard first.
    lfp = "Ex LFP[Q,u: PFP[S,v: ((Q(v) & ~S(v)) | u = v)](u)](x)"
    vocab = parse_vocab("R:1 <")
    with pytest.raises(NoLeastFixpoint):
        table(parse_formula(lfp), vocab, 2)
    guarded = parse_formula(f"(Ex R(x) & {lfp})")
    assert sweep(vocab, 3, guarded) == structure_from_index(vocab, 2, 0)


def test_encoding_sentences_are_false_in_batch():
    psi = psi_encode("1011")
    assert table(psi, V_E, 2) == 0
    assert sweep(V_E, 3, psi).n == 2


def test_every_short_psi_is_false_on_every_structure():
    structures = [structure_from_index(V_E, n, i)
                  for n in (2, 3) for i in range(1 << encoding_length(V_E, n))]
    assert len(structures) == 528
    for k in range(1, 11):
        for i in range(1 << k):
            psi = Psi(format(i, f"0{k}b"))
            assert table(psi, V_E, 2) == table(psi, V_E, 3) == 0
            check = sentence_checker(psi)
            assert not any(check(a) for a in structures)
    # Evaluated node by node, a nested one is false too.
    nested = psi_expansion("1101")
    assert type(nested) is not Psi
    assert table(nested, V_E, 3) == 0
    assert not any(sentence_checker(nested)(a) for a in structures)
