import random
import sys

import pytest

from fmwb.aristotelian import decode_nat
from fmwb.core import parse_vocab
from fmwb.forms import (
    FormError, FragmentMismatch, build_form, enumerate_logic, fo_sentences,
    machine_pool, recognize,
)
from fmwb.logic import (
    And, AristotelianTarget, CharNpconp, CharOrd, CharUnord, CoCharUnord,
    Exists, Not, Or, Rel, Psi, SOExists, WrongSourceVocabulary, apply_T_ord,
    apply_T_unord,
    godel_decode, godel_encode, parse_formula, print_formula, psi_encode,
    psi_recognize,
)
from fmwb.machines import decode_tm, encode_tm, identity_machine
from fmwb.semantics import EvalConfig, mod_eq_upto
from randgen import (
    padded_identity_machine, random_machine, single_node_mutations,
)

V_ORD = parse_vocab("R1:1 <")
V_E = parse_vocab("E:2")
V_P = parse_vocab("P:1")
UPS_ORD = parse_formula("Ex R(x)")
UPS_UNORD = parse_formula("Ex Ey R(x,y)")


def gammas(vocab, rng, count, so_wrap=False):
    pool = fo_sentences(vocab, 5)
    picks = rng.sample(pool, count)
    if so_wrap:
        picks = [SOExists("Q1", 1, Or(f, Exists("q", Rel("Q1", ("q",)))))
                 for f in picks[: count // 2]] + picks[count // 2:]
    return picks


def test_build_ord5_shape():
    upsilon_tau = apply_T_ord(UPS_ORD, V_ORD)
    tid = identity_machine()
    built = build_form("ord5", upsilon_tau, tau=V_ORD, cls="NP",
                       machine=tid, upsilon=UPS_ORD)
    f = built.formula
    assert isinstance(f, Or) and isinstance(f.left, Or)
    first, second, psi = f.left.left, f.left.right, f.right
    assert isinstance(first, And) and isinstance(first.left, CharOrd)
    assert first.right == upsilon_tau
    assert isinstance(second, And) and second.left == Not(first.left)
    assert second.right == upsilon_tau
    assert psi_recognize(psi) == encode_tm(tid)


def test_build_npconp8_shape():
    gamma = parse_formula("Ex P(x)")
    lam = parse_formula("Ax ~P(x)")
    built = build_form("npconp8", gamma, tau=V_P, lam=lam)
    f = built.formula
    assert isinstance(f, Or) and isinstance(f.left, And)
    assert isinstance(f.left.left, CharNpconp)
    assert f.left.right == gamma
    assert psi_recognize(f.right) == godel_encode(lam)


def test_build_errors():
    upsilon_tau = apply_T_ord(UPS_ORD, V_ORD)
    with pytest.raises(AristotelianTarget):
        build_form("unord6", Exists("x", Rel("P", ("x",))), tau=V_P,
                   cls="NP", machine=identity_machine(), upsilon=UPS_UNORD)
    with pytest.raises(FragmentMismatch):
        bad = parse_formula(
            "Ex PFP[Q,u: Q(u)](x)"
        )
        build_form("ord5", bad, tau=V_ORD, cls="NP",
                   machine=identity_machine(), upsilon=UPS_ORD)
    with pytest.raises(FormError):
        build_form("ord5", upsilon_tau, tau=V_ORD, cls="NL",
                   machine=identity_machine("polytime"), upsilon=UPS_ORD)
    with pytest.raises(FormError):
        build_form("npconp8", upsilon_tau, tau=V_ORD)


def test_recognize_roundtrip_random_builds():
    rng = random.Random(321)
    upsilon_tau_ord = apply_T_ord(UPS_ORD, V_ORD)
    for gamma in gammas(V_ORD, rng, 12):
        machine = random_machine(rng, "polytime")
        built = build_form("ord5", gamma, tau=V_ORD, cls="NP",
                           machine=machine, upsilon=UPS_ORD)
        got = recognize("ord5", built.formula, tau=V_ORD, cls="NP",
                        upsilon=UPS_ORD)
        assert got is not None
        assert got.gamma == gamma and got.machine == machine
        assert got.upsilon_tau == upsilon_tau_ord
    for gamma in gammas(V_E, rng, 10):
        machine = random_machine(rng, "polytime")
        built = build_form("unord6", gamma, tau=V_E, cls="PSPACE",
                           machine=machine, upsilon=UPS_UNORD)
        got = recognize("unord6", built.formula, tau=V_E, cls="PSPACE",
                        upsilon=UPS_UNORD)
        assert got is not None and got.gamma == gamma and got.machine == machine
    for gamma in gammas(V_P, rng, 8, so_wrap=True):
        lam = rng.choice(gammas(V_P, rng, 4, so_wrap=True))
        built = build_form("npconp8", gamma, tau=V_P, lam=lam)
        got = recognize("npconp8", built.formula, tau=V_P)
        assert got is not None and got.gamma == gamma and got.lam == lam


def test_recognize_rejects_class_kind_mismatch():
    gamma = apply_T_ord(UPS_ORD, V_ORD)
    built = build_form("ord5", gamma, tau=V_ORD, cls="NP",
                       machine=identity_machine("polytime"), upsilon=UPS_ORD)
    assert recognize("ord5", built.formula, tau=V_ORD, cls="NL",
                     upsilon=UPS_ORD) is None


def test_recognize_rejects_upsilon_replacement():
    gamma = apply_T_ord(UPS_ORD, V_ORD)
    built = build_form("ord5", gamma, tau=V_ORD, cls="NP",
                       machine=identity_machine(), upsilon=UPS_ORD)
    f = built.formula
    other = parse_formula(
        "Ax R1(x)"
    )
    tampered = Or(Or(f.left.left, And(f.left.right.left, other)), f.right)
    assert recognize("ord5", tampered, tau=V_ORD, cls="NP",
                     upsilon=UPS_ORD) is None


def test_mutations_are_rejected():
    rng = random.Random(99)
    gamma = apply_T_ord(UPS_ORD, V_ORD)
    built = build_form("ord5", gamma, tau=V_ORD, cls="NP",
                       machine=identity_machine(), upsilon=UPS_ORD)
    muts = single_node_mutations(built.formula, rng, 30)
    assert len(muts) >= 25
    for candidate in muts:
        assert recognize("ord5", candidate, tau=V_ORD, cls="NP",
                         upsilon=UPS_ORD) is None


def test_long_encoding_sentences_need_no_deep_recursion():
    machine = padded_identity_machine(20_000)
    code = encode_tm(machine)
    assert len(code) >= 20_000
    gamma = apply_T_ord(UPS_ORD, V_ORD)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        built = build_form("ord5", gamma, tau=V_ORD, cls="NP",
                           machine=machine, upsilon=UPS_ORD)
        text = print_formula(built.formula)
        parsed = parse_formula(text)
        got = recognize("ord5", parsed, tau=V_ORD, cls="NP", upsilon=UPS_ORD)
        swept = mod_eq_upto(parsed, gamma, V_ORD, 3,
                            EvalConfig(upsilon_ord=UPS_ORD))
    finally:
        sys.setrecursionlimit(limit)
    assert parsed == built.formula and type(parsed.right) is Psi
    assert text.endswith(print_formula(psi_encode(code)) + ")")
    assert got.machine == machine and got.gamma == gamma
    assert swept is None


def test_psi_quantifier_flips_rejected():
    gamma = apply_T_unord(UPS_UNORD, V_E)
    built = build_form("unord6", gamma, tau=V_E, cls="NP",
                       machine=identity_machine(), upsilon=UPS_UNORD)
    f = built.formula
    w = encode_tm(identity_machine())
    for i in range(len(w)):
        flipped_w = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1:]
        tampered = Or(f.left, psi_encode(flipped_w))
        assert recognize("unord6", tampered, tau=V_E, cls="NP",
                         upsilon=UPS_UNORD) is None


def test_enumerate_first_emissions():
    for kind, tau, cls, ups in (
        ("ord5", V_ORD, "NP", UPS_ORD),
        ("ord5", V_ORD, "P", UPS_ORD),
        ("unord6", V_E, "coNP", UPS_UNORD),
        ("npconp8", V_P, None, None),
    ):
        first = list(enumerate_logic(kind, tau=tau, cls=cls, upsilon=ups,
                                     budget=10))
        again = list(enumerate_logic(kind, tau=tau, cls=cls, upsilon=ups,
                                     budget=10))
        assert first == again
        assert len(first) == 10
        assert len(set(first)) == 10
        for f in first:
            got = recognize(kind, f, tau=tau, cls=cls, upsilon=ups)
            assert got is not None


def test_enumerate_order_is_total_code_length():
    stream = list(enumerate_logic("ord5", tau=V_ORD, cls="NP",
                                  upsilon=UPS_ORD, budget=12))
    lengths = []
    for f in stream:
        got = recognize("ord5", f, tau=V_ORD, cls="NP", upsilon=UPS_ORD)
        lengths.append(len(godel_encode(got.gamma)) + len(encode_tm(got.machine)))
    assert lengths == sorted(lengths)


def test_machine_pool_is_valid_and_distinct():
    pool = machine_pool("logspace", 2)
    assert len({encode_tm(m) for m in pool}) == len(pool)
    assert all(m.kind == "logspace" for m in pool)


def test_build_rejects_leafful_gamma():
    from fmwb.charsets import PayloadNotCharFree

    leafful = And(apply_T_ord(UPS_ORD, V_ORD), CharOrd("1", "1"))
    with pytest.raises(PayloadNotCharFree):
        build_form("ord5", leafful, tau=V_ORD, cls="NP",
                   machine=identity_machine(), upsilon=UPS_ORD)


def _padded_first_nat(code):
    """code with its first number field spelled with a leading zero: a
    non-canonical code that decodes as code does."""
    value, used = decode_nat(code)
    b = "0" + format(value, "b")
    c = format(len(b), "b")
    return "1" * len(c) + "0" + c + b + code[used:]


def test_recognize_rejects_non_canonical_codes():
    machine = identity_machine()
    w = _padded_first_nat(encode_tm(machine))
    assert w != encode_tm(machine) and decode_tm(w) == machine
    for kind, tau, ups, transport in (("ord5", V_ORD, UPS_ORD, apply_T_ord),
                                      ("unord6", V_E, UPS_UNORD, apply_T_unord)):
        f = build_form(kind, transport(ups, tau), tau=tau, cls="NP",
                       machine=machine, upsilon=ups).formula
        assert recognize(kind, f, tau=tau, cls="NP", upsilon=ups) is not None
        assert recognize(kind, Or(f.left, psi_encode(w)), tau=tau, cls="NP",
                         upsilon=ups) is None
    lam = parse_formula("Ax ~P(x)")
    w = _padded_first_nat(godel_encode(lam))
    assert w != godel_encode(lam) and godel_decode(w) == lam
    f = build_form("npconp8", parse_formula("Ex P(x)"), tau=V_P, lam=lam).formula
    assert recognize("npconp8", f, tau=V_P) is not None
    assert recognize("npconp8", Or(f.left, psi_encode(w)), tau=V_P) is None


def test_recognize_raises_on_a_class_build_form_refuses():
    # An unord6 form over a logspace machine, as no build_form call makes it.
    machine = identity_machine("logspace")
    gamma = apply_T_unord(UPS_UNORD, V_E)
    built = build_form("unord6", gamma, tau=V_E, cls="NP",
                       machine=identity_machine(), upsilon=UPS_UNORD).formula
    code = encode_tm(machine)
    phi = Or(Or(And(CharUnord(godel_encode(gamma), code), gamma),
                And(CoCharUnord(godel_encode(gamma), code), gamma)),
             psi_encode(code))
    for cls in ("P", "NL"):
        with pytest.raises(FormError) as refused:
            build_form("unord6", gamma, tau=V_E, cls=cls, machine=machine,
                       upsilon=UPS_UNORD)
        for candidate in (phi, built):
            with pytest.raises(FormError) as raised:
                recognize("unord6", candidate, tau=V_E, cls=cls,
                          upsilon=UPS_UNORD)
            assert str(raised.value) == str(refused.value)


def test_recognize_raises_on_an_unknown_class_whatever_phi():
    built = build_form("ord5", apply_T_ord(UPS_ORD, V_ORD), tau=V_ORD,
                       cls="NP", machine=identity_machine(), upsilon=UPS_ORD)
    f = built.formula
    for phi in (f, f.left, Or(f.left.left, f.right), parse_formula("Ex R1(x)")):
        with pytest.raises(FormError, match="unknown complexity class 'EXP'"):
            recognize("ord5", phi, tau=V_ORD, cls="EXP", upsilon=UPS_ORD)


def test_build_npconp8_names_the_sentence_at_fault():
    from fmwb.charsets import PayloadNotCharFree

    good = parse_formula("Ex P(x)")
    not_so_e = parse_formula("AQ1:1 Ex Q1(x)")
    leafful = And(good, CharOrd("1", "1"))
    for lam, gamma, name in ((not_so_e, good, "lambda"),
                             (good, not_so_e, "gamma")):
        with pytest.raises(FragmentMismatch) as raised:
            build_form("npconp8", gamma, tau=V_P, lam=lam)
        assert str(raised.value) == f"{name} is not in the SO-E fragment"
    for lam, gamma, name in ((leafful, good, "lambda"),
                             (good, leafful, "gamma")):
        with pytest.raises(PayloadNotCharFree) as raised:
            build_form("npconp8", gamma, tau=V_P, lam=lam)
        assert str(raised.value) == f"{name} must not contain characteristic leaves"


def test_an_upsilon_binding_the_target_symbol_is_a_caller_error():
    # The check runs where the class checks run: before gamma and before phi.
    tau = parse_vocab("Q:1 <")
    gamma = parse_formula("Ex Q(x)")
    built = build_form("ord5", gamma, tau=tau, cls="NP",
                       machine=identity_machine(), upsilon=UPS_ORD).formula
    for upsilon in ("EQ:1 (Ex Q(x) & Ax R(x))", "EQ:2 Ex R(x)"):
        upsilon = parse_formula(upsilon)
        for bad_gamma in (gamma, parse_formula("Ex Q(x,x)")):
            with pytest.raises(WrongSourceVocabulary, match="target symbol Q"):
                build_form("ord5", bad_gamma, tau=tau, cls="NP",
                           machine=identity_machine(), upsilon=upsilon)
        for phi in (built, gamma):
            with pytest.raises(WrongSourceVocabulary, match="target symbol Q"):
                recognize("ord5", phi, tau=tau, cls="NP", upsilon=upsilon)
        with pytest.raises(FormError, match="unknown complexity class"):
            recognize("ord5", built, tau=tau, cls="EXP", upsilon=upsilon)
