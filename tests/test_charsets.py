import pytest

from fmwb.cfg import parse_grammar
from fmwb.charsets import (
    CharsetError, PayloadNotCharFree, char_sentence, leaf_verdict, member_S_cfg,
    member_S_npconp, member_S_ord, member_S_unord,
)
from fmwb.core import (
    Structure, ell, encode_bin, enumerate_structures, parse_vocab,
)
from fmwb.logic import (
    And, CharOrd, Not, apply_T_ord, apply_T_unord, parse_formula,
)
from fmwb.machines import identity_machine
from fmwb.semantics import EvalConfig, models, valid_upto
from fmwb.cfg import cyk_member
from helpers import always_accept_machine, always_reject_machine
from oracles import (
    literal_member_cfg, literal_member_npconp, literal_member_ord,
    literal_member_unord,
)

V_ORD = parse_vocab("R1:1 <")
V_E = parse_vocab("E:2")
V_P = parse_vocab("P:1")
UPS_ORD = parse_formula("Ex R(x)")
UPS_UNORD = parse_formula("Ex Ey R(x,y)")


def test_member_ord_identity_machine():
    upsilon_tau = apply_T_ord(UPS_ORD, V_ORD)
    for a in enumerate_structures(V_ORD, 4):
        assert member_S_ord(a, upsilon_tau, identity_machine(), upsilon_tau)


def test_member_ord_broken_machines_match_literal():
    upsilon_tau = apply_T_ord(UPS_ORD, V_ORD)
    for machine in (always_reject_machine(), always_accept_machine()):
        for a in enumerate_structures(V_ORD, 4):
            got = member_S_ord(a, upsilon_tau, machine, upsilon_tau)
            assert got == literal_member_ord(a, upsilon_tau, machine, upsilon_tau)
    # the reject machine specifically fails: some n=2 structure satisfies it
    a = Structure.make(V_ORD, 2, {"R1": [(0,)]})
    assert not member_S_ord(a, upsilon_tau, always_reject_machine(), upsilon_tau)


def test_ell3_bound_never_below_two():
    # every valid structure encodes to at least 2 bits, and ell^k(x) >= 2
    # for x >= 2, so the inner quantifier always ranges over some structure
    for x in range(2, 600):
        assert ell(x, 3) >= 2
    assert ell(127, 3) == 2
    assert ell(128, 3) == 3
    assert ell(2 ** 127 - 1, 3) == 3
    assert ell(2 ** 127, 3) == 4


def test_member_unord_identity_and_literal():
    upsilon_tau = apply_T_unord(UPS_UNORD, V_E)
    tid = identity_machine()
    structures = list(enumerate_structures(V_E, 3))
    structures += [Structure(V_E, 4, i) for i in (0, 1, 77, 65535)]
    for a in structures:
        assert member_S_unord(a, upsilon_tau, tid, upsilon_tau)
    for machine in (always_reject_machine(), always_accept_machine()):
        for a in structures:
            got = member_S_unord(a, upsilon_tau, machine, upsilon_tau)
            assert got == literal_member_unord(a, upsilon_tau, machine, upsilon_tau)


def test_member_verdict_depends_only_on_encoding_length():
    upsilon_tau = apply_T_unord(UPS_UNORD, V_E)
    machine = always_reject_machine()
    structures = [a for a in enumerate_structures(V_E, 3) if a.n == 3]
    verdicts = {
        member_S_unord(a, upsilon_tau, machine, upsilon_tau)
        for a in structures[:40]
    }
    assert len(verdicts) == 1


def test_member_npconp_examples():
    gamma = parse_formula("Ex P(x)")
    lam = parse_formula("Ax ~P(x)")
    for a in enumerate_structures(V_P, 4):
        assert member_S_npconp(a, lam, gamma)
        assert member_S_npconp(a, lam, gamma) == literal_member_npconp(a, lam, gamma)
    a = Structure.make(V_P, 2, {"P": [(0,)]})
    assert not member_S_npconp(a, gamma, gamma)
    assert literal_member_npconp(a, gamma, gamma) is False
    unsat = parse_formula("Ex x != x")
    taut = parse_formula("Ax x = x")
    assert member_S_npconp(a, taut, unsat)


def test_member_npconp_requires_so_exists():
    gamma = parse_formula("Ex P(x)")
    bad = parse_formula("Ex PFP[Q,u: Q(u)](x)")
    with pytest.raises(CharsetError):
        member_S_npconp(Structure.make(V_P, 2), bad, gamma)


def test_member_cfg_examples():
    universal = parse_grammar("S -> a S | b S | eps")
    an_bn = parse_grammar("S -> a S b | eps")
    for a in enumerate_structures(V_ORD, 3):
        assert member_S_cfg(a, universal)
        assert not member_S_cfg(a, an_bn)
        assert member_S_cfg(a, universal) == literal_member_cfg(a, universal)
        assert member_S_cfg(a, an_bn) == literal_member_cfg(a, an_bn)


def test_member_cfg_bound_excludes_longer_gaps():
    # language = every string except those of length exactly 5
    missing5 = parse_grammar(
        "S -> eps | a | b | X X | X X X | X X X X | X X X X X X Y\n"
        "X -> a | b\n"
        "Y -> eps | X Y"
    )
    assert find_len5_missing(missing5)
    a = Structure.make(V_ORD, 2, {"R1": [(0,)]})
    assert ell(len(encode_bin(a)), 3) == 2
    assert member_S_cfg(a, missing5)


def find_len5_missing(grammar):
    import itertools

    for length in (0, 1, 2, 3, 4, 6):
        for word in itertools.product(grammar.terminals, repeat=length):
            if not cyk_member(grammar, word):
                return False
    return all(
        not cyk_member(grammar, word)
        for word in itertools.product(grammar.terminals, repeat=5)
    )


def test_char_sentence_eval_matches_member():
    upsilon_tau = apply_T_ord(UPS_ORD, V_ORD)
    tid = identity_machine()
    char = char_sentence("ord", gamma=upsilon_tau, machine=tid)
    config = EvalConfig(upsilon_ord=UPS_ORD)
    assert valid_upto(char, V_ORD, 4, config) is None
    for a in list(enumerate_structures(V_ORD, 3)):
        assert models(a, char, config) == member_S_ord(
            a, upsilon_tau, tid, upsilon_tau
        )


def test_cochar_is_complement():
    upsilon_tau = apply_T_unord(UPS_UNORD, V_E)
    tid = identity_machine()
    char = char_sentence("unord", gamma=upsilon_tau, machine=tid)
    cochar = char_sentence("counord", gamma=upsilon_tau, machine=tid)
    config = EvalConfig(upsilon_unord=UPS_UNORD)
    both = And(char, cochar)
    assert valid_upto(Not(both), V_E, 3, config) is None
    for a in list(enumerate_structures(V_E, 3))[::17]:
        assert models(a, cochar, config) == (not models(a, char, config))


def test_char_npconp_of_complements_is_valid():
    gamma = parse_formula("Ex P(x)")
    lam = parse_formula("Ax ~P(x)")
    char = char_sentence("npconp", lam=lam, gamma=gamma)
    assert valid_upto(char, V_P, 4) is None


def test_char_sentence_rejects_leafful_payloads():
    leafful = And(parse_formula("Ex P(x)"), CharOrd("1", "1"))
    with pytest.raises(PayloadNotCharFree):
        char_sentence("ord", gamma=leafful, machine=identity_machine())
    with pytest.raises(PayloadNotCharFree):
        member_S_ord(Structure.make(V_ORD, 2), leafful, identity_machine(),
                     apply_T_ord(UPS_ORD, V_ORD))


def test_eval_char_on_wrong_vocab_errors():
    char = char_sentence("ord", gamma=apply_T_ord(UPS_ORD, V_ORD),
                         machine=identity_machine())
    with pytest.raises(CharsetError):
        leaf_verdict(V_E, 2, char, EvalConfig(upsilon_ord=UPS_ORD), 4)


def test_vacuous_bound_is_member():
    # unreachable for real inputs (encodings are always >= 2 bits, and the
    # iterated length of anything >= 2 stays >= 2), but the branch exists:
    # a bound below 2 quantifies over nothing, so membership holds vacuously
    from fmwb.charsets import _reduction_agrees

    upsilon_tau = apply_T_ord(UPS_ORD, V_ORD)
    assert _reduction_agrees(V_ORD, upsilon_tau, always_reject_machine(),
                             upsilon_tau, 1, EvalConfig())
