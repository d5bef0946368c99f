"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweeps are exhaustive
at the stated scales; the two long criteria carry explicit wall-clock
ceilings, measured around the whole criterion body.
"""

import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from time import monotonic

import numpy as np
import pytest

from fmwb.aristotelian import benc, reconstruct, uenc_length
from fmwb.cfg import cyk_member, parse_grammar
from fmwb.charsets import (
    char_sentence, member_S_cfg, member_S_npconp, member_S_ord, member_S_unord,
)
from fmwb.core import (
    Structure, Vocabulary, encode_bin, ell, enumerate_structures,
    is_isomorphic, parse_vocab,
)
from fmwb.forms import build_form, enumerate_logic, fo_sentences, recognize
from fmwb.logic import (
    SOExists, apply_T_ord, apply_T_unord, pad_structure_ord,
    pad_structure_unord, parse_formula, psi_encode, psi_recognize,
)
from fmwb.machines import identity_machine
from fmwb.semantics import EvalConfig, models, sentence_checker
from helpers import (
    always_accept_machine, always_reject_machine, apply_permutation,
)
from oracles import (
    colorable, literal_member_cfg, literal_member_npconp, literal_member_ord,
    literal_member_unord, naive_models, reachable_pairs, table_models,
)
from randgen import random_machine, single_node_mutations

V_MON = Vocabulary((("R", 1),))
V_MON2 = Vocabulary((("P", 1), ("Q", 1)))
V_ORD = parse_vocab("R1:1 <")
V_E = parse_vocab("E:2")
V_P = parse_vocab("P:1")
UPS_ORD = parse_formula("Ex R(x)")
UPS_UNORD = parse_formula("Ex Ey R(x,y)")

SEED = 20250809


def report(number, name, detail):
    print(f"\nACCEPTANCE {number} ({name}): PASS - {detail}")


def monadic_structures(vocab, n):
    names = vocab.names
    for bits in itertools.product((False, True), repeat=n * len(names)):
        rel = {name: set() for name in names}
        for i, bit in enumerate(bits):
            if bit:
                rel[names[i // n]].add((i % n,))
        yield Structure.make(vocab, n, rel)


@pytest.fixture(scope="module")
def aristotelian_corpus():
    m1 = [a for n in (2, 3, 4) for a in monadic_structures(V_MON, n)]
    assert len(m1) == 28
    rng = random.Random(SEED)
    pairs = []
    for _ in range(250):
        n = rng.randint(2, 6)
        rel = {
            name: {(i,) for i in range(n) if rng.random() < 0.5}
            for name in V_MON2.names
        }
        a = Structure.make(V_MON2, n, rel)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs.append((a, apply_permutation(a, perm)))
    for _ in range(250):
        def rand():
            n = rng.randint(2, 6)
            rel = {
                name: {(i,) for i in range(n) if rng.random() < 0.5}
                for name in V_MON2.names
            }
            return Structure.make(V_MON2, n, rel)

        pairs.append((rand(), rand()))
    assert len(pairs) == 500
    m2 = sorted({a for pair in pairs for a in pair},
                key=lambda a: (a.n, encode_bin(a)))
    return m1, pairs, m2


def test_acceptance_1_lemma1_equivalence(aristotelian_corpus):
    t0 = monotonic()
    m1, pairs, _ = aristotelian_corpus
    exceptions = 0
    checked = 0
    for a, b in itertools.combinations(m1, 2):
        checked += 1
        if is_isomorphic(a, b) != (uenc_length(a) == uenc_length(b)):
            exceptions += 1
    assert checked == 378
    for a, b in pairs:
        checked += 1
        if is_isomorphic(a, b) != (uenc_length(a) == uenc_length(b)):
            exceptions += 1
    elapsed = monotonic() - t0
    assert exceptions == 0
    assert elapsed < 10.0
    report(1, "Lemma 1 equivalence",
           f"378 exhaustive + 500 random pairs, 0 exceptions, {elapsed:.1f}s")


def test_acceptance_2_reconstruction_roundtrip(aristotelian_corpus):
    m1, _, m2 = aristotelian_corpus
    for vocab, corpus in ((V_MON, m1), (V_MON2, m2)):
        for a in corpus:
            r = reconstruct(vocab, benc(a))
            assert is_isomorphic(r, a)
            assert uenc_length(r) == uenc_length(a)
    report(2, "reconstruction round trip",
           f"{len(m1)} + {len(m2)} structures, all isomorphic with equal lengths")


def test_acceptance_3_encoding_bounds(aristotelian_corpus):
    m1, _, m2 = aristotelian_corpus
    for m, corpus in ((1, m1), (2, m2)):
        for a in corpus:
            n = a.n
            loglog = math.log2(math.log2(n)) if n > 2 else 0.0
            benc_bound = 1 + (1 << m) * (m + math.log2(n) + 2 * loglog + 7)
            uenc_bound = (2 ** ((m + 7) * (1 << m) + 1)
                          * (n * math.log2(n) ** 2) ** (1 << m))
            assert len(benc(a)) <= benc_bound
            assert uenc_length(a) < uenc_bound
    report(3, "encoding bounds",
           f"both stated inequalities hold on all {len(m1) + len(m2)} structures")


# criterion 4 sweep state, shared with the worker processes via fork
_SWEEP: dict = {}


def _c4_worker(span):
    lo, hi = span
    corpus = _SWEEP["corpus"]
    structs = _SWEEP["structs"]
    out = bytearray()
    for f in corpus[lo:hi]:
        check = sentence_checker(f)
        for a in structs:
            out.append(check(a))
    return bytes(out)


def test_acceptance_4_model_checker_oracle_equivalence():
    t0 = monotonic()
    corpus = fo_sentences(V_E, 6)
    assert len(corpus) == 51150
    structs2 = list(enumerate_structures(V_E, 2))
    structs3 = [a for a in enumerate_structures(V_E, 3) if a.n == 3]
    structs = structs2 + structs3
    assert len(structs) == 528

    # oracle side: truth tables per sentence
    oracle = np.empty((len(corpus), len(structs)), dtype=bool)
    for i, f in enumerate(corpus):
        oracle[i, :16] = table_models(V_E, structs2, f)
        oracle[i, 16:] = table_models(V_E, structs3, f)

    # package side: the compiled checker, split across two workers
    _SWEEP["corpus"] = corpus
    _SWEEP["structs"] = structs
    chunk = 1600
    spans = [(lo, min(lo + chunk, len(corpus)))
             for lo in range(0, len(corpus), chunk)]
    rows = bytearray()
    with ProcessPoolExecutor(max_workers=2) as pool:
        for blob in pool.map(_c4_worker, spans):
            rows.extend(blob)
    got = np.frombuffer(bytes(rows), dtype=np.uint8).reshape(oracle.shape)
    mismatches = int((got.astype(bool) != oracle).sum())
    assert mismatches == 0

    # the table oracle itself agrees with the plain recursive one
    rng = random.Random(SEED)
    for _ in range(300):
        i = rng.randrange(len(corpus))
        j = rng.randrange(len(structs))
        assert naive_models(structs[j], corpus[i]) == bool(oracle[i, j])

    # SO-exists: two-colorability of cycles against exhaustive search
    two_col = parse_formula(
        "EQ:1 Ax Ay (E(x,y) -> ((Q(x) & ~Q(y)) | (~Q(x) & Q(y))))"
    )
    for n in (3, 4, 5, 6):
        edges = set()
        for i in range(n):
            edges |= {(i, (i + 1) % n), ((i + 1) % n, i)}
        cyc = Structure.make(V_E, n, {"E": edges})
        assert models(cyc, two_col) == colorable(cyc, 2) == (n % 2 == 0)

    # TC and LFP against breadth-first closure on seeded digraphs
    reach_tc = parse_formula("Ax Ay TC[u,v: E(u,v)](x,y)")
    reach_lfp = parse_formula(
        "Ax Ay LFP[Q,u,v: (u = v | Ew (E(u,w) & Q(w,v)))](x,y)"
    )
    for k in range(20):
        n = 2 + k % 4
        rel = {
            (u, v) for u in range(n) for v in range(n)
            if rng.random() < 0.35
        }
        a = Structure.make(V_E, n, {"E": rel})
        want = reachable_pairs(a) == {(u, v) for u in range(n) for v in range(n)}
        assert models(a, reach_tc) == want
        assert models(a, reach_lfp) == want

    elapsed = monotonic() - t0
    assert elapsed < 120.0
    report(4, "model checker vs oracles",
           f"51150 sentences x 528 structures exhaustive, 0 mismatches; "
           f"SO/TC/LFP oracles agree; {elapsed:.0f}s")


ORD_UPSILONS = [
    "Ex R(x)",
    "Ax R(x)",
    "Ex Ay (R(x) & (x < y | x = y))",
    "Ex (R(x) & BIT(x,x))",
    "Ax (R(x) -> Ey (y < x & R(y)))",
    "EQ:1 Ax (Q(x) -> R(x))",
    "AQ:1 (Ex Q(x) | Ex R(x))",
    "Ex Ey TC[u,v: (R(u) & R(v))](x,y)",
    "Ex LFP[Q,u: (R(u) | Ev (v < u & Q(v)))](x)",
    "Ex PFP[Q,u: (R(u) & ~Q(u))](x)",
]

UNORD_UPSILONS = [
    "Ex Ey R(x,y)",
    "Ax Ay R(x,y)",
    "Ex R(x,x)",
    "Ax Ey R(x,y)",
    "Ex Ay (R(x,y) | R(y,x))",
    "Ax Ay (R(x,y) -> R(y,x))",
    "Ex Ey (x != y & R(x,y))",
    "Ax (R(x,x) -> Ey R(x,y))",
    "Ex Ay (x = y | ~R(x,y))",
    "Ax Ey (R(y,x) & Az (R(z,y) -> z = z))",
]


def test_acceptance_5_operator_semantics():
    tau_ord = parse_vocab("E:2 <")
    sources_ord = list(enumerate_structures(Vocabulary((("R", 1),), True), 4))
    for text in ORD_UPSILONS:
        ups = parse_formula(text)
        image = apply_T_ord(ups, tau_ord)
        check_src = sentence_checker(ups)
        check_img = sentence_checker(image)
        for a in sources_ord:
            assert check_src(a) == check_img(pad_structure_ord(a, tau_ord))

    src_vocab = Vocabulary((("R", 2),))
    taus = (parse_vocab("P:1 E:2"), parse_vocab("H:3"))
    images = {
        (text, tau): sentence_checker(apply_T_unord(parse_formula(text), tau))
        for text in UNORD_UPSILONS for tau in taus
    }
    checks = {text: sentence_checker(parse_formula(text))
              for text in UNORD_UPSILONS}
    count = 0
    for a in enumerate_structures(src_vocab, 4):
        count += 1
        padded = {tau: pad_structure_unord(a, tau) for tau in taus}
        for text in UNORD_UPSILONS:
            want = checks[text](a)
            for tau in taus:
                assert images[(text, tau)](padded[tau]) == want
    assert count == 16 + 512 + 65536
    report(5, "operator semantics",
           f"10 ordered + 10 unordered sentences, all sources n <= 4 "
           f"({len(sources_ord)} and {count}), 3 target vocabularies, 0 exceptions")


def test_acceptance_6_characteristic_set_dichotomy():
    # valid side: the identity machine with gamma equal to the transported
    # distinguished sentence makes every characteristic sentence valid
    ups_tau_ord = apply_T_ord(UPS_ORD, V_ORD)
    tid = identity_machine()
    config = EvalConfig(upsilon_ord=UPS_ORD, upsilon_unord=UPS_UNORD)
    char_ord = char_sentence("ord", gamma=ups_tau_ord, machine=tid)
    check = sentence_checker(char_ord, config)
    for a in enumerate_structures(V_ORD, 4):
        assert check(a)

    ups_tau_unord = apply_T_unord(UPS_UNORD, V_E)
    char_unord = char_sentence("unord", gamma=ups_tau_unord, machine=tid)
    check = sentence_checker(char_unord, config)
    count = 0
    for a in enumerate_structures(V_E, 4):
        count += 1
        assert check(a)
    assert count == 16 + 512 + 65536

    gamma_np = parse_formula("Ex P(x)")
    lam_np = parse_formula("Ax ~P(x)")
    char_np = char_sentence("npconp", lam=lam_np, gamma=gamma_np)
    check = sentence_checker(char_np, config)
    for a in enumerate_structures(V_P, 4):
        assert check(a)

    # broken machines: verdicts equal the literal definition on every input
    for machine in (always_reject_machine(), always_accept_machine()):
        for a in enumerate_structures(V_ORD, 4):
            assert (member_S_ord(a, ups_tau_ord, machine, ups_tau_ord)
                    == literal_member_ord(a, ups_tau_ord, machine, ups_tau_ord))
        for a in enumerate_structures(V_E, 4):
            assert (member_S_unord(a, ups_tau_unord, machine, ups_tau_unord)
                    == literal_member_unord(a, ups_tau_unord, machine,
                                            ups_tau_unord))
    for a in enumerate_structures(V_P, 4):
        assert (member_S_npconp(a, gamma_np, gamma_np)
                == literal_member_npconp(a, gamma_np, gamma_np))
    universal = parse_grammar("S -> a S | b S | eps")
    an_bn = parse_grammar("S -> a S b | eps")
    for a in enumerate_structures(V_ORD, 4):
        assert member_S_cfg(a, universal) == literal_member_cfg(a, universal)
        assert member_S_cfg(a, an_bn) == literal_member_cfg(a, an_bn)

    # verdicts depend on the input only through its encoding length
    same_size = [a for a in enumerate_structures(V_E, 3) if a.n == 3]
    reject = always_reject_machine()
    verdicts = {
        member_S_unord(a, ups_tau_unord, reject, ups_tau_unord)
        for a in same_size[:64]
    }
    assert len(verdicts) == 1
    report(6, "characteristic-set dichotomy",
           "valid for the identity pair up to n=4; broken machines match the "
           "literal definition on every input; size-only dependence confirmed")


def test_acceptance_7_canonical_form_theorems():
    config = EvalConfig(upsilon_ord=UPS_ORD, upsilon_unord=UPS_UNORD)
    ups_tau_ord = apply_T_ord(UPS_ORD, V_ORD)
    ups_tau_unord = apply_T_unord(UPS_UNORD, V_E)
    tid = identity_machine()

    # correct pairs: the form's model class equals gamma's
    for kind, tau, gamma, cls in (
        ("ord2", V_ORD, ups_tau_ord, "NP"),
        ("ord5", V_ORD, ups_tau_ord, "NP"),
        ("unord4", V_E, ups_tau_unord, "NP"),
        ("unord6", V_E, ups_tau_unord, "NP"),
    ):
        ups = UPS_ORD if kind.startswith("ord") else UPS_UNORD
        built = build_form(kind, gamma, tau=tau, cls=cls, machine=tid,
                           upsilon=ups)
        check_form = sentence_checker(built.formula, config)
        check_gamma = sentence_checker(gamma, config)
        for a in enumerate_structures(tau, 3):
            assert check_form(a) == check_gamma(a), (kind, a)

    gamma_np = parse_formula("Ex P(x)")
    lam_np = parse_formula("Ax ~P(x)")
    built = build_form("npconp8", gamma_np, tau=V_P, lam=lam_np)
    check_form = sentence_checker(built.formula, config)
    check_gamma = sentence_checker(gamma_np, config)
    for a in enumerate_structures(V_P, 4):
        assert check_form(a) == check_gamma(a)

    # broken pairs: beyond the violation threshold the form tracks the
    # transported distinguished sentence (shapes 2/4/5/6)
    for machine in (always_reject_machine(), always_accept_machine()):
        threshold = 2  # the least violating structure already has n = 2
        for kind, tau, gamma, ups, ups_tau in (
            ("ord2", V_ORD, ups_tau_ord, UPS_ORD, ups_tau_ord),
            ("ord5", V_ORD, ups_tau_ord, UPS_ORD, ups_tau_ord),
            ("unord4", V_E, ups_tau_unord, UPS_UNORD, ups_tau_unord),
            ("unord6", V_E, ups_tau_unord, UPS_UNORD, ups_tau_unord),
        ):
            built = build_form(kind, gamma, tau=tau, cls="NP",
                               machine=machine, upsilon=ups)
            check_form = sentence_checker(built.formula, config)
            check_ups = sentence_checker(ups_tau, config)
            depth = 3 if kind.startswith("ord") else 2
            for a in enumerate_structures(tau, 4):
                if ell(len(encode_bin(a)), depth) >= threshold:
                    assert check_form(a) == check_ups(a), (kind, machine.start)

    # non-complementary pair: the form is unsatisfiable above the threshold
    built = build_form("npconp8", gamma_np, tau=V_P, lam=gamma_np)
    check_form = sentence_checker(built.formula, config)
    for a in enumerate_structures(V_P, 4):
        assert not check_form(a)
    report(7, "canonical form theorems",
           "correct pairs match gamma everywhere tested; broken pairs track "
           "the distinguished sentence (or are empty for shape 8) up to n=4")


def _so_wrap(f, i):
    return SOExists("Q1", 1, f) if i % 2 == 0 else f


def test_acceptance_8_recognizer_decidability():
    t0 = monotonic()
    rng = random.Random(SEED)
    pool_ord = fo_sentences(V_ORD, 4)
    pool_e = fo_sentences(V_E, 4)
    pool_p = fo_sentences(V_P, 5)

    cases = {
        "ord5": dict(tau=V_ORD, cls="NP", upsilon=UPS_ORD),
        "unord6": dict(tau=V_E, cls="coNP", upsilon=UPS_UNORD),
        "npconp8": dict(tau=V_P, cls=None, upsilon=None),
    }
    built_samples = {}
    for kind, kw in cases.items():
        built = []
        for i in range(50):
            if kind == "npconp8":
                gamma = _so_wrap(rng.choice(pool_p), i)
                lam = _so_wrap(rng.choice(pool_p), i + 1)
                form = build_form(kind, gamma, tau=kw["tau"], lam=lam)
                got = recognize(kind, form.formula, tau=kw["tau"])
                assert got is not None
                assert got.gamma == gamma and got.lam == lam
            else:
                pool = pool_ord if kind == "ord5" else pool_e
                gamma = rng.choice(pool)
                machine = random_machine(
                    rng, "polytime" if kw["cls"] in ("coNP", "NP", "PSPACE")
                    else "logspace")
                form = build_form(kind, gamma, tau=kw["tau"], cls=kw["cls"],
                                  machine=machine, upsilon=kw["upsilon"])
                got = recognize(kind, form.formula, tau=kw["tau"],
                                cls=kw["cls"], upsilon=kw["upsilon"])
                assert got is not None
                assert got.gamma == gamma and got.machine == machine
            built.append(form.formula)
        built_samples[kind] = built

    mutation_counts = {}
    for kind, kw in cases.items():
        rejected = 0
        for base in built_samples[kind][:6]:
            for candidate in single_node_mutations(base, rng, 20):
                assert recognize(kind, candidate, tau=kw["tau"],
                                 cls=kw.get("cls"),
                                 upsilon=kw.get("upsilon")) is None
                rejected += 1
        assert rejected >= 100
        mutation_counts[kind] = rejected

    for kind, kw in cases.items():
        stream = list(enumerate_logic(kind, tau=kw["tau"], cls=kw.get("cls"),
                                      upsilon=kw.get("upsilon"), budget=20))
        assert len(stream) == 20
        assert len(set(stream)) == 20
        again = list(enumerate_logic(kind, tau=kw["tau"], cls=kw.get("cls"),
                                     upsilon=kw.get("upsilon"), budget=20))
        assert stream == again
        for f in stream:
            assert recognize(kind, f, tau=kw["tau"], cls=kw.get("cls"),
                             upsilon=kw.get("upsilon")) is not None

    elapsed = monotonic() - t0
    assert elapsed < 120.0
    report(8, "recognizer decidability",
           f"50 builds per kind recognized; "
           f"{sum(mutation_counts.values())} mutations all rejected; "
           f"first 20 enumerations recognized and distinct; {elapsed:.0f}s")


def test_acceptance_9_encoding_sentences():
    structs = list(enumerate_structures(V_E, 3))
    assert len(structs) == 528
    for k in range(1, 11):
        for i in range(1 << k):
            w = format(i, f"0{k}b")
            psi = psi_encode(w)
            assert psi_recognize(psi) == w
            check = sentence_checker(psi)
            for a in structs:
                assert not check(a)
    rng = random.Random(SEED)
    for k in range(1, 7):
        for _ in range(8):
            w = "".join(rng.choice("01") for _ in range(k))
            for a in rng.sample(structs, 6):
                assert not naive_models(a, psi_encode(w))
    report(9, "encoding sentences",
           "round trip for all 2046 strings of length <= 10; identically "
           "false on all 528 structures (plus independent-oracle spot checks)")


def test_acceptance_10_cyk_and_grammar_sets():
    grammars = (
        parse_grammar("S -> a S b | eps"),
        parse_grammar("S -> a S | b S | eps"),
        parse_grammar("S -> a S a | b S b | a | b | eps"),
        parse_grammar("S -> a S b S | b S a S | eps"),
        parse_grammar("S -> a a S | b S | eps"),
    )
    from oracles import derivable_strings

    for g in grammars:
        derivable = derivable_strings(g, 16, 6)
        for length in range(7):
            for word in itertools.product(g.terminals, repeat=length):
                assert cyk_member(g, word) == (word in derivable), (g, word)

    universal = grammars[1]
    an_bn = grammars[0]
    for a in enumerate_structures(V_ORD, 4):
        assert member_S_cfg(a, universal)
        assert member_S_cfg(a, universal) == literal_member_cfg(a, universal)
        assert not member_S_cfg(a, an_bn)
        assert member_S_cfg(a, an_bn) == literal_member_cfg(a, an_bn)
    report(10, "CYK and grammar-indexed sets",
           "5-grammar corpus matches derivation enumeration through length 6; "
           "grammar-set verdicts match the literal definition")
