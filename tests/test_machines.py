import random
import time
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from fmwb import charsets, machines, semantics
from fmwb.aristotelian import encode_nat, encode_str
from fmwb.core import (
    NoIntegerUniverse, Structure, Vocabulary, decode_bin, encode_bin,
    enumerate_structures, parse_vocab,
)
from fmwb.forms import build_form, fo_sentences
from fmwb.logic import And, Or, apply_T_ord, parse_formula, print_formula
from fmwb.machines import (
    APPENDS, BLANK, LOGSPACE, MOVES, POLYTIME, RESERVED, SYMBOLS, MachineError,
    MalformedMachine, OracleMachine, decode_tm, encode_tm, format_machine,
    identity_machine, is_reduction_upto, parse_machine, run,
)
from fmwb.semantics import EvalConfig, NoLeastFixpoint, models, sentence_checker
from helpers import always_accept_machine, always_reject_machine
from oracles import naive_reduction_upto, naive_run
from randgen import random_copying_machine, random_formula, random_machine
from test_sweep import spinning_leaf

V_E = Vocabulary((("E", 2),))
V_P = Vocabulary((("P", 1),))
EDGE = parse_formula("Ex Ey E(x,y)")


def two_cycle():
    return Structure.make(V_E, 2, {"E": [(0, 1), (1, 0)]})


def test_machine_invariants():
    with pytest.raises(MachineError):
        OracleMachine.make(("q0",), "q0", "polytime", 1, 1, {})  # reserved missing
    with pytest.raises(MachineError):
        OracleMachine.make(RESERVED, "nope", "polytime", 1, 1, {})
    with pytest.raises(MachineError):
        OracleMachine.make(RESERVED, "ACC", "sometimes", 1, 1, {})
    with pytest.raises(MachineError):
        OracleMachine.make(
            RESERVED, "ACC", "polytime", 1, 1,
            {("ACC", "0", "_"): ("NO", "_", "S", "S", "")},
        )
    with pytest.raises(MachineError):
        OracleMachine.make(
            RESERVED, "ACC", "polytime", 1, 1,
            {("QUE", "0", "_"): ("NO", "_", "S", "S", "")},
        )


def test_a_bad_move_of_either_head_alone_is_refused():
    for in_mv, sto_mv in (("X", "S"), ("S", "X")):
        with pytest.raises(MachineError, match="bad head move in transition from q0"):
            OracleMachine.make(
                ("q0",) + RESERVED, "q0", "polytime", 1, 1,
                {("q0", "0", "_"): ("ACC", "_", in_mv, sto_mv, "")},
            )


def test_encode_roundtrip_stock_machines():
    for m in (identity_machine(), always_accept_machine(),
              always_reject_machine(), identity_machine(LOGSPACE, 2, 2)):
        assert decode_tm(encode_tm(m)) == m


def test_encode_roundtrip_random_corpus():
    rng = random.Random(31)
    machines = [random_machine(rng, rng.choice(("polytime", "logspace")))
                for _ in range(60)]
    codes = {encode_tm(m) for m in machines}
    assert len(codes) == len(set(machines))
    for m in machines:
        assert decode_tm(encode_tm(m)) == m


def test_decode_rejects_junk():
    with pytest.raises(MalformedMachine):
        decode_tm("0")
    with pytest.raises(MalformedMachine):
        decode_tm("")
    good = encode_tm(identity_machine())
    with pytest.raises(MalformedMachine):
        decode_tm(good + "0")


def test_decode_counts_the_trailing_bits():
    good = encode_tm(identity_machine())
    for extra in ("0", "101", "1" * 17):
        with pytest.raises(MalformedMachine) as refused:
            decode_tm(good + extra)
        assert str(refused.value) == f"{len(extra)} trailing bits after the machine"


def test_decode_refuses_a_state_index_one_past_the_last_state():
    m = identity_machine()
    head = encode_nat(len(m.states)) + "".join(map(encode_str, m.states))
    start = encode_nat(m.states.index(m.start))
    code = encode_tm(m)
    assert code.startswith(head + start)
    with pytest.raises(MalformedMachine, match=f"index {len(m.states)} is not below"):
        decode_tm(head + encode_nat(len(m.states)) + code[len(head + start):])


def test_text_format_roundtrip():
    for m in (identity_machine(), always_reject_machine()):
        assert parse_machine(format_machine(m)) == m


def test_identity_machine_runs():
    assert run(identity_machine(), encode_bin(two_cycle()), EDGE, V_E)
    assert not run(identity_machine(), encode_bin(Structure.make(V_E, 2)),
                   EDGE, V_E)


def test_identity_machine_is_identity_reduction():
    sentences = [EDGE, parse_formula("Ax Ay ~E(x,y)"),
                 parse_formula("Ex E(x,x)")]
    for gamma in sentences:
        assert is_reduction_upto(identity_machine(), gamma, gamma, V_E, 3) is None


def test_runaway_machine_rejected_by_step_budget():
    walker = OracleMachine.make(
        ("q0",) + RESERVED, "q0", "polytime", 1, 1,
        {
            ("q0", "0", "_"): ("q0", "_", "R", "S", ""),
            ("q0", "1", "_"): ("q0", "_", "R", "S", ""),
            ("q0", "_", "_"): ("q0", "_", "R", "S", ""),
        },
    )
    assert not run(walker, "0101", EDGE, V_E)


def test_step_limit_is_the_clock_power_capped_without_big_powers():
    for kind in ("polytime", "logspace"):
        for clock_c, step_c in ((1, 3), (3, 2), (2, 5)):
            m = identity_machine(kind, clock_c, step_c)
            exponent = min(clock_c, step_c) if kind == "polytime" else step_c
            for input_len in (0, 4, 30, 1000):
                assert m.step_limit(input_len) == min((input_len + 2) ** exponent, 1 << 63)
    start = time.perf_counter()
    assert identity_machine("polytime", 2**40, 2**40).step_limit(4) == 1 << 63
    assert identity_machine("logspace", 1, 2**40).step_limit(10**6) == 1 << 63
    assert time.perf_counter() - start < 0.1


def test_step_limit_takes_the_power_below_the_cap():
    # 6^16 is about 2^41: the shortcut to the cap must not fire.
    assert identity_machine("polytime", 16, 16).step_limit(4) == 6**16
    assert identity_machine("logspace", 1, 24).step_limit(2) == 4**24 < 1 << 63


def test_logspace_storage_cap_rejects():
    crawler = OracleMachine.make(
        ("q0",) + RESERVED, "q0", LOGSPACE, 1, 3,
        {
            ("q0", "0", "_"): ("q0", "0", "S", "R", ""),
            ("q0", "1", "_"): ("q0", "0", "S", "R", ""),
            ("q0", "_", "_"): ("q0", "0", "S", "R", ""),
        },
    )
    # needs more than floor(log2(4+2)) = 2 storage cells before any halt
    assert not run(crawler, "0101", EDGE, V_E)


def test_budget_monotonicity():
    m = identity_machine()
    word = encode_bin(two_cycle())
    needed = len(word) + 3
    assert not run(m, word, EDGE, V_E, max_steps=needed - 1)
    for extra in (0, 1, 5, 50):
        assert run(m, word, EDGE, V_E, max_steps=needed + extra)


def test_run_is_deterministic():
    rng = random.Random(13)
    for _ in range(10):
        m = random_machine(rng)
        word = "".join(rng.choice("01") for _ in range(6))
        assert run(m, word, EDGE, V_E) == run(m, word, EDGE, V_E)


def test_undecodable_oracle_query_answers_no():
    # writes a single 0 and queries: "0" encodes no {E:2}-structure
    m = OracleMachine.make(
        ("q0",) + RESERVED, "q0", "polytime", 2, 2,
        {
            ("q0", "0", "_"): ("QUE", "_", "S", "S", "0"),
            ("q0", "1", "_"): ("QUE", "_", "S", "S", "0"),
            ("q0", "_", "_"): ("QUE", "_", "S", "S", "0"),
            ("YES", "0", "_"): ("ACC", "_", "S", "S", ""),
            ("YES", "1", "_"): ("ACC", "_", "S", "S", ""),
            ("NO", "0", "_"): ("ACC", "_", "S", "S", ""),
        },
    )
    # NO-path leads to ACC here, so acceptance proves the answer was NO
    assert run(m, "0000", parse_formula("Ax x = x"), V_E)


def test_reduction_violations_found():
    reject = always_reject_machine()
    accept = always_accept_machine()
    witness = is_reduction_upto(reject, EDGE, EDGE, V_E, 3)
    expected = next(
        b for b in enumerate_structures(V_E, 3) if models(b, EDGE)
    )
    assert witness == expected
    witness = is_reduction_upto(accept, EDGE, EDGE, V_E, 3)
    expected = next(
        b for b in enumerate_structures(V_E, 3) if not models(b, EDGE)
    )
    assert witness == expected


def _outcome(simulate, *args):
    try:
        return simulate(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def test_single_transition_machines_match_the_reference():
    states = ("q0",) + RESERVED
    oracle = parse_formula("Ex P(x)")
    count = 0
    for (in_sym, sto_sym), action in product(
            product(SYMBOLS, SYMBOLS),
            product(states, SYMBOLS, MOVES, MOVES, APPENDS)):
        for kind in (POLYTIME, LOGSPACE):
            m = OracleMachine.make(states, "q0", kind, 2, 2,
                                   {("q0", in_sym, sto_sym): action})
            for word in ("", "1", "0110", "10100"):
                assert (_outcome(run, m, word, oracle, V_P)
                        == _outcome(naive_run, m, word, oracle, V_P)), (m, word)
        count += 1
    assert count == 3645


@pytest.mark.parametrize("draws, max_transitions, max_clock, outcomes", [
    (6000, 6, 6, {True, False}),
    # Full tables query the oracle often, also on their cycles.
    (1500, 45, 4, {True, False, KeyError}),
])
def test_random_machines_match_the_reference(draws, max_transitions,
                                             max_clock, outcomes):
    rng = random.Random(2080)
    # `F` is not in P:1, so every query that decodes raises under the second.
    oracles = (parse_formula("Ex P(x)"), parse_formula("Ex F(x)"))
    seen = set()
    for _ in range(draws):
        m = random_machine(rng, rng.choice((POLYTIME, LOGSPACE)), max_transitions)
        m = replace(m, clock_c=rng.randint(1, max_clock),
                    step_c=rng.randint(1, max_clock))
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        oracle = rng.choice(oracles)
        got = _outcome(run, m, word, oracle, V_P)
        assert got == _outcome(naive_run, m, word, oracle, V_P), (m, word, oracle)
        seen.add(got)
    assert seen == outcomes


def test_cycling_machines_are_rejected_long_before_their_clock():
    spin = OracleMachine.make(
        ("q0",) + RESERVED, "q0", POLYTIME, 2**40, 2**40,
        {("q0", sym, BLANK): ("q0", BLANK, "S", "S", "") for sym in SYMBOLS})
    bounce = OracleMachine.make(
        ("a", "b") + RESERVED, "a", LOGSPACE, 1, 2**40,
        {("a", "0", BLANK): ("b", BLANK, "S", "R", ""),
         ("b", "0", BLANK): ("a", BLANK, "S", "L", "")})
    start = time.perf_counter()
    assert not run(spin, "0101", EDGE, V_E)
    # two storage cells, within the bound floor(log2(4 + 2)) = 2
    assert not run(bounce, "0101", EDGE, V_E)
    assert time.perf_counter() - start < 1


def test_oracle_sentence_is_compiled_at_the_first_query():
    # `y` is free, so compiling gamma fails, but only a machine that asks
    # the oracle compiles it.
    gamma = parse_formula("Ex E(x,y)")
    assert not run(always_reject_machine(), "0101", gamma, V_E)
    assert (is_reduction_upto(always_reject_machine(), gamma, EDGE, V_E, 3)
            == is_reduction_upto(always_reject_machine(), EDGE, EDGE, V_E, 3))
    with pytest.raises(KeyError):
        is_reduction_upto(identity_machine(), gamma, EDGE, V_E, 3)


def test_the_oracle_tape_is_part_of_the_configuration():
    # After step 8 the state, heads and storage are those after step 4, but
    # the tape holds "1" instead of "11".  The first query, "111", says NO
    # (three elements); the second, "11", says YES, and the run accepts.
    app = {"p1": "1", "p2": "", "p3": "", "q0": "1", "q1": "1", "NO": "",
           "YES": ""}
    nxt = {"p1": "p2", "p2": "p3", "p3": "q0", "q0": "q1", "q1": "QUE",
           "NO": "q0", "YES": "ACC"}
    m = OracleMachine.make(
        ("p1", "p2", "p3", "q0", "q1") + RESERVED, "p1", POLYTIME, 4, 4,
        {(s, BLANK, BLANK): (nxt[s], BLANK, "S", "S", app[s]) for s in nxt})
    at_most_two = parse_formula("~Ex Ey Ez (x != y & x != z & y != z)")
    assert run(m, "", at_most_two, V_P)
    assert naive_run(m, "", at_most_two, V_P)


# --- reduction-agreement sweeps against the per-structure reference -------


def _assert_reduction_matches(m, gamma, target, vocab, n_max):
    """The sweep's outcome, as (n, bits) of its witness, None or the type it
    raised, after checking it against the reference."""
    got = _outcome(is_reduction_upto, m, gamma, target, vocab, n_max)
    if isinstance(got, Structure):
        got = got.n, got.bits
    want = _outcome(naive_reduction_upto, m, gamma, target, vocab, n_max)
    assert got == want, (format_machine(m), print_formula(gamma),
                         print_formula(target))
    return got


def _at_least(k):
    """The sentence saying the universe has at least k elements."""
    xs = [f"x{i}" for i in range(k)]
    return parse_formula(" ".join(f"E{x}" for x in xs) + " (" + " & ".join(
        f"{x} != {y}" for i, x in enumerate(xs) for y in xs[i + 1:]) + ")")


@pytest.mark.parametrize("tau, n_max, seed", [
    ("E:2", 3, 8101), ("R1:1 <", 3, 8102), ("P:1 Q:1", 4, 8103),
])
def test_reduction_sweeps_match_the_reference(tau, n_max, seed):
    # Second-order quantifiers are left out: the reference loops over every
    # relation for every structure, which takes too long here.
    vocab = parse_vocab(tau)
    rng = random.Random(seed)
    pool = fo_sentences(vocab, 5)

    def sentence():
        if rng.random() < 0.5:
            return rng.choice(pool)
        return random_formula(rng, vocab, rng.randint(2, 7), allow_so=False,
                              allow_char=False)

    outcomes = []
    for draw in range(150):
        kind = rng.choice((POLYTIME, LOGSPACE))
        gamma = sentence()
        if draw % 2:
            m = random_machine(rng, kind, rng.choice((4, 8, 20)))
            target = sentence()
        else:
            m = identity_machine(kind, rng.randint(1, 3), rng.randint(1, 3))
            # Targets equal to gamma on the smaller sizes make the identity
            # machine sweep them and differ, if at all, at a later one.
            large = And(_at_least(rng.randint(3, n_max)), sentence())
            target = rng.choice((gamma, Or(gamma, large), sentence()))
        outcomes.append(_assert_reduction_matches(m, gamma, target, vocab, n_max))
    assert None in outcomes
    assert {w[0] for w in outcomes if isinstance(w, tuple)} == set(range(2, n_max + 1))


CYCLING_LFP = "Ex LFP[Q,u: PFP[S,v: ((Q(v) & ~S(v)) | u = v)](u)](x)"
V_R = parse_vocab("R:1 <")
V_R1 = parse_vocab("R1:1 <")


def test_cycling_fixpoints_raise_where_the_reference_raises():
    # The stages cycle on every structure that reaches the LFP; the guard
    # keeps structure 0 (R empty) from reaching it.
    cycling = parse_formula(f"(Ex R(x) & {CYCLING_LFP})")
    holds, never = parse_formula("Ax x = x"), parse_formula("Ex R(x)")
    cases = [
        # target raises at structure 1, unless structure 0 is a witness
        (always_reject_machine(), never, cycling, NoLeastFixpoint),
        (always_accept_machine(), never, cycling, (2, 0)),
        # gamma raises at the query of structure 1, unless structure 0 is one
        (identity_machine(), cycling, never, NoLeastFixpoint),
        (identity_machine(), cycling, holds, (2, 0)),
    ]
    for m, gamma, target, want in cases:
        assert _assert_reduction_matches(m, gamma, target, V_R, 3) == want


def test_a_refused_target_table_is_built_once(monkeypatch, fresh_caches):
    # Only the size-2 structure with R full reaches the cycling fixpoint, so
    # the size's table is refused.  The sweep and the target's checker share
    # one try at it.
    built = []

    class Batch(semantics._Batch):
        def __init__(self, vocab, n, chunk, low, *args):
            if low:
                built.append(n)
            super().__init__(vocab, n, chunk, low, *args)
    monkeypatch.setattr(semantics, "_Batch", Batch)
    target = parse_formula(f"(Ex ~R(x) | {CYCLING_LFP})")
    with pytest.raises(NoLeastFixpoint):
        is_reduction_upto(always_accept_machine(), parse_formula("Ex R(x)"),
                          target, V_R, 3)
    assert built == [2]


def test_a_pending_target_leaf_costs_no_extra_batch(monkeypatch, fresh_caches):
    # The machine accepts every input, so each walk is one range over the
    # whole size, whose one batch reaches the target's leaf where R is full
    # and computes it there.  A whole-size try before the walk would be
    # refused at that leaf, and the range would run the same batch again.
    # The one more batch at n = 2 is the leaf's own reduction sweep.
    built = []

    class Batch(semantics._Batch):
        def __init__(self, vocab, n, chunk, low, *args):
            if low:
                built.append(n)
            super().__init__(vocab, n, chunk, low, *args)
    monkeypatch.setattr(semantics, "_Batch", Batch)
    gamma = parse_formula("Ex R(x)")
    leaf = print_formula(charsets.char_sentence("ord", gamma=gamma,
                                                machine=identity_machine()))
    config = EvalConfig(gamma, parse_formula("Ax Ey R(x,y)"))
    target = parse_formula(f"(Ex ~R(x) | {leaf})")
    assert is_reduction_upto(always_accept_machine(), gamma, target, V_R, 6,
                             config) is None
    assert [built.count(n) for n in range(2, 7)] == [2, 1, 1, 1, 1]


def _query_machine(word):
    """Writes `word` on the oracle tape whatever its input, queries, and
    accepts exactly on YES."""
    chain = tuple(f"q{i}" for i in range(len(word))) + ("QUE",)
    transitions = {(chain[i], sym, BLANK): (chain[i + 1], BLANK, "S", "S", bit)
                   for i, bit in enumerate(word) for sym in SYMBOLS}
    transitions.update({("YES", sym, BLANK): ("ACC", BLANK, "S", "S", "")
                        for sym in SYMBOLS})
    return OracleMachine.make(chain[:-1] + RESERVED, chain[0], POLYTIME, 3, 3,
                              transitions)


def test_queries_outside_the_tabled_sizes_answer_as_before():
    complete = parse_formula("Ax Ay E(x,y)")
    loops = parse_formula("Ex E(x,x)")
    for word in ("1" * 16, "0" * 16, "0", "1" * 5, "1" * 9):
        # 16 bits decode to n = 4 > n_max, 9 bits to n = 3; 1 and 5 to no size
        m = _query_machine(word)
        for gamma in (complete, loops):
            for target in (complete, loops, parse_formula("Ax x = x")):
                _assert_reduction_matches(m, gamma, target, V_E, 3)
    assert is_reduction_upto(_query_machine("1" * 16), complete,
                             parse_formula("Ax x = x"), V_E, 3) is None


def test_order_only_vocabulary_answers_every_query_no():
    order_only = Vocabulary((), has_order=True)
    holds, fails = parse_formula("Ax x = x"), parse_formula("Ex x != x")
    for gamma in (holds, fails):
        # The identity machine queries the empty string, which encodes no
        # structure here, so it rejects every input.
        assert _assert_reduction_matches(identity_machine(), gamma, holds,
                                         order_only, 4) == (2, 0)
        assert _assert_reduction_matches(identity_machine(), gamma, fails,
                                         order_only, 4) is None


def test_oracle_leaves_are_computed_only_where_a_scan_computes_them(
        monkeypatch, fresh_caches):
    # The sweep computes the distinct leaves a scan computes, in the scan's
    # order.  It may compute one less often: a query that many inputs share
    # is asked once for all of them.
    config = EvalConfig(parse_formula("Ex R(x)"), parse_formula("Ax Ey R(x,y)"))
    calls = []
    compute = charsets.leaf_verdict

    def record(vocab, n, node, config, budget):
        calls.append((n, node, budget))
        return compute(vocab, n, node, config, budget)
    monkeypatch.setattr(charsets, "leaf_verdict", record)

    def scan(m, gamma, target, n_max):
        """The first structure where the run and the target disagree, with
        each query and each target verdict decided alone by models()."""
        def ask(query):
            try:
                return models(decode_bin(V_E, query), gamma, config)
            except NoIntegerUniverse:
                return False
        for b in enumerate_structures(V_E, n_max):
            word = encode_bin(b)
            limit = m.step_limit(len(word))
            accepted = next(machines._walk(m, len(word), word, limit, ask))[2]
            if accepted != models(b, target, config):
                return b
        return None

    leaf = print_formula(spinning_leaf())
    holds = parse_formula("Ax x = x")
    identity = identity_machine()
    cases = [
        # no structure reaches the leaf
        (identity, parse_formula(f"(Ax ~E(x,x) & ~(Ex E(x,x) & {leaf}))"),
         parse_formula("Ax ~E(x,x)")),
        # structure 3 reaches it first, but structure 1 is the witness
        (identity, parse_formula(f"Ax (E(x,x) -> (Ay E(x,y) & {leaf}))"), holds),
        # structure 1 of each size reaches it, in gamma and in the target
        (identity, parse_formula(f"(Ax ~E(x,x) | {leaf})"), holds),
        (identity, parse_formula(f"(Ax ~E(x,x) | ~{leaf})"),
         parse_formula(f"(Ax ~E(x,x) | ~{leaf})")),
        # every input asks the same query, whose structure reaches the leaf
        (_query_machine("1111"), parse_formula(f"(Ax ~E(x,x) | ~{leaf})"), holds),
    ]
    seen = []
    for m, gamma, target in cases:
        calls.clear()
        want = scan(m, gamma, target, 3)
        scan_calls = list(calls)
        calls.clear()
        semantics._checker.cache_clear()
        assert is_reduction_upto(m, gamma, target, V_E, 3, config) == want
        assert list(dict.fromkeys(calls)) == list(dict.fromkeys(scan_calls))
        seen.append(len(calls))
    # A checker computes a leaf once per size, where a scan computes it at
    # every structure that reaches it.  The third case ends at its witness,
    # structure 1 of size 2.  In the fourth gamma and the target are one
    # sentence, so they share one checker.  In the fifth every input asks
    # one query, of size 2.
    assert seen == [0, 0, 1, 2, 1] and len(scan_calls) == 16 + 512


def test_single_runs_build_no_table_before_a_checker_would(monkeypatch,
                                                           fresh_caches):
    # Oracle queries share the sentence's checker, so a size's table is
    # built once max(2^L/64, 1) queries of that size have been checked.
    built = []
    tabulate = semantics._Search._tabulate

    def record(search, size):
        tabulate(search, size)
        built.append((size.n, size.flags is not None))
    monkeypatch.setattr(semantics._Search, "_tabulate", record)
    for n, length in ((2, 4), (3, 9)):
        before = max((1 << length) >> 6, 1)
        for index in range(before + 1):
            assert built == []
            b = Structure(V_E, n, index)
            assert run(identity_machine(), encode_bin(b), EDGE, V_E) == models(b, EDGE)
        assert built == [(n, True)]
        built.clear()


def test_leaf_bearing_oracles_get_tables(monkeypatch, fresh_caches):
    # Every query of the identity machine is its own input, so without a
    # table the oracle, an ord5 form, decides all 2^L structures of a size
    # one at a time.  With the leaf shared per size, the table is built
    # after max(2^L/64, 1) of them, or one more when the leaf is pending.
    ups = parse_formula("Ex R(x)")
    f = build_form("ord5", apply_T_ord(ups, V_R1), tau=V_R1, cls="NP",
                   machine=identity_machine(), upsilon=ups).formula
    config = EvalConfig(ups, parse_formula("Ax Ey R(x,y)"))
    mine, singles = [], []
    decide = semantics._decide

    def noting(h, compile=semantics._new_program):
        """compile, noting the programs of f, not those of the leaf's sweeps."""
        program = compile(h)
        if h is f:
            mine.append(program)
        return program

    def record(program, vocab, n, bits, *args):
        if program in mine:
            singles.append(n)
        return decide(program, vocab, n, bits, *args)
    monkeypatch.setattr(semantics, "_new_program", noting)
    monkeypatch.setattr(semantics, "_decide", record)
    assert is_reduction_upto(identity_machine(), f, f, V_R1, 10, config) is None
    for n in range(2, 11):
        # The target and the oracle are the same checker.
        assert 0 < singles.count(n) <= max((1 << n) >> 6, 1) + 1, n


def test_a_sweep_reads_a_leaf_free_target_from_its_table(monkeypatch, fresh_caches):
    # A reduction sweep reads every structure of a size, so it asks the
    # target's checker for the size's table before the walk, and a target
    # without leaves that raises nowhere is never decided one structure at
    # a time.
    gamma, target = EDGE, parse_formula("Ey Ex E(x,y)")
    mine, singles = [], []
    compile, decide = semantics._new_program, semantics._decide

    def noting(h):
        program = compile(h)
        if h is target:
            mine.append(program)
        return program

    def record(program, vocab, n, bits, *args):
        if program in mine:
            singles.append((n, bits))
        return decide(program, vocab, n, bits, *args)
    monkeypatch.setattr(semantics, "_new_program", noting)
    monkeypatch.setattr(semantics, "_decide", record)
    assert is_reduction_upto(identity_machine(), gamma, target, V_E, 3) is None
    assert mine and singles == []


# --- the walk over all inputs of one size ----------------------------------


def _bookends_machine():
    """Accepts exactly when the first and the last input bit are equal.  It
    passes over the input without using its bits, reads the last bit, goes
    back and reads the first bit again."""
    transitions = {("s", sym, BLANK): ("r", BLANK, "R", "S", "") for sym in SYMBOLS}
    transitions.update({("r", bit, BLANK): ("r", BLANK, "R", "S", "") for bit in "01"})
    transitions[("r", BLANK, BLANK)] = ("t", BLANK, "L", "S", "")
    transitions[("t", BLANK, BLANK)] = ("ACC", BLANK, "S", "S", "")
    for last in "01":
        back, first = f"u{last}", f"v{last}"
        transitions[("t", last, BLANK)] = (back, BLANK, "L", "S", "")
        transitions.update({(back, bit, BLANK): (back, BLANK, "L", "S", "")
                            for bit in "01"})
        transitions[(back, BLANK, BLANK)] = (first, BLANK, "R", "S", "")
        transitions[(first, last, BLANK)] = ("ACC", BLANK, "S", "S", "")
    return OracleMachine.make(("s", "r", "t", "u0", "u1", "v0", "v1") + RESERVED,
                              "s", POLYTIME, 3, 3, transitions)


def _walk_verdicts(m, length, ask):
    """Each input's verdict from one walk over all `length`-bit inputs,
    after checking that the ranges are nonempty, in order and cover them."""
    verdicts = []
    for lo, hi, accepted in machines._walk(m, length, "", m.step_limit(length), ask):
        assert lo == len(verdicts) < hi
        verdicts.extend([accepted] * (hi - lo))
    assert len(verdicts) == 1 << length
    return verdicts


def test_walk_verdicts_match_the_reference_on_every_input():
    oracle = parse_formula("Ex P(x)")
    bookends = _bookends_machine()
    rng = random.Random(4177)
    for draw in range(360):
        length = draw % 9
        if draw < 9:
            m = bookends
        else:
            m = random_machine(rng, (POLYTIME, LOGSPACE)[draw % 2],
                               rng.choice((6, 12, 45)))
            m = replace(m, clock_c=rng.randint(1, 3), step_c=rng.randint(1, 3))
        got = _walk_verdicts(m, length, machines._oracle_answers(oracle, V_P, None))
        words = ["".join(w) for w in product("01", repeat=length)]
        assert got == [naive_run(m, w, oracle, V_P) for w in words], (
            format_machine(m), length)
    assert _walk_verdicts(bookends, 5, None) == [
        w[0] == w[-1] for w in ("".join(w) for w in product("01", repeat=5))]


class _RefusedBatch(semantics._Batch):
    def __init__(self, vocab, n, chunk, low, *args):
        if low:
            raise RuntimeError("every batch is refused")
        super().__init__(vocab, n, chunk, low, *args)


def _recorded_events(monkeypatch, m, gamma, target, vocab, n_max):
    """The queries and single-structure checks of a per-input scan and of a
    sweep, in the order of their first occurrences, with every batch of
    more than one structure refused so that the sweep checks every
    structure alone."""
    events = []
    answers, decide = machines._oracle_answers, semantics._decide

    def recording_answers(*args):
        ask = answers(*args)

        def recorded(query):
            events.append(("query", query))
            return ask(query)
        return recorded

    def recording_decide(program, vocab, n, bits, *args):
        events.append(("check", n, bits))
        return decide(program, vocab, n, bits, *args)

    monkeypatch.setattr(machines, "_oracle_answers", recording_answers)
    monkeypatch.setattr(semantics, "_decide", recording_decide)
    monkeypatch.setattr(semantics, "_Batch", _RefusedBatch)
    semantics._checker.cache_clear()
    check = sentence_checker(target, None)
    scan = None
    for b in enumerate_structures(vocab, n_max):
        if run(m, encode_bin(b), gamma, vocab) != check(b):
            scan = b
            break
    scan_events = list(dict.fromkeys(events))
    events.clear()
    assert is_reduction_upto(m, gamma, target, vocab, n_max) == scan
    monkeypatch.undo()
    semantics._checker.cache_clear()
    return scan_events, list(dict.fromkeys(events))


def test_walk_asks_and_checks_in_the_order_of_a_scan(monkeypatch):
    v_pq = parse_vocab("P:1 Q:1")
    rng = random.Random(6121)
    pool = fo_sentences(v_pq, 4)
    some_p, holds = parse_formula("Ex P(x)"), parse_formula("Ax x = x")
    cases = [
        # every query differs, and no structure is a witness
        (identity_machine(), some_p, some_p),
        (identity_machine(LOGSPACE, 1, 2), rng.choice(pool), rng.choice(pool)),
        # every input asks "1001", P = {0} and Q = {1}, and is accepted
        (_query_machine("1001"), some_p, holds),
        (_query_machine("10"), some_p, rng.choice(pool)),
        (_query_machine("1" * 8), rng.choice(pool), rng.choice(pool)),
    ]
    cases += [(random_machine(rng, rng.choice((POLYTIME, LOGSPACE)),
                              rng.choice((20, 45))),
               rng.choice(pool), rng.choice(pool)) for _ in range(600)]
    interleaved = 0
    for m, gamma, target in cases:
        scan, walk = _recorded_events(monkeypatch, m, gamma, target, v_pq, 3)
        assert walk == scan, (format_machine(m), print_formula(gamma),
                              print_formula(target))
        # a query asked first after some check
        kinds = [kind for kind, *_ in scan]
        interleaved += "query" in kinds[kinds.index("check"):] if "check" in kinds else 0
    assert interleaved >= 30


def test_walk_forks_only_where_a_bit_decides_a_step():
    ask = machines._oracle_answers(EDGE, V_E, None)
    for length in (0, 4, 9):
        limit = identity_machine().step_limit(length)
        for m in (always_accept_machine(), always_reject_machine(),
                  _query_machine("1111")):
            assert len(list(machines._walk(m, length, "", limit, ask))) == 1
        assert len(list(machines._walk(identity_machine(), length, "", limit,
                                       ask))) == 1 << length
    # A single input is one run, which never forks.
    limit = identity_machine().step_limit(4)
    assert list(machines._walk(identity_machine(), 4, "0110", limit, ask)) == [
        (6, 7, True)]


# --- copy steps, and queries answered from the oracle's table -------------


def _counting_oracle(counts):
    """_oracle_answers, counting in `counts` the queries asked one at a
    time ("ask"), the table reads that got answers ("table") or none ("no
    table"), and the queries read at once whose length decodes to no size
    ("no size")."""
    answers = machines._oracle_answers

    def counting_answers(*args):
        ask = answers(*args)

        def counted(query):
            counts["ask"] += 1
            return ask(query)

        def counted_slice(*slice_args):
            got = ask.slice(*slice_args)
            counts["no table" if got is None else "table"] += 1
            return got
        def counted_size(length):
            n = ask.size(length)
            if n is None:
                counts["no size"] += 1
            return n
        counted.size, counted.slice = counted_size, counted_slice
        return counted
    return counting_answers


def _counting_fast_path(monkeypatch):
    """Counts, for the reduction sweeps that follow, of the ranges the walk
    gives one verdict ("range") or one verdict per input ("slice"), and of
    the oracle's calls (see _counting_oracle)."""
    counts = Counter()
    walk = machines._walk

    def counting_walk(*args):
        for lo, hi, accepted in walk(*args):
            counts["slice" if isinstance(accepted, bytes) else "range"] += 1
            yield lo, hi, accepted
    monkeypatch.setattr(machines, "_walk", counting_walk)
    monkeypatch.setattr(machines, "_oracle_answers", _counting_oracle(counts))
    return counts


def test_copy_steps_are_flagged_once_per_pair():
    copies = [step for step in identity_machine().coded_steps if step[6]]
    assert len(copies) == 2 and all(step[5] for step in copies)
    # The same pair with a different move on 1 decides the step, and copies nothing.
    m = OracleMachine.make(("q0",) + RESERVED, "q0", POLYTIME, 2, 2, {
        ("q0", "0", BLANK): ("q0", BLANK, "R", "S", "0"),
        ("q0", "1", BLANK): ("q0", BLANK, "S", "S", "1")})
    assert [step[5:] for step in m.coded_steps if step[5]] == [(True, False)] * 2
    # Appending "1" on 0 and "0" on 1 is a negated copy, not a copy step.
    m = OracleMachine.make(("q0",) + RESERVED, "q0", POLYTIME, 2, 2, {
        ("q0", "0", BLANK): ("q0", BLANK, "R", "S", "1"),
        ("q0", "1", BLANK): ("q0", BLANK, "R", "S", "0")})
    assert not any(step[6] for step in m.coded_steps)


def test_only_walks_of_at_most_128_bits_copy_without_forking():
    # Copies two bits and accepts.  A reference is one Latin-1 character,
    # so a longer walk forks at the copies as at any deciding read.
    copy = {("a", bit, BLANK): ("b", BLANK, "R", "S", bit) for bit in "01"}
    copy.update({("b", bit, BLANK): ("ACC", BLANK, "R", "S", bit) for bit in "01"})
    m = OracleMachine.make(("a", "b") + RESERVED, "a", POLYTIME, 2, 2, copy)
    for length, ranges in ((128, 1), (129, 4)):
        walk = machines._walk(m, length, "", m.step_limit(length), None)
        # the ranges, by the two bits they fix
        assert [(lo >> (length - 2), accepted) for lo, _, accepted in walk] == [
            (i, True) for i in range(ranges)]


def test_copying_walks_match_the_reference_on_every_input():
    # The walk with the oracle's table, input by input, against naive_run.
    oracles = (parse_formula("Ex P(x)"), parse_formula("Ax P(x)"))
    rng = random.Random(5233)
    seen = Counter()
    for draw in range(600):
        length = draw % 8
        oracle = oracles[draw // 8 % 2]
        m = random_copying_machine(rng, (POLYTIME, LOGSPACE)[draw % 2],
                                   rng.choice((4, 12, 30)))
        counts = Counter()
        ask = _counting_oracle(counts)(oracle, V_P, None)
        verdicts = []
        for lo, hi, accepted in machines._walk(m, length, "", m.step_limit(length),
                                               ask, True):
            assert lo == len(verdicts) < hi
            if isinstance(accepted, bytes):
                assert len(accepted) == hi - lo
                verdicts.extend(byte == 1 for byte in accepted)
                counts["slice"] += 1
            else:
                verdicts.extend([accepted] * (hi - lo))
        words = ["".join(w) for w in product("01", repeat=length)]
        assert verdicts == [naive_run(m, w, oracle, V_P) for w in words], (
            format_machine(m), length)
        seen.update(key for key in counts)
        # A table was read, yet queries were asked: a continuation gave up.
        seen["fell back"] += bool(counts["table"] and counts["ask"])
    assert min(seen[key] for key in ("slice", "ask", "fell back")) >= 10, seen


@pytest.mark.parametrize("tau, n_max, seed", [
    ("E:2", 3, 9101), ("R1:1 <", 3, 9102), ("P:1 Q:1", 4, 9103),
])
def test_copying_reduction_sweeps_match_the_reference(monkeypatch, tau, n_max,
                                                      seed):
    # Gammas with a cycling least fixpoint make the whole-size try raise at
    # every size where a structure reaches it, so queries go one at a time.
    vocab = parse_vocab(tau)
    rng = random.Random(seed)
    pool = fo_sentences(vocab, 5)
    name, arity = vocab.symbols[0]
    reach = parse_formula(f"Ex {name}({','.join('x' * arity)})")
    cycling = And(reach, parse_formula(CYCLING_LFP))

    def sentence():
        if rng.random() < 0.5:
            return rng.choice(pool)
        return random_formula(rng, vocab, rng.randint(2, 7), allow_so=False,
                              allow_char=False)

    counts = _counting_fast_path(monkeypatch)
    outcomes = []
    for draw in range(150):
        kind = rng.choice((POLYTIME, LOGSPACE))
        if draw % 3:
            m = random_copying_machine(rng, kind, rng.choice((4, 8, 20)))
        else:
            m = identity_machine(kind, rng.randint(1, 3), rng.randint(1, 3))
        gamma = rng.choice((sentence(), sentence(), Or(sentence(), cycling)))
        large = And(_at_least(rng.randint(3, n_max)), sentence())
        target = rng.choice((gamma, Or(gamma, large), sentence()))
        outcomes.append(_assert_reduction_matches(m, gamma, target, vocab, n_max))
    assert None in outcomes and NoLeastFixpoint in outcomes
    assert {w[0] for w in outcomes if isinstance(w, tuple)} == set(range(2, n_max + 1))
    # Both the slices and the queries asked one at a time ran, and so did
    # table reads refused at a query.
    assert min(counts[key] for key in ("slice", "range", "table", "ask")) >= 5, counts
    assert counts["no table"] >= 3, counts


def test_identity_reductions_ask_no_query_alone(monkeypatch, fresh_caches):
    # Over E:2 to n = 4 the identity machine copies 4, 9 and 16 input bits,
    # 66,064 inputs in all.  Each size is one run, whose 2^L queries are
    # one slice of gamma's table, compared with the target's in one step.
    counts = _counting_fast_path(monkeypatch)
    gamma = parse_formula("Ax Ey (E(x,y) | E(y,x))")
    loops = parse_formula("Ex E(x,x)")
    for target in (gamma, Or(gamma, And(_at_least(4), loops))):
        want = semantics.mod_eq_upto(gamma, target, V_E, 4)
        assert is_reduction_upto(identity_machine(), gamma, target, V_E, 4) == want
    assert want.n == 4
    assert counts == {"slice": 6, "table": 6}


def test_queries_at_the_clock_are_not_asked():
    # The identity machine with step exponent 1 asks after L + 1 steps,
    # within its clock of L + 2, and its YES step would be step L + 3: it
    # rejects every input.  With one more step before the copying, it
    # reaches QUE at its clock and asks nothing, so it never compiles a
    # gamma that does not compile (y is free).
    broken, holds = parse_formula("Ex E(x,y)"), parse_formula("Ax x = x")
    stalling = OracleMachine.make(
        ("s", "q0") + RESERVED, "s", POLYTIME, 1, 1,
        {**dict(identity_machine().transitions),
         **{("s", sym, BLANK): ("q0", BLANK, "S", "S", "") for sym in SYMBOLS}})
    for m in (identity_machine(POLYTIME, 1, 1), stalling):
        assert _assert_reduction_matches(m, EDGE, holds, V_E, 3) == (2, 0)
    with pytest.raises(KeyError):
        is_reduction_upto(identity_machine(POLYTIME, 1, 1), broken, holds, V_E, 3)
    assert is_reduction_upto(stalling, broken, holds, V_E, 3) == Structure(V_E, 2, 0)


def test_a_constant_prefix_selects_the_slice(monkeypatch):
    # Writes "1", then copies its input and asks: over P:1 the query of an
    # L-bit input w is "1" w, of size L + 1, and the answers to all of them
    # are the upper half of that size's table.
    m = OracleMachine.make(
        ("c0", "q0") + RESERVED, "c0", POLYTIME, 3, 3,
        {**dict(identity_machine().transitions),
         **{("c0", sym, BLANK): ("q0", BLANK, "S", "S", "1") for sym in SYMBOLS}})
    counts = _counting_fast_path(monkeypatch)
    gamma = parse_formula("Ax P(x)")
    assert _assert_reduction_matches(m, gamma, gamma, V_P, 5) is None
    assert _assert_reduction_matches(m, gamma, parse_formula("Ex P(x)"), V_P, 5) == (2, 1)
    assert _assert_reduction_matches(m, gamma, parse_formula("Ax x = x"), V_P, 5) == (2, 0)
    assert counts["slice"] == 4 + 1 + 1 and counts["ask"] == 0


def test_a_small_slice_builds_no_table_sooner_than_its_queries_would(
        monkeypatch, fresh_caches):
    # Writes ten 1s, then copies its input and asks: over P:1 the 2^L
    # queries of an L-bit input are a 1024th of the size L + 10.  The table
    # read counts them as 2^L width-1 searches, which is fewer than the
    # max(2^(L+10)/64, 1) that the checker asks before its own try.
    chain = tuple(f"c{i}" for i in range(10))
    transitions = dict(identity_machine().transitions)
    for i, state in enumerate(chain):
        transitions.update({(state, sym, BLANK): ((chain + ("q0",))[i + 1], BLANK, "S",
                                                  "S", "1") for sym in SYMBOLS})
    m = OracleMachine.make(chain + ("q0",) + RESERVED, "c0", POLYTIME, 3, 3, transitions)
    built = []
    tabulate = semantics._Search._tabulate

    def record(search, size):
        built.append(size.n)
        tabulate(search, size)
    monkeypatch.setattr(semantics._Search, "_tabulate", record)
    gamma = parse_formula("Ex Ey (P(x) & ~P(y))")
    assert _assert_reduction_matches(m, gamma, parse_formula("Ex ~P(x)"), V_P, 4) is None
    assert built == [2, 3, 4]  # the target's tables, none of gamma's



def test_queries_of_no_size_are_answered_without_reading_a_table():
    # Writes "1", copies its input and asks; after NO it accepts.  Over E:2
    # a query of 1 + L bits is never a square, so every answer is NO, and
    # the walk follows the NO continuation once for all 2^64 inputs.
    m = OracleMachine.make(
        ("c0", "q0") + RESERVED, "c0", POLYTIME, 2, 2,
        {**dict(identity_machine().transitions),
         **{("c0", sym, BLANK): ("q0", BLANK, "S", "S", "1") for sym in SYMBOLS},
         ("NO", BLANK, BLANK): ("ACC", BLANK, "S", "S", "")})
    counts = Counter()
    ask = _counting_oracle(counts)(EDGE, V_E, None)
    assert list(machines._walk(m, 64, "", m.step_limit(64), ask, True)) == [
        (0, 1 << 64, True)]
    assert counts == {"no size": 1}


def test_runs_forked_at_a_query_read_no_table_again(monkeypatch):
    # Copies its input and asks; after YES it reads its input back, each bit
    # deciding the step, and accepts.  At each size the one run reads
    # gamma's table once, its YES continuation forks, and the run forks at
    # the query: every input is asked alone, and no forked run reads again.
    transitions = dict(identity_machine().transitions)
    transitions[("YES", BLANK, BLANK)] = ("b0", BLANK, "L", "S", "")
    transitions.update({("b0", "0", BLANK): ("b1", BLANK, "L", "S", ""),
                        ("b0", "1", BLANK): ("b0", BLANK, "L", "S", ""),
                        ("b0", BLANK, BLANK): ("ACC", BLANK, "S", "S", "")})
    transitions.update({("b1", sym, BLANK): ("b0", BLANK, "L", "S", "") for sym in "01"})
    transitions[("b1", BLANK, BLANK)] = ("ACC", BLANK, "S", "S", "")
    m = OracleMachine.make(("q0", "b0", "b1") + RESERVED, "q0", POLYTIME, 2, 2,
                           transitions)
    counts = _counting_fast_path(monkeypatch)
    gamma = parse_formula("Ax Ey (E(x,y) | E(y,x))")
    assert _assert_reduction_matches(m, gamma, gamma, V_E, 3) is None
    inputs = (1 << 4) + (1 << 9)
    assert counts == {"table": 2, "range": inputs, "ask": inputs}
