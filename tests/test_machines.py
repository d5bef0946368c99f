import random
import time
from dataclasses import replace
from itertools import product

import pytest

from fmwb.core import Structure, Vocabulary, encode_bin, enumerate_structures
from fmwb.logic import parse_formula
from fmwb.machines import (
    APPENDS, BLANK, LOGSPACE, MOVES, POLYTIME, RESERVED, SYMBOLS, MachineError,
    MalformedMachine, OracleMachine, always_accept_machine,
    always_reject_machine, decode_tm, encode_tm, format_machine,
    identity_machine, is_reduction_upto, parse_machine, run,
)
from fmwb.semantics import models
from oracles import naive_run
from randgen import random_machine

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
