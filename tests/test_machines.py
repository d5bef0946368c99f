import random
import time

import pytest

from fmwb.core import Structure, Vocabulary, encode_bin, enumerate_structures
from fmwb.logic import parse_formula
from fmwb.machines import (
    LOGSPACE, MachineError, MalformedMachine, OracleMachine, RESERVED,
    always_accept_machine, always_reject_machine, decode_tm, encode_tm,
    format_machine, identity_machine, is_reduction_upto, parse_machine, run,
)
from fmwb.semantics import models
from randgen import random_machine

V_E = Vocabulary((("E", 2),))
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
