"""Deterministic oracle Turing machines with explicit resource clocks.

A machine reads its input from a two-way read-only tape, works on a two-way
read-write storage tape, and appends bits to a write-only oracle tape.  On
entering QUE the oracle tape is decoded as a structure encoding; the next
state is YES exactly when that structure satisfies the oracle sentence, the
tape is erased, and nothing else happens.  Exceeding any resource bound is a
rejection, never an error, so every decoded description is a total decider.
A run that repeats a configuration is rejected when the repeat is seen: from
there on it would only go round the same cycle until its clock ran out.

A reduction-agreement sweep runs the machine on all 2^L encodings of one
size in a single walk.  The inputs share one run until its input head reads
a position whose bit decides the next step, and the run forks there, so a
machine that never reads its input runs once per size.  A single run is
the same walk with every input bit known, which never forks.  The target's
verdicts and the oracle's answers come from the two sentences' checkers
(semantics.sentence_checker), whose one range search gives exactly the
verdicts, exceptions and leaves of checking each structure in turn.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

from .aristotelian import BitReader, MalformedCode, encode_nat, encode_str
from .core import (
    Structure, Vocabulary, NoIntegerUniverse, _universe_size_for, encoding_length,
)
from .logic import Formula
from .semantics import EvalConfig, sentence_checker

BLANK = "_"
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R", "S")
APPENDS = ("", "0", "1")
RESERVED = ("ACC", "QUE", "YES", "NO")
POLYTIME = "polytime"
LOGSPACE = "logspace"
# No run reaches 2^63 steps, so a larger clock cannot change a verdict.
STEP_CAP_LOG2 = 63

_STATE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

TransKey = tuple[str, str, str]
TransVal = tuple[str, str, str, str, str]
_SHIFT = {"L": -1, "R": 1, "S": 0}


class MachineError(ValueError):
    pass


class MalformedMachine(ValueError):
    pass


@dataclass(frozen=True)
class OracleMachine:
    states: tuple[str, ...]
    start: str
    kind: str
    clock_c: int
    step_c: int
    transitions: tuple[tuple[TransKey, TransVal], ...]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise MachineError("duplicate state names")
        for state in self.states:
            if not _STATE_RE.match(state):
                raise MachineError(f"bad state name {state!r}")
        missing = [s for s in RESERVED if s not in self.states]
        if missing:
            raise MachineError(f"reserved states missing: {missing}")
        if self.start not in self.states:
            raise MachineError(f"start state {self.start!r} not declared")
        if self.kind not in (POLYTIME, LOGSPACE):
            raise MachineError(f"kind must be polytime or logspace, got {self.kind!r}")
        if self.clock_c < 1 or self.step_c < 1:
            raise MachineError("resource exponents must be >= 1")
        keys = [key for key, _ in self.transitions]
        if keys != sorted(keys):
            raise MachineError("transitions must be sorted by key")
        if len(set(keys)) != len(keys):
            raise MachineError("transition table must be deterministic")
        for (state, in_sym, sto_sym), (nxt, write, in_mv, sto_mv, app) in self.transitions:
            if state in ("ACC", "QUE"):
                raise MachineError(f"{state} admits no outgoing transitions")
            if state not in self.states or nxt not in self.states:
                raise MachineError(f"transition references unknown state")
            if in_sym not in SYMBOLS or sto_sym not in SYMBOLS or write not in SYMBOLS:
                raise MachineError(f"bad tape symbol in transition from {state}")
            if in_mv not in MOVES or sto_mv not in MOVES:
                raise MachineError(f"bad head move in transition from {state}")
            if app not in APPENDS:
                raise MachineError(f"bad oracle append in transition from {state}")

    @classmethod
    def make(cls, states, start, kind, clock_c, step_c, transitions) -> "OracleMachine":
        table = tuple(sorted((tuple(k), tuple(v)) for k, v in dict(transitions).items()))
        return cls(tuple(states), start, kind, clock_c, step_c, table)

    @cached_property
    def step_table(self) -> dict[TransKey, tuple[str, str, int, int, str]]:
        """The transitions with head moves as -1/0/+1."""
        return {key: (nxt, write, _SHIFT[in_mv], _SHIFT[sto_mv], app)
                for key, (nxt, write, in_mv, sto_mv, app) in self.transitions}

    def step_limit(self, input_len: int) -> int:
        """(input_len+2)^step_c, or the smaller clock power for polytime,
        capped at 2^STEP_CAP_LOG2 so that huge decoded exponents stay cheap."""
        exponent = self.step_c
        if self.kind == POLYTIME:
            exponent = min(exponent, self.clock_c)
        base = input_len + 2
        # base >= 2^(bit_length-1), so the power is at least 2^(this product)
        if exponent * (base.bit_length() - 1) >= STEP_CAP_LOG2:
            return 1 << STEP_CAP_LOG2
        return min(base ** exponent, 1 << STEP_CAP_LOG2)

    def space_limit(self, input_len: int) -> int | None:
        if self.kind == LOGSPACE:
            return math.floor(self.clock_c * math.log2(input_len + 2))
        return None


_SYM_CODE = {sym: format(i, "02b") for i, sym in enumerate(SYMBOLS)}
_MOVE_CODE = {mv: format(i, "02b") for i, mv in enumerate(MOVES)}
_APP_CODE = {app: format(i, "02b") for i, app in enumerate(APPENDS)}


def encode_tm(m: OracleMachine) -> str:
    index = {state: i for i, state in enumerate(m.states)}
    out = [encode_nat(len(m.states))]
    out.extend(encode_str(s) for s in m.states)
    out.append(encode_nat(index[m.start]))
    out.append("0" if m.kind == POLYTIME else "1")
    out.append(encode_nat(m.clock_c))
    out.append(encode_nat(m.step_c))
    out.append(encode_nat(len(m.transitions)))
    for (state, in_sym, sto_sym), (nxt, write, in_mv, sto_mv, app) in m.transitions:
        out.append(encode_nat(index[state]))
        out.append(_SYM_CODE[in_sym])
        out.append(_SYM_CODE[sto_sym])
        out.append(encode_nat(index[nxt]))
        out.append(_SYM_CODE[write])
        out.append(_MOVE_CODE[in_mv])
        out.append(_MOVE_CODE[sto_mv])
        out.append(_APP_CODE[app])
    return "".join(out)


def decode_tm(bits: str) -> OracleMachine:
    if not bits or bits.strip("01"):
        raise MalformedMachine("machine code must be a nonempty bit string")
    r = BitReader(bits)

    def field(table):
        code = r.take(2)
        for value, encoded in table.items():
            if encoded == code:
                return value
        raise MalformedCode(f"invalid field code {code}")

    try:
        n_states = r.nat()
        states = tuple(r.string() for _ in range(n_states))
        start_idx = r.nat()
        kind = POLYTIME if r.take(1) == "0" else LOGSPACE
        clock_c = r.nat()
        step_c = r.nat()
        n_trans = r.nat()
        transitions = []
        for _ in range(n_trans):
            state_idx = r.nat()
            in_sym = field(_SYM_CODE)
            sto_sym = field(_SYM_CODE)
            next_idx = r.nat()
            write = field(_SYM_CODE)
            in_mv = field(_MOVE_CODE)
            sto_mv = field(_MOVE_CODE)
            app = field(_APP_CODE)
            if state_idx >= n_states or next_idx >= n_states:
                raise MalformedCode("transition state index out of range")
            transitions.append(
                ((states[state_idx], in_sym, sto_sym),
                 (states[next_idx], write, in_mv, sto_mv, app))
            )
    except MalformedCode as exc:
        raise MalformedMachine(str(exc)) from exc
    if r.pos != len(bits):
        raise MalformedMachine(f"{len(bits) - r.pos} trailing bits after the machine")
    if start_idx >= n_states:
        raise MalformedMachine("start state index out of range")
    try:
        return OracleMachine(states, states[start_idx], kind, clock_c, step_c,
                             tuple(transitions))
    except MachineError as exc:
        raise MalformedMachine(str(exc)) from exc


def run(m: OracleMachine, input_bits: str, oracle_sentence: Formula,
        oracle_vocab: Vocabulary, max_steps: int | None = None,
        config: EvalConfig | None = None) -> bool:
    """Simulate on the given input; True means the machine halted in ACC.

    Resource bounds come from the machine's own clocks; max_steps can only
    tighten them.  Oracle strings that encode no structure answer NO.
    """
    if input_bits.strip("01"):
        raise MachineError("machine input must be a bit string")
    limit = m.step_limit(len(input_bits))
    if max_steps is not None:
        limit = min(limit, max_steps)
    ask = _oracle_answers(oracle_sentence, oracle_vocab, config)
    return next(_walk(m, len(input_bits), input_bits, limit, ask))[2]


def _oracle_answers(sentence: Formula, vocab: Vocabulary,
                    config: EvalConfig | None) -> Callable[[str], bool]:
    """Answers to oracle queries: a query that decodes is a width-1 range
    search of the sentence's checker, which gives exactly the verdicts,
    exceptions and leaf computations of checking each query alone, and
    reads the size's table once it has one.  The sentence is compiled at the
    first query that decodes, so a machine that never asks never compiles it.
    """
    checker = None
    sizes: dict[int, int | None] = {}  # query length -> size, None for none

    def ask(query: str) -> bool:
        nonlocal checker
        length = len(query)
        if length not in sizes:
            try:
                sizes[length] = _universe_size_for(vocab, length)
            except NoIntegerUniverse:
                sizes[length] = None
        n = sizes[length]
        if n is None:
            return False
        if checker is None:
            checker = sentence_checker(sentence, config)
        index = int(query, 2)
        return checker.first_miss(vocab, n, index, index + 1, True) is None
    return ask


def _walk(m: OracleMachine, length: int, word: str, limit: int,
          ask: Callable[[str], bool]) -> Iterator[tuple[int, int, bool]]:
    """The runs on every `length`-bit input that starts with `word`, each at
    most `limit` steps and with queries to `ask`, as (lo, hi, accepted):
    every input whose index, read as a binary numeral, lies in [lo, hi) is
    accepted exactly when `accepted` is true.  The ranges come in index
    order and cover every such input, so a whole input of `length` bits is
    one range, whose lo is its index.

    Inputs run alike until the input head first reads a position whose bit
    decides the step.  Only then does the walk fork: it fixes every bit not
    yet fixed up to the head, follows the inputs with 0s there, and keeps a
    copy of the configuration for each run with a 1 at one of them (after
    0s), to follow later.  So the bits fixed are always a prefix, and a run
    that has fixed its first k bits p covers [p << (length-k),
    (p+1) << (length-k)).  Every step taken is the step of the lowest input
    the run covers, so queries, exceptions and their order are those of
    running each input in turn, less the repeats of shared queries.

    The configuration (state, heads, storage, oracle tape) determines the
    rest of a run, so a repeated one is a cycle that never reaches ACC.
    Brent's method finds it: the configuration after steps 1, 2, 4, 8, ...
    is kept until the next power of two, and every step is compared with
    it, cheap fields first.  Each query and each check of the space bound
    on the cycle happened once before the repeat is seen, so the verdict
    and any exception are those of the run to its clock.  The kept
    configurations are never changed, so forked runs share them.
    """
    table = m.step_table
    space_cap = m.space_limit(length)
    # Forked runs not yet followed, the next in index order last.
    pending = [(word, m.start, 0, 0, {}, "",
                {0} if space_cap is not None else None,
                0, 1, None, None, None, None, None)]
    while pending:
        (word, state, in_head, sto_head, storage, oracle, visited, steps,
         seen_at, seen_state, seen_in, seen_sto, seen_storage,
         seen_oracle) = pending.pop()
        known = len(word)
        while True:
            if 0 <= in_head < known:
                in_sym = word[in_head]
            elif in_head < 0 or in_head >= length:
                in_sym = BLANK
            else:
                in_sym = "0"
                sto_sym = storage.get(sto_head, BLANK)
                if table.get((state, "0", sto_sym)) != table.get((state, "1", sto_sym)):
                    # This run reads 0s up to the head; a 1 at one of those
                    # positions is a later range, the nearest pushed last.
                    for pos in range(known, in_head + 1):
                        pending.append((
                            word + "0" * (pos - known) + "1", state, in_head,
                            sto_head, dict(storage), oracle,
                            None if visited is None else set(visited), steps,
                            seen_at, seen_state, seen_in, seen_sto,
                            seen_storage, seen_oracle))
                    word += "0" * (in_head + 1 - known)
                    known = in_head + 1
            action = table.get((state, in_sym, storage.get(sto_head, BLANK)))
            if action is None:
                # No transition leaves ACC or QUE, so both come here too.
                if state == "ACC":
                    accepted = True
                    break
                if state != "QUE" or steps >= limit:
                    accepted = False
                    break
                state = "YES" if ask(oracle) else "NO"
                oracle = ""
            else:
                if steps >= limit:
                    accepted = False
                    break
                state, write, in_dx, sto_dx, app = action
                storage[sto_head] = write
                in_head += in_dx
                sto_head += sto_dx
                if visited is not None:
                    visited.add(sto_head)
                    if len(visited) > space_cap:
                        accepted = False
                        break
                oracle += app
            steps += 1
            if (in_head == seen_in and sto_head == seen_sto and state == seen_state
                    and storage == seen_storage and oracle == seen_oracle):
                accepted = False
                break
            if steps == seen_at:
                seen_state, seen_in, seen_sto = state, in_head, sto_head
                seen_storage, seen_oracle = dict(storage), oracle
                seen_at <<= 1
        lo = int(word, 2) << (length - known) if word else 0
        yield lo, lo + (1 << (length - known)), accepted


def is_reduction_upto(m: OracleMachine, gamma: Formula, target: Formula,
                      vocab: Vocabulary, n_max: int,
                      config: EvalConfig | None = None) -> Structure | None:
    """First structure where accepting the encoding differs from satisfying
    the target sentence, or None when the reduction condition holds up to n_max.

    Structures are visited by size, then index.  At each size one walk runs
    the machine on all encodings at once (see _walk) and gives a verdict
    for each range of encodings that share the bits their run read.  The
    target's checker finds the first disagreement in each range, and the
    oracle's checker answers the queries (see _oracle_answers); both are
    the one range search of semantics._Search.  So the result, any
    exception, the first asking of each query and the order of the distinct
    leaves computed are those of running the machine and checking the
    target on every structure in turn.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    first_miss = sentence_checker(target, config).first_miss
    ask = _oracle_answers(gamma, vocab, config)
    for n in range(2, n_max + 1):
        length = encoding_length(vocab, n)
        for lo, hi, accepted in _walk(m, length, "", m.step_limit(length), ask):
            miss = first_miss(vocab, n, lo, hi, accepted)
            if miss is not None:
                return Structure(vocab, n, miss)
    return None


def identity_machine(kind: str = POLYTIME, clock_c: int = 2,
                     step_c: int = 2) -> OracleMachine:
    """Copy the input to the oracle tape, query, accept exactly on YES."""
    transitions = {
        ("q0", "0", BLANK): ("q0", BLANK, "R", "S", "0"),
        ("q0", "1", BLANK): ("q0", BLANK, "R", "S", "1"),
        ("q0", BLANK, BLANK): ("QUE", BLANK, "S", "S", ""),
        ("YES", BLANK, BLANK): ("ACC", BLANK, "S", "S", ""),
    }
    return OracleMachine.make(
        ("q0",) + RESERVED, "q0", kind, clock_c, step_c, transitions
    )


# --- text format ---------------------------------------------------------


def format_machine(m: OracleMachine) -> str:
    lines = [
        f"kind {m.kind}",
        f"clock {m.clock_c}",
        f"step {m.step_c}",
        f"start {m.start}",
        "states " + " ".join(m.states),
    ]
    for (state, in_sym, sto_sym), (nxt, write, in_mv, sto_mv, app) in m.transitions:
        lines.append(
            f"{state} {in_sym} {sto_sym} -> {nxt} {write} {in_mv} {sto_mv} {app or '-'}"
        )
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> OracleMachine:
    kind = clock_c = step_c = start = None
    states: tuple[str, ...] = ()
    transitions = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("kind", "clock", "step", "start") and len(parts) != 2:
            raise MachineError(f"{parts[0]} takes one value")
        if parts[0] == "kind":
            kind = parts[1]
        elif parts[0] == "clock":
            clock_c = int(parts[1])
        elif parts[0] == "step":
            step_c = int(parts[1])
        elif parts[0] == "start":
            start = parts[1]
        elif parts[0] == "states":
            states = tuple(parts[1:])
        else:
            if len(parts) != 9 or parts[3] != "->":
                raise MachineError(f"bad transition line {raw!r}")
            key = tuple(parts[:3])
            if key in transitions:
                raise MachineError(f"two transitions for {' '.join(key)}:"
                                   " the table must be deterministic")
            nxt, write, in_mv, sto_mv, app = parts[4:9]
            transitions[key] = (
                nxt, write, in_mv, sto_mv, "" if app == "-" else app
            )
    if None in (kind, clock_c, step_c, start) or not states:
        raise MachineError("machine text needs kind, clock, step, start, states")
    return OracleMachine.make(states, start, kind, clock_c, step_c, transitions)
