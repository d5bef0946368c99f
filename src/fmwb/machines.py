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
machine that never reads its input runs once per size.  A copy step, which
appends the bit it reads to the oracle tape and is otherwise the same on 0
and 1, does not fork: the tape holds a reference to the input position
until a fork or a query fixes the bit.  A single run is the same walk with
every input bit known, which never forks.  The walk reads the machine's
transitions from one integer-coded list (OracleMachine.coded_steps) and
keeps the input bits it has fixed as one integer.  The target's verdicts
and the oracle's answers come from the two sentences' checkers
(semantics.sentence_checker).  A checker is its sentence's cached range
search, which gives exactly the verdicts, exceptions and leaves of checking
each structure in turn.  Before walking a size, a sweep has the target's
checker try to build the size's table, and its range searches then read
the table where it is built; the oracle's answers come from its checker's
table once that exists.  Where the target has the size's table, a run
that queries a constant followed by its whole free input, as the identity
machine does, is answered for all its inputs at once from one slice of the
oracle's table, when the runs after YES and NO are each one run on all of
them; its verdicts are then one byte per input, compared with the target's
table in one step (see _walk).
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
_SYM_INDEX = {sym: i for i, sym in enumerate(SYMBOLS)}
# A reference to input position p on an oracle tape is chr(_REF + p): never
# ASCII, so str.isascii() tells a tape without one, and Latin-1, so a tape
# stays one byte per character.  So only walks of at most _REFS input bits
# copy without forking.
_REF = 0x80
_REFS = 0x100 - _REF
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


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
    def state_codes(self) -> dict[str, int]:
        """Each state's code in coded_steps: 9i for the i-th state."""
        return {state: 9 * i for i, state in enumerate(self.states)}

    @cached_property
    def coded_steps(self) -> list[tuple[int, int, int, int, str, bool, bool]]:
        """The transitions as one list, with state i as 9i and the symbols
        0, 1, _ as 0, 1, 2.  The step from state 9i on input symbol a and
        storage symbol b is at 9i + 3a + b, as (next state, symbol written,
        input move, storage move, oracle append, whether the input bit
        decides the step from 9i on b, whether it is a copy step); a missing
        transition has next state -1.  A copy step is one whose steps on
        input 0 and 1 differ only in appending "0" and "1".  Both flags are
        the same at 9i + b and 9i + 3 + b."""
        index = self.state_codes
        coded = [(-1, 0, 0, 0, "", False, False)] * (9 * len(index))
        for (state, in_sym, sto_sym), (nxt, write, in_mv, sto_mv, app) in self.transitions:
            coded[index[state] + 3 * _SYM_INDEX[in_sym] + _SYM_INDEX[sto_sym]] = (
                index[nxt], _SYM_INDEX[write], _SHIFT[in_mv], _SHIFT[sto_mv], app,
                False, False)
        for (state, in_sym, sto_sym), _ in self.transitions:
            at = index[state] + _SYM_INDEX[sto_sym]
            zero, one = coded[at], coded[at + 3]
            if in_sym != BLANK and zero != one:
                copies = zero[:4] == one[:4] and (zero[4], one[4]) == ("0", "1")
                coded[at] = zero[:5] + (True, copies)
                coded[at + 3] = one[:5] + (True, copies)
        return coded

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
_SYM_OF, _MOVE_OF, _APP_OF = ({code: value for value, code in codes.items()}
                              for codes in (_SYM_CODE, _MOVE_CODE, _APP_CODE))


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

    def field(values):
        code = r.take(2)
        value = values.get(code)
        if value is None:
            raise MalformedCode(f"invalid field code {code}")
        return value

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
            in_sym = field(_SYM_OF)
            sto_sym = field(_SYM_OF)
            next_idx = r.nat()
            write = field(_SYM_OF)
            in_mv = field(_MOVE_OF)
            sto_mv = field(_MOVE_OF)
            app = field(_APP_OF)
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
    exceptions and leaf computations of checking each query alone.  Once
    the checker holds the size's table, the query's byte in it is the
    answer (see semantics._Search.holds).  The sentence is compiled at the
    first query that decodes, so a machine that never asks never compiles
    it.

    For the walk's answers to many queries at once, the function carries
    two more, over the same sizes and checker: size(length) is the size of
    the structures a query of `length` bits encodes, or None, and
    slice(n, base, count) is the answers to the `count` queries of size n
    from index `base` on, one byte each, or None when the checker has no
    table at n after its whole-size try (semantics._Search.try_table).  The
    try counts the queries as that many width-1 searches, so the checker
    builds a table no sooner than asking them one at a time would.
    """
    checker = None
    sizes: dict[int, int | None] = {}  # query length -> size, None for none

    def size(length: int) -> int | None:
        if length not in sizes:
            try:
                sizes[length] = _universe_size_for(vocab, length)
            except NoIntegerUniverse:
                sizes[length] = None
        return sizes[length]

    def ask(query: str) -> bool:
        nonlocal checker
        length = len(query)
        n = sizes[length] if length in sizes else size(length)
        if n is None:
            return False
        if checker is None:
            checker = sentence_checker(sentence, config)
        return checker.holds(vocab, n, int(query, 2))

    def slice(n: int, base: int, count: int) -> bytes | None:
        nonlocal checker
        if checker is None:
            checker = sentence_checker(sentence, config)
        flags = checker.try_table(vocab, n, count)
        return None if flags is None else flags[base:base + count]

    ask.size, ask.slice = size, slice
    return ask


def _walk(m: OracleMachine, length: int, word: str, limit: int,
          ask: Callable[[str], bool], slices: bool = False,
          ) -> Iterator[tuple[int, int, bool | bytes]]:
    """The runs on every `length`-bit input that starts with `word`, each at
    most `limit` steps and with queries to `ask`, as (lo, hi, accepted):
    every input whose index, read as a binary numeral, lies in [lo, hi) is
    accepted exactly when `accepted` is true.  With `slices`, `accepted`
    may instead be one byte per input of the range, 1 for accepted.  The
    ranges come in index order and cover every such input, so a whole input
    of `length` bits is one range, whose lo is its index.

    Inputs run alike until the input head first reads a position whose bit
    decides the step.  Only then does the walk fork: it fixes every bit not
    yet fixed up to the head, follows the inputs with 0s there, and keeps a
    copy of the configuration for each run with a 1 at one of them (after
    0s), to follow later.  So the bits fixed are always a prefix, kept as a
    numeral p and its bit count k, and a run covers [p << (length-k),
    (p+1) << (length-k)).  Every step taken is the step of the lowest input
    the run covers, so queries, exceptions and their order are those of
    running each input in turn, less the repeats of shared queries.  States
    and symbols are read in the codes of OracleMachine.coded_steps.

    A copy step on a bit not yet fixed does not fork, in a walk of at most
    _REFS bits: the run takes it and appends a reference to that input
    position, chr(_REF + position), to the oracle tape.  A fork that fixes
    a referenced position resolves the reference, in each forked run's tape
    and Brent snapshot, so a tape only ever refers to bits not yet fixed.
    A run that reaches QUE within its clock with references on its tape
    fixes the bits up to the last one referenced there, as a fork does, and
    then asks.  That gives the ranges, steps and queries of forking at each
    copy, but for runs that halt before asking: their inputs share the
    run's verdict whatever the bits they copied.

    With `slices`, `ask` is an oracle's (see _oracle_answers), and a run
    that reaches such a query by a step first tries to answer all its
    inputs at once (_from_table).  The answers must be known without
    asking: either the tape's length decodes to no size, so that every
    answer is NO, or the tape is a constant c and then references to all
    the run's free positions, in order, so that the queries are the 2^free
    numerals from int(c) << free on, and the oracle gives their answers as
    one slice of its table.  Then each continuation needed (after YES if
    some answer is yes, after NO if some is no) is followed from QUE as a
    walk of its own, whose only answer is that one, and must end as one
    run, neither forking nor asking again.  Its steps then depend on no
    free bit, so it is the run of each input it covers, and its verdict is
    each one's: where it misses a repeat of a snapshot taken before the
    query (see below), it goes round to the query again, and is dropped,
    or its clock ends it.  The answers, mapped through the two verdicts,
    are the range's verdicts.  Otherwise the continuations are dropped,
    having asked nothing, and the run forks and asks as above.  The runs
    that fork pushes wait at the query and do not try again.

    The configuration (state, heads, storage, oracle tape) determines the
    rest of a run, so a repeated one is a cycle that never reaches ACC.
    Brent's method finds it: the configuration after steps 1, 2, 4, 8, ...
    is kept until the next power of two, and every step is compared with
    it, cheap fields first.  Each query and each check of the space bound
    on the cycle happened once before the repeat is seen, so the verdict
    and any exception are those of the run to its clock.  The kept
    configurations are never changed, so forked runs share them: a forked
    run keeps its snapshot as one tuple, (the step of the next snapshot,
    state, input head, storage head, storage, oracle tape).  A tape with a
    reference and a snapshot taken before the last query can differ as
    strings where they are equal on some inputs; such a repeat is seen
    later or the clock ends the run, which rejects it all the same and asks
    only queries the run has asked.
    """
    start = (int(word, 2) if word else 0, len(word), m.state_codes[m.start], 0, 0, {}, "",
             {0} if m.space_limit(length) is not None else None, 0,
             (1, None, None, None, None, ""))
    return _runs(m, length, limit, ask, slices, [start])


def _runs(m: OracleMachine, length: int, limit: int, ask: Callable[[str], bool],
          slices: bool, pending: list) -> Iterator[tuple[int, int, bool | bytes]]:
    """The walk (see _walk) from the runs in `pending`, the next in index
    order last, each as (prefix, bit count, state, input head, storage
    head, storage, oracle tape, visited storage cells or None, steps,
    snapshot)."""
    coded, codes = m.coded_steps, m.state_codes
    acc, que, yes, no = codes["ACC"], codes["QUE"], codes["YES"], codes["NO"]
    space_cap = m.space_limit(length)
    refs = "".join(map(chr, range(_REF, _REF + length))) if length <= _REFS else ""
    while pending:
        (prefix, known, state, in_head, sto_head, storage, oracle, visited, steps,
         seen) = pending.pop()
        seen_at, seen_state, seen_in, seen_sto, seen_storage, seen_oracle = seen
        # A run pushed at a query has made its table try there.
        tried = steps
        while True:
            sto_sym = storage.get(sto_head, 2)
            if 0 <= in_head < known:
                step = coded[state + 3 * (prefix >> (known - 1 - in_head) & 1) + sto_sym]
            elif in_head < 0 or in_head >= length:
                step = coded[state + 6 + sto_sym]
            else:
                # An unfixed bit: the step on 0, which is also the step on 1
                # unless the bit decides it.
                step = coded[state + sto_sym]
                if step[5]:
                    if step[6] and refs:
                        step = step[:4] + (refs[in_head], True, True)
                    elif oracle.isascii():
                        # This run reads 0s up to the head; a 1 at one of
                        # those positions is a later range, the nearest
                        # pushed last.
                        for pos in range(known, in_head + 1):
                            pending.append((
                                (prefix << (pos + 1 - known)) | 1, pos + 1, state,
                                in_head, sto_head, dict(storage), oracle,
                                None if visited is None else set(visited), steps, seen))
                        prefix <<= in_head + 1 - known
                        known = in_head + 1
                    else:
                        prefix, known, oracle, seen = _fork(
                            pending, (prefix, known, state, in_head, sto_head, storage,
                                      oracle, visited, steps, seen), in_head)
                        seen_oracle = seen[5]
            if step[0] < 0:
                # No transition leaves ACC or QUE, so both come here too.
                if state == acc:
                    accepted = True
                    break
                if state != que or steps >= limit:
                    accepted = False
                    break
                if not oracle.isascii():
                    run = (prefix, known, state, in_head, sto_head, storage, oracle,
                           visited, steps, seen)
                    accepted = (_from_table(m, length, limit, ask, run)
                                if slices and steps != tried else None)
                    if accepted is not None:
                        break
                    prefix, known, oracle, seen = _fork(pending, run,
                                                        ord(max(oracle)) - _REF)
                    seen_oracle = seen[5]
                state = yes if ask(oracle) else no
                oracle = ""
            else:
                if steps >= limit:
                    accepted = False
                    break
                state, write, in_dx, sto_dx, app, _, _ = step
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
                seen_at <<= 1
                seen_state, seen_in, seen_sto = state, in_head, sto_head
                seen_storage, seen_oracle = dict(storage), oracle
                seen = (seen_at, seen_state, seen_in, seen_sto, seen_storage,
                        seen_oracle)
        lo = prefix << (length - known)
        yield lo, lo + (1 << (length - known)), accepted


def _fork(pending: list, run: tuple, upto: int) -> tuple[int, int, str, tuple]:
    """Fix the free bits up to `upto` of a run whose oracle tape has
    references: push the runs with a 1 at one of them (after 0s), the
    nearest last, and return the prefix, bit count, oracle tape and
    snapshot of the run with 0s there.  Each run's tape and snapshot have
    the references to the bits fixed replaced by those bits.  A snapshot
    with references was taken since the last query, so its tape is a
    prefix of the run's."""
    prefix, known, state, in_head, sto_head, storage, oracle, visited, steps, seen = run
    cut = None if seen[5].isascii() else len(seen[5])
    for pos in range(known, upto + 1):
        ref = chr(_REF + pos)
        tape = oracle.replace(ref, "1")
        pending.append(((prefix << (pos + 1 - known)) | 1, pos + 1, state, in_head,
                        sto_head, dict(storage), tape,
                        None if visited is None else set(visited), steps,
                        seen if cut is None else seen[:5] + (tape[:cut],)))
        oracle = oracle.replace(ref, "0")
    return (prefix << (upto + 1 - known), upto + 1, oracle,
            seen if cut is None else seen[:5] + (oracle[:cut],))


class _Refused(Exception):
    """A continuation followed on all its inputs at once would fork or ask."""


class _OneRun(list):
    """The pending runs of a continuation followed on all its inputs at
    once, which refuses the first fork."""

    def append(self, run):
        raise _Refused


def _from_table(m: OracleMachine, length: int, limit: int, ask: Callable[[str], bool],
                run: tuple) -> bool | bytes | None:
    """The verdicts of a run at QUE whose tape has references, on all its
    inputs at once, without asking, or None (see _walk)."""
    prefix, known, state, in_head, sto_head, storage, tape, visited, steps, seen = run
    free = length - known
    n = ask.size(len(tape))
    if n is None:
        table, answers = None, (0,)  # every answer is NO
    else:
        head = tape[:len(tape) - free]
        if not (head.isascii()
                and tape.endswith("".join(map(chr, range(_REF + known, _REF + length))))):
            return None
        table = ask.slice(n, int(head, 2) << free if head else 0, 1 << free)
        if table is None:
            return None
        answers = [byte for byte in (1, 0) if byte in table]
    verdicts = {}
    for byte in answers:
        given = [byte == 1]

        def once(query: str) -> bool:
            if not given:
                raise _Refused
            return given.pop()
        cont = (prefix, known, state, in_head, sto_head, dict(storage), "",
                None if visited is None else set(visited), steps, seen)
        try:
            verdicts[byte] = next(_runs(m, length, limit, once, False, _OneRun([cont])))[2]
        except _Refused:
            return None
    if len(verdicts) == 1 or verdicts[0] == verdicts[1]:
        return verdicts.popitem()[1]
    return table if verdicts[1] else table.translate(_FLIP)


def is_reduction_upto(m: OracleMachine, gamma: Formula, target: Formula,
                      vocab: Vocabulary, n_max: int,
                      config: EvalConfig | None = None) -> Structure | None:
    """First structure where accepting the encoding differs from satisfying
    the target sentence, or None when the reduction condition holds up to n_max.

    Structures are visited by size, then index.  At each size one walk runs
    the machine on all encodings at once (see _walk) and gives a verdict
    for each range of encodings that share the bits their run read.  Before
    the walk, the target's checker makes its whole-size try at the size
    (see semantics._Search.try_table), so that, where the try runs through,
    each range is one byte search of the size's table.  Only then may the
    walk answer a copying run's queries from the oracle's table, and give
    one verdict per encoding of its range, which is compared with the
    target's table in one step.  The target's checker finds the first
    disagreement in each range, and the oracle's checker answers the
    queries (see _oracle_answers); each checker is its sentence's
    semantics._Search.  So the result, any exception, the first asking of
    each query and the order of the distinct leaves computed are those of
    running the machine and checking the target on every structure in turn.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    check = sentence_checker(target, config)
    ask = _oracle_answers(gamma, vocab, config)
    for n in range(2, n_max + 1):
        length = encoding_length(vocab, n)
        flags = check.try_table(vocab, n)
        walk = _walk(m, length, "", m.step_limit(length), ask, flags is not None)
        for lo, hi, accepted in walk:
            if type(accepted) is bool:
                miss = check.first_miss(vocab, n, lo, hi, accepted)
            else:
                diff = (int.from_bytes(flags[lo:hi], "little")
                        ^ int.from_bytes(accepted, "little"))
                miss = lo + ((diff & -diff).bit_length() - 1 >> 3) if diff else None
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
