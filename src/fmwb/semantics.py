"""Brute-force Tarskian model checking for the full sentence language.

Everything is evaluated exhaustively: first-order quantifiers loop over the
universe, second-order quantifiers loop over all 2^(n^a) relations, and the
fixpoint operators iterate stage by stage.

A sentence is compiled, by one pass of structural recursion, into a
program over batches of structures of one size: its values are truth
tables, one bit per structure of the batch: a chunk of up to 2^CHUNK_BITS
structures, or the lone structure that models() checks, which is the
batch with no low bits.  sweep() and the reduction sweeps and oracle
queries in machines all go through one range search, _Search, which
answers as models() on each index would.  A sentence's checker
(sentence_checker) is its _Search, cached per sentence and configuration;
models() borrows only that search's compiled program.

Characteristic leaves delegate to the decision procedures in charsets under
a recursion budget, since decoded payloads are untrusted and may nest
further leaves.  A program only reads leaf verdicts: _first_hit computes a
leaf once the program that reached it has unwound, so nested leaves do not
stack.  Callers are expected to hand in sentences that are well-formed over
the structure's vocabulary (see logic.validate_sentence); the evaluator
itself does not re-validate on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import Structure, Vocabulary, bit_positions, encoding_length
from .logic import (
    And, Bit, CHAR_NODES, Eq, Exists, Forall, Formula, Lfp, Lt, Neq, Not,
    Or, Pfp, Psi, Rel, SOExists, SOForall, Tc, children,
)


class PositivityViolation(ValueError):
    pass


class NoLeastFixpoint(ValueError):
    """The stages of a least fixpoint cycle, which a body that is positive
    but not monotone (through a nested partial fixpoint) can make them do."""


class RecursionBudgetExhausted(RuntimeError):
    pass


class MissingDistinguished(ValueError):
    """A characteristic leaf needs a distinguished sentence that is not configured."""


@dataclass(frozen=True)
class EvalConfig:
    """Ambient configuration for characteristic-leaf evaluation.

    upsilon_ord is the distinguished sentence over {R:1, <} used by ordered
    leaves; upsilon_unord the one over {R:2} used by unordered leaves.
    """

    upsilon_ord: Formula | None = None
    upsilon_unord: Formula | None = None
    char_budget: int = 8

    def __hash__(self) -> int:
        # Stored at first use, as core.Vocabulary stores its hash, and left
        # behind by __reduce__.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(
                (self.upsilon_ord, self.upsilon_unord, self.char_budget))
            return h

    def __reduce__(self):
        return type(self), (self.upsilon_ord, self.upsilon_unord, self.char_budget)


_EMPTY_CONFIG = EvalConfig()


# --- batches ------------------------------------------------------------
#
# A batch is every structure of one size whose index shares the bits above
# the lowest `low`; a truth table is a Python int with one bit per structure
# of the batch, bit i for structure (chunk << low) | i.  First-order
# variables take the same value in every structure at once, so equality,
# order and BIT are constant tables, and each connective is one big-int
# operation.  A lone structure is the batch with low = 0: the structure
# `chunk`, whose tables are 0 or 1.
#
# Every node is evaluated under a care mask: the structures that reach the
# node when each is evaluated on its own, given the short-circuits above
# it.  A node's table is exact on its care mask and arbitrary elsewhere.
# The mask is what keeps a batch from computing a characteristic leaf that
# no structure of it reaches.

CHUNK_BITS = 20


class _LeafPending(Exception):
    """A leaf whose verdict for this size is not known yet is reached by the
    structures of a care mask, the lowest of them `first`."""

    def __init__(self, care: int, leaf: Formula):
        super().__init__("characteristic leaf verdict not yet known")
        self.first = (care & -care).bit_length() - 1
        self.leaf = leaf


class _InexactCare(Exception):
    """A leaf is first reached in a partial fixpoint's later stages, where a
    care mask of several structures may hold some whose evaluation stopped."""


class _LeafError(Exception):
    """What computing a leaf's verdict raised, its one argument, carried
    past a batch's fallback to a scan."""


def _bit_table(p: int, width: int) -> int:
    """The table of encoding bit p over a width-bit batch: bit i is (i >> p) & 1.

    It equals full // ((1 << w) + 1) << w with w = 2^p; doubling the block
    avoids a long division by a width-size divisor.
    """
    w = 1 << p
    table, span = ((1 << w) - 1) << w, 2 * w
    while span < width:
        table |= table << span
        span *= 2
    return table


_BYTE_BITS = bytes.maketrans(b"01", b"\0\1")


def _bytes_of(bits: int, width: int) -> bytes:
    """The low `width` bits of `bits` as bytes, byte i holding bit i as 0 or 1."""
    return bin(bits | 1 << width)[:2:-1].encode().translate(_BYTE_BITS)


class _Batch:
    """The structures of size n whose indices have `chunk` above their lowest
    `low` bits, with the atom tables and relation environment they share.

    leaves holds the verdicts of the leaves computed so far for this
    vocabulary and size, by leaf.  A program reaching a leaf whose verdict
    is not known raises _LeafPending, in a lone structure (low = 0) too.
    Each run of a program sets renv and exact afresh.
    """

    __slots__ = ("vocab", "n", "universe", "full", "pos", "tab", "renv",
                 "config", "leaves", "exact")

    def __init__(self, vocab: Vocabulary, n: int, chunk: int, low: int,
                 config: EvalConfig, leaves: dict):
        width = 1 << low
        self.vocab = vocab
        self.n = n
        self.universe = range(n)
        self.full = full = (1 << width) - 1
        # The atom of a tuple is the table of its bit in the encoding, and
        # bits at or above `low` are fixed by the chunk.  A lone structure
        # keeps its bits as bytes, byte p holding bit p.
        self.pos, length = bit_positions(vocab, n), encoding_length(vocab, n)
        self.tab = [_bit_table(p, width) if p < low else full * (chunk >> (p - low) & 1)
                    for p in range(length)] if low else _bytes_of(chunk, length)
        self.config = config
        self.leaves = leaves


def _positive_in(f: Formula, name: str, polarity: bool = True) -> bool:
    if isinstance(f, Rel):
        return polarity or f.name != name
    if isinstance(f, (SOExists, SOForall, Lfp, Pfp)) and f.relvar == name:
        return True
    if isinstance(f, Not):
        polarity = not polarity
    return all(_positive_in(sub, name, polarity) for sub in children(f))


def _compile_batch(f: Formula, slots: dict[str, int], so_bound: frozenset[str],
                   state: dict):
    """Structural recursion into a closure run(batch, env, care) -> truth table.

    A subformula's care mask holds exactly the structures that evaluate it
    there: each node short-circuits as evaluation one structure at a time
    does, and a batch of one structure is that evaluation.
    """
    t = type(f)
    if t is Rel:
        name = f.name
        idx = tuple(slots[v] for v in f.args)
        if name in so_bound:
            if len(idx) == 2:
                i, j = idx
                return lambda b, env, care: b.renv[name].get((env[i], env[j]), 0)
            return lambda b, env, care: b.renv[name].get(tuple(env[i] for i in idx), 0)
        if len(idx) == 2:
            i, j = idx
            return lambda b, env, care: b.tab[b.pos[name][env[i]][env[j]]]
        if len(idx) == 1:
            (i,) = idx
            return lambda b, env, care: b.tab[b.pos[name][env[i]]]

        def run_rel(b, env, care):
            p = b.pos[name]
            for i in idx:
                p = p[env[i]]
            return b.tab[p]
        return run_rel
    if t is Eq:
        i, j = slots[f.left], slots[f.right]
        return lambda b, env, care: b.full if env[i] == env[j] else 0
    if t is Neq:
        i, j = slots[f.left], slots[f.right]
        return lambda b, env, care: b.full if env[i] != env[j] else 0
    if t is Lt:
        i, j = slots[f.left], slots[f.right]
        return lambda b, env, care: b.full if env[i] < env[j] else 0
    if t is Bit:
        i, j = slots[f.left], slots[f.right]
        return lambda b, env, care: b.full if (env[i] >> env[j]) & 1 == 1 else 0
    if t is And:
        left = _compile_batch(f.left, slots, so_bound, state)
        right = _compile_batch(f.right, slots, so_bound, state)

        def run_and(b, env, care):
            care &= left(b, env, care)
            return care & right(b, env, care) if care else 0
        return run_and
    if t is Or:
        left = _compile_batch(f.left, slots, so_bound, state)
        right = _compile_batch(f.right, slots, so_bound, state)

        def run_or(b, env, care):
            value = left(b, env, care)
            rest = care & ~value
            return value | right(b, env, rest) if rest else value
        return run_or
    if t is Not:
        sub = _compile_batch(f.sub, slots, so_bound, state)
        return lambda b, env, care: b.full ^ sub(b, env, care)
    if t is Psi:
        # Identically false; its expansion would cost n^|code| loops.
        return lambda b, env, care: 0
    if t is Exists or t is Forall:
        slot = len(slots)
        state["slots"] = max(state["slots"], slot + 1)
        sub = _compile_batch(f.sub, {**slots, f.var: slot}, so_bound, state)
        if t is Exists:
            def run_exists(b, env, care):
                open_ = care  # the structures without a witness so far
                for value in b.universe:
                    env[slot] = value
                    open_ &= ~sub(b, env, open_)
                    if not open_:
                        break
                return care ^ open_
            return run_exists

        def run_forall(b, env, care):
            for value in b.universe:
                env[slot] = value
                care &= sub(b, env, care)
                if not care:
                    return 0
            return care
        return run_forall
    if t is SOExists or t is SOForall:
        name, arity = f.relvar, f.arity
        sub = _compile_batch(f.sub, slots, so_bound | {name}, state)
        want = t is SOExists

        def run_so(b, env, care):
            tuples = list(itertools.product(b.universe, repeat=arity))
            renv = b.renv
            saved = renv.get(name)
            full = b.full
            open_ = care  # the structures still looping
            for mask in range(1 << len(tuples)):
                # One relation for every structure: its atoms are constant.
                renv[name] = {tup: full for i, tup in enumerate(tuples)
                              if mask >> i & 1}
                value = sub(b, env, open_)
                open_ &= ~value if want else value
                if not open_:
                    break
            if saved is None:
                del renv[name]
            else:
                renv[name] = saved
            return care ^ open_ if want else open_
        return run_so
    if t is Tc:
        slot1, slot2 = len(slots), len(slots) + 1
        state["slots"] = max(state["slots"], slot2 + 1)
        sub = _compile_batch(f.sub, {**slots, f.var1: slot1, f.var2: slot2},
                             so_bound, state)
        arg1, arg2 = slots[f.arg1], slots[f.arg2]

        def run_tc(b, env, care):
            universe = b.universe
            reach = []
            for u in universe:
                env[slot1] = u
                row = []
                for v in universe:
                    env[slot2] = v
                    row.append(sub(b, env, care))
                row[u] = b.full
                reach.append(row)
            # Warshall's closure, one structure per bit.
            for k in universe:
                row_k = reach[k]
                for row_u in reach:
                    via = row_u[k]
                    if via:
                        for v in universe:
                            row_u[v] |= via & row_k[v]
            return reach[env[arg1]][env[arg2]]
        return run_tc
    if t is Lfp or t is Pfp:
        if t is Lfp and not _positive_in(f.sub, f.relvar):
            raise PositivityViolation(
                f"{f.relvar} occurs negatively under its least fixpoint"
            )
        name = f.relvar
        base = len(slots)
        var_slots = list(range(base, base + len(f.vars)))
        state["slots"] = max(state["slots"], base + len(f.vars))
        inner = dict(slots)
        inner.update(zip(f.vars, var_slots))
        sub = _compile_batch(f.sub, inner, so_bound | {name}, state)
        arg_slots = tuple(slots[v] for v in f.args)
        least = t is Lfp

        def run_fp(b, env, care):
            tuples = list(itertools.product(b.universe, repeat=len(var_slots)))
            renv = b.renv
            saved = renv.get(name)
            exact = b.exact

            def stage(current, active):
                renv[name] = dict(zip(tuples, current))
                out = []
                for tup in tuples:
                    for slot, value in zip(var_slots, tup):
                        env[slot] = value
                    out.append(sub(b, env, active))
                return out

            # Iterate every structure's stages jointly, from the empty
            # relation.  A structure keeps its stage and leaves `active` once
            # a stage repeats the one before.  A stage that comes back after
            # a different one starts a cycle: a partial fixpoint is then
            # empty, a least one undefined.  Brent's cycle detection on the
            # joint state, or a cap of 2^|tuples| stages, shows when the
            # structures still active cycle for ever; every stage evaluated
            # after the cycle starts repeats an earlier one.
            current, active = (0,) * len(tuples), care
            tortoise, power, lam = (current, active), 1, 0
            for _ in range(1 << len(tuples)):
                moved, new = 0, []
                for old, value in zip(current, stage(current, active)):
                    diff = (old ^ value) & active
                    moved |= diff
                    new.append(old ^ diff)
                current, active = tuple(new), moved
                if not active or (current, active) == tortoise:
                    break
                lam += 1
                if lam == power:
                    tortoise, power, lam = (current, active), 2 * power, 0
                # A structure of a partial fixpoint also stops at any
                # earlier stage coming back, which `active` does not track.
                b.exact = exact and least
            b.exact = exact
            if active and least:
                raise NoLeastFixpoint(f"{name} has no least fixpoint: its stages cycle")
            if saved is None:
                del renv[name]
            else:
                renv[name] = saved
            value = dict(zip(tuples, current)).get(tuple(env[i] for i in arg_slots), 0)
            return value & ~active
        return run_fp
    if t in CHAR_NODES:
        # A leaf sees a structure only through its vocabulary and size, so
        # its verdict is one constant per batch.
        state["leaves"].add(f)

        def run_char(b, env, care):
            verdict = b.leaves.get(f)
            if verdict is None:
                if not care:
                    return 0
                if not b.exact and b.full != 1:
                    raise _InexactCare("leaf first reached in a later PFP stage")
                raise _LeafPending(care, f)
            return b.full if verdict else 0
        return run_char
    raise TypeError(f"cannot evaluate {f!r}")


def _new_program(f: Formula):
    """f compiled: program(batch, care) is f's table, exact on care, and
    program.leaves is the set of f's characteristic leaves."""
    state = {"slots": 0, "leaves": set()}
    run = _compile_batch(f, {}, frozenset(), state)
    width = state["slots"]

    def program(b: _Batch, care: int) -> int:
        b.renv, b.exact = {}, True
        return run(b, [None] * width, care)
    program.leaves = state["leaves"]
    return program


def _first_hit(run, batch: _Batch, limit: int, want: bool) -> int | None:
    """The lowest bit of `limit` where run(batch, care), a table exact on
    care, is not `want`, or None.  This is the one place a leaf verdict is
    computed: a pending leaf only when no structure below the first that
    reaches it is a hit, after the run has unwound, and then the run is
    made again.  So nested leaves never hold their programs on one stack.
    What computing a leaf raises comes out as a _LeafError."""
    while True:
        try:
            table = run(batch, limit)
        except _LeafPending as pending:
            leaf, first = pending.leaf, pending.first
        else:
            bad = limit & (~table if want else table)
            return (bad & -bad).bit_length() - 1 if bad else None
        below = limit & ((1 << first) - 1)
        hit = _first_hit(run, batch, below, want) if below else None
        if hit is not None:
            return hit
        config = batch.config
        try:
            if config.char_budget <= 0:
                raise RecursionBudgetExhausted(
                    "nested characteristic leaves exceeded the recursion budget")
            from . import charsets

            batch.leaves[leaf] = charsets.leaf_verdict(batch.vocab, batch.n, leaf,
                                                       config, config.char_budget - 1)
        except Exception as error:
            raise _LeafError(error) from None


def _decide(program, vocab: Vocabulary, n: int, bits: int, config: EvalConfig,
            leaves=None) -> bool:
    """The program's verdict on one structure, from the batch of just it."""
    batch = _Batch(vocab, n, bits, 0, config, {} if leaves is None else leaves)
    try:
        return _first_hit(program, batch, 1, False) == 0
    except _LeafError as leaf_error:
        error = leaf_error.args[0]
    raise error


# --- the range search ---------------------------------------------------


class _Record:
    """A search's state at one vocabulary and size: its leaf verdicts; the
    width-1 searches left before the next whole-size try (None: no more
    tries, since the size needs more than one chunk or a try raised); the
    leaves known at the last try a pending leaf refused; and the table, one
    byte per structure, which only a whole-size try (_tabulate) writes."""

    __slots__ = ("vocab", "n", "length", "leaves", "left", "known", "flags")

    def __init__(self, vocab: Vocabulary, n: int):
        self.vocab, self.n = vocab, n
        self.length = length = encoding_length(vocab, n)
        self.left = max((1 << length) >> 6, 1) if length <= CHUNK_BITS else None
        self.leaves, self.known, self.flags = {}, -1, None


class _Search:
    """A sentence f, or a pair f, g, compiled once, and what is known per size.

    first_miss(vocab, n, lo, hi, want) is the first index in [lo, hi) whose
    size-n structure's verdict on f is not `want` (given g, where f and g
    disagree; want is then true), or None.  Its answers, exceptions and the
    order of the distinct leaves it computes are those of models() on each
    index in turn.  holds(vocab, n, bits) is the verdict on the structure
    of index `bits`, and calling the search on a structure is holds on its
    index.  The checker of a sentence (sentence_checker) is its search.

    - A leaf's verdict depends on the vocabulary and size alone: each size
      keeps one dict of them.  It keeps a table once a whole-size try runs
      through; then no structure raises, and every leaf it reaches is known.
    - A width-1 range is decided on the batch of its one structure, and
      _first_hit computes each leaf that batch reaches.
      After max(2^L/64, 1) of these at a size, the whole-size batch is tried
      without computing any leaf; a pending leaf refuses it until one more
      leaf of the size is known.  try_table(vocab, n) makes that try at
      once, for a caller that will read the whole size, when every leaf
      of f (and g) is known at the size, so that no leaf refuses it.
    - A wider range runs the batch over its chunks, with the care mask set
      to its structures, and computes a pending leaf only when no structure
      before the first that reaches it is a miss.  The batch evaluates a
      subformula for every structure that reaches it, so it can raise where
      a scan never looks; and it gives up on a leaf first reached in a later
      partial fixpoint stage, whose first structure it cannot tell.  Then
      the chunk is decided one structure at a time, with the same programs,
      as is a range over the whole size once a try at its batch raised.
      What computing a leaf raises is raised at once: the scan would
      compute that leaf at the same structure.
    """

    __slots__ = ("config", "programs", "leaves", "sizes", "last_vocab", "last_n",
                 "last")

    def __init__(self, f: Formula, g: Formula | None, config: EvalConfig):
        self.config = config
        # f, then g: a compile error raises before anything is evaluated.
        self.programs = [_new_program(h) for h in (f, g) if h is not None]
        self.leaves = set().union(*(program.leaves for program in self.programs))
        self.sizes: dict[tuple[Vocabulary, int], _Record] = {}
        # The last size searched, under the caller's (equal) vocabulary object.
        self.last_vocab = self.last_n = self.last = None

    def _size(self, vocab: Vocabulary, n: int) -> _Record:
        if vocab is self.last_vocab and n == self.last_n:
            return self.last
        size = (self.sizes.get((vocab, n))
                or self.sizes.setdefault((vocab, n), _Record(vocab, n)))
        self.last_vocab, self.last_n, self.last = vocab, n, size
        return size

    def try_table(self, vocab: Vocabulary, n: int,
                  reads: int | None = None) -> bytes | None:
        """Make the whole-size try of the countdown now, for a caller that
        will read `reads` structures of the size (all of them by default),
        unless the size has a table, a try raised, the reads are fewer than
        the width-1 searches left before the countdown's own try, or a leaf
        is still unknown at the size: such a leaf would refuse the try, and
        the caller's range searches would run the same batch again to find
        where the leaf is first reached.  A try that runs through ends the
        countdown with the table, and one that raises ends the tries, so a
        size still gets at most one try that is not refused.  Returns the
        size's table, or None."""
        size = self._size(vocab, n)
        if (size.flags is None and size.left is not None
                and (reads is None or reads >= size.left)
                and size.leaves.keys() >= self.leaves):
            self._tabulate(size)
        return size.flags

    def holds(self, vocab: Vocabulary, n: int, bits: int) -> bool:
        """A width-1 range search, or, where (vocab, n) is the last size
        searched and has a table, the index's byte in it."""
        if vocab is self.last_vocab and n == self.last_n:
            flags = self.last.flags
            if flags is not None:
                return flags[bits] == 1
        return self.first_miss(vocab, n, bits, bits + 1) is None

    def __call__(self, a: Structure) -> bool:
        return self.holds(a.vocab, a.n, a.bits)

    def first_miss(self, vocab: Vocabulary, n: int, lo: int, hi: int,
                   want: bool = True) -> int | None:
        size = self._size(vocab, n)
        if size.flags is None and hi - lo == 1 and size.left is not None:
            if size.left:
                size.left -= 1
            elif len(size.leaves) > size.known:
                self._tabulate(size)
        flags = size.flags
        if flags is None:
            try:
                return self._search(size, lo, hi, want)
            except _LeafError as leaf_error:
                error = leaf_error.args[0]
            raise error
        miss = flags.find(0 if want else 1, lo, hi)
        return None if miss < 0 else miss

    def _search(self, size: _Record, lo: int, hi: int, want: bool) -> int | None:
        if hi - lo == 1:
            return lo if self._verdict(size, lo) != want else None
        low = min(size.length, CHUNK_BITS)
        for chunk in range(lo >> low, ((hi - 1) >> low) + 1):
            base = chunk << low
            start, end = max(lo, base), min(hi, base + (1 << low))
            if size.left is None and end - start == 1 << size.length:
                # The whole-size batch raised at a try, and would again.
                hit = self._scan(size, start, end, want)
            else:
                try:
                    batch = _Batch(size.vocab, size.n, chunk, low, self.config,
                                   size.leaves)
                    hit = _first_hit(self._run, batch, (1 << (end - base))
                                     - (1 << (start - base)), want)
                    hit = None if hit is None else base | hit
                except _LeafError:
                    raise
                except Exception:
                    hit = self._scan(size, start, end, want)
            if hit is not None:
                return hit
        return None

    def _scan(self, size: _Record, lo: int, hi: int, want: bool) -> int | None:
        return next((i for i in range(lo, hi) if self._verdict(size, i) != want), None)

    def _verdict(self, size: _Record, index: int) -> bool:
        """The index's verdict, decided on its structure alone."""
        verdicts = [_decide(program, size.vocab, size.n, index, self.config,
                            size.leaves) for program in self.programs]
        return verdicts[0] == (verdicts[1] if len(verdicts) == 2 else True)

    def _run(self, batch: _Batch, care: int) -> int:
        """The batch's table of where f holds (or agrees with g), exact on care."""
        tables = [program(batch, care) for program in self.programs]
        return tables[0] ^ tables[1] ^ batch.full if len(tables) == 2 else tables[0]

    def _tabulate(self, size: _Record) -> None:
        """Try the whole-size batch without computing a leaf: the one place
        a table is stored."""
        try:
            batch = _Batch(size.vocab, size.n, 0, size.length, self.config, size.leaves)
            size.flags = _bytes_of(self._run(batch, batch.full), 1 << size.length)
        except (_LeafPending, _InexactCare):
            size.known = len(size.leaves)
        except Exception:
            size.left = None


@lru_cache(maxsize=512)
def _checker(f: Formula, config: EvalConfig) -> _Search:
    return _Search(f, None, config)


def sentence_checker(f: Formula, config: EvalConfig | None = None) -> _Search:
    """The checker of f: its _Search, cached per sentence and configuration,
    which keeps each size's leaf verdicts and table across calls.  It maps
    a structure to its verdict, and answers holds, first_miss and try_table
    (see _Search)."""
    return _checker(f, config or _EMPTY_CONFIG)


def models(a: Structure, f: Formula, config: EvalConfig | None = None) -> bool:
    """Does the structure satisfy the sentence?  Decided on the structure
    alone, as a reference for the range search: it runs the compiled
    program of f's checker, but keeps no leaf verdict and builds no table."""
    config = config or _EMPTY_CONFIG
    return _decide(_checker(f, config).programs[0], a.vocab, a.n, a.bits, config)


def valid_upto(f: Formula, vocab: Vocabulary, n_max: int,
               config: EvalConfig | None = None) -> Structure | None:
    """First structure of size <= n_max falsifying f, or None if f holds on all."""
    return sweep(vocab, n_max, f, None, config)


def mod_eq_upto(f: Formula, g: Formula, vocab: Vocabulary, n_max: int,
                config: EvalConfig | None = None) -> Structure | None:
    """First structure of size <= n_max where the two sentences disagree."""
    return sweep(vocab, n_max, f, g, config)


# --- sweeps -------------------------------------------------------------

# A pool worker's _Search, built once by the pool's initializer.
_worker_search: _Search | None = None


def _start_worker(f: Formula, g: Formula | None, config: EvalConfig) -> None:
    global _worker_search
    _worker_search = _Search(f, g, config)


def _pool_first_miss(vocab: Vocabulary, n: int, lo: int, hi: int) -> int | None:
    return _worker_search.first_miss(vocab, n, lo, hi)


def _first_hit_in_pool(jobs: int, search_args: tuple, vocab: Vocabulary,
                       n: int) -> int | None:
    """The first hit at size n, with up to 4 * jobs chunks in flight."""
    from concurrent.futures import ProcessPoolExecutor

    width = 1 << CHUNK_BITS
    starts = range(0, 1 << encoding_length(vocab, n), width)
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                               initargs=search_args)
    try:
        for i in range(0, len(starts), 4 * jobs):
            futures = [pool.submit(_pool_first_miss, vocab, n, lo, lo + width)
                       for lo in starts[i:i + 4 * jobs]]
            for future in futures:
                hit = future.result()
                if hit is not None:
                    return hit
        return None
    finally:
        pool.shutdown(cancel_futures=True)


def sweep(vocab: Vocabulary, n_max: int, f: Formula, g: Formula | None = None,
          config: EvalConfig | None = None, jobs: int = 1) -> Structure | None:
    """First structure in (size, index) order with 2 <= n <= n_max that
    falsifies f, or, given g, on which f and g disagree; None if there is none.

    Each size is one range search (see _Search), decided in batches of up
    to 2^CHUNK_BITS structures, one bit per structure.  With jobs > 1 and at
    least two batches in a size, a pool of that many processes decides
    them; the result is the same.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = config or _EMPTY_CONFIG
    search = _Search(f, g, config)
    for n in range(2, n_max + 1):
        length = encoding_length(vocab, n)
        if jobs > 1 and length > CHUNK_BITS:
            hit = _first_hit_in_pool(jobs, (f, g, config), vocab, n)
        else:
            hit = search.first_miss(vocab, n, 0, 1 << length)
        if hit is not None:
            return Structure(vocab, n, hit)
    return None
