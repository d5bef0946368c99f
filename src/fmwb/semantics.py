"""Brute-force Tarskian model checking for the full sentence language.

Everything is evaluated exhaustively: first-order quantifiers loop over the
universe, second-order quantifiers loop over all 2^(n^a) relations, and the
fixpoint operators iterate stage by stage.  A sentence is first compiled
into nested closures over slot-indexed environments (one pass of structural
recursion), after which the same checker can be run against any number of
structures; models() is the compile-and-run convenience wrapper.

Sweeps over all structures up to a size go through sweep(), which compiles
the sentence a second way: into a batch evaluator whose values are truth
tables over every structure of one size at once, one bit per structure.
truth_table() hands out one size's table, which the reduction-agreement
sweeps in machines read their verdicts from.  The per-structure checker
stays the reference that both fall back to.

Characteristic leaves delegate to the decision procedures in charsets under
a recursion budget, since decoded payloads are untrusted and may nest
further leaves.  Callers are expected to hand in sentences that are
well-formed over the structure's vocabulary (see logic.validate_sentence);
the evaluator itself does not re-validate on every call.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Structure, Vocabulary, bit_position, encoding_length, structure_from_index,
)
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


_EMPTY_CONFIG = EvalConfig()


class _Ctx:
    __slots__ = ("universe", "bits", "pos", "renv", "structure", "budget",
                 "config")

    def __init__(self, structure: Structure, config: EvalConfig):
        self.universe = range(structure.n)
        self.bits = structure.bits
        self.pos = structure.positions
        self.renv: dict[str, frozenset] = {}
        self.structure = structure
        self.budget = config.char_budget
        self.config = config


def _positive_in(f: Formula, name: str, polarity: bool = True) -> bool:
    if isinstance(f, Rel):
        return polarity or f.name != name
    if isinstance(f, (SOExists, SOForall, Lfp, Pfp)) and f.relvar == name:
        return True
    if isinstance(f, Not):
        polarity = not polarity
    return all(_positive_in(sub, name, polarity) for sub in children(f))


def _compile(f: Formula, slots: dict[str, int], so_bound: frozenset[str],
             state: dict):
    """Structural recursion into a closure run(ctx, env) -> bool."""
    t = type(f)
    if t is Rel:
        name = f.name
        if name in so_bound:
            if len(f.args) == 2:
                i, j = slots[f.args[0]], slots[f.args[1]]
                return lambda ctx, env: (env[i], env[j]) in ctx.renv[name]
            idx = tuple(slots[v] for v in f.args)
            return lambda ctx, env: tuple(env[i] for i in idx) in ctx.renv[name]
        # A vocabulary atom is one bit of the structure's encoding.
        if len(f.args) == 2:
            i, j = slots[f.args[0]], slots[f.args[1]]
            return lambda ctx, env: ctx.bits >> ctx.pos[name][env[i]][env[j]] & 1 == 1
        if len(f.args) == 1:
            i = slots[f.args[0]]
            return lambda ctx, env: ctx.bits >> ctx.pos[name][env[i]] & 1 == 1
        idx = tuple(slots[v] for v in f.args)

        def run_rel(ctx, env):
            p = ctx.pos[name]
            for i in idx:
                p = p[env[i]]
            return ctx.bits >> p & 1 == 1
        return run_rel
    if t is Eq:
        i, j = slots[f.left], slots[f.right]
        return lambda ctx, env: env[i] == env[j]
    if t is Neq:
        i, j = slots[f.left], slots[f.right]
        return lambda ctx, env: env[i] != env[j]
    if t is Lt:
        i, j = slots[f.left], slots[f.right]
        return lambda ctx, env: env[i] < env[j]
    if t is Bit:
        i, j = slots[f.left], slots[f.right]
        return lambda ctx, env: (env[i] >> env[j]) & 1 == 1
    if t is And:
        left = _compile(f.left, slots, so_bound, state)
        right = _compile(f.right, slots, so_bound, state)
        return lambda ctx, env: left(ctx, env) and right(ctx, env)
    if t is Or:
        left = _compile(f.left, slots, so_bound, state)
        right = _compile(f.right, slots, so_bound, state)
        return lambda ctx, env: left(ctx, env) or right(ctx, env)
    if t is Not:
        sub = _compile(f.sub, slots, so_bound, state)
        return lambda ctx, env: not sub(ctx, env)
    if t is Psi:
        # Identically false; its expansion would cost n^|code| loops.
        return lambda ctx, env: False
    if t is Exists or t is Forall:
        slot = len(slots)
        state["slots"] = max(state["slots"], slot + 1)
        sub = _compile(f.sub, {**slots, f.var: slot}, so_bound, state)
        if t is Exists:
            def run_exists(ctx, env):
                for value in ctx.universe:
                    env[slot] = value
                    if sub(ctx, env):
                        return True
                return False
            return run_exists

        def run_forall(ctx, env):
            for value in ctx.universe:
                env[slot] = value
                if not sub(ctx, env):
                    return False
            return True
        return run_forall
    if t is SOExists or t is SOForall:
        name, arity = f.relvar, f.arity
        sub = _compile(f.sub, slots, so_bound | {name}, state)
        want = t is SOExists

        def run_so(ctx, env):
            tuples = list(itertools.product(ctx.universe, repeat=arity))
            renv = ctx.renv
            saved = renv.get(name)
            result = not want
            for mask in range(1 << len(tuples)):
                renv[name] = frozenset(
                    tup for i, tup in enumerate(tuples) if mask >> i & 1
                )
                if sub(ctx, env) == want:
                    result = want
                    break
            if saved is None:
                del renv[name]
            else:
                renv[name] = saved
            return result
        return run_so
    if t is Tc:
        slot1, slot2 = len(slots), len(slots) + 1
        state["slots"] = max(state["slots"], slot2 + 1)
        sub = _compile(f.sub, {**slots, f.var1: slot1, f.var2: slot2},
                       so_bound, state)
        arg1, arg2 = slots[f.arg1], slots[f.arg2]

        def run_tc(ctx, env):
            universe = ctx.universe
            n = len(universe)
            reach = [[False] * n for _ in universe]
            for u in universe:
                env[slot1] = u
                row = reach[u]
                for v in universe:
                    env[slot2] = v
                    row[v] = sub(ctx, env)
                row[u] = True
            for k in universe:
                row_k = reach[k]
                for u in universe:
                    if reach[u][k]:
                        row_u = reach[u]
                        for v in universe:
                            if row_k[v]:
                                row_u[v] = True
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
        sub = _compile(f.sub, inner, so_bound | {name}, state)
        arg_slots = tuple(slots[v] for v in f.args)
        least = t is Lfp

        def run_fp(ctx, env):
            tuples = list(itertools.product(ctx.universe, repeat=len(var_slots)))
            renv = ctx.renv
            saved = renv.get(name)

            def stage(current):
                renv[name] = current
                out = set()
                for tup in tuples:
                    for slot, value in zip(var_slots, tup):
                        env[slot] = value
                    if sub(ctx, env):
                        out.add(tup)
                return frozenset(out)

            # A stage that comes back without being a fixpoint starts a
            # cycle: a partial fixpoint is then empty, a least one undefined.
            # Only 2^|tuples| stages are distinct, so some stage repeats.
            current = frozenset()
            seen = {current}
            while True:
                nxt = stage(current)
                if nxt == current:
                    break
                if nxt in seen:
                    if least:
                        raise NoLeastFixpoint(
                            f"{name} has no least fixpoint: its stages cycle")
                    current = frozenset()
                    break
                seen.add(nxt)
                current = nxt
            if saved is None:
                del renv[name]
            else:
                renv[name] = saved
            return tuple(env[i] for i in arg_slots) in current
        return run_fp
    if t in CHAR_NODES:
        def run_char(ctx, env):
            if ctx.budget <= 0:
                raise RecursionBudgetExhausted(
                    "nested characteristic leaves exceeded the recursion budget"
                )
            from . import charsets

            a = ctx.structure
            return charsets.leaf_verdict(a.vocab, a.n, f, ctx.config,
                                         ctx.budget - 1)
        return run_char
    raise TypeError(f"cannot evaluate {f!r}")


@lru_cache(maxsize=512)
def _checker(f: Formula, config: EvalConfig):
    state = {"slots": 0}
    run = _compile(f, {}, frozenset(), state)
    width = state["slots"]

    def check(a: Structure) -> bool:
        return run(_Ctx(a, config), [None] * width)

    return check


def sentence_checker(f: Formula, config: EvalConfig | None = None):
    """Compile a sentence once; the result maps structures to verdicts."""
    return _checker(f, config or _EMPTY_CONFIG)


def models(a: Structure, f: Formula, config: EvalConfig | None = None) -> bool:
    """Does the structure satisfy the sentence?"""
    return _checker(f, config or _EMPTY_CONFIG)(a)


def valid_upto(f: Formula, vocab: Vocabulary, n_max: int,
               config: EvalConfig | None = None) -> Structure | None:
    """First structure of size <= n_max falsifying f, or None if f holds on all."""
    return sweep(vocab, n_max, f, None, config)


def mod_eq_upto(f: Formula, g: Formula, vocab: Vocabulary, n_max: int,
                config: EvalConfig | None = None) -> Structure | None:
    """First structure of size <= n_max where the two sentences disagree."""
    # Both sentences compile before either is evaluated, so a compile error
    # in g wins over an evaluation error of f on the first structure.
    sentence_checker(f, config)
    sentence_checker(g, config)
    return sweep(vocab, n_max, f, g, config)


# --- bit-parallel sweeps ------------------------------------------------
#
# A batch is every structure of one size whose index shares the bits above
# the lowest `low`; a truth table is a Python int with one bit per structure
# of the batch, bit i for structure (chunk << low) | i.  First-order
# variables take the same value in every structure at once, so equality,
# order and BIT are constant tables, and each connective is one big-int
# operation.
#
# Every node is evaluated under a care mask: the structures whose checker
# evaluates that node there, given the short-circuits above it.  A node's
# table is exact on its care mask and arbitrary elsewhere.  The mask is what
# keeps the batch from computing a characteristic leaf that no structure's
# checker would reach.

CHUNK_BITS = 20


class _LeafPending(Exception):
    """A leaf whose verdict for this size is not known yet is reached by the
    structures of a care mask; a checker scan computes it at the lowest one."""

    def __init__(self, care: int, resolve):
        super().__init__("characteristic leaf verdict not yet known")
        self.first = (care & -care).bit_length() - 1
        self.resolve = resolve


class _InexactCare(Exception):
    """A leaf is first reached in a partial fixpoint's later stages, where the
    care mask may hold structures whose checker has already stopped."""


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


class _Batch:
    """The structures of size n whose indices have `chunk` above their lowest
    `low` bits, with the atom tables and relation environment they share."""

    __slots__ = ("vocab", "n", "universe", "full", "atoms", "renv", "config",
                 "budget", "exact")

    def __init__(self, vocab: Vocabulary, n: int, chunk: int, low: int,
                 config: EvalConfig):
        width = 1 << low
        self.vocab = vocab
        self.n = n
        self.universe = range(n)
        self.full = full = (1 << width) - 1
        # Encoding bits at or above `low` are fixed by the chunk, so their
        # atoms are constant.
        self.atoms: dict[str, dict[tuple, int]] = {}
        for name, arity in vocab.symbols:
            tables = {}
            for tup in itertools.product(self.universe, repeat=arity):
                p = bit_position(vocab, n, name, tup)
                if p >= low:
                    tables[tup] = full if chunk >> (p - low) & 1 else 0
                else:
                    tables[tup] = _bit_table(p, width)
            self.atoms[name] = tables
        self.renv: dict[str, dict[tuple, int]] = {}
        self.config = config
        self.budget = config.char_budget
        # False while care masks may over-approximate the checker's path.
        self.exact = True


def _compile_batch(f: Formula, slots: dict[str, int], so_bound: frozenset[str],
                   state: dict):
    """As _compile, into a closure run(batch, env, care) -> truth table.

    Each node mirrors its checker counterpart, including the compile-time
    errors and the short-circuits: a subformula's care mask holds exactly
    the structures whose checker evaluates it there.
    """
    t = type(f)
    if t is Rel:
        name = f.name
        idx = tuple(slots[v] for v in f.args)
        if name in so_bound:
            return lambda b, env, care: b.renv[name].get(tuple(env[i] for i in idx), 0)
        if len(idx) == 2:
            i, j = idx
            return lambda b, env, care: b.atoms[name].get((env[i], env[j]), 0)
        if len(idx) == 1:
            (i,) = idx
            return lambda b, env, care: b.atoms[name].get((env[i],), 0)
        return lambda b, env, care: b.atoms[name].get(tuple(env[i] for i in idx), 0)
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
            open_ = care  # the structures whose checker is still looping
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

            # Iterate every structure's stages jointly.  A structure keeps its
            # stage and leaves `active` once a stage repeats the one before,
            # where its checker stops.  Brent's cycle detection on the joint
            # state, or a cap of 2^|tuples| stages, shows when the
            # structures still active cycle for ever.
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
                # A partial fixpoint's checker also stops at any earlier
                # stage coming back, which `active` does not track.
                b.exact = exact and least
            b.exact = exact
            if active and least:
                raise NoLeastFixpoint(f"{name} has no least fixpoint on some structure")
            if saved is None:
                del renv[name]
            else:
                renv[name] = saved
            value = dict(zip(tuples, current)).get(tuple(env[i] for i in arg_slots), 0)
            return value & ~active
        return run_fp
    if t in CHAR_NODES:
        # A leaf sees a structure only through its vocabulary and size, so
        # its verdict is one constant per size; a compiled program serves
        # one vocabulary and configuration.
        verdicts: dict[int, bool] = {}

        def resolve(b):
            from . import charsets

            verdicts[b.n] = charsets.leaf_verdict(b.vocab, b.n, f, b.config,
                                                  b.budget - 1)

        def run_char(b, env, care):
            verdict = verdicts.get(b.n)
            if verdict is None:
                if not care:
                    return 0
                if b.budget <= 0:
                    raise RecursionBudgetExhausted(
                        "nested characteristic leaves exceeded the recursion budget"
                    )
                if not b.exact:
                    raise _InexactCare("leaf first reached in a later PFP stage")
                raise _LeafPending(care, lambda: resolve(b))
            return b.full if verdict else 0
        return run_char
    raise TypeError(f"cannot evaluate {f!r}")


def _batch_program(f: Formula):
    """f compiled for batches: program(batch, care) is f's table, exact on care."""
    state = {"slots": 0}
    run = _compile_batch(f, {}, frozenset(), state)
    width = state["slots"]

    def program(b: _Batch, care: int) -> int:
        b.renv, b.exact = {}, True
        return run(b, [None] * width, care)
    return program


def _scan(vocab: Vocabulary, n: int, start: int, stop: int, f: Formula,
          g: Formula | None, config: EvalConfig) -> int | None:
    """First index in [start, stop) falsifying f (or where f and g disagree),
    checking one structure at a time; g compiles after f's first verdict."""
    check_f = sentence_checker(f, config)
    check_g = None
    for index in range(start, stop):
        a = structure_from_index(vocab, n, index)
        verdict = check_f(a)
        if g is None:
            if not verdict:
                return index
            continue
        if check_g is None:
            check_g = sentence_checker(g, config)
        if verdict != check_g(a):
            return index
    return None


class _Sweep:
    """A sentence, or a pair to compare, compiled once for batch evaluation
    over one vocabulary and configuration."""

    def __init__(self, vocab: Vocabulary, f: Formula, g: Formula | None,
                 config: EvalConfig):
        self.vocab, self.f, self.g, self.config = vocab, f, g, config
        # A sentence the batch compiler rejects goes to the checker, which
        # raises its own compile error at the first structure.
        try:
            self.programs = [_batch_program(h) for h in (f, g) if h is not None]
        except Exception:
            self.programs = None

    def first_hit(self, n: int, chunk: int) -> int | None:
        """Index of the chunk's first structure falsifying f (or where f and g
        disagree), or None."""
        low = min(encoding_length(self.vocab, n), CHUNK_BITS)
        if self.programs is not None:
            # Apart from leaves, the batch evaluates a subformula for every
            # structure that reaches it, also behind the first counterexample,
            # so it can raise where a scan never looks; and it gives up on a
            # leaf whose first structure it cannot tell.  Then the checker
            # decides the chunk, which gives exactly its result or exception.
            try:
                batch = _Batch(self.vocab, n, chunk, low, self.config)
                hit = self._first_hit_in(batch, batch.full)
            except Exception:
                pass
            else:
                return None if hit is None else (chunk << low) | hit
        start = chunk << low
        return _scan(self.vocab, n, start, start + (1 << low), self.f, self.g,
                     self.config)

    def _first_hit_in(self, batch: _Batch, limit: int) -> int | None:
        """The lowest bit of `limit` whose structure falsifies f (or where f
        and g disagree), or None.

        A scan computes a pending leaf at the first structure that reaches
        it, and only if no structure before that one is a hit; so does this.
        """
        while True:
            try:
                tables = [run(batch, limit) for run in self.programs]
            except _LeafPending as pending:
                below = limit & ((1 << pending.first) - 1)
                hit = self._first_hit_in(batch, below) if below else None
                if hit is not None:
                    return hit
                pending.resolve()
                continue
            other = tables[1] if len(tables) == 2 else batch.full
            bad = limit & (tables[0] ^ other)
            return (bad & -bad).bit_length() - 1 if bad else None


def _pool_first_hit(task) -> int | None:
    vocab, f, g, config, n, chunk = task
    return _Sweep(vocab, f, g, config).first_hit(n, chunk)


def _first_hit_in_pool(jobs: int, tasks: list) -> int | None:
    """The first hit in task order, with up to 4 * jobs tasks in flight."""
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        for lo in range(0, len(tasks), 4 * jobs):
            futures = [pool.submit(_pool_first_hit, task)
                       for task in tasks[lo:lo + 4 * jobs]]
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

    Each size is decided in batches of up to 2^CHUNK_BITS structures, one
    bit per structure.  With jobs > 1 and at least two batches in a size,
    a pool of that many processes decides them; the result is the same.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    config = config or _EMPTY_CONFIG
    local = None
    for n in range(2, n_max + 1):
        chunks = range(1 << max(encoding_length(vocab, n) - CHUNK_BITS, 0))
        if jobs > 1 and len(chunks) > 1:
            hit = _first_hit_in_pool(
                jobs, [(vocab, f, g, config, n, chunk) for chunk in chunks])
        else:
            local = local or _Sweep(vocab, f, g, config)
            hits = (local.first_hit(n, chunk) for chunk in chunks)
            hit = next((h for h in hits if h is not None), None)
        if hit is not None:
            return structure_from_index(vocab, n, hit)
    return None


def truth_table(f: Formula, vocab: Vocabulary, n: int,
                config: EvalConfig | None = None) -> int | None:
    """f's verdicts on every size-n structure as one int, bit i for the
    structure with index i; None when the size is more than one batch or the
    batch raises for any reason.

    A pending leaf raises too, so no leaf is computed here: a caller that
    gets None decides the size with the checker, which gives exactly its
    results, exceptions and leaves.
    """
    low = encoding_length(vocab, n)
    if low > CHUNK_BITS:
        return None
    try:
        batch = _Batch(vocab, n, 0, low, config or _EMPTY_CONFIG)
        return _batch_program(f)(batch, batch.full)
    except Exception:
        return None
