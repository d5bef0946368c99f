"""Seeded random generators for round-trip and fuzz corpora."""

from __future__ import annotations

import itertools
import random

from fmwb.core import Structure, Vocabulary
from fmwb.logic import (
    And, Bit, CharCfg, CharNpconp, CharOrd, CharUnord, CoCharUnord, Eq,
    Exists, Forall, Lfp, Lt, Neq, Not, Or, Pfp, Rel, SOExists, SOForall, Tc,
)
from fmwb.machines import (
    BLANK, RESERVED, OracleMachine, encode_tm, identity_machine,
)

FO_POOL = tuple(f"{base}{i}" for base in "xyzuvw" for i in range(1, 4))
SO_POOL = tuple(f"Q{i}" for i in range(1, 6))


def random_bits(rng: random.Random, max_len: int = 12) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


def random_structure(rng: random.Random, vocab: Vocabulary, n: int,
                     density: float = 0.4) -> Structure:
    relations = {}
    for name, arity in vocab.symbols:
        tuples = set()
        for tup in itertools.product(range(n), repeat=arity):
            if rng.random() < density:
                tuples.add(tup)
        relations[name] = tuples
    return Structure.make(vocab, n, relations)


def random_formula(rng: random.Random, vocab: Vocabulary, size: int,
                   allow_so: bool = True, allow_fix: bool = True,
                   allow_char: bool = True):
    """A random closed sentence exercising the whole node zoo."""

    def atom(fo_vars, so_rels):
        choices = []
        if fo_vars:
            # A rebound name hides its outer binding, possibly of another arity.
            symbols = list(vocab.symbols) + list(dict(so_rels).items())
            if symbols:
                name, arity = rng.choice(symbols)
                choices.append(
                    lambda: Rel(name, tuple(rng.choice(fo_vars)
                                            for _ in range(arity)))
                )
            numeric = [Eq, Neq] + ([Lt, Bit] if vocab.has_order else [])
            cls = rng.choice(numeric)
            choices.append(
                lambda: cls(rng.choice(fo_vars), rng.choice(fo_vars))
            )
        if allow_char:
            choices.append(lambda: rng.choice([
                CharOrd(random_bits(rng), random_bits(rng)),
                CharUnord(random_bits(rng), random_bits(rng)),
                CoCharUnord(random_bits(rng), random_bits(rng)),
                CharNpconp(random_bits(rng), random_bits(rng)),
                CharCfg(random_bits(rng)),
            ]))
        if not choices:
            return None
        return rng.choice(choices)()

    def bound_names(count, fo_vars):
        # Fresh names first; once the pool runs out, reused names hide
        # their outer binding, as in the quantifier branch.
        fresh = [v for v in FO_POOL if v not in fo_vars]
        if len(fresh) >= count:
            return fresh[:count]
        reused = [v for v in FO_POOL if v not in fresh]
        return fresh + rng.sample(reused, count - len(fresh))

    def build(budget, fo_vars, so_rels):
        if budget <= 1:
            leaf = atom(fo_vars, so_rels)
            if leaf is not None:
                return leaf
            # No atom without a variable: bind one.  Drawing from every kind
            # here would open one new subformula per step on average, and
            # such a draw can grow without end.
            budget, kinds = 2, ["exists", "forall"]
        else:
            kinds = ["not", "and", "or", "exists", "forall"]
            if allow_so:
                kinds += ["soexists", "soforall"]
            if allow_fix and fo_vars and budget >= 3:
                kinds += ["tc", "lfp", "pfp"]
        kind = rng.choice(kinds)
        if kind == "not":
            return Not(build(budget - 1, fo_vars, so_rels))
        if kind in ("and", "or"):
            split = rng.randint(1, budget - 2) if budget > 2 else 1
            left = build(split, fo_vars, so_rels)
            right = build(budget - 1 - split, fo_vars, so_rels)
            return (And if kind == "and" else Or)(left, right)
        if kind in ("exists", "forall"):
            fresh = [v for v in FO_POOL if v not in fo_vars]
            var = rng.choice(fresh) if fresh else rng.choice(FO_POOL)
            body = build(budget - 1, fo_vars + [var], so_rels)
            return (Exists if kind == "exists" else Forall)(var, body)
        if kind in ("soexists", "soforall"):
            fresh = [q for q in SO_POOL if all(q != name for name, _ in so_rels)]
            relvar = rng.choice(fresh) if fresh else rng.choice(SO_POOL)
            arity = rng.randint(1, 2)
            body = build(budget - 1, fo_vars, so_rels + [(relvar, arity)])
            return (SOExists if kind == "soexists" else SOForall)(
                relvar, arity, body
            )
        if kind == "tc":
            v1, v2 = bound_names(2, fo_vars)
            body = build(budget - 2, fo_vars + [v1, v2], so_rels)
            return Tc(v1, v2, body, rng.choice(fo_vars), rng.choice(fo_vars))
        arity = rng.randint(1, 2)
        vars_ = tuple(bound_names(arity, fo_vars))
        relvar = rng.choice(SO_POOL)
        body = build(budget - 2, fo_vars + list(vars_),
                     so_rels + [(relvar, arity)])
        args = tuple(rng.choice(fo_vars) for _ in range(arity))
        cls = Lfp if kind == "lfp" else Pfp
        if cls is Lfp and not _syntactically_positive(body, relvar):
            body = Rel(relvar, vars_)
        return cls(relvar, vars_, body, args)

    return build(size, [], [])


def _syntactically_positive(f, name, polarity=True):
    if isinstance(f, Rel):
        return polarity or f.name != name
    if isinstance(f, Not):
        return _syntactically_positive(f.sub, name, not polarity)
    if isinstance(f, (And, Or)):
        return (_syntactically_positive(f.left, name, polarity)
                and _syntactically_positive(f.right, name, polarity))
    if isinstance(f, (Exists, Forall, Tc)):
        return _syntactically_positive(f.sub, name, polarity)
    if isinstance(f, (SOExists, SOForall, Lfp, Pfp)):
        if f.relvar == name:
            return True
        return _syntactically_positive(f.sub, name, polarity)
    return True


def random_machine(rng: random.Random, kind: str = "polytime",
                   max_transitions: int = 6) -> OracleMachine:
    extras = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    states = extras + RESERVED
    symbols = ("0", "1", "_")
    moves = ("L", "R", "S")
    appends = ("", "0", "1")
    sources = [s for s in states if s not in ("ACC", "QUE")]
    keys = [(s, a, b) for s in sources for a in symbols for b in symbols]
    transitions = {}
    for key in rng.sample(keys, rng.randint(0, min(max_transitions, len(keys)))):
        transitions[key] = (
            rng.choice(states), rng.choice(symbols), rng.choice(moves),
            rng.choice(moves), rng.choice(appends),
        )
    return OracleMachine.make(
        states, rng.choice(sources), kind,
        rng.randint(1, 3), rng.randint(1, 3), transitions,
    )


def padded_identity_machine(min_bits: int) -> OracleMachine:
    """identity_machine plus unreachable self-looping states, until its
    code has at least min_bits bits."""
    base = identity_machine()
    pad = 0
    while True:
        extra = tuple(f"p{i}" for i in range(pad))
        transitions = dict(base.transitions)
        transitions.update({(s, BLANK, BLANK): (s, BLANK, "S", "S", "")
                            for s in extra})
        m = OracleMachine.make(base.states + extra, base.start, base.kind,
                               base.clock_c, base.step_c, transitions)
        if len(encode_tm(m)) >= min_bits:
            return m
        pad += 16


# --- single-node mutation machinery for recognizer robustness tests ------

from fmwb.logic import (
    Psi, children as _children, with_children as _with_children,
)
from oracles import psi_expansion as _psi_expansion


def _expand_psi(f):
    """f with every Psi leaf replaced by the nested sentence it stands for."""
    if isinstance(f, Psi):
        return _psi_expansion(f.bits)
    kids = _children(f)
    if not kids:
        return f
    return _with_children(f, tuple(_expand_psi(k) for k in kids))


def _paths(f, path=()):
    yield path, f
    for i, child in enumerate(_children(f)):
        yield from _paths(child, path + (i,))


def _replace_at(f, path, new):
    if not path:
        return new
    kids = list(_children(f))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return _with_children(f, tuple(kids))


def _mutate_node(node, rng):
    swaps = {And: Or, Or: And, Exists: Forall, Forall: Exists, Eq: Neq,
             Neq: Eq, Lt: Eq, Bit: Lt}
    t = type(node)
    if t in swaps:
        cls = swaps[t]
        if t in (And, Or):
            return cls(node.left, node.right)
        if t in (Exists, Forall):
            return cls(node.var, node.sub)
        return cls(node.left, node.right)
    if t is Rel:
        return Rel(node.name + "X", node.args)
    if t is Not:
        return node.sub
    if t is CharOrd:
        flipped = ("1" if node.machine_code[0] == "0" else "0") + node.machine_code[1:]
        return CharOrd(node.gamma_code, flipped)
    if t is CharUnord:
        return CharUnord(node.gamma_code + "0", node.machine_code)
    if t is CoCharUnord:
        return CharUnord(node.gamma_code, node.machine_code)
    if t is CharNpconp:
        return CharNpconp(node.gamma_code, node.lambda_code)
    if t is SOExists:
        return SOExists(node.relvar, node.arity + 1, node.sub)
    return None


def single_node_mutations(f, rng, want):
    """Distinct formulas differing from f by one local node edit.

    Encoding sentences are expanded first, so that edits reach inside them.
    """
    f = _expand_psi(f)
    spots = list(_paths(f))
    rng.shuffle(spots)
    out = []
    for path, node in spots:
        mutated = _mutate_node(node, rng)
        if mutated is None or mutated == node:
            continue
        candidate = _replace_at(f, path, mutated)
        if candidate != f:
            out.append(candidate)
        if len(out) >= want:
            break
    return out
