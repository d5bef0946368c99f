"""Independent oracles the test suite checks the package against.

Nothing here shares code with fmwb's evaluator: naive_models is a plain
recursive truth definition over fresh assignment dicts, table_models builds
truth tables with numpy, naive_run simulates a machine to its clock, and the
remaining helpers are direct restatements of the properties under test
(breadth-first closure, exhaustive coloring, derivation search).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from fmwb.core import NoIntegerUniverse, decode_bin
from fmwb.logic import (
    And, Bit, Eq, Exists, Forall, Lt, Neq, Not, Or, Rel,
)


def naive_models(a, f, env=None):
    """Direct recursive Tarskian truth definition for first-order sentences."""
    env = env or {}
    if isinstance(f, Rel):
        return tuple(env[x] for x in f.args) in a.rel[f.name]
    if isinstance(f, Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, Neq):
        return env[f.left] != env[f.right]
    if isinstance(f, Lt):
        return env[f.left] < env[f.right]
    if isinstance(f, Bit):
        return (env[f.left] >> env[f.right]) % 2 == 1
    if isinstance(f, And):
        return naive_models(a, f.left, env) and naive_models(a, f.right, env)
    if isinstance(f, Or):
        return naive_models(a, f.left, env) or naive_models(a, f.right, env)
    if isinstance(f, Not):
        return not naive_models(a, f.sub, env)
    if isinstance(f, Exists):
        for value in range(a.n):
            if naive_models(a, f.sub, {**env, f.var: value}):
                return True
        return False
    if isinstance(f, Forall):
        for value in range(a.n):
            if not naive_models(a, f.sub, {**env, f.var: value}):
                return False
        return True
    raise TypeError(f"naive oracle only covers FO, got {f!r}")


def table_models(vocab, structures, formula):
    """Truth-table evaluation of one FO sentence over a batch of structures.

    All structures must share the universe size.  Returns a bool array with
    one verdict per structure.
    """
    n = structures[0].n
    count = len(structures)
    rels = {}
    for name, arity in vocab.symbols:
        arr = np.zeros((count,) + (n,) * arity, dtype=bool)
        for si, a in enumerate(structures):
            for tup in a.rel[name]:
                arr[(si,) + tup] = True
        rels[name] = arr

    idx = np.arange(n)

    def expand(arr, axes, target):
        missing = [v for v in target if v not in axes]
        arr = arr.reshape(arr.shape + (1,) * len(missing))
        current = axes + tuple(missing)
        perm = [0] + [1 + current.index(v) for v in target]
        arr = arr.transpose(perm)
        return np.broadcast_to(arr, (count,) + (n,) * len(target))

    def numeric(table, f):
        axes = (f.left,) if f.left == f.right else (f.left, f.right)
        if f.left == f.right:
            diag = np.diagonal(table)
            return np.broadcast_to(diag, (count, n)), axes
        return np.broadcast_to(table, (count, n, n)), axes

    def ev(f):
        if isinstance(f, Rel):
            axes = tuple(dict.fromkeys(f.args))
            pos = {v: i for i, v in enumerate(axes)}
            grids = np.meshgrid(*([idx] * len(axes)), indexing="ij")
            index = tuple(grids[pos[v]] for v in f.args)
            return rels[f.name][(slice(None),) + index], axes
        if isinstance(f, Eq):
            return numeric(idx[:, None] == idx[None, :], f)
        if isinstance(f, Neq):
            return numeric(idx[:, None] != idx[None, :], f)
        if isinstance(f, Lt):
            return numeric(idx[:, None] < idx[None, :], f)
        if isinstance(f, Bit):
            return numeric((idx[:, None] >> idx[None, :]) % 2 == 1, f)
        if isinstance(f, Not):
            arr, axes = ev(f.sub)
            return ~arr, axes
        if isinstance(f, (And, Or)):
            left, lax = ev(f.left)
            right, rax = ev(f.right)
            target = lax + tuple(v for v in rax if v not in lax)
            left = expand(left, lax, target)
            right = expand(right, rax, target)
            return (left & right) if isinstance(f, And) else (left | right), target
        if isinstance(f, (Exists, Forall)):
            arr, axes = ev(f.sub)
            if f.var not in axes:
                return arr, axes
            axis = 1 + axes.index(f.var)
            out = arr.any(axis=axis) if isinstance(f, Exists) else arr.all(axis=axis)
            return out, tuple(v for v in axes if v != f.var)
        raise TypeError(f"table oracle only covers FO, got {f!r}")

    arr, axes = ev(formula)
    for v in axes:
        # vacuously quantified free slots cannot remain in a sentence
        raise AssertionError(f"unbound variable {v} in sentence")
    return arr


def naive_run(machine, word, sentence, vocab):
    """A machine run step by step to its clock, with no cycle test.

    The clock is recomputed from the exponents, so they must be small.
    Queries that decode are answered by naive_models; others answer NO.
    """
    exponent = machine.step_c
    if machine.kind == "polytime":
        exponent = min(exponent, machine.clock_c)
    limit = min((len(word) + 2) ** exponent, 2 ** 63)
    space = None
    if machine.kind == "logspace":
        space = math.floor(machine.clock_c * math.log2(len(word) + 2))
    delta = dict(machine.transitions)
    moves = {"L": -1, "S": 0, "R": 1}
    state, in_head, sto_head, storage, query = machine.start, 0, 0, {}, ""
    cells = {0}
    for _ in range(limit):
        if state == "ACC":
            return True
        if state == "QUE":
            try:
                yes = naive_models(decode_bin(vocab, query), sentence)
            except NoIntegerUniverse:
                yes = False
            state, query = ("YES" if yes else "NO"), ""
            continue
        read = word[in_head] if 0 <= in_head < len(word) else "_"
        key = (state, read, storage.get(sto_head, "_"))
        if key not in delta:
            return False
        state, write, in_move, sto_move, append = delta[key]
        storage[sto_head] = write
        in_head += moves[in_move]
        sto_head += moves[sto_move]
        cells.add(sto_head)
        if space is not None and len(cells) > space:
            return False
        query += append
    return state == "ACC"


def reachable_pairs(a, rel_name="E"):
    """Reflexive-transitive closure of a binary relation, by BFS per source."""
    edges = {}
    for u, v in a.rel[rel_name]:
        edges.setdefault(u, set()).add(v)
    closure = set()
    for source in range(a.n):
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure.update((source, target) for target in seen)
    return closure


def colorable(a, colors, rel_name="E"):
    """Exhaustive proper-coloring search over all assignments."""
    edges = a.rel[rel_name]
    if any(u == v for u, v in edges):
        return False
    for assignment in itertools.product(range(colors), repeat=a.n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            return True
    return False


def derivable_strings(grammar, max_steps, max_len):
    """Terminal strings reachable by at most max_steps rule applications."""
    terminals = set(grammar.terminals)
    productions = {}
    for head, body in grammar.productions:
        productions.setdefault(head, []).append(body)
    found = set()
    frontier = {(grammar.start,)}
    seen = set(frontier)
    for _ in range(max_steps):
        nxt = set()
        for form in frontier:
            for i, sym in enumerate(form):
                if sym in terminals:
                    continue
                for body in productions.get(sym, ()):
                    new = form[:i] + body + form[i + 1:]
                    if sum(1 for s in new if s in terminals) > max_len:
                        continue
                    if new in seen:
                        continue
                    seen.add(new)
                    if all(s in terminals for s in new):
                        if len(new) <= max_len:
                            found.add(new)
                    else:
                        nxt.add(new)
        frontier = nxt
        if not frontier:
            break
    return found


# --- literal restatements of the characteristic-set definitions ----------
# The double loop below is the oracle: it re-reads the set definitions
# directly (bound, inner sweep, condition), sharing none of the package's
# decision-procedure plumbing.

from fmwb.cfg import cyk_member as _cyk_member
from fmwb.core import ell as _ell, encode_bin as _encode_bin, \
    enumerate_structures as _enumerate_structures
from fmwb.machines import run as _run
from fmwb.semantics import models as _models


def literal_member_ord(a, gamma, machine, upsilon_tau):
    bound = _ell(len(_encode_bin(a)), 3)
    for b in _enumerate_structures(a.vocab, max(bound, 1)):
        if b.n > bound:
            continue
        if _run(machine, _encode_bin(b), gamma, a.vocab) != _models(b, upsilon_tau):
            return False
    return True


def literal_member_unord(a, gamma, machine, upsilon_tau):
    bound = _ell(len(_encode_bin(a)), 2)
    for b in _enumerate_structures(a.vocab, max(bound, 1)):
        if b.n > bound:
            continue
        if _run(machine, _encode_bin(b), gamma, a.vocab) != _models(b, upsilon_tau):
            return False
    return True


def literal_member_npconp(a, lam, gamma):
    bound = _ell(len(_encode_bin(a)), 2)
    for b in _enumerate_structures(a.vocab, max(bound, 1)):
        if b.n > bound:
            continue
        if _models(b, lam) == _models(b, gamma):
            return False
    return True


def literal_member_cfg(a, grammar):
    bound = _ell(len(_encode_bin(a)), 3)
    for length in range(bound + 1):
        for word in itertools.product(grammar.terminals, repeat=length):
            if not _cyk_member(grammar, word):
                return False
    return True
