"""Independent oracles the test suite checks the package against.

Nothing here shares code with fmwb's evaluator: naive_models is a plain
recursive truth definition over fresh assignment dicts, table_models builds
truth tables with numpy, naive_run simulates a machine to its clock,
naive_reduction_upto checks a reduction one structure at a time with those two,
naive_parse is a recursive-descent parser of the text syntax, the naive_*
bit codecs read and write a bit or a byte at a time, naive_enumerate sorts
every pair of a round, and the remaining helpers are direct restatements
of the properties under test (breadth-first closure, exhaustive coloring,
derivation search, grammar spans).
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from fmwb.aristotelian import MalformedCode, encode_nat
from fmwb.core import NoIntegerUniverse, Structure, decode_bin
from fmwb.logic import (
    And, Bit, CharCfg, CharNpconp, CharOrd, CharUnord, CoCharUnord, Eq,
    Exists, Forall, FormulaError, FormulaSyntaxError, Lfp, Lt, Neq, Not, Or,
    Pfp, Psi, Rel, SOExists, SOForall, Tc,
)
from fmwb.semantics import NoLeastFixpoint


def psi_expansion(w):
    """The nested sentence Psi(w) stands for, built here from its definition."""
    k = len(w)
    matrix = Neq("x1", "x1")
    for i in range(2, k + 1):
        matrix = And(matrix, Neq(f"x{i}", f"x{i}"))
    for i in range(k, 0, -1):
        matrix = (Exists if w[i - 1] == "1" else Forall)(f"x{i}", matrix)
    return matrix


def naive_decode_nat(bits, pos=0):
    """One encode_nat codeword at pos, its 1-prefix scanned a bit at a
    time: (value, bits consumed)."""
    i = pos
    while i < len(bits) and bits[i] == "1":
        i += 1
    if i >= len(bits):
        raise MalformedCode("ran out of bits scanning the length-of-length prefix")
    clen = i - pos
    if clen == 0:
        raise MalformedCode("codeword must start with at least one 1")
    i += 1
    if i + clen > len(bits):
        raise MalformedCode("truncated length field")
    blen = int(bits[i : i + clen], 2)
    i += clen
    if i + blen > len(bits):
        raise MalformedCode("truncated value field")
    if blen == 0:
        raise MalformedCode("empty value field")
    value = int(bits[i : i + blen], 2)
    return value, i + blen - pos


def naive_encode_str(s):
    """encode_str written a byte at a time."""
    data = s.encode("ascii")
    return encode_nat(len(data)) + "".join(format(byte, "08b") for byte in data)


def naive_read_string(bits):
    """The encode_str codeword bits starts with, read a byte at a time:
    (string, bits consumed)."""
    length, pos = naive_decode_nat(bits)
    if pos + 8 * length > len(bits):
        raise MalformedCode(f"truncated field at bit {pos}")
    data = bits[pos : pos + 8 * length]
    try:
        text = bytes(int(data[i : i + 8], 2) for i in range(0, len(data), 8)).decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedCode("string field is not ascii") from exc
    return text, pos + 8 * length


def naive_models(a, f, env=None, rels=None, leaf=None):
    """Direct recursive Tarskian truth definition for the whole sentence
    language.

    rels holds the relation variables that second-order quantifiers and
    fixpoints bind.  A second-order quantifier tries the relations in the
    package's order, the one whose mask bit i holds the i-th tuple in
    lexicographic order, and stops at the first witness (or
    counterexample).  A fixpoint's stages go from the empty relation until
    one repeats the stage before it; a stage that comes back after a
    different one is a cycle, which a least fixpoint reports as
    NoLeastFixpoint and a partial one reads as empty.  A characteristic
    leaf's truth value is leaf(node), asked at every point the definition
    reaches the leaf.
    """
    env = env or {}
    rels = rels or {}

    def holds(g, env=env, rels=rels):
        return naive_models(a, g, env, rels, leaf)

    if isinstance(f, Psi):
        return holds(psi_expansion(f.bits))
    if isinstance(f, Rel):
        extension = rels[f.name] if f.name in rels else a.rel[f.name]
        return tuple(env[x] for x in f.args) in extension
    if isinstance(f, Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, Neq):
        return env[f.left] != env[f.right]
    if isinstance(f, Lt):
        return env[f.left] < env[f.right]
    if isinstance(f, Bit):
        return (env[f.left] >> env[f.right]) % 2 == 1
    if isinstance(f, And):
        return holds(f.left) and holds(f.right)
    if isinstance(f, Or):
        return holds(f.left) or holds(f.right)
    if isinstance(f, Not):
        return not holds(f.sub)
    if isinstance(f, Exists):
        for value in range(a.n):
            if holds(f.sub, {**env, f.var: value}):
                return True
        return False
    if isinstance(f, Forall):
        for value in range(a.n):
            if not holds(f.sub, {**env, f.var: value}):
                return False
        return True
    if isinstance(f, (SOExists, SOForall)):
        tuples = list(itertools.product(range(a.n), repeat=f.arity))
        want = isinstance(f, SOExists)
        for mask in range(2 ** len(tuples)):
            relation = frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
            if holds(f.sub, env, {**rels, f.relvar: relation}) == want:
                return want
        return not want
    if isinstance(f, Tc):
        # Every edge first, then the elements reachable in zero or more steps.
        edges = {(u, v) for u in range(a.n) for v in range(a.n)
                 if holds(f.sub, {**env, f.var1: u, f.var2: v})}
        reached, frontier = {env[f.arg1]}, [env[f.arg1]]
        while frontier:
            u = frontier.pop()
            for v in range(a.n):
                if (u, v) in edges and v not in reached:
                    reached.add(v)
                    frontier.append(v)
        return env[f.arg2] in reached
    if isinstance(f, (Lfp, Pfp)):
        tuples = list(itertools.product(range(a.n), repeat=len(f.vars)))
        stages = [frozenset()]
        while True:
            inner = {**rels, f.relvar: stages[-1]}
            nxt = frozenset(t for t in tuples if holds(
                f.sub, {**env, **dict(zip(f.vars, t))}, inner))
            if nxt == stages[-1]:
                break
            if nxt in stages:
                if isinstance(f, Lfp):
                    raise NoLeastFixpoint(f"stages of {f.relvar} cycle")
                stages.append(frozenset())
                break
            stages.append(nxt)
        return tuple(env[x] for x in f.args) in stages[-1]
    if isinstance(f, (CharOrd, CharUnord, CoCharUnord, CharNpconp, CharCfg)):
        if leaf is None:
            raise TypeError("a characteristic leaf needs the leaf callback")
        return leaf(f)
    raise TypeError(f"naive oracle does not cover {f!r}")


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


def naive_reduction_upto(machine, gamma, target, vocab, n_max):
    """(n, bits) of the first structure, by size and then encoding, where
    naive_run of the machine on the encoding differs from naive_models of
    the target; None if there is none."""
    for n in range(2, n_max + 1):
        length = sum(n ** arity for _, arity in vocab.symbols)
        for bits in range(2 ** length):
            word = "".join("1" if bits >> (length - 1 - i) & 1 else "0"
                           for i in range(length))
            accepted = naive_run(machine, word, gamma, vocab)
            if accepted != naive_models(Structure(vocab, n, bits), target):
                return n, bits
    return None


# --- reference parser ------------------------------------------------------
# A plain recursive-descent parser of the text syntax: one method per
# grammar level, tokens and their positions listed up front.  It builds
# encoding sentences node by node, which compare equal to Psi leaves.

_VAR = re.compile(r"[a-z][a-z0-9_]*\Z")
_REL = re.compile(r"[A-Z][A-Z0-9_]*\Z")
_TOKEN = re.compile(
    r"\s*(->|!=|[A-Za-z_][A-Za-z0-9_]*|[()\[\]{}:,&|~=<]|[0-9a-f]+)"
)
_CHAR_KEYWORDS = {
    "CHAR_ORD": CharOrd,
    "CHAR_UNORD": CharUnord,
    "COCHAR_UNORD": CoCharUnord,
    "CHAR_NPCONP": CharNpconp,
    "CHAR_CFG": CharCfg,
}


def _hex_to_bits(h):
    if not h or any(c not in "0123456789abcdef" for c in h):
        raise FormulaError(f"bad hex payload {h!r}")
    return format(int(h, 16), "b")[1:]


class _NaiveParser:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise FormulaSyntaxError(
                        f"unexpected character {text[pos]!r}", pos
                    )
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def next(self):
        if self.i >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.peek()
        if got != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, found {got!r}", self.pos())
        self.i += 1

    def variable(self):
        tok = self.next()
        if not _VAR.match(tok):
            raise FormulaSyntaxError(f"expected a variable, found {tok!r}",
                                     self.pos())
        return tok

    # precedence: -> weakest, then |, then &, then ~/quantifiers/atoms
    def formula(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            right = self.formula()
            return Or(Not(left), right)
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek() == "|":
            self.next()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek() == "&":
            self.next()
            node = And(node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.next()
            return Not(self.unary())
        if tok in ("(", "["):
            closing = ")" if tok == "(" else "]"
            self.next()
            node = self.formula()
            self.expect(closing)
            return node
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.pos())
        if tok in _CHAR_KEYWORDS:
            return self.char_leaf()
        if tok == "BIT":
            self.next()
            self.expect("(")
            left = self.variable()
            self.expect(",")
            right = self.variable()
            self.expect(")")
            return Bit(left, right)
        if tok == "TC":
            return self.tc()
        if tok in ("LFP", "PFP"):
            return self.fixpoint()
        if len(tok) > 1 and tok[0] in "EA":
            rest = tok[1:]
            if _VAR.match(rest):
                self.next()
                sub = self.unary()
                return Exists(rest, sub) if tok[0] == "E" else Forall(rest, sub)
            if _REL.match(rest) and self.i + 1 < len(self.tokens) \
                    and self.tokens[self.i + 1][0] == ":":
                self.next()
                self.expect(":")
                arity_tok = self.next()
                if not arity_tok.isdigit() or int(arity_tok) < 1:
                    raise FormulaSyntaxError(
                        f"bad relation-variable arity {arity_tok!r}", self.pos()
                    )
                sub = self.unary()
                cls = SOExists if tok[0] == "E" else SOForall
                return cls(rest, int(arity_tok), sub)
        return self.atom()

    def char_leaf(self):
        kind = _CHAR_KEYWORDS[self.next()]
        self.expect("{")
        payloads = [self.next()]
        while self.peek() == ",":
            self.next()
            payloads.append(self.next())
        self.expect("}")
        try:
            bits = [_hex_to_bits(p) for p in payloads]
        except FormulaError as exc:
            raise FormulaSyntaxError(str(exc), self.pos()) from exc
        expected = 1 if kind is CharCfg else 2
        if len(bits) != expected:
            raise FormulaSyntaxError(
                f"{kind.__name__} takes {expected} payloads, got {len(bits)}",
                self.pos(),
            )
        return kind(*bits)

    def tc(self):
        self.next()
        self.expect("[")
        v1 = self.variable()
        self.expect(",")
        v2 = self.variable()
        self.expect(":")
        sub = self.formula()
        self.expect("]")
        self.expect("(")
        a1 = self.variable()
        self.expect(",")
        a2 = self.variable()
        self.expect(")")
        return Tc(v1, v2, sub, a1, a2)

    def fixpoint(self):
        cls = Lfp if self.next() == "LFP" else Pfp
        self.expect("[")
        relvar = self.next()
        if not _REL.match(relvar):
            raise FormulaSyntaxError(
                f"expected a relation variable, found {relvar!r}", self.pos()
            )
        vars_ = []
        while self.peek() == ",":
            self.next()
            vars_.append(self.variable())
        if not vars_:
            raise FormulaSyntaxError("fixpoint binds at least one variable",
                                     self.pos())
        self.expect(":")
        sub = self.formula()
        self.expect("]")
        self.expect("(")
        args = [self.variable()]
        while self.peek() == ",":
            self.next()
            args.append(self.variable())
        self.expect(")")
        return cls(relvar, tuple(vars_), sub, tuple(args))

    def atom(self):
        tok = self.next()
        if _REL.match(tok):
            self.expect("(")
            args = [self.variable()]
            while self.peek() == ",":
                self.next()
                args.append(self.variable())
            self.expect(")")
            return Rel(tok, tuple(args))
        if _VAR.match(tok):
            op = self.next()
            right = self.variable()
            if op == "=":
                return Eq(tok, right)
            if op == "!=":
                return Neq(tok, right)
            if op == "<":
                return Lt(tok, right)
            raise FormulaSyntaxError(f"unknown comparison {op!r}", self.pos())
        raise FormulaSyntaxError(f"unexpected token {tok!r}", self.pos())


def naive_parse(text):
    """Parse the text syntax by recursive descent (shallow sentences only)."""
    parser = _NaiveParser(text)
    node = parser.formula()
    if parser.i != len(parser.tokens):
        raise FormulaSyntaxError(
            f"trailing input {parser.peek()!r}", parser.pos()
        )
    return node


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


def span_member(grammar, word):
    """Is word in L(grammar)?  The least set of (symbol, i, j) with the
    symbol deriving word[i:j], closed under the grammar's own rules: no
    normal form."""
    word = tuple(word)
    n = len(word)
    derived = {(sym, i, i + 1) for i, sym in enumerate(word)}
    changed = True
    while changed:
        changed = False
        for head, body in grammar.productions:
            for i in range(n + 1):
                ends = {i}
                for sym in body:
                    ends = {k for e in ends for k in range(e, n + 1)
                            if (sym, e, k) in derived}
                for j in ends:
                    if (head, i, j) not in derived:
                        derived.add((head, i, j))
                        changed = True
    return (grammar.start, 0, n) in derived


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


# --- the enumeration order, by sorting every pair -------------------------

from fmwb.forms import build_form as _build_form, fo_sentences as _fo_sentences, \
    machine_kind_for as _machine_kind_for, machine_pool as _machine_pool
from fmwb.logic import LOGIC_OF_CLASS as _LOGIC_OF_CLASS, SO_E as _SO_E, \
    char_free as _char_free, godel_encode as _godel_encode, \
    in_fragment as _in_fragment
from fmwb.machines import encode_tm as _encode_tm


def naive_enumerate(kind, *, tau, cls=None, upsilon=None, budget=20):
    """The first budget forms of enumerate_logic's order, as a list: round
    r filters the sentences of at most r + 2 nodes to the fragment, builds
    every (gamma, machine) pair, or every (lambda, gamma) pair for npconp8,
    and sorts them all by (total code length, first code, second code); a
    round with fewer than budget pairs gives way to the next."""
    if budget == 0:
        return []
    rounds = 1
    while True:
        if kind == "npconp8":
            coded = [(_godel_encode(f), f) for f in _fo_sentences(tau, 2 + rounds)
                     if _char_free(f) and _in_fragment(f, _SO_E)]
            others = coded
        else:
            coded = [(_godel_encode(f), f) for f in _fo_sentences(tau, 2 + rounds)
                     if _in_fragment(f, _LOGIC_OF_CLASS[cls])]
            others = [(_encode_tm(m), m)
                      for m in _machine_pool(_machine_kind_for(cls), rounds + 1)]
        pairs = [(len(a) + len(b), a, b, x, y) for a, x in coded for b, y in others]
        if len(pairs) >= budget:
            break
        rounds += 1
    pairs.sort(key=lambda item: item[:3])
    if kind == "npconp8":
        return [_build_form(kind, y, tau=tau, lam=x).formula
                for _, _, _, x, y in pairs[:budget]]
    return [_build_form(kind, x, tau=tau, cls=cls, machine=y, upsilon=upsilon).formula
            for _, _, _, x, y in pairs[:budget]]
