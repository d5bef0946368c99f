"""Context-free grammars over alphabets of at least two symbols.

Membership goes through a cached Chomsky-normal-form conversion and CYK.
Only bounded probes of a language are ever offered; whether L(G) exhausts
the full alphabet closure is undecidable and deliberately not answered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .aristotelian import BitReader, MalformedCode, encode_nat, encode_str


class GrammarError(ValueError):
    pass


class AlphabetMismatch(ValueError):
    pass


class MalformedGrammar(ValueError):
    pass


@dataclass(frozen=True)
class Grammar:
    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    productions: tuple[tuple[str, tuple[str, ...]], ...]
    start: str

    def __post_init__(self):
        if len(self.terminals) < 2:
            raise GrammarError("terminal alphabet needs at least two symbols")
        declared = set(self.nonterminals) | set(self.terminals)
        if len(declared) != len(self.nonterminals) + len(self.terminals):
            raise GrammarError("nonterminals and terminals must be disjoint")
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for head, body in self.productions:
            if head not in self.nonterminals:
                raise GrammarError(f"production head {head!r} is not a nonterminal")
            for sym in body:
                if sym not in declared:
                    raise GrammarError(f"production uses undeclared symbol {sym!r}")

    @classmethod
    def make(cls, nonterminals, terminals, productions, start) -> "Grammar":
        prods = tuple(sorted({(head, tuple(body)) for head, body in productions}))
        return cls(tuple(nonterminals), tuple(terminals), prods, start)


def parse_grammar(text: str, terminals: tuple[str, ...] | None = None) -> Grammar:
    """One production per line: ``S -> a S b | eps``.

    Heads are the nonterminals; every other symbol is terminal.  The first
    head is the start symbol.  Extra alphabet symbols that appear in no
    production can be supplied explicitly.
    """
    rules: list[tuple[str, tuple[str, ...]]] = []
    heads: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition("->")
        head = head.strip()
        if not sep or not head or len(head.split()) != 1:
            raise GrammarError(f"bad production line {raw!r}")
        if head not in heads:
            heads.append(head)
        for alt in rest.split("|"):
            symbols = alt.split()
            if symbols == ["eps"]:
                symbols = []
            rules.append((head, tuple(symbols)))
    if not heads:
        raise GrammarError("grammar needs at least one production")
    seen = {sym for _, body in rules for sym in body if sym not in heads}
    alphabet = tuple(terminals) if terminals else tuple(sorted(seen))
    return Grammar.make(heads, alphabet, rules, heads[0])


def _fresh(base: str, used: set[str]) -> str:
    if base not in used:
        used.add(base)
        return base
    i = 2
    while f"{base}{i}" in used:
        i += 1
    used.add(f"{base}{i}")
    return f"{base}{i}"


def to_cnf(g: Grammar) -> Grammar:
    """Language-equivalent Chomsky normal form.

    The empty string, when generated, survives as a single epsilon production
    of a fresh start symbol that occurs on no right-hand side.
    """
    used = set(g.nonterminals) | set(g.terminals)
    terminals = set(g.terminals)
    rules = {(head, body) for head, body in g.productions}

    start = _fresh("S0", used)
    rules.add((start, (g.start,)))

    # isolate terminals inside long bodies
    wrappers: dict[str, str] = {}
    def wrap(sym: str) -> str:
        if sym not in terminals:
            return sym
        if sym not in wrappers:
            wrappers[sym] = _fresh(f"T_{sym}", used)
        return wrappers[sym]

    isolated = set()
    for head, body in rules:
        if len(body) >= 2:
            body = tuple(wrap(sym) for sym in body)
        isolated.add((head, body))
    for sym, name in wrappers.items():
        isolated.add((name, (sym,)))
    rules = isolated

    # binarize
    binary = set()
    for head, body in rules:
        while len(body) > 2:
            helper = _fresh("X", used)
            binary.add((head, (body[0], helper)))
            head, body = helper, body[1:]
        binary.add((head, body))
    rules = binary

    # drop epsilon productions, tracking nullable symbols
    nullable = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in nullable and all(s in nullable for s in body):
                nullable.add(head)
                changed = True
    no_eps = set()
    for head, body in rules:
        options = [
            [sym] if sym not in nullable else [sym, None] for sym in body
        ]
        for choice in itertools.product(*options):
            trimmed = tuple(sym for sym in choice if sym is not None)
            if trimmed or head == start:
                no_eps.add((head, trimmed))
    rules = {(h, b) for h, b in no_eps if b or h == start}

    # collapse unit chains
    units = {(h, b[0]) for h, b in rules if len(b) == 1 and b[0] not in terminals}
    closure = {(nt, nt) for nt in used if nt not in terminals}
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in units:
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    final = set()
    for head, body in rules:
        if len(body) == 1 and body[0] not in terminals:
            continue
        for a, b in closure:
            if b == head:
                final.add((a, body))
    rules = final

    # keep only generating, reachable symbols
    generating = set(terminals)
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in generating and all(s in generating for s in body):
                generating.add(head)
                changed = True
    rules = {
        (h, b) for h, b in rules
        if h in generating and all(s in generating for s in b)
    }
    reachable = {start}
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head in reachable:
                for sym in body:
                    if sym not in reachable and sym not in terminals:
                        reachable.add(sym)
                        changed = True
    rules = {(h, b) for h, b in rules if h in reachable}

    nonterminals = [start] + sorted(
        {h for h, _ in rules if h != start}
        | {s for _, b in rules for s in b if s not in terminals and s != start}
    )
    return Grammar.make(nonterminals, g.terminals, rules, start)


@lru_cache(maxsize=512)
def _cnf_tables(g: Grammar):
    cnf = to_cnf(g)
    by_terminal: dict[str, set[str]] = {}
    binary: list[tuple[str, str, str]] = []
    empty_start = False
    for head, body in cnf.productions:
        if not body:
            empty_start = True
        elif len(body) == 1:
            by_terminal.setdefault(body[0], set()).add(head)
        else:
            binary.append((head, body[0], body[1]))
    return cnf.start, by_terminal, binary, empty_start


def cyk_member(g: Grammar, w) -> bool:
    """Is the string (sequence of terminal symbols) in the language?"""
    word = tuple(w)
    for sym in word:
        if sym not in g.terminals:
            raise AlphabetMismatch(f"symbol {sym!r} is not in {g.terminals}")
    start, by_terminal, binary, empty_start = _cnf_tables(g)
    n = len(word)
    if n == 0:
        return empty_start
    table = [[set() for _ in range(n + 1)] for _ in range(n)]
    for i, sym in enumerate(word):
        table[i][i + 1] = set(by_terminal.get(sym, ()))
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            cell = table[i][j]
            for mid in range(i + 1, j):
                left, right = table[i][mid], table[mid][j]
                for head, b, c in binary:
                    if b in left and c in right:
                        cell.add(head)
    return start in table[0][n]


def find_missing(g: Grammar, len_max: int) -> tuple[str, ...] | None:
    """Least string (length, then alphabet order) up to len_max outside L(G)."""
    if len_max < 0:
        raise ValueError(f"len_max must be >= 0, got {len_max}")
    for length in range(len_max + 1):
        for word in itertools.product(g.terminals, repeat=length):
            if not cyk_member(g, word):
                return word
    return None


# --- serialization -------------------------------------------------------


def encode_grammar(g: Grammar) -> str:
    nt_index = {nt: i for i, nt in enumerate(g.nonterminals)}
    t_index = {t: i for i, t in enumerate(g.terminals)}
    out = [encode_nat(len(g.nonterminals))]
    out.extend(encode_str(nt) for nt in g.nonterminals)
    out.append(encode_nat(len(g.terminals)))
    out.extend(encode_str(t) for t in g.terminals)
    out.append(encode_nat(nt_index[g.start]))
    out.append(encode_nat(len(g.productions)))
    for head, body in g.productions:
        out.append(encode_nat(nt_index[head]))
        out.append(encode_nat(len(body)))
        for sym in body:
            if sym in nt_index:
                out.append("0" + encode_nat(nt_index[sym]))
            else:
                out.append("1" + encode_nat(t_index[sym]))
    return "".join(out)


def decode_grammar(bits: str) -> Grammar:
    if not bits or bits.strip("01"):
        raise MalformedGrammar("grammar code must be a nonempty bit string")
    r = BitReader(bits)
    try:
        nonterminals = tuple(r.string() for _ in range(r.nat()))
        terminals = tuple(r.string() for _ in range(r.nat()))
        start_idx = r.nat()
        productions = []
        for _ in range(r.nat()):
            head_idx = r.nat()
            body = []
            for _ in range(r.nat()):
                is_terminal = r.take(1) == "1"
                idx = r.nat()
                pool = terminals if is_terminal else nonterminals
                if idx >= len(pool):
                    raise MalformedCode("symbol index out of range")
                body.append(pool[idx])
            if head_idx >= len(nonterminals):
                raise MalformedCode("production head out of range")
            productions.append((nonterminals[head_idx], tuple(body)))
    except MalformedCode as exc:
        raise MalformedGrammar(str(exc)) from exc
    if r.pos != len(bits):
        raise MalformedGrammar(f"{len(bits) - r.pos} trailing bits after the grammar")
    if start_idx >= len(nonterminals):
        raise MalformedGrammar("start index out of range")
    try:
        return Grammar.make(nonterminals, terminals, productions,
                            nonterminals[start_idx])
    except GrammarError as exc:
        raise MalformedGrammar(str(exc)) from exc
