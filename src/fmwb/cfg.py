"""Context-free grammars over alphabets of at least two symbols.

Membership goes through a cached Chomsky-normal-form conversion and CYK.
Only bounded probes of a language are ever offered; whether L(G) exhausts
the full alphabet closure is undecidable and deliberately not answered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .aristotelian import BitReader, encode_nat, encode_str, read_code
from .core import text_lines


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
    head is the start symbol.  ``eps`` alone is the empty body; an empty
    alternative, or ``eps`` beside other symbols, is an error.  Extra
    alphabet symbols that appear in no production can be supplied
    explicitly.
    """
    rules: list[tuple[str, tuple[str, ...]]] = []
    heads: list[str] = []
    for line, raw in text_lines(text):
        head, sep, rest = line.partition("->")
        head = head.strip()
        if not sep or not head or len(head.split()) != 1:
            raise GrammarError(f"bad production line {raw!r}")
        if head not in heads:
            heads.append(head)
        for alt in rest.split("|"):
            symbols = alt.split()
            if not symbols:
                raise GrammarError(f"empty alternative in {raw!r}, write eps for the empty body")
            if symbols == ["eps"]:
                symbols = []
            elif "eps" in symbols:
                raise GrammarError(f"eps must stand alone in {raw!r}")
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


def _closure(found: set, clauses) -> set:
    """The least superset of found closed under the Horn clauses
    (premises, conclusions): once every premise is in, so are the
    conclusions.  Each pass sees what earlier clauses of the pass added."""
    while True:
        waiting = []
        for premises, conclusions in clauses:
            if found.issuperset(premises):
                found.update(conclusions)
            else:
                waiting.append((premises, conclusions))
        if len(waiting) == len(clauses):
            return found
        clauses = waiting


def to_cnf(g: Grammar) -> Grammar:
    """Language-equivalent Chomsky normal form.

    The empty string, when generated, survives as a single epsilon production
    of a fresh start symbol that occurs on no right-hand side.  Fresh names
    are given in the order of the sorted productions, so the result depends
    on the grammar alone.
    """
    used = set(g.nonterminals) | set(g.terminals)
    terminals = set(g.terminals)
    start = _fresh("S0", used)
    wrappers: dict[str, str] = {}

    # isolate terminals inside long bodies and binarize, in one pass
    rules = {(start, (g.start,))}
    for head, body in sorted(g.productions):
        if len(body) >= 2:
            for sym in body:
                if sym in terminals and sym not in wrappers:
                    wrappers[sym] = _fresh(f"T_{sym}", used)
            body = tuple(wrappers.get(sym, sym) for sym in body)
        while len(body) > 2:
            helper = _fresh("X", used)
            rules.add((head, (body[0], helper)))
            head, body = helper, body[1:]
        rules.add((head, body))
    rules.update((name, (sym,)) for sym, name in wrappers.items())

    # drop epsilon productions: each nullable symbol may be left out
    nullable = _closure(set(), [(body, (head,)) for head, body in rules])
    no_eps = set()
    for head, body in rules:
        options = [(sym, None) if sym in nullable else (sym,) for sym in body]
        for choice in itertools.product(*options):
            trimmed = tuple(sym for sym in choice if sym is not None)
            if trimmed or head == start:
                no_eps.add((head, trimmed))

    # collapse unit chains: A takes the other bodies of all B below it
    units, bodies = [], {}
    for head, body in no_eps:
        if len(body) == 1 and body[0] not in terminals:
            units.append(((head,), body))
        else:
            bodies.setdefault(head, []).append(body)
    rules = {
        (a, body)
        for a in {head for head, _ in no_eps}
        for b in _closure({a}, units)
        for body in bodies.get(b, ())
    }

    # keep only generating, reachable symbols
    generating = _closure(set(terminals), [(body, (head,)) for head, body in rules])
    rules = {(h, b) for h, b in rules if h in generating and generating.issuperset(b)}
    reachable = _closure({start}, [((head,), body) for head, body in rules])
    rules = {(h, b) for h, b in rules if h in reachable}

    nonterminals = [start] + sorted({h for h, _ in rules} - {start})
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
    fields = read_code(bits, _read_grammar, MalformedGrammar, "grammar")
    try:
        return Grammar.make(*fields)
    except GrammarError as exc:
        raise MalformedGrammar(str(exc)) from exc


def _read_grammar(r: BitReader) -> tuple:
    """The arguments of Grammar.make, in code order."""
    nonterminals = tuple(r.string() for _ in range(r.nat()))
    terminals = tuple(r.string() for _ in range(r.nat()))
    start = nonterminals[r.index(len(nonterminals))]
    productions = []
    for _ in range(r.nat()):
        head = nonterminals[r.index(len(nonterminals))]
        body = []
        for _ in range(r.nat()):
            pool = terminals if r.take(1) == "1" else nonterminals
            body.append(pool[r.index(len(pool))])
        productions.append((head, tuple(body)))
    return nonterminals, terminals, productions, start
