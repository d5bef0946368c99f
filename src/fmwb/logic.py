"""Sentence ASTs, concrete syntax, Goedel bit codes, and syntactic operators.

Concrete syntax summary (ASCII):
    Ex R(x)                 first-order exists, variables are lowercase
    Ax1 (R(x1) | ~R(x1))    first-order forall
    EQ:2 ...  AQ:2 ...      second-order quantifiers with arity
    &  |  ~  ->             connectives ('->' is parsed as sugar)
    x = y, x != y, x < y    numeric atoms, plus BIT(x,y)
    TC[x,y: f](s,t)         transitive closure of a binary definable relation
    LFP[Q,x: f](t)          least fixpoint, PFP[...] partial fixpoint
    CHAR_ORD{h,h} ...       reserved characteristic leaves, hex payloads

Relation symbols and relation variables are UPPERCASE identifiers; reprinting
a parsed formula yields the same text back (the printer output is the
normalized form: '->' is expanded and binary connectives are parenthesized).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from string import Formatter

from .aristotelian import BitReader, MalformedCode, encode_nat, encode_str
from .core import Structure, Vocabulary


class FormulaError(ValueError):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class MalformedGodelCode(FormulaError):
    pass


class WrongSourceVocabulary(FormulaError):
    pass


class NoOrderInTarget(FormulaError):
    pass


class AristotelianTarget(FormulaError):
    pass


class OrderedTarget(FormulaError):
    pass


class EmptyString(FormulaError):
    pass


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rel:
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Neq:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Lt:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Bit:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class SOExists:
    relvar: str
    arity: int
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class SOForall:
    relvar: str
    arity: int
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class Tc:
    var1: str
    var2: str
    sub: "Formula"
    arg1: str
    arg2: str


@dataclass(frozen=True, slots=True)
class Lfp:
    relvar: str
    vars: tuple[str, ...]
    sub: "Formula"
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Pfp:
    relvar: str
    vars: tuple[str, ...]
    sub: "Formula"
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CharOrd:
    gamma_code: str
    machine_code: str


@dataclass(frozen=True, slots=True)
class CharUnord:
    gamma_code: str
    machine_code: str


@dataclass(frozen=True, slots=True)
class CoCharUnord:
    gamma_code: str
    machine_code: str


@dataclass(frozen=True, slots=True)
class CharNpconp:
    lambda_code: str
    gamma_code: str


@dataclass(frozen=True, slots=True)
class CharCfg:
    grammar_code: str


Formula = (
    Rel | Eq | Neq | Lt | Bit | And | Or | Not | Exists | Forall
    | SOExists | SOForall | Tc | Lfp | Pfp
    | CharOrd | CharUnord | CoCharUnord | CharNpconp | CharCfg
)

ATOMS = (Rel, Eq, Neq, Lt, Bit)
CHAR_NODES = (CharOrd, CharUnord, CoCharUnord, CharNpconp, CharCfg)
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_REL_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")


# --- syntax table --------------------------------------------------------
#
# One row per node class: its Goedel tag, the kind of each field in
# declaration order (which is also the order of the Goedel code), and its
# concrete syntax.  Field kinds: R relation name, V variable, V+ variables
# behind their count, V= as many variables as the V+ before it, N arity,
# F subformula, B payload bits (printed as hex).

_SYNTAX = {
    Rel: (1, "R V+", "{name}({args})"),
    Eq: (2, "V V", "{left} = {right}"),
    Neq: (3, "V V", "{left} != {right}"),
    Lt: (4, "V V", "{left} < {right}"),
    Bit: (5, "V V", "BIT({left},{right})"),
    And: (6, "F F", "({left} & {right})"),
    Or: (7, "F F", "({left} | {right})"),
    Not: (8, "F", "~{sub}"),
    Exists: (9, "V F", "E{var} {sub}"),
    Forall: (10, "V F", "A{var} {sub}"),
    SOExists: (11, "R N F", "E{relvar}:{arity} {sub}"),
    SOForall: (12, "R N F", "A{relvar}:{arity} {sub}"),
    Tc: (13, "V V F V V", "TC[{var1},{var2}: {sub}]({arg1},{arg2})"),
    Lfp: (14, "R V+ F V=", "LFP[{relvar},{vars}: {sub}]({args})"),
    Pfp: (15, "R V+ F V=", "PFP[{relvar},{vars}: {sub}]({args})"),
    CharOrd: (16, "B B", "CHAR_ORD{{{gamma_code},{machine_code}}}"),
    CharUnord: (17, "B B", "CHAR_UNORD{{{gamma_code},{machine_code}}}"),
    CoCharUnord: (18, "B B", "COCHAR_UNORD{{{gamma_code},{machine_code}}}"),
    CharNpconp: (19, "B B", "CHAR_NPCONP{{{lambda_code},{gamma_code}}}"),
    CharCfg: (20, "B", "CHAR_CFG{{{grammar_code}}}"),
}

_VARIABLE_KINDS = ("V", "V+", "V=")


def _bits_to_hex(bits: str) -> str:
    return format(int("1" + bits, 2), "x")


def _hex_to_bits(h: str) -> str:
    if not h or any(c not in "0123456789abcdef" for c in h):
        raise FormulaError(f"bad hex payload {h!r}")
    s = format(int(h, 16), "b")
    return s[1:]


def _encode_vars(names: tuple[str, ...]) -> str:
    return "".join(map(encode_str, names))


# How a field of each kind prints and Goedel-codes; None marks a
# subformula, which the printer and the encoder expand in place.
_SHOW = {"R": str, "V": str, "V+": ",".join, "V=": ",".join, "N": str,
         "F": None, "B": _bits_to_hex}
_CODE = {
    "R": encode_str,
    "V": encode_str,
    "V+": lambda names: encode_nat(len(names)) + _encode_vars(names),
    "V=": _encode_vars,
    "N": encode_nat,
    "F": None,
    "B": lambda bits: encode_nat(len(bits)) + bits,
}


def _getter(names: tuple[str, ...]):
    """A function from a node to the tuple of its named fields."""
    if not names:
        return lambda f: ()
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda f: (get(f),)


class _Layout:
    """A syntax-table row, unpacked once for the traversals."""

    def __init__(self, cls, tag: int, kinds: str, template: str):
        names = [field.name for field in fields(cls)]
        self.cls, self.tag = cls, tag
        self.fields = tuple(zip(names, kinds.split(), strict=True))
        kind_of = dict(self.fields)
        self.subs = tuple(name for name, kind in self.fields if kind == "F")
        self.children = _getter(self.subs)
        # Variables in the fields before a subformula bind in it; any other
        # variable field is a free occurrence.
        cut = next((i for i, (_, kind) in enumerate(self.fields) if kind == "F"), 0)
        self.binders = tuple(name for name, kind in self.fields[:cut]
                             if kind in _VARIABLE_KINDS)
        self.occurrences = tuple(name for name, kind in self.fields[cut:]
                                 if kind in _VARIABLE_KINDS)
        self.text = tuple((literal, name, name and _SHOW[kind_of[name]])
                          for literal, name, _, _ in Formatter().parse(template))
        self.code = tuple((name, _CODE[kind]) for name, kind in self.fields)
        self.tag_code = encode_nat(tag)


_LAYOUTS = {cls: _Layout(cls, *row) for cls, row in _SYNTAX.items()}
_BY_TAG = {layout.tag: layout for layout in _LAYOUTS.values()}


def _layout(f) -> _Layout:
    try:
        return _LAYOUTS[type(f)]
    except KeyError:
        raise FormulaError(f"not a sentence node: {f!r}") from None


def children(f: Formula) -> tuple[Formula, ...]:
    return _layout(f).children(f)


def with_children(f: Formula, subs: tuple[Formula, ...]) -> Formula:
    names = _layout(f).subs
    if len(subs) != len(names):
        raise FormulaError(
            f"{type(f).__name__} node takes {len(names)} children, got {len(subs)}"
        )
    return replace(f, **dict(zip(names, subs))) if names else f


def walk(f: Formula):
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def n_nodes(f: Formula) -> int:
    return sum(1 for _ in walk(f))


def char_free(f: Formula) -> bool:
    return not any(isinstance(node, CHAR_NODES) for node in walk(f))


def _variables(node: Formula, names: tuple[str, ...]) -> list[str]:
    out: list[str] = []
    for name in names:
        value = getattr(node, name)
        if isinstance(value, str):
            out.append(value)
        else:
            out.extend(value)
    return out


def all_variables(f: Formula) -> set[str]:
    """Every first-order variable occurring anywhere, bound or free."""
    out: set[str] = set()
    for node in walk(f):
        layout = _layout(node)
        out.update(_variables(node, layout.binders + layout.occurrences))
    return out


def free_vars(f: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    out: set[str] = set()
    stack = [(f, frozenset(bound))]
    while stack:
        node, outer = stack.pop()
        layout = _layout(node)
        out.update(v for v in _variables(node, layout.occurrences) if v not in outer)
        inner = outer.union(_variables(node, layout.binders))
        stack.extend((sub, inner) for sub in layout.children(node))
    return out


def validate_sentence(f: Formula, vocab: Vocabulary) -> None:
    """Check closedness, arity correctness, and numeric-atom availability."""

    def check(node, fo: frozenset[str], so: dict[str, int]):
        if isinstance(node, Rel):
            if node.name in so:
                expected = so[node.name]
            elif node.name in vocab.names:
                expected = vocab.arity(node.name)
            else:
                raise FormulaError(f"unknown relation {node.name!r} for {vocab}")
            if len(node.args) != expected:
                raise FormulaError(
                    f"{node.name} expects {expected} arguments, got {len(node.args)}"
                )
            missing = set(node.args) - fo
            if missing:
                raise FormulaError(f"free variables {sorted(missing)}")
        elif isinstance(node, (Eq, Neq, Lt, Bit)):
            if isinstance(node, (Lt, Bit)) and not vocab.has_order:
                raise FormulaError(
                    f"{type(node).__name__} atoms need an ordered vocabulary"
                )
            missing = {node.left, node.right} - fo
            if missing:
                raise FormulaError(f"free variables {sorted(missing)}")
        elif isinstance(node, (And, Or)):
            check(node.left, fo, so)
            check(node.right, fo, so)
        elif isinstance(node, Not):
            check(node.sub, fo, so)
        elif isinstance(node, (Exists, Forall)):
            # An encoding sentence is closed; walking its one quantifier per
            # code bit would copy the bound set once per bit.
            if psi_recognize(node) is None:
                check(node.sub, fo | {node.var}, so)
        elif isinstance(node, (SOExists, SOForall)):
            if node.arity < 1:
                raise FormulaError(f"relation variable arity must be >= 1")
            check(node.sub, fo, {**so, node.relvar: node.arity})
        elif isinstance(node, Tc):
            check(node.sub, fo | {node.var1, node.var2}, so)
            missing = {node.arg1, node.arg2} - fo
            if missing:
                raise FormulaError(f"free variables {sorted(missing)}")
        elif isinstance(node, (Lfp, Pfp)):
            if len(node.args) != len(node.vars):
                raise FormulaError("fixpoint application arity mismatch")
            if len(set(node.vars)) != len(node.vars):
                raise FormulaError("fixpoint variables must be distinct")
            check(node.sub, fo | set(node.vars),
                  {**so, node.relvar: len(node.vars)})
            missing = set(node.args) - fo
            if missing:
                raise FormulaError(f"free variables {sorted(missing)}")
        elif isinstance(node, CHAR_NODES):
            pass
        else:
            raise FormulaError(f"unexpected node {node!r}")

    check(f, frozenset(), {})


def is_sentence_over(f: Formula, vocab: Vocabulary) -> bool:
    try:
        validate_sentence(f, vocab)
        return True
    except FormulaError:
        return False


# --- printing ----------------------------------------------------------


def _flatten(f: Formula, pieces) -> str:
    """Join the strings of pieces(node), expanding each subformula in place.

    An explicit stack keeps the depth of a sentence off the Python stack.
    """
    out: list[str] = []
    stack: list = [f]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(reversed(pieces(item)))
    return "".join(out)


def _text_pieces(node: Formula) -> list:
    out, text = [], ""
    for literal, name, show in _layout(node).text:
        text += literal
        if name is None:
            continue
        value = getattr(node, name)
        if show is None:
            out += (text, value)
            text = ""
        else:
            text += show(value)
    out.append(text)
    return out


def print_formula(f: Formula) -> str:
    return _flatten(f, _text_pieces)


# --- parsing -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(->|!=|[A-Za-z_][A-Za-z0-9_]*|[()\[\]{}:,&|~=<]|[0-9a-f]+)"
)

_CHAR_KEYWORDS = {
    "CHAR_ORD": CharOrd,
    "CHAR_UNORD": CharUnord,
    "COCHAR_UNORD": CoCharUnord,
    "CHAR_NPCONP": CharNpconp,
    "CHAR_CFG": CharCfg,
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise FormulaSyntaxError(
                        f"unexpected character {text[pos]!r}", pos
                    )
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def next(self) -> str:
        if self.i >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, found {got!r}", self.pos())
        self.i += 1

    def variable(self) -> str:
        tok = self.next()
        if not _VAR_RE.match(tok):
            raise FormulaSyntaxError(f"expected a variable, found {tok!r}",
                                     self.pos())
        return tok

    # precedence: -> weakest, then |, then &, then ~/quantifiers/atoms
    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            right = self.formula()
            return Or(Not(left), right)
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek() == "|":
            self.next()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.next()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
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
            if _VAR_RE.match(rest):
                self.next()
                sub = self.unary()
                return Exists(rest, sub) if tok[0] == "E" else Forall(rest, sub)
            if _REL_RE.match(rest) and self.i + 1 < len(self.tokens) \
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

    def char_leaf(self) -> Formula:
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

    def tc(self) -> Formula:
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

    def fixpoint(self) -> Formula:
        cls = Lfp if self.next() == "LFP" else Pfp
        self.expect("[")
        relvar = self.next()
        if not _REL_RE.match(relvar):
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

    def atom(self) -> Formula:
        tok = self.next()
        if _REL_RE.match(tok):
            self.expect("(")
            args = [self.variable()]
            while self.peek() == ",":
                self.next()
                args.append(self.variable())
            self.expect(")")
            return Rel(tok, tuple(args))
        if _VAR_RE.match(tok):
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


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.formula()
    if parser.i != len(parser.tokens):
        raise FormulaSyntaxError(
            f"trailing input {parser.peek()!r}", parser.pos()
        )
    return node


# --- Goedel coding -----------------------------------------------------

def _code_pieces(node: Formula) -> list:
    layout = _layout(node)
    out = [layout.tag_code]
    for name, code in layout.code:
        value = getattr(node, name)
        out.append(value if code is None else code(value))
    return out


def godel_encode(f: Formula) -> str:
    return _flatten(f, _code_pieces)


def _read_ident(r: BitReader, pattern: re.Pattern) -> str:
    s = r.string()
    if not pattern.match(s):
        raise MalformedGodelCode(f"invalid identifier {s!r}")
    return s


def _read_formula(r: BitReader) -> Formula:
    tag = r.nat()
    layout = _BY_TAG.get(tag)
    if layout is None:
        raise MalformedGodelCode(f"unknown node tag {tag}")
    values: list = []
    count = 0
    for _, kind in layout.fields:
        if kind == "V":
            values.append(_read_ident(r, _VAR_RE))
        elif kind == "F":
            values.append(_read_formula(r))
        elif kind == "R":
            values.append(_read_ident(r, _REL_RE))
        elif kind == "N":
            arity = r.nat()
            if arity < 1:
                raise MalformedGodelCode("relation variable arity must be >= 1")
            values.append(arity)
        elif kind == "B":
            values.append(r.payload())
        elif kind == "V+":
            count = r.nat()
            if count < 1:
                raise MalformedGodelCode(
                    f"{layout.cls.__name__} needs at least one variable")
            names = tuple(_read_ident(r, _VAR_RE) for _ in range(count))
            if layout.cls in (Lfp, Pfp) and len(set(names)) != count:
                raise MalformedGodelCode("fixpoint variables must be distinct")
            values.append(names)
        else:
            values.append(tuple(_read_ident(r, _VAR_RE) for _ in range(count)))
    return layout.cls(*values)


def godel_decode(bits: str) -> Formula:
    if any(b not in "01" for b in bits):
        raise MalformedGodelCode("code must consist of '0'/'1' characters")
    r = BitReader(bits)
    try:
        f = _read_formula(r)
    except MalformedCode as exc:
        raise MalformedGodelCode(str(exc)) from exc
    if r.pos != len(bits):
        raise MalformedGodelCode(f"{len(bits) - r.pos} trailing bits after the formula")
    return f


# --- fragments ----------------------------------------------------------

FO = "FO"
SO_E = "SO-E"
SO_A = "SO-A"
FO_TC = "FO(TC)"
FO_LFP = "FO(LFP)"
SO_PFP = "SO(PFP)"
OTHER = "OTHER"

LOGIC_OF_CLASS = {
    "NL": FO_TC,
    "P": FO_LFP,
    "coNP": SO_A,
    "NP": SO_E,
    "PSPACE": SO_PFP,
}


def _uses(f: Formula, kinds) -> bool:
    return any(isinstance(node, kinds) for node in walk(f))


def in_fragment(f: Formula, fragment: str) -> bool:
    if fragment == FO:
        return not _uses(f, (SOExists, SOForall, Tc, Lfp, Pfp))
    if fragment in (SO_E, SO_A):
        prefix_cls = SOExists if fragment == SO_E else SOForall
        node = f
        while isinstance(node, prefix_cls):
            node = node.sub
        return in_fragment(node, FO)
    if fragment == FO_TC:
        return not _uses(f, (SOExists, SOForall, Lfp, Pfp))
    if fragment == FO_LFP:
        return not _uses(f, (SOExists, SOForall, Tc, Pfp))
    if fragment == SO_PFP:
        return not _uses(f, (Tc, Lfp))
    raise FormulaError(f"unknown fragment {fragment!r}")


def fragment_of(f: Formula) -> str:
    if in_fragment(f, FO):
        return FO
    for fragment in (SO_E, SO_A, FO_TC, FO_LFP, SO_PFP):
        if in_fragment(f, fragment):
            return fragment
    return OTHER


# --- substitution operators ---------------------------------------------

SIGMA_ORD = Vocabulary((("R", 1),), has_order=True)
SIGMA_UNORD = Vocabulary((("R", 2),), has_order=False)


def _fresh_variable(f: Formula, scheme: str) -> str:
    used = all_variables(f)
    i = 1
    while f"{scheme}{i}" in used:
        i += 1
    return f"{scheme}{i}"


def _substitute_atoms(f: Formula, subst) -> Formula:
    if isinstance(f, Rel) and f.name == "R":
        return subst(f.args)
    kids = children(f)
    if not kids:
        return f
    return with_children(f, tuple(_substitute_atoms(k, subst) for k in kids))


def _check_source(upsilon: Formula, source: Vocabulary, what: str) -> None:
    try:
        validate_sentence(upsilon, source)
    except FormulaError as exc:
        raise WrongSourceVocabulary(
            f"distinguished sentence must be over {source} ({what}): {exc}"
        ) from exc
    if not char_free(upsilon):
        raise WrongSourceVocabulary(
            "distinguished sentence must not contain characteristic leaves"
        )
    for node in walk(upsilon):
        if isinstance(node, (SOExists, SOForall, Lfp, Pfp)) and node.relvar == "R":
            raise WrongSourceVocabulary(
                "bound relation variables must not shadow the source symbol R"
            )


def apply_T_ord(upsilon: Formula, tau: Vocabulary) -> Formula:
    """Transport a sentence over {R:1, <} to an arbitrary ordered vocabulary.

    Atoms R(t) become R1(t) when the first target symbol is unary, otherwise
    Ey R1(y,...,y,t) with a fresh y repeated arity-1 times.
    """
    if not tau.has_order:
        raise NoOrderInTarget(f"target vocabulary {tau} has no order")
    if not tau.symbols:
        raise NoOrderInTarget("target vocabulary has no relation symbols")
    _check_source(upsilon, SIGMA_ORD, "ordered operator")
    name, arity = tau.symbols[0]
    if arity == 1:
        return _substitute_atoms(upsilon, lambda args: Rel(name, args))
    fresh = _fresh_variable(upsilon, "y")

    def subst(args):
        return Exists(fresh, Rel(name, (fresh,) * (arity - 1) + args))

    return _substitute_atoms(upsilon, subst)


def apply_T_unord(upsilon: Formula, tau: Vocabulary) -> Formula:
    """Transport a sentence over {R:2} to a non-Aristotelian vocabulary.

    The least symbol of arity > 1 receives the substitution; extra positions
    are filled with a fresh z bound existentially.
    """
    if tau.has_order:
        raise OrderedTarget(f"target vocabulary {tau} must be unordered")
    candidates = [(name, a) for name, a in tau.symbols if a > 1]
    if not candidates:
        raise AristotelianTarget(f"all symbols of {tau} are unary")
    _check_source(upsilon, SIGMA_UNORD, "unordered operator")
    name, arity = candidates[0]
    if arity == 2:
        return _substitute_atoms(upsilon, lambda args: Rel(name, args))
    fresh = _fresh_variable(upsilon, "z")

    def subst(args):
        return Exists(fresh, Rel(name, args + (fresh,) * (arity - 2)))

    return _substitute_atoms(upsilon, subst)


def pad_structure_ord(a: Structure, tau: Vocabulary) -> Structure:
    """The target-structure image of the zero-padding reduction (ordered)."""
    if a.vocab != SIGMA_ORD:
        raise WrongSourceVocabulary(f"expected a structure over {SIGMA_ORD}")
    if not tau.has_order or not tau.symbols:
        raise NoOrderInTarget(f"target vocabulary {tau} has no order")
    name, arity = tau.symbols[0]
    image = {(0,) * (arity - 1) + tup for tup in a.rel["R"]}
    return Structure.make(tau, a.n, {name: image})


def pad_structure_unord(a: Structure, tau: Vocabulary) -> Structure:
    """The target-structure image of the least-k reduction (unordered)."""
    if a.vocab != SIGMA_UNORD:
        raise WrongSourceVocabulary(f"expected a structure over {SIGMA_UNORD}")
    if tau.has_order:
        raise OrderedTarget(f"target vocabulary {tau} must be unordered")
    candidates = [(name, arity) for name, arity in tau.symbols if arity > 1]
    if not candidates:
        raise AristotelianTarget(f"all symbols of {tau} are unary")
    name, arity = candidates[0]
    image = {tup + (0,) * (arity - 2) for tup in a.rel["R"]}
    return Structure.make(tau, a.n, {name: image})


# --- encoding sentences --------------------------------------------------


def psi_encode(w: str) -> Formula:
    """The identically false sentence whose quantifier pattern spells w."""
    if not w:
        raise EmptyString("encoding sentences need a nonempty bit string")
    if any(c not in "01" for c in w):
        raise FormulaError(f"bit string expected, got {w!r}")
    k = len(w)
    matrix: Formula = Neq("x1", "x1")
    for i in range(2, k + 1):
        matrix = And(matrix, Neq(f"x{i}", f"x{i}"))
    body = matrix
    for i in range(k, 0, -1):
        cls = Exists if w[i - 1] == "1" else Forall
        body = cls(f"x{i}", body)
    return body


def psi_recognize(f: Formula) -> str | None:
    """Return w when f is syntactically psi_encode(w), else None."""
    bits = []
    node = f
    while isinstance(node, (Exists, Forall)):
        bits.append("1" if isinstance(node, Exists) else "0")
        if node.var != f"x{len(bits)}":
            return None
        node = node.sub
    k = len(bits)
    if k == 0:
        return None
    conjuncts = []
    while isinstance(node, And):
        conjuncts.append(node.right)
        node = node.left
    conjuncts.append(node)
    conjuncts.reverse()
    if len(conjuncts) != k:
        return None
    for i, atom in enumerate(conjuncts, start=1):
        if not (isinstance(atom, Neq) and atom.left == atom.right == f"x{i}"):
            return None
    return "".join(bits)
