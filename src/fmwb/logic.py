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
from dataclasses import dataclass, replace

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


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Not, Exists, Forall, SOExists, SOForall)):
        return (f.sub,)
    if isinstance(f, (Tc, Lfp, Pfp)):
        return (f.sub,)
    return ()


def with_children(f: Formula, subs: tuple[Formula, ...]) -> Formula:
    if isinstance(f, (And, Or)):
        return replace(f, left=subs[0], right=subs[1])
    if isinstance(f, (Not, Exists, Forall, SOExists, SOForall, Tc, Lfp, Pfp)):
        return replace(f, sub=subs[0])
    if subs:
        raise FormulaError(f"{type(f).__name__} node takes no children")
    return f


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


def all_variables(f: Formula) -> set[str]:
    """Every first-order variable occurring anywhere, bound or free."""
    out: set[str] = set()
    for node in walk(f):
        if isinstance(node, Rel):
            out.update(node.args)
        elif isinstance(node, (Eq, Neq, Lt, Bit)):
            out.update((node.left, node.right))
        elif isinstance(node, (Exists, Forall)):
            out.add(node.var)
        elif isinstance(node, Tc):
            out.update((node.var1, node.var2, node.arg1, node.arg2))
        elif isinstance(node, (Lfp, Pfp)):
            out.update(node.vars)
            out.update(node.args)
    return out


def free_vars(f: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(f, Rel):
        return set(f.args) - bound
    if isinstance(f, (Eq, Neq, Lt, Bit)):
        return {f.left, f.right} - bound
    if isinstance(f, (And, Or)):
        return free_vars(f.left, bound) | free_vars(f.right, bound)
    if isinstance(f, Not):
        return free_vars(f.sub, bound)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.sub, bound | {f.var})
    if isinstance(f, (SOExists, SOForall)):
        return free_vars(f.sub, bound)
    if isinstance(f, Tc):
        return (free_vars(f.sub, bound | {f.var1, f.var2})
                | ({f.arg1, f.arg2} - bound))
    if isinstance(f, (Lfp, Pfp)):
        return (free_vars(f.sub, bound | set(f.vars))
                | (set(f.args) - bound))
    return set()


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


def _bits_to_hex(bits: str) -> str:
    return format(int("1" + bits, 2), "x")


def _hex_to_bits(h: str) -> str:
    if not h or any(c not in "0123456789abcdef" for c in h):
        raise FormulaError(f"bad hex payload {h!r}")
    s = format(int(h, 16), "b")
    return s[1:]


def print_formula(f: Formula) -> str:
    if isinstance(f, Rel):
        return f"{f.name}({','.join(f.args)})"
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Neq):
        return f"{f.left} != {f.right}"
    if isinstance(f, Lt):
        return f"{f.left} < {f.right}"
    if isinstance(f, Bit):
        return f"BIT({f.left},{f.right})"
    if isinstance(f, And):
        return f"({print_formula(f.left)} & {print_formula(f.right)})"
    if isinstance(f, Or):
        return f"({print_formula(f.left)} | {print_formula(f.right)})"
    if isinstance(f, Not):
        return f"~{print_formula(f.sub)}"
    if isinstance(f, Exists):
        return f"E{f.var} {print_formula(f.sub)}"
    if isinstance(f, Forall):
        return f"A{f.var} {print_formula(f.sub)}"
    if isinstance(f, SOExists):
        return f"E{f.relvar}:{f.arity} {print_formula(f.sub)}"
    if isinstance(f, SOForall):
        return f"A{f.relvar}:{f.arity} {print_formula(f.sub)}"
    if isinstance(f, Tc):
        return (f"TC[{f.var1},{f.var2}: {print_formula(f.sub)}]"
                f"({f.arg1},{f.arg2})")
    if isinstance(f, Lfp):
        head = ",".join((f.relvar,) + f.vars)
        return f"LFP[{head}: {print_formula(f.sub)}]({','.join(f.args)})"
    if isinstance(f, Pfp):
        head = ",".join((f.relvar,) + f.vars)
        return f"PFP[{head}: {print_formula(f.sub)}]({','.join(f.args)})"
    if isinstance(f, CharOrd):
        return ("CHAR_ORD{%s,%s}"
                % (_bits_to_hex(f.gamma_code), _bits_to_hex(f.machine_code)))
    if isinstance(f, CharUnord):
        return ("CHAR_UNORD{%s,%s}"
                % (_bits_to_hex(f.gamma_code), _bits_to_hex(f.machine_code)))
    if isinstance(f, CoCharUnord):
        return ("COCHAR_UNORD{%s,%s}"
                % (_bits_to_hex(f.gamma_code), _bits_to_hex(f.machine_code)))
    if isinstance(f, CharNpconp):
        return ("CHAR_NPCONP{%s,%s}"
                % (_bits_to_hex(f.lambda_code), _bits_to_hex(f.gamma_code)))
    if isinstance(f, CharCfg):
        return "CHAR_CFG{%s}" % _bits_to_hex(f.grammar_code)
    raise FormulaError(f"cannot print {f!r}")


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

_TAGS = {
    Rel: 1, Eq: 2, Neq: 3, Lt: 4, Bit: 5, And: 6, Or: 7, Not: 8,
    Exists: 9, Forall: 10, SOExists: 11, SOForall: 12, Tc: 13,
    Lfp: 14, Pfp: 15, CharOrd: 16, CharUnord: 17, CoCharUnord: 18,
    CharNpconp: 19, CharCfg: 20,
}
_TAG_TO_CLS = {tag: cls for cls, tag in _TAGS.items()}


def _enc_bits(bits: str) -> str:
    return encode_nat(len(bits)) + bits


def godel_encode(f: Formula) -> str:
    out = [encode_nat(_TAGS[type(f)])]
    if isinstance(f, Rel):
        out.append(encode_str(f.name))
        out.append(encode_nat(len(f.args)))
        out.extend(encode_str(a) for a in f.args)
    elif isinstance(f, (Eq, Neq, Lt, Bit)):
        out.append(encode_str(f.left))
        out.append(encode_str(f.right))
    elif isinstance(f, (And, Or)):
        out.append(godel_encode(f.left))
        out.append(godel_encode(f.right))
    elif isinstance(f, Not):
        out.append(godel_encode(f.sub))
    elif isinstance(f, (Exists, Forall)):
        out.append(encode_str(f.var))
        out.append(godel_encode(f.sub))
    elif isinstance(f, (SOExists, SOForall)):
        out.append(encode_str(f.relvar))
        out.append(encode_nat(f.arity))
        out.append(godel_encode(f.sub))
    elif isinstance(f, Tc):
        out.append(encode_str(f.var1))
        out.append(encode_str(f.var2))
        out.append(godel_encode(f.sub))
        out.append(encode_str(f.arg1))
        out.append(encode_str(f.arg2))
    elif isinstance(f, (Lfp, Pfp)):
        out.append(encode_str(f.relvar))
        out.append(encode_nat(len(f.vars)))
        out.extend(encode_str(v) for v in f.vars)
        out.append(godel_encode(f.sub))
        out.extend(encode_str(a) for a in f.args)
    elif isinstance(f, (CharOrd, CharUnord, CoCharUnord)):
        out.append(_enc_bits(f.gamma_code))
        out.append(_enc_bits(f.machine_code))
    elif isinstance(f, CharNpconp):
        out.append(_enc_bits(f.lambda_code))
        out.append(_enc_bits(f.gamma_code))
    elif isinstance(f, CharCfg):
        out.append(_enc_bits(f.grammar_code))
    else:
        raise FormulaError(f"cannot encode {f!r}")
    return "".join(out)


def _read_ident(r: BitReader, pattern: re.Pattern) -> str:
    s = r.string()
    if not pattern.match(s):
        raise MalformedGodelCode(f"invalid identifier {s!r}")
    return s


def _read_formula(r: BitReader) -> Formula:
    tag = r.nat()
    cls = _TAG_TO_CLS.get(tag)
    if cls is None:
        raise MalformedGodelCode(f"unknown node tag {tag}")
    if cls is Rel:
        name = _read_ident(r, _REL_RE)
        argc = r.nat()
        if argc < 1:
            raise MalformedGodelCode("atom needs at least one argument")
        return Rel(name, tuple(_read_ident(r, _VAR_RE) for _ in range(argc)))
    if cls in (Eq, Neq, Lt, Bit):
        return cls(_read_ident(r, _VAR_RE), _read_ident(r, _VAR_RE))
    if cls in (And, Or):
        return cls(_read_formula(r), _read_formula(r))
    if cls is Not:
        return Not(_read_formula(r))
    if cls in (Exists, Forall):
        return cls(_read_ident(r, _VAR_RE), _read_formula(r))
    if cls in (SOExists, SOForall):
        relvar = _read_ident(r, _REL_RE)
        arity = r.nat()
        if arity < 1:
            raise MalformedGodelCode("relation variable arity must be >= 1")
        return cls(relvar, arity, _read_formula(r))
    if cls is Tc:
        v1 = _read_ident(r, _VAR_RE)
        v2 = _read_ident(r, _VAR_RE)
        sub = _read_formula(r)
        return Tc(v1, v2, sub, _read_ident(r, _VAR_RE), _read_ident(r, _VAR_RE))
    if cls in (Lfp, Pfp):
        relvar = _read_ident(r, _REL_RE)
        k = r.nat()
        if k < 1:
            raise MalformedGodelCode("fixpoint binds at least one variable")
        vars_ = tuple(_read_ident(r, _VAR_RE) for _ in range(k))
        if len(set(vars_)) != k:
            raise MalformedGodelCode("fixpoint variables must be distinct")
        sub = _read_formula(r)
        args = tuple(_read_ident(r, _VAR_RE) for _ in range(k))
        return cls(relvar, vars_, sub, args)
    if cls in (CharOrd, CharUnord, CoCharUnord, CharNpconp):
        return cls(r.payload(), r.payload())
    return CharCfg(r.payload())


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
