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
from itertools import accumulate
from operator import attrgetter
from string import Formatter
from types import SimpleNamespace

from .aristotelian import BitReader, encode_nat, encode_str, read_code
from .core import REL_NAME, Structure, Vocabulary, decimal, is_bits


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


class _Node:
    """A sentence node: immutable, with its fields in slots.

    Its hash is hash((tag, *fields)), where a subformula stands for its own
    hash.  It is stored on first request by a walk that hashes the nodes
    below that have none, children first; == walks an explicit stack of
    pairs.  So neither recurses, however deep the sentence.
    """

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        # String hashes differ between processes, so the stored hash stays
        # behind.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __hash__(self) -> int:
        if self._hash is None:
            # The nodes below with no hash, parents before children; then
            # hashed in reverse, children before parents.
            todo, stack = [], [self]
            while stack:
                node = stack.pop()
                if node._hash is None:
                    todo.append(node)
                    stack += _LAYOUTS[type(node)].children(node)
            for node in reversed(todo):
                _set_hash(node, _LAYOUTS[type(node)].hash(node))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or type(a) is Psi:
                # A Psi equals the quantifier chain it stands for.
                if type(b) is Psi:
                    a, b = b, a
                if type(a) is not Psi or psi_recognize(b) != a.bits:
                    return False
                continue
            if a._hash is not None and b._hash is not None and a._hash != b._hash:
                return False
            values = _LAYOUTS[type(a)].values
            for x, y in zip(values(a), values(b)):
                if isinstance(x, _Node) and isinstance(y, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


_set_hash = _Node._hash.__set__


def _initializer(cls):
    """cls's __init__.  It stores the fields through their slot descriptors,
    which pass by the __setattr__ that keeps nodes immutable, and marks
    the hash as not yet computed."""
    setters = [getattr(cls, name).__set__ for name in cls.__match_args__]
    if len(setters) == 1:
        (set_a,) = setters

        def __init__(self, a):
            set_a(self, a)
            _set_hash(self, None)
    elif len(setters) == 2:
        set_a, set_b = setters

        def __init__(self, a, b):
            set_a(self, a)
            set_b(self, b)
            _set_hash(self, None)
    else:
        def __init__(self, *values):
            if len(values) != len(setters):
                raise TypeError(f"{cls.__name__} takes {len(setters)} fields,"
                                f" got {len(values)}")
            for set_field, value in zip(setters, values):
                set_field(self, value)
            _set_hash(self, None)
    __init__.__qualname__ = f"{cls.__name__}.__init__"
    return __init__


# --- syntax table --------------------------------------------------------
#
# One row per node class, and the row is the class: its name, its Goedel
# tag, the kind of each field in declaration order (which is also the order
# of the Goedel code), and its concrete syntax, whose template names the
# fields in that order.  Field kinds: R relation name, V variable, V+
# variables behind their count, V= as many variables as the V+ before it,
# N arity, F subformula, B payload bits (printed as hex).

_VARIABLE_KINDS = ("V", "V+", "V=")


def _bits_to_hex(bits: str) -> str:
    return format(int("1" + bits, 2), "x")


def _hex_to_bits(h: str) -> str:
    if not h or h.strip("0123456789abcdef"):
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

    def __init__(self, cls, kinds: str, template: str):
        names = cls.__match_args__
        self.cls, self.tag = cls, cls._tag
        self.fields = tuple(zip(names, kinds.split(), strict=True))
        kind_of = dict(self.fields)
        self.values = _getter(names)
        # hash((tag, *fields)), where a subformula gives its stored hash.
        key = attrgetter("_tag", *(name + "._hash" if kind == "F" else name
                                   for name, kind in self.fields))
        self.hash = lambda f: hash(key(f))
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
        self.tag_code = encode_nat(self.tag)


_LAYOUTS: dict = {}


def _node(name: str, tag: int, kinds: str, template: str) -> type:
    """The node class of one syntax-table row."""
    fields = tuple(field for _, field, _, _ in Formatter().parse(template) if field)
    cls = type(name, (_Node,), {"__slots__": fields, "__match_args__": fields, "_tag": tag})
    cls.__init__ = _initializer(cls)
    _LAYOUTS[cls] = _Layout(cls, kinds, template)
    return cls


Rel = _node("Rel", 1, "R V+", "{name}({args})")
Eq = _node("Eq", 2, "V V", "{left} = {right}")
Neq = _node("Neq", 3, "V V", "{left} != {right}")
Lt = _node("Lt", 4, "V V", "{left} < {right}")
Bit = _node("Bit", 5, "V V", "BIT({left},{right})")
And = _node("And", 6, "F F", "({left} & {right})")
Or = _node("Or", 7, "F F", "({left} | {right})")
Not = _node("Not", 8, "F", "~{sub}")
Exists = _node("Exists", 9, "V F", "E{var} {sub}")
Forall = _node("Forall", 10, "V F", "A{var} {sub}")
SOExists = _node("SOExists", 11, "R N F", "E{relvar}:{arity} {sub}")
SOForall = _node("SOForall", 12, "R N F", "A{relvar}:{arity} {sub}")
Tc = _node("Tc", 13, "V V F V V", "TC[{var1},{var2}: {sub}]({arg1},{arg2})")
Lfp = _node("Lfp", 14, "R V+ F V=", "LFP[{relvar},{vars}: {sub}]({args})")
Pfp = _node("Pfp", 15, "R V+ F V=", "PFP[{relvar},{vars}: {sub}]({args})")
CharOrd = _node("CharOrd", 16, "B B", "CHAR_ORD{{{gamma_code},{machine_code}}}")
CharUnord = _node("CharUnord", 17, "B B", "CHAR_UNORD{{{gamma_code},{machine_code}}}")
CoCharUnord = _node("CoCharUnord", 18, "B B",
                    "COCHAR_UNORD{{{gamma_code},{machine_code}}}")
CharNpconp = _node("CharNpconp", 19, "B B", "CHAR_NPCONP{{{lambda_code},{gamma_code}}}")
CharCfg = _node("CharCfg", 20, "B", "CHAR_CFG{{{grammar_code}}}")

_BY_TAG = {layout.tag: layout for layout in _LAYOUTS.values()}


class Psi(_Node):
    """The encoding sentence psi_w as one leaf.

    It stands for its expansion Q1 x1 ... Qk xk (((x1 != x1 & x2 != x2) &
    ...) & xk != xk), where Qi is E when w[i-1] is '1' and A otherwise.  It
    prints, Goedel-codes, compares and hashes as that expansion.
    """

    __slots__ = ("bits",)
    __match_args__ = ("bits",)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, len(self.bits) + 1))

    def _expansion_hash(self) -> int:
        # Folded bottom-up, as each node of the expansion hashes its tag
        # and fields.
        quantifier = {"1": Exists._tag, "0": Forall._tag}
        h = hash((Neq._tag, "x1", "x1"))
        for i in range(2, len(self.bits) + 1):
            x = f"x{i}"
            h = hash((And._tag, h, hash((Neq._tag, x, x))))
        for i in range(len(self.bits), 0, -1):
            h = hash((quantifier[self.bits[i - 1]], f"x{i}", h))
        return h


Psi.__init__ = _initializer(Psi)


Formula = (
    Rel | Eq | Neq | Lt | Bit | And | Or | Not | Exists | Forall
    | SOExists | SOForall | Tc | Lfp | Pfp
    | CharOrd | CharUnord | CoCharUnord | CharNpconp | CharCfg | Psi
)

CHAR_NODES = (CharOrd, CharUnord, CoCharUnord, CharNpconp, CharCfg)
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


# The numbered runs of a printed encoding sentence, in fixed blocks: the
# head entries "?xi " (with ? for the quantifier letter) and the matrix
# entries " & xi != xi)".  Numbers 1..99 are prefixes of _LOW_HEAD and
# _LOW_TAIL, whose first k entries end at _LOW_HEAD_ENDS[k] and
# _LOW_TAIL_ENDS[k]; the tail has no entry for 1.  The hundred
# 100b .. 100b+99 is a prefix of _HUNDRED_HEAD and _HUNDRED_TAIL, whose
# entries are _HUNDRED_WIDTHS wide, with the digits of b for '#'.
def _numbered(entries) -> tuple[str, tuple[int, ...]]:
    """The entries joined, and where each prefix of them ends."""
    entries = list(entries)
    return "".join(entries), (0, *accumulate(map(len, entries)))


_LOW_HEAD, _LOW_HEAD_ENDS = _numbered(f"?x{i} " for i in range(1, 100))
_LOW_TAIL, _LOW_TAIL_ENDS = _numbered(
    f" & x{i} != x{i})" if i > 1 else "" for i in range(1, 100))
_HUNDRED_HEAD = "".join(f"?x#{i:02} " for i in range(100))
_HUNDRED_TAIL = "".join(f" & x#{i:02} != x#{i:02})" for i in range(100))
_HUNDRED_WIDTHS = (len(_HUNDRED_HEAD) // 100, len(_HUNDRED_TAIL) // 100)
_QUANTIFIER_LETTERS = bytes.maketrans(b"10", b"EA")


def _psi_text(w: str) -> str:
    """The printed expansion of Psi(w), for a nonempty bit string w.

    The head is first built with '?' for every quantifier letter.  Entries
    of d-digit numbers are d + 3 characters wide, so the letters of one
    digit count lie at a fixed stride and one extended slice writes them.
    """
    k = len(w)
    cut = min(k, 99)
    head, tail = [_LOW_HEAD[:_LOW_HEAD_ENDS[cut]]], [_LOW_TAIL[:_LOW_TAIL_ENDS[cut]]]
    head_width, tail_width = _HUNDRED_WIDTHS
    for b in range(1, k // 100 + 1):
        count, digits = min(k - 100 * b + 1, 100), str(b)
        head.append(_HUNDRED_HEAD[:head_width * count].replace("#", digits))
        tail.append(_HUNDRED_TAIL[:tail_width * count].replace("#", digits))
    masked = bytearray("".join(head), "ascii")
    letters = w.encode("ascii").translate(_QUANTIFIER_LETTERS)
    start, low, count, width = 0, 0, 9, 4
    while low < k:
        high = min(k, low + count)
        masked[start:start + width * (high - low):width] = letters[low:high]
        start, low, count, width = start + width * count, high, 10 * count, width + 1
    return f"{masked.decode('ascii')}{'(' * (k - 1)}x1 != x1{''.join(tail)}"


# The Goedel tag of the quantifier each bit of w stands for.
_PSI_TAGS = (("1", _LAYOUTS[Exists].tag_code), ("0", _LAYOUTS[Forall].tag_code))
# The codes an encoding sentence can start with.
_PSI_HEADS = tuple(tag + encode_str("x1") for _, tag in _PSI_TAGS)


def _psi_matrix_code(xs: list[str]) -> str:
    """The code of x1 != x1 & ... & xk != xk, given the codes of x1 .. xk."""
    neq = _LAYOUTS[Neq].tag_code
    return _LAYOUTS[And].tag_code * (len(xs) - 1) + "".join(neq + x + x for x in xs)


def _psi_code(w: str) -> str:
    xs = [encode_str(f"x{i}") for i in range(1, len(w) + 1)]
    tags = dict(_PSI_TAGS)
    return "".join(tags[b] + x for b, x in zip(w, xs)) + _psi_matrix_code(xs)


# Psi has no row of its own: it is a leaf that binds its variables, and it
# prints and codes as its expansion.
_LAYOUTS[Psi] = SimpleNamespace(
    cls=Psi, subs=(), children=_getter(()), hash=Psi._expansion_hash,
    binders=("variables",),
    occurrences=(), text=(("", "bits", _psi_text),), tag_code="",
    code=(("bits", _psi_code),),
)


def _layout(f) -> _Layout:
    try:
        return _LAYOUTS[type(f)]
    except KeyError:
        raise FormulaError(f"not a sentence node: {f!r}") from None


def children(f: Formula) -> tuple[Formula, ...]:
    return _layout(f).children(f)


def with_children(f: Formula, subs: tuple[Formula, ...]) -> Formula:
    layout = _layout(f)
    if len(subs) != len(layout.subs):
        raise FormulaError(
            f"{type(f).__name__} node takes {len(layout.subs)} children, got {len(subs)}"
        )
    if not subs:
        return f
    fields = dict(zip(layout.cls.__match_args__, layout.values(f)))
    fields.update(zip(layout.subs, subs))
    return layout.cls(*fields.values())


def walk(f: Formula):
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


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


def _all_bound(names, fo: frozenset[str]) -> None:
    missing = set(names) - fo
    if missing:
        raise FormulaError(f"free variables {sorted(missing)}")


def validate_sentence(f: Formula, vocab: Vocabulary) -> None:
    """Check closedness, arity correctness, and numeric-atom availability.

    An explicit stack visits the nodes in order, left child first, so the
    first error found is the leftmost.  A pair on it holds the arguments of
    a TC or fixpoint, checked after its body.
    """
    stack: list = [(f, frozenset(), {})]
    while stack:
        item = stack.pop()
        if len(item) == 2:
            _all_bound(*item)
            continue
        node, fo, so = item
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
            _all_bound(node.args, fo)
        elif isinstance(node, (Eq, Neq, Lt, Bit)):
            if isinstance(node, (Lt, Bit)) and not vocab.has_order:
                raise FormulaError(
                    f"{type(node).__name__} atoms need an ordered vocabulary"
                )
            _all_bound((node.left, node.right), fo)
        elif isinstance(node, (And, Or)):
            stack += ((node.right, fo, so), (node.left, fo, so))
        elif isinstance(node, Not):
            stack.append((node.sub, fo, so))
        elif isinstance(node, (Exists, Forall)):
            stack.append((node.sub, fo | {node.var}, so))
        elif isinstance(node, (SOExists, SOForall)):
            if node.arity < 1:
                raise FormulaError(f"relation variable arity must be >= 1")
            stack.append((node.sub, fo, {**so, node.relvar: node.arity}))
        elif isinstance(node, Tc):
            stack += (((node.arg1, node.arg2), fo),
                      (node.sub, fo | {node.var1, node.var2}, so))
        elif isinstance(node, (Lfp, Pfp)):
            if len(node.args) != len(node.vars):
                raise FormulaError("fixpoint application arity mismatch")
            if len(set(node.vars)) != len(node.vars):
                raise FormulaError("fixpoint variables must be distinct")
            stack += ((node.args, fo),
                      (node.sub, fo | set(node.vars), {**so, node.relvar: len(node.vars)}))
        elif not (isinstance(node, CHAR_NODES) or type(node) is Psi):
            raise FormulaError(f"unexpected node {node!r}")


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

# The deepest sentence tree that parsing and decoding accept; a Psi is one
# level.  The sentence compiler in semantics, and the programs it builds,
# still recurse once per level, within the limit fmwb/__init__.py raises.
MAX_DEPTH = 10_000

_TOKEN_RE = re.compile(
    r"(\s*)(->|!=|[A-Za-z_][A-Za-z0-9_]*|[()\[\]{}:,&|~=<]|[0-9a-f]+)"
)

# A printed encoding sentence starts with Ex1 or Ax1 on a token boundary;
# its quantifiers lie in the run of _PSI_RUN characters from there.
_PSI_START = re.compile(r"(?<![A-Za-z0-9_])[EA]x1 ")
_PSI_RUN = re.compile(r"[EAx0-9 ]*")
_PSI_BITS = str.maketrans("EA", "10", "x0123456789 ")
_IDENT_CHAR = re.compile(r"[A-Za-z0-9_]")


def _psi_spans(text: str):
    """(start, end, w) for each encoding sentence that text spells exactly
    as the printer prints it, with a token boundary at both ends.

    Each candidate reads the run of quantifiers after it once, and no
    candidate starts inside a run already read, so this is linear in text.
    """
    # Any other sentence quantifying x1 would make candidates, but seldom
    # holds the innermost atoms of a printed encoding sentence.
    pos = 0 if "x1 x1 != x1" in text or "(x1 != x1 & x2 != x2)" in text else len(text)
    while m := _PSI_START.search(text, pos):
        start = m.start()
        pos = _PSI_RUN.match(text, start).end()
        w = text[start:pos].translate(_PSI_BITS)
        printed = _psi_text(w)
        end = start + len(printed)
        if text.startswith(printed, start) and not _IDENT_CHAR.match(text, end):
            yield start, end, w
            pos = end


_CHAR_KEYWORDS = {
    "CHAR_ORD": CharOrd,
    "CHAR_UNORD": CharUnord,
    "COCHAR_UNORD": CoCharUnord,
    "CHAR_NPCONP": CharNpconp,
    "CHAR_CFG": CharCfg,
}

_CLOSING = {"(": ")", "[": "]"}
# How tightly each binary connective binds, and which pending connectives
# one closes when it arrives: '->' groups to the right, so it leaves an
# earlier '->' open.  Anything else closes them all.
_BINDS = {"&": 3, "|": 2, "->": 1}
_CLOSES = {"&": 3, "|": 2, "->": 2}


class _Pattern:
    """An operand that may still become an encoding sentence: x1 != x1 &
    ... & xk != xk under one quantifier per entry of bits, innermost
    (binding xk) first.  It is built out only if it does not."""

    __slots__ = ("k", "bits")

    def __init__(self):
        self.k, self.bits = 1, []


def _built(node, depth: int) -> tuple[Formula, int]:
    """The node an operand stands for, and its depth."""
    if type(node) is not _Pattern:
        return node, depth
    built: Formula = Neq("x1", "x1")
    for i in range(2, node.k + 1):
        x = f"x{i}"
        built = And(built, Neq(x, x))
    for i, bit in zip(range(node.k, 0, -1), node.bits):
        built = (Exists if bit == "1" else Forall)(f"x{i}", built)
    return built, node.k + len(node.bits)


class _Parser:
    """One pass over the tokens with an explicit stack, so that the depth
    of a sentence never reaches the Python stack.

    The stack holds, innermost last, the open prefixes (tuples: '~' and the
    quantifiers, which wrap the next operand) and the open contexts (lists:
    the whole text, a bracket, a TC or fixpoint body), each with its head
    and its pending (left operand, depth, connective) triples.
    """

    def __init__(self, text: str, spans):
        # Per token: the text skipped before it, which is empty unless a
        # character there starts no token, its leading whitespace, and the
        # token itself.  Then the rest of the text.  A span from _psi_spans
        # is one token, which reads as the node psi[its index]; the
        # whitespace before it counts as skipped text.
        self.text, self.parts, self.psi = text, [], {}
        start = 0
        for begin, end, w in spans:
            self.split(start, begin)
            self.psi[len(self.parts) // 3] = Psi(w)
            self.parts += ("", text[begin:end])
            start = end
        self.split(start, len(text))
        self.tokens: list[str] = self.parts[2::3]
        self.i = 0

    def split(self, start: int, end: int) -> None:
        """Append the parts of text[start:end]."""
        j, parts = len(self.parts), _TOKEN_RE.split(self.text[start:end])
        self.parts += parts
        skipped = parts[0::3]
        if any(skipped[:-1]) or skipped[-1].strip():
            k = next(k for k, s in enumerate(skipped) if s.strip())
            pos = self.offset(j + 3 * k)
            raise FormulaSyntaxError(f"unexpected character {self.text[pos]!r}", pos)

    def offset(self, j: int) -> int:
        """Where the j-th part of the text starts."""
        return sum(map(len, self.parts[:j]))

    def error(self, message: str) -> FormulaSyntaxError:
        """The error at the next token."""
        return FormulaSyntaxError(message, self.offset(3 * self.i + 2))

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        if self.i >= len(self.tokens):
            raise self.error("unexpected end of input")
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, tok: str) -> None:
        if self.i >= len(self.tokens) or self.tokens[self.i] != tok:
            raise self.error(f"expected {tok!r}, found {self.peek()!r}")
        self.i += 1

    def variable(self) -> str:
        if self.i >= len(self.tokens):
            raise self.error("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        if not _VAR_RE.match(tok):
            raise self.error(f"expected a variable, found {tok!r}")
        return tok

    def variables(self, first: str) -> tuple[str, ...]:
        names = [first]
        while self.peek() == ",":
            self.i += 1
            names.append(self.variable())
        return tuple(names)

    def too_deep(self) -> FormulaSyntaxError:
        return self.error(f"sentence nests deeper than {MAX_DEPTH} levels")

    def parse(self) -> Formula:
        node = self.sentence()
        if self.i != len(self.tokens):
            raise self.error(f"trailing input {self.peek()!r}")
        return node

    def sentence(self) -> Formula:
        tokens, n, psi = self.tokens, len(self.tokens), self.psi
        stack: list = [[None, []]]
        while True:
            # One unary: its prefixes go on the stack, then its operand.
            tok = tokens[self.i] if self.i < n else None
            if tok == "~":
                self.i += 1
                stack.append((Not,))
                continue
            if tok == "(" or tok == "[":
                self.i += 1
                stack.append([_CLOSING[tok], []])
                continue
            if tok is None:
                raise self.error("unexpected end of input")
            if tok in _CHAR_KEYWORDS:
                node = self.char_leaf()
            elif tok == "BIT":
                node = self.bit()
            elif tok == "TC" or tok == "LFP" or tok == "PFP":
                stack.append([self.tc_head() if tok == "TC" else self.fixpoint_head(), []])
                continue
            elif self.i in psi:
                node = psi[self.i]
                self.i += 1
            else:
                prefix = self.quantifier(tok) if tok[0] in "EA" else None
                if prefix is not None:
                    stack.append(prefix)
                    continue
                node = self.atom(tok)
            depth = 1
            # Close everything the operand completes, up to a connective.
            while True:
                if depth > MAX_DEPTH:
                    raise self.too_deep()
                if not stack:
                    return node
                top = stack[-1]
                if type(top) is tuple:
                    stack.pop()
                    node, depth = self.wrap(top, node, depth)
                    continue
                head, pending = top
                op = tokens[self.i] if self.i < n else None
                floor = _CLOSES.get(op, 0)
                while pending and _BINDS[pending[-1][2]] >= floor:
                    left, left_depth, left_op = pending.pop()
                    node, depth = _combine(left_op, left, left_depth, node, depth)
                if floor:
                    if depth > MAX_DEPTH:
                        raise self.too_deep()
                    self.i += 1
                    pending.append((node, depth, op))
                    break
                stack.pop()
                node, depth = self.close(head, node, depth)

    def wrap(self, prefix: tuple, node, depth: int):
        cls = prefix[0]
        if type(node) is _Pattern:
            if (cls is Exists or cls is Forall) \
                    and prefix[1] == f"x{node.k - len(node.bits)}":
                node.bits.append("1" if cls is Exists else "0")
                if len(node.bits) < node.k:
                    return node, depth
                return Psi("".join(reversed(node.bits))), 1
            node, depth = _built(node, depth)
        return cls(*prefix[1:], node), depth + 1

    def close(self, head, node, depth: int):
        if type(head) is str:
            self.expect(head)
            return node, depth
        node, depth = _built(node, depth)
        if head is None:
            return node, depth
        self.expect("]")
        self.expect("(")
        if head[0] is Tc:
            arg1 = self.variable()
            self.expect(",")
            arg2 = self.variable()
            self.expect(")")
            return Tc(head[1], head[2], node, arg1, arg2), depth + 1
        args = self.variables(self.variable())
        self.expect(")")
        return head[0](head[1], head[2], node, args), depth + 1

    def quantifier(self, tok: str) -> tuple | None:
        if len(tok) > 1 and tok[0] in "EA":
            rest = tok[1:]
            if _VAR_RE.match(rest):
                self.i += 1
                return (Exists if tok[0] == "E" else Forall, rest)
            if REL_NAME.match(rest) and self.i + 1 < len(self.tokens) \
                    and self.tokens[self.i + 1] == ":":
                self.i += 2
                arity_tok = self.next()
                try:
                    arity = decimal(arity_tok)
                except ValueError:
                    arity = 0
                if arity < 1:
                    raise self.error(f"bad relation-variable arity {arity_tok!r}")
                return (SOExists if tok[0] == "E" else SOForall, rest, arity)
        return None

    def char_leaf(self) -> Formula:
        kind = _CHAR_KEYWORDS[self.next()]
        self.expect("{")
        payloads = [self.next()]
        while self.peek() == ",":
            self.i += 1
            payloads.append(self.next())
        self.expect("}")
        try:
            bits = [_hex_to_bits(p) for p in payloads]
        except FormulaError as exc:
            raise self.error(str(exc)) from exc
        expected = 1 if kind is CharCfg else 2
        if len(bits) != expected:
            raise self.error(f"{kind.__name__} takes {expected} payloads, got {len(bits)}")
        return kind(*bits)

    def bit(self) -> Formula:
        self.i += 1
        self.expect("(")
        left = self.variable()
        self.expect(",")
        right = self.variable()
        self.expect(")")
        return Bit(left, right)

    def tc_head(self) -> tuple:
        self.i += 1
        self.expect("[")
        var1 = self.variable()
        self.expect(",")
        var2 = self.variable()
        self.expect(":")
        return (Tc, var1, var2)

    def fixpoint_head(self) -> tuple:
        cls = Lfp if self.next() == "LFP" else Pfp
        self.expect("[")
        relvar = self.next()
        if not REL_NAME.match(relvar):
            raise self.error(f"expected a relation variable, found {relvar!r}")
        if self.peek() != ",":
            raise self.error("fixpoint binds at least one variable")
        self.i += 1
        vars_ = self.variables(self.variable())
        self.expect(":")
        return (cls, relvar, vars_)

    def atom(self, tok: str) -> Formula:
        self.i += 1
        if REL_NAME.match(tok):
            self.expect("(")
            args = self.variables(self.variable())
            self.expect(")")
            return Rel(tok, args)
        if _VAR_RE.match(tok):
            op = self.next()
            right = self.variable()
            if op == "!=":
                return _Pattern() if tok == right == "x1" else Neq(tok, right)
            if op == "=":
                return Eq(tok, right)
            if op == "<":
                return Lt(tok, right)
            raise self.error(f"unknown comparison {op!r}")
        raise self.error(f"unexpected token {tok!r}")


def _combine(op: str, left, left_depth: int, right, right_depth: int):
    if type(left) is _Pattern:
        if op == "&" and not left.bits and type(right) is Neq \
                and right.left == right.right == f"x{left.k + 1}":
            left.k += 1
            return left, 1
        left, left_depth = _built(left, left_depth)
    right, right_depth = _built(right, right_depth)
    if op == "&":
        return And(left, right), max(left_depth, right_depth) + 1
    if op == "|":
        return Or(left, right), max(left_depth, right_depth) + 1
    return Or(Not(left), right), max(left_depth + 1, right_depth) + 1


def parse_formula(text: str) -> Formula:
    """Parse the text syntax.  Each encoding sentence printed as the printer
    prints it is read as one token; _Pattern reads any other spelling."""
    spans = list(_psi_spans(text))
    try:
        return _Parser(text, spans).parse()
    except FormulaSyntaxError:
        if not spans:
            raise
    # A span is an operand wherever the plain tokens make one of it, and an
    # error anywhere else: the plain tokens report that error.
    return _Parser(text, ()).parse()

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


def _read_psi(r: BitReader) -> Psi | None:
    """Read an encoding sentence if the code of one starts here."""
    bits, pos, w, xs = r.bits, r.pos, [], []
    if not bits.startswith(_PSI_HEADS, pos):
        return None
    while True:
        x = encode_str(f"x{len(xs) + 1}")
        for bit, tag in _PSI_TAGS:
            if bits.startswith(tag + x, pos):
                w.append(bit)
                xs.append(x)
                pos += len(tag) + len(x)
                break
        else:
            break
    matrix = _psi_matrix_code(xs)
    if not bits.startswith(matrix, pos):
        return None
    r.pos = pos + len(matrix)
    return Psi("".join(w))


def _read_fields(r: BitReader, node: list) -> bool:
    """Read the fields of an open node, [layout, values, count], up to its
    next subformula (then True) or its end."""
    layout, values = node[0], node[1]
    for _, kind in layout.fields[len(values):]:
        if kind == "F":
            return True
        if kind == "V":
            values.append(_read_ident(r, _VAR_RE))
        elif kind == "R":
            values.append(_read_ident(r, REL_NAME))
        elif kind == "N":
            arity = r.nat()
            if arity < 1:
                raise MalformedGodelCode("relation variable arity must be >= 1")
            values.append(arity)
        elif kind == "B":
            values.append(r.payload())
        elif kind == "V+":
            count = node[2] = r.nat()
            if count < 1:
                raise MalformedGodelCode(
                    f"{layout.cls.__name__} needs at least one variable")
            names = tuple(_read_ident(r, _VAR_RE) for _ in range(count))
            if layout.cls in (Lfp, Pfp) and len(set(names)) != count:
                raise MalformedGodelCode("fixpoint variables must be distinct")
            values.append(names)
        else:
            values.append(tuple(_read_ident(r, _VAR_RE) for _ in range(node[2])))
    return False


def _read_formula(r: BitReader) -> Formula:
    """Read one sentence, its fields in code order.  An explicit stack holds
    the nodes still open, each waiting for a subformula."""
    stack: list[list] = []
    while True:
        if len(stack) >= MAX_DEPTH:
            raise MalformedGodelCode(f"sentence nests deeper than {MAX_DEPTH} levels")
        node = _read_psi(r)
        if node is None:
            tag = r.nat()
            layout = _BY_TAG.get(tag)
            if layout is None:
                raise MalformedGodelCode(f"unknown node tag {tag}")
            stack.append([layout, [], 0])
            if _read_fields(r, stack[-1]):
                continue
            node = layout.cls(*stack.pop()[1])
        # Hand the node to its parent, closing each node it completes.
        while stack:
            stack[-1][1].append(node)
            if _read_fields(r, stack[-1]):
                break
            layout, values, _ = stack.pop()
            node = layout.cls(*values)
        else:
            return node


def godel_decode(bits: str) -> Formula:
    return read_code(bits, _read_formula, MalformedGodelCode, "formula")


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


def _check_source(upsilon: Formula, source: Vocabulary, what: str,
                  target: str) -> None:
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
    bound = {node.relvar for node in walk(upsilon)
             if isinstance(node, (SOExists, SOForall, Lfp, Pfp))}
    if "R" in bound:
        raise WrongSourceVocabulary(
            "bound relation variables must not shadow the source symbol R"
        )
    if target in bound:
        raise WrongSourceVocabulary(
            f"bound relation variables must not shadow the target symbol {target}"
        )


def _ordered_target(tau: Vocabulary) -> tuple[str, int]:
    """The symbol of an ordered target that the ordered transport writes to:
    its first relation symbol."""
    if not tau.has_order:
        raise NoOrderInTarget(f"target vocabulary {tau} has no order")
    if not tau.symbols:
        raise NoOrderInTarget("target vocabulary has no relation symbols")
    return tau.symbols[0]


def _unordered_target(tau: Vocabulary) -> tuple[str, int]:
    """The symbol of an unordered target that the unordered transport writes
    to: its least symbol of arity > 1."""
    if tau.has_order:
        raise OrderedTarget(f"target vocabulary {tau} must be unordered")
    for name, arity in tau.symbols:
        if arity > 1:
            return name, arity
    raise AristotelianTarget(f"all symbols of {tau} are unary")


def apply_T_ord(upsilon: Formula, tau: Vocabulary) -> Formula:
    """Transport a sentence over {R:1, <} to an arbitrary ordered vocabulary.

    Atoms R(t) become R1(t) when the first target symbol is unary, otherwise
    Ey R1(y,...,y,t) with a fresh y repeated arity-1 times.
    """
    name, arity = _ordered_target(tau)
    _check_source(upsilon, SIGMA_ORD, "ordered operator", name)
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
    name, arity = _unordered_target(tau)
    _check_source(upsilon, SIGMA_UNORD, "unordered operator", name)
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
    name, arity = _ordered_target(tau)
    image = {(0,) * (arity - 1) + tup for tup in a.rel["R"]}
    return Structure.make(tau, a.n, {name: image})


def pad_structure_unord(a: Structure, tau: Vocabulary) -> Structure:
    """The target-structure image of the least-k reduction (unordered)."""
    if a.vocab != SIGMA_UNORD:
        raise WrongSourceVocabulary(f"expected a structure over {SIGMA_UNORD}")
    name, arity = _unordered_target(tau)
    image = {tup + (0,) * (arity - 2) for tup in a.rel["R"]}
    return Structure.make(tau, a.n, {name: image})


# --- encoding sentences --------------------------------------------------


def psi_encode(w: str) -> Formula:
    """The identically false sentence whose quantifier pattern spells w."""
    if not w:
        raise EmptyString("encoding sentences need a nonempty bit string")
    if not is_bits(w):
        raise FormulaError(f"bit string expected, got {w!r}")
    return Psi(w)


def psi_recognize(f: Formula) -> str | None:
    """Return w when f is syntactically psi_encode(w), else None."""
    if type(f) is Psi:
        return f.bits
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
