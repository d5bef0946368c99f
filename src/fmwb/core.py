"""Finite relational vocabularies and structures over initial-segment universes.

Universes are always {0, ..., n-1} with n >= 2.  The distinguished order
symbol ``<`` is interpreted as the natural order and never stored, so an
ordered structure carries no extension for it and the encoding of a
structure omits it entirely.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache


class VocabError(ValueError):
    pass


class StructureError(ValueError):
    pass


class NoIntegerUniverse(ValueError):
    """No universe size n >= 2 matches the length of an encoded structure."""


class VocabMismatch(ValueError):
    pass


# The names a sentence can give a relation, stored or quantified.
REL_NAME = re.compile(r"[A-Z][A-Z0-9_]*\Z")


@dataclass(frozen=True)
class Vocabulary:
    """An ordered sequence of relation symbols, optionally with ``<``."""

    symbols: tuple[tuple[str, int], ...]
    has_order: bool = False

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise VocabError(f"duplicate relation symbols in {names}")
        for name, arity in self.symbols:
            if name == "<":
                raise VocabError("'<' is interpreted, not a stored symbol")
            if not REL_NAME.match(name):
                raise VocabError(f"bad relation symbol {name!r}, expected [A-Z][A-Z0-9_]*")
            if arity < 1:
                raise VocabError(f"symbol {name} has arity {arity} < 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise VocabError(f"unknown relation symbol {name!r}")

    def is_aristotelian(self) -> bool:
        return not self.has_order and all(a == 1 for _, a in self.symbols)

    def __hash__(self) -> int:
        # Stored at first use, since every cache keyed by a vocabulary
        # hashes it.  String hashes differ between processes, so
        # __reduce__ leaves the stored one behind.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.symbols, self.has_order))
            return h

    def __reduce__(self):
        return type(self), (self.symbols, self.has_order)

    def __str__(self):
        parts = [f"{name}:{arity}" for name, arity in self.symbols]
        if self.has_order:
            parts.append("<")
        return " ".join(parts)


def text_lines(text: str):
    """(content, raw line) for each line with content: '#' starts a comment."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line, raw


# int() also takes '_', '+', blanks and other scripts' digits; a minus
# stays, for the value's own range check.
_DECIMAL = re.compile(r"-?[0-9]+")


def decimal(text: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"bad number {text!r}")
    return int(text)


def is_bits(text: str) -> bool:
    return text.count("0") + text.count("1") == len(text)


def parse_vocab(text: str) -> Vocabulary:
    """Parse ``"R:1 E:2 <"`` style vocabulary tokens."""
    symbols = []
    has_order = False
    for tok in text.split():
        if tok == "<":
            has_order = True
            continue
        name, _, arity = tok.partition(":")
        try:
            symbols.append((name, decimal(arity)))
        except ValueError:
            raise VocabError(f"bad vocabulary token {tok!r}, expected name:arity") from None
    return Vocabulary(tuple(symbols), has_order)


@dataclass(frozen=True)
class Structure:
    """A finite structure: universe {0,...,n-1} and its binary encoding.

    bits is encode_bin of the structure read as a binary numeral, so the
    first symbol's first tuple is the highest bit; the tuple sets are read
    off it on demand.
    """

    vocab: Vocabulary
    n: int
    bits: int

    def __post_init__(self):
        if self.n < 2:
            raise StructureError(f"universe size must be > 1, got {self.n}")
        length = encoding_length(self.vocab, self.n)
        if self.bits < 0 or self.bits.bit_length() > length:
            raise StructureError(f"bits must lie in [0, 2^{length}) for n = {self.n}")

    @classmethod
    def make(cls, vocab: Vocabulary, n: int, relations=None) -> "Structure":
        """The structure with the given tuple sets; missing symbols are empty."""
        relations = relations or {}
        unknown = set(relations) - {name for name, _ in vocab.symbols}
        if unknown:
            raise StructureError(f"no symbol {min(unknown)} in vocabulary {vocab}")
        bits = 0
        for name, arity in vocab.symbols:
            for tup in map(tuple, relations.get(name, ())):
                if len(tup) != arity:
                    raise StructureError(f"{name} expects arity {arity}, got {tup}")
                if any(not (0 <= t < n) for t in tup):
                    raise StructureError(f"tuple {tup} outside universe of size {n}")
                bits |= 1 << bit_position(vocab, n, name, tup)
        return cls(vocab, n, bits)

    @cached_property
    def relations(self) -> tuple[tuple[str, frozenset[tuple[int, ...]]], ...]:
        """Each symbol's tuple set, read off its block of the encoding."""
        code, n, start = encode_bin(self), self.n, 0
        out = []
        for name, arity in self.vocab.symbols:
            block = code[start : start + n ** arity]
            start += len(block)
            tuples, i = [], block.find("1")
            while i >= 0:
                tuples.append(_tuple_at(i, n, arity))
                i = block.find("1", i + 1)
            out.append((name, frozenset(tuples)))
        return tuple(out)

    @cached_property
    def rel(self) -> dict[str, frozenset[tuple[int, ...]]]:
        return dict(self.relations)

    @property
    def universe(self) -> range:
        return range(self.n)

    def __str__(self):
        lines = [f"vocab {self.vocab}", f"n = {self.n}"]
        for name, tuples in self.relations:
            rendered = " ".join(
                "(" + ",".join(map(str, tup)) + ")" for tup in sorted(tuples)
            )
            lines.append(f"{name} = {rendered}".rstrip())
        return "\n".join(lines)


def ell(x: int, k: int = 1) -> int:
    """Iterated binary length: ell(x) = floor(log2 x) + 1, composed k times."""
    if x < 1:
        raise ValueError(f"binary length undefined for {x}")
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    for _ in range(k):
        x = x.bit_length()
    return x


def encoding_length(vocab: Vocabulary, n: int) -> int:
    """Length of the binary encoding of a size-n structure: sum of n^arity."""
    return sum(n ** arity for _, arity in vocab.symbols)


def _tuple_at(index: int, n: int, arity: int) -> tuple[int, ...]:
    """The arity-tuple over range(n) with this lexicographic index."""
    digits = []
    for _ in range(arity):
        index, t = divmod(index, n)
        digits.append(t)
    return tuple(reversed(digits))


@lru_cache(maxsize=64)
def bit_positions(vocab: Vocabulary, n: int) -> dict[str, list]:
    """Where each tuple's bit sits in Structure.bits for size n: the bit of
    tuple (t1, ..., tk) of a symbol is positions[name][t1]...[tk].

    The encoding lists the symbols in order, each as the characteristic
    string of its tuples in lexicographic order.  Read as a binary numeral,
    a symbol's first tuple is its highest bit and tuple t sits its
    lexicographic index below it.  Callers must not modify the tables.
    """
    top = encoding_length(vocab, n)
    table = {}
    for name, arity in vocab.symbols:
        rows = list(range(top - 1, top - 1 - n ** arity, -1))
        top -= len(rows)
        for _ in range(arity - 1):
            rows = [rows[i : i + n] for i in range(0, len(rows), n)]
        table[name] = rows
    return table


def bit_position(vocab: Vocabulary, n: int, name: str, tup: tuple[int, ...]) -> int:
    """The position in Structure.bits of tuple tup of symbol name."""
    rows = bit_positions(vocab, n)[name]
    for t in tup:
        rows = rows[t]
    return rows


def encode_bin(a: Structure) -> str:
    """Binary encoding of a structure: per-symbol characteristic strings.

    Tuples are indexed lexicographically, so bit sum(t_j * n^(arity-j)) of
    symbol R's block is 1 exactly when the tuple is in R.  The order symbol
    contributes nothing, which makes the encoding of a {R:1, <} structure
    exactly n bits long.
    """
    # The leading 1 keeps the leading zeros and makes a 0-bit encoding "".
    return bin(a.bits | 1 << encoding_length(a.vocab, a.n))[3:]


def _universe_size_for(vocab: Vocabulary, length: int) -> int:
    if not vocab.symbols:
        raise NoIntegerUniverse("vocabulary has no relation symbols to decode")
    n = 2
    while True:
        total = encoding_length(vocab, n)
        if total == length:
            return n
        if total > length:
            raise NoIntegerUniverse(
                f"no universe size n >= 2 yields an encoding of length {length}"
            )
        n += 1


def decode_bin(vocab: Vocabulary, bits: str) -> Structure:
    """Inverse of encode_bin; raises NoIntegerUniverse when no n >= 2 fits."""
    if not is_bits(bits):
        raise ValueError("encoding must consist of '0'/'1' characters")
    return Structure(vocab, _universe_size_for(vocab, len(bits)), int(bits, 2))


def enumerate_structures(vocab: Vocabulary, n_max: int):
    """All structures with 2 <= n <= n_max, by size then encoding order."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    for n in range(2, n_max + 1):
        for index in range(1 << encoding_length(vocab, n)):
            yield Structure(vocab, n, index)


def is_isomorphic(a: Structure, b: Structure) -> bool:
    """Brute-force isomorphism over all universe bijections.

    Ordered structures only admit order-preserving bijections, and the only
    order-preserving bijection of an initial segment is the identity, so the
    ordered case degenerates to equality of encodings.
    """
    if a.vocab != b.vocab:
        raise VocabMismatch(f"vocabularies differ: {a.vocab} vs {b.vocab}")
    if a.n != b.n:
        return False
    if a.vocab.has_order:
        return a.bits == b.bits
    if any(len(a.rel[name]) != len(b.rel[name]) for name in a.vocab.names):
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(
            frozenset(tuple(perm[t] for t in tup) for tup in tuples) == b.rel[name]
            for name, tuples in a.relations
        ):
            return True
    return False
