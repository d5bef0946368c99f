"""Finite relational vocabularies and structures over initial-segment universes.

Universes are always {0, ..., n-1} with n >= 2.  The distinguished order
symbol ``<`` is interpreted as the natural order and never stored, so an
ordered structure carries no extension for it and the encoding of a
structure omits it entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


class VocabError(ValueError):
    pass


class StructureError(ValueError):
    pass


class NoIntegerUniverse(ValueError):
    """No universe size n >= 2 matches the length of an encoded structure."""


class VocabMismatch(ValueError):
    pass


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

    def __str__(self):
        parts = [f"{name}:{arity}" for name, arity in self.symbols]
        if self.has_order:
            parts.append("<")
        return " ".join(parts)


def parse_vocab(text: str) -> Vocabulary:
    """Parse ``"R:1 E:2 <"`` style vocabulary tokens."""
    symbols = []
    has_order = False
    for tok in text.split():
        if tok == "<":
            has_order = True
            continue
        name, sep, arity = tok.partition(":")
        if not sep or not arity.isdigit():
            raise VocabError(f"bad vocabulary token {tok!r}, expected name:arity")
        symbols.append((name, int(arity)))
    return Vocabulary(tuple(symbols), has_order)


@dataclass(frozen=True)
class Structure:
    """A finite structure: universe {0,...,n-1} plus one tuple set per symbol."""

    vocab: Vocabulary
    n: int
    relations: tuple[tuple[str, frozenset[tuple[int, ...]]], ...]

    def __post_init__(self):
        if self.n < 2:
            raise StructureError(f"universe size must be > 1, got {self.n}")
        if tuple(name for name, _ in self.relations) != self.vocab.names:
            raise StructureError("relations must list every vocabulary symbol in order")
        for name, tuples in self.relations:
            arity = self.vocab.arity(name)
            for tup in tuples:
                if len(tup) != arity:
                    raise StructureError(f"{name} expects arity {arity}, got {tup}")
                if any(not (0 <= t < self.n) for t in tup):
                    raise StructureError(f"tuple {tup} outside universe of size {self.n}")

    @classmethod
    def make(cls, vocab: Vocabulary, n: int, relations=None) -> "Structure":
        relations = relations or {}
        rels = tuple(
            (name, frozenset(map(tuple, relations.get(name, ()))))
            for name in vocab.names
        )
        return cls(vocab, n, rels)

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


def _tuple_index(tup: tuple[int, ...], n: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * n + t
    return idx


def encode_bin(a: Structure) -> str:
    """Binary encoding of a structure: per-symbol characteristic strings.

    Tuples are indexed lexicographically, so bit sum(t_j * n^(arity-j)) of
    symbol R's block is 1 exactly when the tuple is in R.  The order symbol
    contributes nothing, which makes the encoding of a {R:1, <} structure
    exactly n bits long.
    """
    n = a.n
    out = []
    for name, tuples in a.relations:
        arity = a.vocab.arity(name)
        block = ["0"] * (n ** arity)
        for tup in tuples:
            block[_tuple_index(tup, n)] = "1"
        out.append("".join(block))
    return "".join(out)


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
    if any(b not in "01" for b in bits):
        raise ValueError("encoding must consist of '0'/'1' characters")
    n = _universe_size_for(vocab, len(bits))
    relations = {}
    pos = 0
    for name, arity in vocab.symbols:
        block = bits[pos : pos + n ** arity]
        pos += n ** arity
        tuples = {
            tup
            for i, tup in enumerate(itertools.product(range(n), repeat=arity))
            if block[i] == "1"
        }
        relations[name] = tuples
    return Structure.make(vocab, n, relations)


def structure_from_index(vocab: Vocabulary, n: int, index: int) -> Structure:
    """The structure whose encoding is `index` written with total-length bits."""
    relations = {}
    shift = encoding_length(vocab, n)
    for name, arity in vocab.symbols:
        block_len = n ** arity
        shift -= block_len
        block = (index >> shift) & ((1 << block_len) - 1)
        tuples = set()
        for i, tup in enumerate(itertools.product(range(n), repeat=arity)):
            if block & (1 << (block_len - 1 - i)):
                tuples.add(tup)
        relations[name] = tuples
    return Structure.make(vocab, n, relations)


def enumerate_structures(vocab: Vocabulary, n_max: int):
    """All structures with 2 <= n <= n_max, by size then encoding order."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    for n in range(2, n_max + 1):
        for index in range(1 << encoding_length(vocab, n)):
            yield structure_from_index(vocab, n, index)


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
        return a.relations == b.relations
    if any(len(a.rel[name]) != len(b.rel[name]) for name in a.vocab.names):
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(
            frozenset(tuple(perm[t] for t in tup) for tup in tuples) == b.rel[name]
            for name, tuples in a.relations
        ):
            return True
    return False


def apply_permutation(a: Structure, perm) -> Structure:
    """Relabel a structure along element i -> perm[i]."""
    relations = {
        name: {tuple(perm[t] for t in tup) for tup in tuples}
        for name, tuples in a.relations
    }
    return Structure.make(a.vocab, a.n, relations)
