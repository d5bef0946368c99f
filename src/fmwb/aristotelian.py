"""Condensed encodings for structures whose symbols are all monadic.

A structure over m unary predicates is determined up to isomorphism by how
many elements realize each of the 2^m predicate patterns.  benc writes those
counts behind a leading 1; uenc is the unary restatement of benc read as a
binary numeral, and is only ever handled through its length.
"""

from __future__ import annotations

import itertools

from .core import Structure, Vocabulary, decode_bin


class NotAristotelian(ValueError):
    pass


class MalformedBenc(ValueError):
    pass


class MalformedCode(ValueError):
    """A bit stream does not start with a complete codeword."""


def encode_nat(x: int) -> str:
    """Self-delimiting code for x >= 0: 1^|c| 0 c b, with b = bin(x), c = bin(|b|)."""
    if x < 0:
        raise ValueError(f"cannot encode negative value {x}")
    b = format(x, "b")
    c = format(len(b), "b")
    return "1" * len(c) + "0" + c + b


def decode_nat(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode one codeword starting at pos; returns (value, bits consumed)."""
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


def encode_str(s: str) -> str:
    """Length-prefixed ascii string as bits."""
    data = s.encode("ascii")
    return encode_nat(len(data)) + "".join(format(byte, "08b") for byte in data)


class BitReader:
    """A cursor over a bit string holding consecutive codewords.

    Every read raises MalformedCode when the string ends too early.
    """

    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def nat(self) -> int:
        value, used = decode_nat(self.bits, self.pos)
        self.pos += used
        return value

    def take(self, k: int) -> str:
        """The next k raw bits."""
        if self.pos + k > len(self.bits):
            raise MalformedCode(f"truncated field at bit {self.pos}")
        self.pos += k
        return self.bits[self.pos - k : self.pos]

    def string(self) -> str:
        """One encode_str codeword."""
        data = self.take(8 * self.nat())
        try:
            return bytes(
                int(data[i : i + 8], 2) for i in range(0, len(data), 8)
            ).decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedCode("string field is not ascii") from exc

    def payload(self) -> str:
        """A bit string behind its length codeword."""
        return self.take(self.nat())


def _check_aristotelian(a: Structure) -> None:
    if not a.vocab.is_aristotelian():
        raise NotAristotelian(f"vocabulary {a.vocab} is not all-unary")


def patterns(m: int) -> list[str]:
    """The lexicographic sequence of all m-bit predicate patterns."""
    return ["".join(bits) for bits in itertools.product("01", repeat=m)]


def element_pattern(a: Structure, element: int) -> str:
    return "".join(
        "1" if (element,) in tuples else "0" for _, tuples in a.relations
    )


def benc(a: Structure) -> str:
    """Leading 1, then each pattern followed by its element count."""
    _check_aristotelian(a)
    counts = pattern_counts(a)
    out = ["1"]
    for pattern, count in counts:
        out.append(pattern)
        out.append(encode_nat(count))
    return "".join(out)


def pattern_counts(a: Structure) -> list[tuple[str, int]]:
    _check_aristotelian(a)
    m = len(a.vocab.symbols)
    realized = [element_pattern(a, i) for i in a.universe]
    return [(p, realized.count(p)) for p in patterns(m)]


def uenc_length(a: Structure) -> int:
    """Length of the unary encoding = benc read as a binary numeral."""
    return int(benc(a), 2)


def canonical_order(a: Structure) -> list[int]:
    """Universe sorted by realized pattern (lexicographic), ties by element."""
    _check_aristotelian(a)
    return sorted(a.universe, key=lambda i: (element_pattern(a, i), i))


def canonize(a: Structure) -> Structure:
    """Relabel so the canonical order becomes the natural order."""
    order = canonical_order(a)
    position = {elem: idx for idx, elem in enumerate(order)}
    relations = {
        name: {(position[t],) for (t,) in tuples} for name, tuples in a.relations
    }
    return Structure.make(a.vocab, a.n, relations)


def parse_benc(vocab: Vocabulary, bits: str) -> list[int]:
    """Validate a benc string for the vocabulary and return the counts."""
    if not vocab.is_aristotelian():
        raise NotAristotelian(f"vocabulary {vocab} is not all-unary")
    m = len(vocab.symbols)
    if not bits or bits[0] != "1":
        raise MalformedBenc("benc must start with 1")
    pos = 1
    counts = []
    for pattern in patterns(m):
        if bits[pos : pos + m] != pattern:
            raise MalformedBenc(f"expected pattern block {pattern} at bit {pos}")
        pos += m
        try:
            count, used = decode_nat(bits, pos)
        except MalformedCode as exc:
            raise MalformedBenc(f"bad count after pattern {pattern}: {exc}") from exc
        counts.append(count)
        pos += used
    if pos != len(bits):
        raise MalformedBenc(f"{len(bits) - pos} trailing bits after the last count")
    if sum(counts) <= 1:
        raise MalformedBenc("pattern counts must sum to a universe size > 1")
    return counts


def reconstruct(vocab: Vocabulary, bits: str) -> Structure:
    """Rebuild the structure a benc string describes.

    Elements are assigned consecutively in pattern order: the first n_1
    elements realize the first pattern, the next n_2 the second, and so on.
    Any structure with the same counts is isomorphic to the result.
    """
    counts = parse_benc(vocab, bits)
    m = len(vocab.symbols)
    n = sum(counts)
    rows = [["0"] * n for _ in range(m)]
    i = 0
    for pattern, count in zip(patterns(m), counts):
        for _ in range(count):
            for r in range(m):
                if pattern[r] == "1":
                    rows[r][i] = "1"
            i += 1
    return decode_bin(vocab, "".join("".join(row) for row in rows))


def decide_M(u_length: int, sentence, vocab: Vocabulary) -> bool:
    """Membership of a unary string (given by length) in the condensed-image set.

    The length is reread as a binary numeral; strings that fail the benc form
    check are non-members by definition.
    """
    from .semantics import models

    if u_length < 1:
        return False
    bits = format(u_length, "b")
    try:
        a = reconstruct(vocab, bits)
    except (MalformedBenc, NotAristotelian):
        return False
    return models(a, sentence)
