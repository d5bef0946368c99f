import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from fmwb.aristotelian import (
    BitReader, MalformedBenc, MalformedCode, NotAristotelian, benc, canonical_order,
    canonize, decide_M, decode_nat, encode_nat, encode_str, pattern_counts,
    reconstruct, uenc_length,
)
from fmwb.core import Structure, Vocabulary, ell, is_isomorphic
from fmwb.logic import parse_formula
from helpers import apply_permutation
from oracles import naive_decode_nat, naive_encode_str, naive_read_string

V2 = Vocabulary((("P", 1), ("Q", 1)))


def all_monadic(vocab, n):
    import itertools

    names = vocab.names
    for members in itertools.product([False, True], repeat=n * len(names)):
        rel = {name: set() for name in names}
        for i, bit in enumerate(members):
            if bit:
                rel[names[i // n]].add((i % n,))
        yield Structure.make(vocab, n, rel)


def test_encode_nat_examples():
    assert encode_nat(0) == "1010"
    assert encode_nat(1) == "1011"
    assert encode_nat(2) == "1101010"


def test_decode_nat_examples():
    assert decode_nat("1010") == (0, 4)
    assert decode_nat("1011" + "11") == (1, 4)
    with pytest.raises(MalformedCode):
        decode_nat("11")
    with pytest.raises(MalformedCode):
        decode_nat("0")


@given(st.integers(0, 1 << 20))
def test_codec_roundtrip(x):
    bits = encode_nat(x)
    assert decode_nat(bits) == (x, len(bits))
    assert decode_nat(bits + "0101") == (x, len(bits))


def test_prefix_free_small():
    words = [encode_nat(x) for x in range(1 << 9)]
    for i, w in enumerate(words):
        for j, u in enumerate(words):
            if i != j:
                assert not u.startswith(w)


def _outcome(read, bits):
    try:
        return read(bits)
    except MalformedCode as exc:
        return f"MalformedCode: {exc}"


def _read_string(bits):
    r = BitReader(bits)
    return r.string(), r.pos


def test_bit_codecs_match_their_bit_at_a_time_definitions():
    rng = random.Random(23)
    texts = ["".join(t) for n in range(3)
             for t in itertools.product(map(chr, range(128)), repeat=n)]
    texts += ["".join(chr(rng.randrange(128)) for _ in range(rng.randrange(3, 60)))
              for _ in range(300)]
    codes = []
    for s in texts:
        code = encode_str(s)
        assert code == naive_encode_str(s), s
        codes.append(code)
    # Payloads with bytes past ascii, and bit strings that are no codeword.
    for _ in range(300):
        length = rng.randrange(6)
        codes.append(encode_nat(length) + format(rng.getrandbits(8 * length), f"0{8 * length}b")
                     + format(rng.getrandbits(8), "08b"))
        codes.append(format(rng.getrandbits(40), "040b"))
    # Every truncation; the codes of short strings share most of theirs.
    for bits in sorted({code[:end] for code in codes for end in range(len(code) + 1)}):
        assert _outcome(_read_string, bits) == _outcome(naive_read_string, bits), bits
        for pos in {0, len(bits) // 2}:
            assert _outcome(lambda b: decode_nat(b, pos), bits) \
                == _outcome(lambda b: naive_decode_nat(b, pos), bits), (bits, pos)
    with pytest.raises(UnicodeEncodeError):
        encode_str("\x80")


def test_codeword_readers_refuse_underscores_and_blanks():
    # int(..., 2) reads '11_1' as 7 and ' 1' as 1.
    with pytest.raises(MalformedCode, match="consist of '0'/'1'"):
        decode_nat("11101_11_1")
    with pytest.raises(MalformedCode, match="consist of '0'/'1'"):
        BitReader("1110 1 1 1").nat()
    # Only the bits a codeword can span are read.
    assert decode_nat("1011x") == (1, 4)
    assert decode_nat("x" + encode_nat(5) + "x", 1) == (5, len(encode_nat(5)))
    with pytest.raises(MalformedCode, match="at least one 1"):
        decode_nat("0x")


def test_index_reads_a_codeword_below_its_bound():
    r = BitReader(encode_nat(3) * 2)
    assert r.index(4) == 3
    with pytest.raises(MalformedCode, match="index 3 is not below 3"):
        r.index(3)


def test_codeword_length_formula():
    for x in range(1, 1 << 12):
        assert len(encode_nat(x)) == ell(x, 1) + 2 * ell(ell(x, 1), 1) + 1


def test_codeword_length_bound():
    # for 0 <= x <= n the code stays within log n + 2 log log n + 7
    lengths = [len(encode_nat(x)) for x in range(1025)]
    for n in range(2, 1025):
        bound = math.log2(n) + 2 * math.log2(math.log2(n)) + 7 if n > 2 else 7
        if n == 2:
            bound = 1 + 0 + 7
        assert max(lengths[: n + 1]) <= bound


def test_benc_examples(v_mon, v_graph):
    a = Structure.make(v_mon, 2, {"R": [(0,)]})
    assert benc(a) == "1" + "0" + encode_nat(1) + "1" + encode_nat(1)
    assert benc(a) == "10101111011"
    empty = Structure.make(v_mon, 2)
    assert benc(empty) == "1" + "0" + encode_nat(2) + "1" + encode_nat(0)
    with pytest.raises(NotAristotelian):
        benc(Structure.make(v_graph, 2))


def test_uenc_length_examples(v_mon):
    a = Structure.make(v_mon, 2, {"R": [(0,)]})
    assert uenc_length(a) == 1403
    assert uenc_length(a) == int(benc(a), 2)


def bound_benc(m, n):
    loglog = math.log2(math.log2(n)) if n > 2 else 0
    return 1 + (1 << m) * (m + math.log2(n) + 2 * loglog + 7)


def bound_uenc(m, n):
    return 2 ** ((m + 7) * (1 << m) + 1) * (n * math.log2(n) ** 2) ** (1 << m)


def test_length_bounds_exhaustive_small(v_mon):
    for a in all_monadic(v_mon, 4):
        assert len(benc(a)) <= bound_benc(1, 4)
        assert uenc_length(a) < bound_uenc(1, 4)


def test_length_bounds_sampled_large():
    rng = random.Random(23)
    vocab3 = Vocabulary((("P", 1), ("Q", 1), ("S", 1)))
    for vocab in (Vocabulary((("R", 1),)), V2, vocab3):
        m = len(vocab.symbols)
        for n in (2, 5, 16, 33, 64):
            for density in (0.0, 0.5, 1.0):
                rel = {
                    name: {(i,) for i in range(n) if rng.random() <= density}
                    for name in vocab.names
                }
                a = Structure.make(vocab, n, rel)
                assert len(benc(a)) <= bound_benc(m, n)
                assert uenc_length(a) < bound_uenc(m, n)


def test_isomorphic_structures_share_uenc(v_mon):
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        members = {(i,) for i in range(n) if rng.random() < 0.5}
        a = Structure.make(V2, n, {"P": members, "Q": {(0,)}})
        perm = list(range(n))
        rng.shuffle(perm)
        assert uenc_length(a) == uenc_length(apply_permutation(a, perm))


def test_canonical_order_examples(v_mon):
    a = Structure.make(v_mon, 2, {"R": [(0,)]})
    assert canonical_order(a) == [1, 0]
    assert canonical_order(Structure.make(v_mon, 3)) == [0, 1, 2]


def test_canonize_is_permutation_invariant():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 6)
        rel = {
            "P": {(i,) for i in range(n) if rng.random() < 0.5},
            "Q": {(i,) for i in range(n) if rng.random() < 0.5},
        }
        a = Structure.make(V2, n, rel)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonize(apply_permutation(a, perm)) == canonize(a)
        assert is_isomorphic(canonize(a), a)


def test_reconstruct_examples(v_mon):
    a = Structure.make(v_mon, 2, {"R": [(0,)]})
    r = reconstruct(v_mon, benc(a))
    assert is_isomorphic(r, a)
    assert uenc_length(r) == uenc_length(a)
    two_empty = "1" + "0" + encode_nat(2) + "1" + encode_nat(0)
    b = reconstruct(v_mon, two_empty)
    assert b.n == 2 and b.rel["R"] == frozenset()
    singleton = "1" + "0" + encode_nat(1) + "1" + encode_nat(0)
    with pytest.raises(MalformedBenc):
        reconstruct(v_mon, singleton)


def test_reconstruct_rejects_malformed(v_mon):
    with pytest.raises(MalformedBenc):
        reconstruct(v_mon, "0101")
    with pytest.raises(MalformedBenc):
        reconstruct(v_mon, "1")
    with pytest.raises(MalformedBenc):
        reconstruct(v_mon, benc(Structure.make(v_mon, 2)) + "0")
    with pytest.raises(MalformedBenc):
        # pattern blocks out of order
        reconstruct(v_mon, "1" + "1" + encode_nat(1) + "0" + encode_nat(1))
    # Characters other than bits, also where a count is read.
    for bits in ("1010 11 ", "1_0_1", "10" + "1x01" + "1" + "1011", "2"):
        with pytest.raises(MalformedBenc, match="consist of '0'/'1'"):
            reconstruct(v_mon, bits)


def test_reconstruct_assigns_patterns_in_order(v_mon):
    # counts (1, 2): one element without R, then two with it
    bits = "1" + "0" + encode_nat(1) + "1" + encode_nat(2)
    a = reconstruct(v_mon, bits)
    assert a.n == 3
    assert a.rel["R"] == {(1,), (2,)}
    assert pattern_counts(a) == [("0", 1), ("1", 2)]


def test_roundtrip_exhaustive(v_mon):
    for n in (2, 3, 4):
        for a in all_monadic(v_mon, n):
            r = reconstruct(v_mon, benc(a))
            assert is_isomorphic(r, a)
            assert uenc_length(r) == uenc_length(a)


def test_decide_M_examples(v_mon):
    exists_r = parse_formula("Ex R(x)")
    assert decide_M(1403, exists_r, v_mon)
    assert not decide_M(2, exists_r, v_mon)
    assert not decide_M(0, exists_r, v_mon)
    empty = Structure.make(v_mon, 2)
    assert not decide_M(uenc_length(empty), exists_r, v_mon)
    assert decide_M(uenc_length(empty), parse_formula("Ax ~R(x)"), v_mon)
