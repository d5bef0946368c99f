import itertools
import random

import pytest
from hypothesis import given, strategies as st

from fmwb.core import (
    NoIntegerUniverse, Structure, StructureError, VocabError, VocabMismatch,
    Vocabulary, decode_bin, ell, encode_bin, encoding_length,
    enumerate_structures, is_isomorphic, parse_vocab,
)
from fmwb.logic import parse_formula
from fmwb.semantics import models
from helpers import apply_permutation
from oracles import naive_models
from randgen import random_structure


def test_vocab_invariants():
    with pytest.raises(VocabError):
        Vocabulary((("R", 1), ("R", 2)))
    with pytest.raises(VocabError):
        Vocabulary((("<", 1),))
    with pytest.raises(VocabError):
        Vocabulary((("R", 0),))
    assert parse_vocab("R:1 E:2 <").has_order
    assert not Vocabulary((("R", 1),)).has_order
    assert Vocabulary((("R", 1), ("S", 1))).is_aristotelian()
    assert not Vocabulary((("R", 1),), has_order=True).is_aristotelian()


def test_structure_invariants(v_graph):
    with pytest.raises(ValueError):
        Structure.make(v_graph, 1)
    with pytest.raises(ValueError):
        Structure.make(v_graph, 2, {"E": [(0, 2)]})
    with pytest.raises(ValueError):
        Structure.make(v_graph, 2, {"E": [(0,)]})
    with pytest.raises(StructureError, match="no symbol F"):
        Structure.make(v_graph, 2, {"F": [(0, 1)]})
    assert Structure(v_graph, 2, 15) == Structure.make(
        v_graph, 2, {"E": [(0, 0), (0, 1), (1, 0), (1, 1)]})
    for bits in (-1, 16, 1 << 40):
        with pytest.raises(StructureError):
            Structure(v_graph, 2, bits)
    with pytest.raises(StructureError):
        Structure(Vocabulary((), has_order=True), 3, 1)


def test_ell_examples():
    assert ell(1, 1) == 1
    assert ell(5, 1) == 3
    assert ell(100, 3) == 2
    with pytest.raises(ValueError):
        ell(0, 1)
    with pytest.raises(ValueError):
        ell(3, 0)


def test_ell_is_bit_length():
    for x in range(1, 1 << 16):
        assert ell(x, 1) == len(format(x, "b"))


def test_encode_examples(v_mon_ord, v_graph):
    a = Structure.make(v_mon_ord, 3, {"R": [(1,)]})
    assert encode_bin(a) == "010"
    assert len(encode_bin(a)) == a.n
    assert encode_bin(Structure.make(v_graph, 2)) == "0000"
    assert encode_bin(Structure.make(v_graph, 2, {"E": [(0, 1)]})) == "0100"
    # format(0, "00b") would give "0"; an order-only structure has no bits
    assert encode_bin(Structure.make(Vocabulary((), has_order=True), 3)) == ""


def test_encode_length_is_n_for_ordered_monadic(v_mon_ord):
    rng = random.Random(11)
    for n in range(2, 17):
        members = {(i,) for i in range(n) if rng.random() < 0.5}
        a = Structure.make(v_mon_ord, n, {"R": members})
        assert len(encode_bin(a)) == n


def test_encoding_length_matches_encode_bin():
    rng = random.Random(12)
    for text in ("E:2", "R:1 <", "P:1 E:2", "H:3"):
        vocab = parse_vocab(text)
        for n in (2, 3, 4):
            a = random_structure(rng, vocab, n)
            assert encoding_length(vocab, n) == len(encode_bin(a))


@pytest.mark.parametrize("vocab_text", ["P:1 E:2", "R:1 E:2 <", "H:3"])
def test_bit_order_follows_the_definition(vocab_text):
    """Symbols in vocabulary order, each as the characteristic string of its
    tuples in lexicographic order; bits reads that string as a numeral."""
    vocab = parse_vocab(vocab_text)
    rng = random.Random(vocab_text)
    for n in (2, 3):
        for density in (0.0, 0.3, 0.7, 1.0):
            relations = {
                name: {tup for tup in itertools.product(range(n), repeat=arity)
                       if rng.random() < density}
                for name, arity in vocab.symbols
            }
            code = "".join(
                "1" if tup in relations[name] else "0"
                for name, arity in vocab.symbols
                for tup in itertools.product(range(n), repeat=arity)
            )
            a = Structure.make(vocab, n, relations)
            assert a == decode_bin(vocab, code)
            assert a == Structure(vocab, n, int(code, 2))
            assert a.bits == int(code, 2) and encode_bin(a) == code
            assert a.rel == {name: frozenset(t) for name, t in relations.items()}


def test_checker_atoms_agree_with_naive_oracle_on_arity_3():
    vocab = parse_vocab("H:3")
    sentences = [parse_formula(text) for text in (
        "Ex Ey Ez H(x,y,z)",
        "Ex H(x,x,x)",
        "Ex Ey (H(x,y,x) & ~H(y,x,y))",
        "Ax Ey (H(x,y,y) | H(y,x,x))",
        "Ax Ay Az (H(x,y,z) -> H(z,y,x))",
    )]
    rng = random.Random(33)
    structures = list(enumerate_structures(vocab, 2))
    structures += [random_structure(rng, vocab, n) for n in (3, 4) for _ in range(20)]
    for f in sentences:
        for a in structures:
            assert models(a, f) == naive_models(a, f)


def test_decode_examples(v_mon_ord, v_graph):
    a = decode_bin(v_mon_ord, "010")
    assert a.n == 3 and a.rel["R"] == {(1,)}
    b = decode_bin(v_graph, "0000")
    assert b.n == 2 and b.rel["E"] == frozenset()
    with pytest.raises(NoIntegerUniverse):
        decode_bin(v_graph, "000")


@pytest.mark.parametrize("vocab_text", ["E:2", "R:1 <"])
def test_decode_encode_identity_exhaustive(vocab_text):
    vocab = parse_vocab(vocab_text)
    for a in enumerate_structures(vocab, 4):
        assert decode_bin(vocab, encode_bin(a)) == a


def test_enumerate_counts(v_mon_ord, v_graph):
    assert len(list(enumerate_structures(v_mon_ord, 2))) == 4
    assert len(list(enumerate_structures(v_graph, 2))) == 16
    assert list(enumerate_structures(v_graph, 1)) == []


def test_enumerate_order_and_uniqueness(v_graph):
    seen = list(enumerate_structures(v_graph, 3))
    assert len(set(seen)) == len(seen)
    sizes = [a.n for a in seen]
    assert sizes == sorted(sizes)
    for n in (2, 3):
        codes = [encode_bin(a) for a in seen if a.n == n]
        assert codes == sorted(codes)


def test_iso_examples(v_mon, v_graph):
    a = Structure.make(v_mon, 2, {"R": [(0,)]})
    b = Structure.make(v_mon, 2, {"R": [(1,)]})
    c = Structure.make(v_mon, 2)
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, c)
    with pytest.raises(VocabMismatch):
        is_isomorphic(a, Structure.make(v_graph, 2))


def test_iso_random_permuted_copies(v_graph):
    rng = random.Random(5)
    for _ in range(10):
        tuples = {
            (u, v) for u in range(5) for v in range(5) if rng.random() < 0.4
        }
        a = Structure.make(v_graph, 5, {"E": tuples})
        perm = list(range(5))
        rng.shuffle(perm)
        assert is_isomorphic(a, apply_permutation(a, perm))


def test_ordered_iso_is_encoding_equality(v_mon_ord):
    a = Structure.make(v_mon_ord, 2, {"R": [(0,)]})
    b = Structure.make(v_mon_ord, 2, {"R": [(1,)]})
    assert not is_isomorphic(a, b)
    assert is_isomorphic(a, a)


def test_iso_equivalence_relation(v_graph):
    universe2 = list(enumerate_structures(v_graph, 2))
    for a in universe2:
        assert is_isomorphic(a, a)
    for a, b in itertools.combinations(universe2, 2):
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
    # size 3: partition into classes via representatives, then the relation
    # must agree with class membership on every pair
    universe3 = [a for a in enumerate_structures(v_graph, 3) if a.n == 3]
    reps: list[Structure] = []
    label = {}
    for a in universe3:
        for i, rep in enumerate(reps):
            if is_isomorphic(rep, a):
                label[a] = i
                break
        else:
            label[a] = len(reps)
            reps.append(a)
    rng = random.Random(7)
    sample = rng.sample(universe3, 60)
    for a in sample:
        for b in sample:
            assert is_isomorphic(a, b) == (label[a] == label[b])


@given(st.integers(2, 4), st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_decode_encode_roundtrip_property(n, edges):
    vocab = Vocabulary((("E", 2),))
    edges = {e for e in edges if max(e) < n}
    a = Structure.make(vocab, n, {"E": edges})
    assert decode_bin(vocab, encode_bin(a)) == a
