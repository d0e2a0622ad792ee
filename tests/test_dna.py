"""Encoding, Watson-Crick complements, and the four codebook constraints."""

import random

import pytest

from oracles import (
    complement_word,
    decode,
    encode,
    hamming,
    letterwise_complement,
    reverse_codons,
    reverse_complement,
    reverse_complement_codons,
)
from z4udna import dna
from z4udna.errors import BadAlphabet, LengthMismatch, TrivialCode
from z4udna.ring import ALL_ELEMENTS, RingElem


def test_encode_examples():
    assert encode((RingElem(0, 1), RingElem(0, 1), RingElem(0))) == "CCCCAA"
    assert encode((RingElem(0),) * 3) == "AAAAAA"
    assert encode((RingElem(3, 3),) * 7) == "TCTCTCTCTCTCTC"


def test_decode_round_trip():
    for x in ALL_ELEMENTS:
        assert decode(encode((x,))) == (x,)
    rng = random.Random(9)
    for n in (3, 7):
        for _ in range(50):
            w = tuple(rng.choice(ALL_ELEMENTS) for _ in range(n))
            assert decode(encode(w)) == w


def test_encode_after_decode_is_identity():
    rng = random.Random(14)
    letters = "ACGT"
    for _ in range(60):
        word = "".join(rng.choice(letters) for _ in range(2 * rng.randrange(1, 8)))
        assert encode(decode(word)) == word


def test_letterwise_complement():
    assert letterwise_complement("GCATAG") == "CGTATC"
    assert letterwise_complement("AAAA") == "TTTT"
    word = "ACGTGCTA"
    assert letterwise_complement(letterwise_complement(word)) == word


def test_complement_commutes_with_encoding():
    for x in ALL_ELEMENTS:
        assert encode(complement_word((x,))) == letterwise_complement(encode((x,)))
    rng = random.Random(21)
    for n in (3, 7):
        for _ in range(40):
            w = tuple(rng.choice(ALL_ELEMENTS) for _ in range(n))
            assert encode(complement_word(w)) == letterwise_complement(encode(w))


def test_codon_level_reverse():
    assert reverse_codons("ATGC") == "GCAT"
    assert reverse_complement_codons("ATGC") == "CGTA"
    rng = random.Random(33)
    for _ in range(40):
        w = tuple(rng.choice(ALL_ELEMENTS) for _ in range(5))
        assert reverse_codons(encode(w)) == encode(tuple(reversed(w)))
        assert reverse_complement_codons(encode(w)) == encode(reverse_complement(w))


def test_letter_distance_dominates_symbol_distance():
    rng = random.Random(55)
    for _ in range(100):
        w1 = tuple(rng.choice(ALL_ELEMENTS) for _ in range(5))
        w2 = tuple(rng.choice(ALL_ELEMENTS) for _ in range(5))
        symbol = sum(1 for a, b in zip(w1, w2) if a != b)
        letter = hamming(encode(w1), encode(w2))
        assert letter >= symbol


def test_gc_content():
    assert dna.gc_content("GCGC") == 4
    assert dna.gc_content("AATT") == 0
    assert dna.gc_content("CCCCAA") == 4
    with pytest.raises(BadAlphabet, match="'AXG'"):
        dna.gc_content("AXG")


def test_hamming_constraint():
    book = {"AAAA", "TTTT", "GGGG"}
    assert dna.check_hamming_constraint(book, 4)
    assert not dna.check_hamming_constraint({"AAAA", "AAAT"}, 2)
    with pytest.raises(LengthMismatch):
        dna.check_hamming_constraint({"AAAA", "AA"}, 1)


def test_reverse_constraint_conventions():
    # reverse(x) == x for the singleton palindrome, so the pair is skipped
    assert dna.check_reverse_constraint({"AAAA"}, 1)
    assert dna.check_reverse_constraint({"AATT", "TTAA"}, 4)
    # reverse(AAAT) = ATAA sits at distance 2 from AAAT itself
    assert not dna.check_reverse_constraint({"AAAT"}, 3)
    assert dna.check_reverse_constraint({"AAAT"}, 2)


def test_rc_constraint():
    assert dna.check_rc_constraint({"AAAA"}, 1)   # rc(AAAA) = TTTT != AAAA, distance 4
    assert not dna.check_rc_constraint({"AAAA", "TTTA"}, 2)


def test_gc_constraint():
    assert dna.check_gc_constraint({"AAAA", "TTTT"})
    assert dna.check_gc_constraint({"GCTA", "ATCG"})
    assert not dna.check_gc_constraint({"GGGG", "AAAA"})


def test_min_letterwise_distance():
    assert dna.min_letterwise_distance({"AAAA", "AATT", "TTTT"}) == 2
    with pytest.raises(TrivialCode):
        dna.min_letterwise_distance({"AAAA"})


def test_codebook_files(tmp_path):
    words = ["ACGT", "TTAA", "GGCC"]
    text = dna.render_codebook(words, comment="demo book")
    path = tmp_path / "book.txt"
    path.write_text(text)
    assert dna.read_codebook(path) == words
    assert dna.parse_codebook("# comment\n\nACGT\n") == ["ACGT"]
    with pytest.raises(BadAlphabet):
        dna.parse_codebook("ACGX\n")
