"""The codebook pair scans against brute force over ordered pairs.

The references below are the plain definitions: every ordered pair of
distinct words for the distances, every ordered pair (x, y) with
image(x) != y for the constraints, and ring distances by RingElem
subtraction.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from z4udna import dna
from z4udna.cli import main
from z4udna.cyclic import GeneratorSet, enumerate_code
from z4udna.errors import BadAlphabet, LengthMismatch, OddLength, TrivialCode
from z4udna.poly import Poly
from z4udna.ring import ALL_ELEMENTS

CODONS = tuple(x.codon() for x in ALL_ELEMENTS)
IMAGES = {"hamming": lambda w: w, "reverse": dna.reverse_word,
          "rc": dna.reverse_complement_word}
CONSTRAINTS = {"hamming": dna.check_hamming_constraint,
               "reverse": dna.check_reverse_constraint,
               "rc": dna.check_rc_constraint}


def brute_min(words, distance):
    book = set(words)
    dists = [distance(x, y) for x in book for y in book if x != y]
    if not dists:
        raise TrivialCode("need at least two words")
    return min(dists)


def brute_holds(words, d, image):
    book = set(words)
    return all(dna.hamming(image(x), y) >= d
               for x in book for y in book if image(x) != y)


def ring_distance(metric):
    def distance(x, y):
        diff = [cx - cy for cx, cy in zip(dna.decode(x), dna.decode(y))]
        return (sum(1 for c in diff if c) if metric == "hamming"
                else sum(c.lee_weight() for c in diff))
    return distance


@st.composite
def codebooks(draw):
    """Books of DNA words of one even length, with palindromes under codon
    reversal and under reverse-complement, repeated words, and the reverse
    or reverse-complement of drawn words; a single word now and then."""
    n = draw(st.integers(1, 4))

    def codons(k):
        return st.lists(st.sampled_from(CODONS), min_size=k, max_size=k).map("".join)

    half = codons(n // 2)
    forms = [codons(n),
             st.tuples(half, codons(n % 2)).map(
                 lambda p: p[0] + p[1] + dna.reverse_word(p[0]))]
    if n % 2 == 0:
        forms.append(half.map(lambda h: h + dna.reverse_complement_word(h)))
    word = st.one_of(forms)
    book = []
    for w in draw(st.lists(word, min_size=1, max_size=10)):
        book.append(w)
        extra = draw(st.sampled_from(("none", "repeat", "reverse", "rc")))
        if extra == "repeat":
            book.append(w)
        elif extra == "reverse":
            book.append(dna.reverse_word(w))
        elif extra == "rc":
            book.append(dna.reverse_complement_word(w))
    return draw(st.permutations(book))


@st.composite
def letter_books(draw):
    """Books of raw ACGT words of one length from 1 to 7, odd lengths
    included, with a repeated word now and then."""
    length = draw(st.integers(1, 7))
    words = draw(st.lists(st.text("ACGT", min_size=length, max_size=length),
                          min_size=1, max_size=12))
    return words + draw(st.lists(st.sampled_from(words), max_size=2))


@settings(max_examples=150, deadline=None)
@given(codebooks())
def test_scan_matches_brute_force(book):
    if len(set(book)) < 2:
        with pytest.raises(TrivialCode):
            dna.min_letterwise_distance(book)
    else:
        assert dna.min_letterwise_distance(book) == brute_min(book, dna.hamming)
    for name, check in CONSTRAINTS.items():
        for d in range(len(book[0]) + 2):
            assert check(book, d) == brute_holds(book, d, IMAGES[name]), (name, d)


@settings(max_examples=60, deadline=None)
@given(codebooks())
def test_cli_ring_metrics_match_subtraction(book):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "book.txt"
        path.write_text(dna.render_codebook(book))
        for metric in ("hamming", "lee"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["distance", "--n", "1", "--codebook", str(path),
                             "--metric", metric])
            if len(set(book)) < 2:
                assert code == 2
                with pytest.raises(TrivialCode):
                    dna.min_ring_distance(book, metric)
            else:
                expected = brute_min(book, ring_distance(metric))
                assert (code, out.getvalue()) == (0, f"{expected}\n"), metric
                assert dna.min_ring_distance(book, metric) == expected, metric


@settings(max_examples=150, deadline=None)
@given(letter_books())
def test_letterwise_distance_of_raw_words(book):
    if len(set(book)) < 2:
        with pytest.raises(TrivialCode):
            dna.min_letterwise_distance(book)
    else:
        assert dna.min_letterwise_distance(book) == brute_min(book, dna.hamming)


@settings(max_examples=100, deadline=None)
@given(st.one_of(codebooks(), letter_books()))
def test_letterwise_distance_agrees_with_hamming_constraint(book):
    """The row kernel against the string scan of the Hamming constraint:
    the distance is d exactly when the constraint holds at d and not at
    d + 1."""
    assume(len(set(book)) >= 2)
    distance = dna.min_letterwise_distance(book)
    for d in range(len(book[0]) + 2):
        exact = (dna.check_hamming_constraint(book, d)
                 and not dna.check_hamming_constraint(book, d + 1))
        assert (distance == d) == exact, d


@pytest.mark.parametrize("book, error, message", [
    (["AAAA", "AAT"], LengthMismatch, None),
    (["AAA", "AX"], LengthMismatch, None),
    (["AAX", "AAX"], BadAlphabet, "'AAX'"),
    (["AXT", "ACT"], BadAlphabet, "'AXT'"),
    (["AAT", "AAT"], TrivialCode, None),
    (["A"], TrivialCode, None),
    ([""], TrivialCode, None),
    ([], TrivialCode, None),
])
def test_letterwise_distance_errors_come_in_order(book, error, message):
    """Mixed lengths or a non-ACGT letter (also with one distinct word),
    then fewer than two words; an odd length is not an error."""
    with pytest.raises(error) as excinfo:
        dna.min_letterwise_distance(book)
    assert type(excinfo.value) is error
    if message is not None:
        assert message in str(excinfo.value)


def test_distances_of_a_1024_word_code():
    """Past the size of drawn books: the n=7 code f1 = 1 + x + ... + x^6,
    f2 = x^3 + 2x^2 + x + 3, against its minimum weights (the code is an
    additive group), and its letterwise distance."""
    code = enumerate_code(GeneratorSet(7, Poly.parse("1,1,1,1,1,1,1"), Poly.parse("3,1,2,1")))
    book = code.dna_words()
    assert len(book) == 1024
    assert dna.min_letterwise_distance(book) == 3
    assert dna.min_ring_distance(book, "hamming") == code.min_hamming_distance() == 3
    assert dna.min_ring_distance(book, "lee") == code.min_lee_distance() == 6


def full_image_min(words, image):
    """Least letterwise distance from image(x) to y over all m x m ordered
    pairs of a book, skipping image(x) == y: one broadcast comparison of the
    raw ASCII bytes."""
    m, width = len(words), len(words[0])

    def ascii_rows(ws):
        return np.frombuffer("".join(ws).encode("ascii"), np.uint8).reshape(m, width)

    dists = (ascii_rows(map(image, words))[:, None] != ascii_rows(words)[None]).sum(axis=2)
    return int(dists[dists > 0].min())


@pytest.mark.parametrize("f1, size, distances", [
    ("1,1,1,1,1,1,1", 1024, {"reverse": 1, "rc": 1}),
    ("3,0,0,0,0,0,0,1", 256, {"hamming": 3, "reverse": 1, "rc": 7}),
])
def test_constraints_of_n7_codes_at_their_bounds(f1, size, distances):
    """Each constraint holds at the least distance of a full m x m reference
    and fails one above it, on the 1024-word n=7 code and on the 256-word
    code of the ``codebook`` benchmark workload (f2 = x^3 + 2x^2 + x + 3)."""
    book = enumerate_code(GeneratorSet(7, Poly.parse(f1), Poly.parse("3,1,2,1"))).dna_words()
    assert len(book) == size
    for name, d in distances.items():
        assert full_image_min(book, IMAGES[name]) == d, name
        assert CONSTRAINTS[name](book, d), name
        assert not CONSTRAINTS[name](book, d + 1), name


@pytest.mark.parametrize("book", [
    [],
    ["ACGTAC"],
    ["AAAT"],
    ["AACG", dna.reverse_word("AACG")],
    ["AACG", dna.reverse_complement_word("AACG")],
], ids=["empty", "palindrome", "self-distance-2", "with-reverse", "with-rc"])
def test_constraint_edge_cases_match_brute_force(book):
    """An empty book; one word that is its own codon reversal; one word at
    distance 2 from its own reverse and its own RC, so d = 2 holds and
    d = 3 fails; a word beside its own reverse and beside its own RC, the
    pairs every constraint skips.  Every d from 0 to the length + 1."""
    for name, check in CONSTRAINTS.items():
        for d in range(6 if not book else len(book[0]) + 2):
            assert check(book, d) == brute_holds(book, d, IMAGES[name]), (name, d)


@pytest.mark.parametrize("metric, book, error, message", [
    ("dna", ["AAAA", "AATT"], ValueError, "unknown ring metric 'dna'"),
    ("gc", ["AAA", "AX"], ValueError, "unknown ring metric 'gc'"),
    ("hamming", ["AAAA", "AATT", "AAT"], LengthMismatch, None),
    ("lee", ["AAAA", "AX"], LengthMismatch, None),
    ("lee", ["AAAA", "AATX"], BadAlphabet, "'AATX'"),
    ("hamming", ["AXT", "ACT"], BadAlphabet, "'AXT'"),
    ("hamming", ["ACT", "AAT"], OddLength, "cannot split 'AAT' into codons"),
    ("lee", ["AAT", "AAT"], OddLength, "cannot split 'AAT' into codons"),
    ("hamming", ["AAT"], OddLength, "cannot split 'AAT' into codons"),
    ("hamming", ["AATT", "AATT"], TrivialCode, None),
    ("lee", ["AATT"], TrivialCode, None),
    ("lee", [""], TrivialCode, None),
    ("hamming", [], TrivialCode, None),
])
def test_ring_distance_errors_come_in_order(metric, book, error, message):
    """Unknown metric, then mixed lengths or a non-ACGT letter, then odd
    length (also with one distinct word), then fewer than two words."""
    with pytest.raises(error) as excinfo:
        dna.min_ring_distance(book, metric)
    assert type(excinfo.value) is error
    if message is not None:
        assert message in str(excinfo.value)


@pytest.mark.parametrize("constraint, book, error, message", [
    ("reverse", ["AAAA", "AAT"], LengthMismatch, None),
    ("rc", ["AXT", "ACT"], BadAlphabet, "'AXT'"),
    ("reverse", ["ACT", "AAT"], OddLength, "cannot split 'AAT' into codons"),
    ("rc", ["ACT", "AAT"], OddLength, "cannot split 'AAT' into codons"),
    ("rc", ["ACG"], OddLength, "cannot split 'ACG' into codons"),
])
def test_constraint_errors_come_in_order(constraint, book, error, message):
    """Mixed lengths or a non-ACGT letter, then odd length, which names the
    first sorted book word and never its reverse-complement."""
    with pytest.raises(error) as excinfo:
        CONSTRAINTS[constraint](book, 1)
    assert type(excinfo.value) is error
    if message is not None:
        assert message in str(excinfo.value)


def test_reverse_word_checks_letters_first():
    """As reverse_complement_word and letterwise_complement do: a letter
    outside ACGT is BadAlphabet, also in a word of odd length."""
    for word in ("AXGT", "AXG"):
        with pytest.raises(BadAlphabet, match=repr(word)):
            dna.reverse_word(word)
    with pytest.raises(OddLength, match="'ACG'"):
        dna.reverse_word("ACG")


def test_reverse_complement_word_checks_letters_first():
    with pytest.raises(BadAlphabet, match="'AXT'"):
        dna.reverse_complement_word("AXT")
    with pytest.raises(OddLength, match="'ACG'"):
        dna.reverse_complement_word("ACG")


def test_ring_tables_match_ring_arithmetic():
    """Each 16x16 table entry, over all 256 pairs, against RingElem, and the
    codon of each element read back as its symbol index."""
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            assert dna._RING_TABLES["hamming"][x.index, y.index] == int(x != y)
            assert dna._RING_TABLES["lee"][x.index, y.index] == (x - y).lee_weight()
    assert dna._symbol_rows(CODONS).tolist() == [[x.index] for x in ALL_ELEMENTS]
