"""The codebook pair scans against brute force over ordered pairs.

The references are the slow paths of ``oracles``: every ordered pair of
distinct words for the distances, every ordered pair (x, y) with
image(x) != y for the constraints, ring distances by RingElem
subtraction, ``row_min`` for the blocked product of ``dna`` and the
per-word readers for the one-lookup readers of ``dna``.
"""

import contextlib
import io
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    brute_holds,
    brute_min,
    encode,
    full_image_min,
    hamming,
    per_line_codebook,
    per_word_book,
    reverse_codons,
    reverse_complement_codons,
    ring_distance,
    row_min,
)
from z4udna import dna
from z4udna.cli import main
from z4udna.cyclic import GeneratorSet, enumerate_code
from z4udna.errors import BadAlphabet, LengthMismatch, OddLength, TrivialCode, Z4uError
from z4udna.poly import Poly
from z4udna.ring import ALL_ELEMENTS, RingElem

CODONS = tuple(x.codon() for x in ALL_ELEMENTS)
IMAGES = {"hamming": lambda w: w, "reverse": reverse_codons,
          "rc": reverse_complement_codons}
CONSTRAINTS = {"hamming": dna.check_hamming_constraint,
               "reverse": dna.check_reverse_constraint,
               "rc": dna.check_rc_constraint}


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
                 lambda p: p[0] + p[1] + reverse_codons(p[0]))]
    if n % 2 == 0:
        forms.append(half.map(lambda h: h + reverse_complement_codons(h)))
    word = st.one_of(forms)
    book = []
    for w in draw(st.lists(word, min_size=1, max_size=10)):
        book.append(w)
        extra = draw(st.sampled_from(("none", "repeat", "reverse", "rc")))
        if extra == "repeat":
            book.append(w)
        elif extra == "reverse":
            book.append(reverse_codons(w))
        elif extra == "rc":
            book.append(reverse_complement_codons(w))
    return draw(st.permutations(book))


@st.composite
def letter_books(draw):
    """Books of raw ACGT words of one length from 1 to 7, odd lengths
    included, with a repeated word now and then."""
    length = draw(st.integers(1, 7))
    words = draw(st.lists(st.text("ACGT", min_size=length, max_size=length),
                          min_size=1, max_size=12))
    return words + draw(st.lists(st.sampled_from(words), max_size=2))


# Letters outside ACGT: an ASCII one, a lowercase one, two outside ASCII
# and a lone surrogate, which a str can hold but UTF-8 cannot encode.
OUTSIDE_ACGT = ("X", "a", "\u00e9", "\u00dc", "\ud800")


@st.composite
def raw_books(draw):
    """Books of up to 8 words of one length from 0 to 7 or, now and then, of
    mixed lengths, over ACGT alone or with the letters of OUTSIDE_ACGT."""
    letters = st.sampled_from("ACGT")
    if draw(st.booleans()):
        letters = st.one_of(letters, st.sampled_from(OUTSIDE_ACGT))
    lengths = st.integers(0, 7) if draw(st.booleans()) else st.just(draw(st.integers(0, 7)))
    word = lengths.flatmap(lambda k: st.lists(letters, min_size=k, max_size=k).map("".join))
    return draw(st.lists(word, max_size=8))


def outcome(read, *args):
    """What a reader returns (an array as its dtype, shape and entries), or
    the type and message of what it raises."""
    try:
        result = read(*args)
    except Z4uError as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tolist()
    return result


@settings(max_examples=300, deadline=None)
@given(raw_books(), st.booleans(), st.lists(st.sampled_from(
    ["", "  ", "# n=3 \u00e9", "#ACGX", "# \ud800"]), max_size=3), st.data())
def test_readers_match_per_word_checks(book, codons, extra, data):
    """``dna._book`` returns the rows, or raises the exception and message,
    that one check per word gives; ``dna.parse_codebook`` does the same for
    the text of the book's words among blank lines, indented words and
    '#' comments inside and outside ASCII."""
    assert outcome(dna._book, book, codons) == outcome(per_word_book, book, codons)
    lines = data.draw(st.permutations([*book, *extra]), label="lines")
    text = "\n".join(f" {line}\t" if i % 3 == 1 else line for i, line in enumerate(lines))
    assert outcome(dna.parse_codebook, text) == outcome(per_line_codebook, text)


@settings(max_examples=150, deadline=None)
@given(codebooks())
def test_scan_matches_brute_force(book):
    if len(set(book)) < 2:
        with pytest.raises(TrivialCode):
            dna.min_letterwise_distance(book)
    else:
        assert dna.min_letterwise_distance(book) == brute_min(book, hamming)
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
        assert dna.min_letterwise_distance(book) == brute_min(book, hamming)


@settings(max_examples=150, deadline=None)
@given(letter_books())
def test_hamming_constraint_of_raw_words(book):
    """Odd lengths included: letterwise Hamming needs no codons."""
    for d in range(len(book[0]) + 2):
        assert dna.check_hamming_constraint(book, d) == brute_holds(book, d, IMAGES["hamming"]), d


@settings(max_examples=100, deadline=None)
@given(st.one_of(codebooks(), letter_books()))
def test_letterwise_distance_agrees_with_hamming_constraint(book):
    """Two paths through the product kernel, the least distance and the
    constraint with its early exit at ``d``: the distance is d exactly when
    the constraint holds at d and not at d + 1."""
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


DISTANCES = {
    "dna": dna.min_letterwise_distance,
    "hamming": lambda book: dna.min_ring_distance(book, "hamming"),
    "lee": lambda book: dna.min_ring_distance(book, "lee"),
}
PAIR_DISTANCES = {"dna": hamming, "hamming": ring_distance("hamming"),
                  "lee": ring_distance("lee")}


def distance_rows(book, metric):
    """The rows and table that ``metric``'s distance scores: letter rows, or
    the symbol rows of the ring words a book encodes."""
    letters = dna._book(book, codons=metric != "dna")
    if metric == "dna":
        return letters, dna._LETTER_TABLE
    return dna._CODON_SYMBOL[dna._codon_pairs(letters)], dna._RING_TABLES[metric]


@pytest.fixture(scope="module")
def book_4096():
    """The 4096-word n=7 code of f1 = x^7 - 1, f2 = x - 1, past one block
    of the distance product."""
    code = enumerate_code(GeneratorSet(7, Poly.parse("3,0,0,0,0,0,0,1"), Poly.parse("3,1")))
    book = code.dna_words()
    assert len(book) == 4096 and len(book) ** 2 > dna._BLOCK_ENTRIES
    return code, book


@settings(max_examples=100, deadline=None)
@given(codebooks(), st.data())
def test_distance_product_across_blocks_matches_row_min_and_pairs(book, data):
    """With the block cap shrunk so that each book spans two or more
    blocks, down to one row per block: the product route, the ``row_min``
    oracle and the minimum over pairs agree for every metric."""
    m = len(set(book))
    assume(m >= 2)
    entries = data.draw(st.integers(1, m * m - 1), label="block entries")
    with mock.patch.object(dna, "_BLOCK_ENTRIES", entries):
        for metric, distance in DISTANCES.items():
            rows, table = distance_rows(book, metric)
            expected = brute_min(book, PAIR_DISTANCES[metric])
            assert row_min(rows, table) == expected, metric
            assert dna._min_distance(rows, table) == expected, metric
            assert distance(book) == expected, metric


def test_distance_product_of_a_4096_word_code(book_4096):
    """At the real block cap: the product route against ``row_min`` and,
    for the ring metrics, the least nonzero weight of the code (an additive
    group, so x - y is a word of it)."""
    code, book = book_4096
    weights = {"dna": 2, "hamming": code.min_hamming_distance(),
               "lee": code.min_lee_distance()}
    assert weights == {"dna": 2, "hamming": 2, "lee": 4}
    for metric, distance in DISTANCES.items():
        rows, table = distance_rows(book, metric)
        assert distance(book) == row_min(rows, table) == weights[metric], metric


def test_distance_product_allocates_far_below_one_unblocked_matrix(book_4096):
    """The unblocked 4096 x 4096 float32 score matrix would take 64 MB; each
    distance of the 4096-word book peaks under 16 MB of traced allocation."""
    _, book = book_4096
    for metric, distance in DISTANCES.items():
        tracemalloc.start()
        try:
            distance(book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, (metric, peak)


def test_constraints_of_a_4096_word_code_at_their_bounds(book_4096):
    """At the real block cap, past one block: Hamming and reverse hold at 2
    and fail at 3, RC holds at 8 and fails at 9, and each constraint peaks
    under 16 MB of traced allocation, as the distances do."""
    _, book = book_4096
    for name, d in {"hamming": 2, "reverse": 2, "rc": 8}.items():
        tracemalloc.start()
        try:
            holds = CONSTRAINTS[name](book, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds and peak < 16 << 20, (name, peak)
        assert not CONSTRAINTS[name](book, d + 1), name


@settings(max_examples=150, deadline=None)
@given(codebooks(), st.data())
def test_constraints_across_blocks_match_brute_force(book, data):
    """With the block cap at one row per block or drawn below one block for
    the book: each constraint against ``brute_holds`` at every d from its
    true minimum - 1 to its true minimum + 1, so the exit after the first
    block with a score below d comes at a block boundary and inside a
    block.  A constraint with no pair to score is checked at every d."""
    m = len(set(book))
    entries = data.draw(st.one_of(st.just(1), st.integers(1, max(1, m * m - 1))),
                        label="block entries")
    with mock.patch.object(dna, "_BLOCK_ENTRIES", entries):
        for name, check in CONSTRAINTS.items():
            image = IMAGES[name]
            dists = [hamming(image(x), y) for x in set(book) for y in set(book)
                     if image(x) != y]
            bounds = (range(min(dists) - 1, min(dists) + 2) if dists
                      else range(len(book[0]) + 2))
            for d in bounds:
                assert check(book, d) == brute_holds(book, d, image), (name, d)


def test_a_valid_book_is_checked_in_one_lookup(tmp_path):
    """On the 256-word n=7 book of the ``codebook`` benchmark workload no
    distance, constraint or file read checks a word on its own; with one
    word outside ACGT each of them does, and raises BadAlphabet naming it."""
    code = enumerate_code(GeneratorSet(7, Poly.parse("3,0,0,0,0,0,0,1"), Poly.parse("3,1,2,1")))
    book = code.dna_words()
    path = tmp_path / "book.txt"
    path.write_text(dna.render_codebook(book, comment="n=7 size=256"))
    bad = "ACGX" + book[0][4:]
    bad_path = tmp_path / "bad.txt"
    bad_path.write_text(dna.render_codebook([bad, *book[1:]]))
    readers = {
        "letterwise": dna.min_letterwise_distance,
        "ring hamming": lambda book: dna.min_ring_distance(book, "hamming"),
        "ring lee": lambda book: dna.min_ring_distance(book, "lee"),
        "hamming": lambda book: dna.check_hamming_constraint(book, 3),
        "reverse": lambda book: dna.check_reverse_constraint(book, 1),
        "rc": lambda book: dna.check_rc_constraint(book, 7),
        "gc": dna.check_gc_constraint,
        "file": dna.read_codebook,
    }
    for name, read in readers.items():
        valid, invalid = (path, bad_path) if name == "file" else (book, [bad, *book[1:]])
        with mock.patch.object(dna, "_require_acgt", wraps=dna._require_acgt) as check:
            read(valid)
            assert check.call_count == 0, name
            with pytest.raises(BadAlphabet, match=repr(bad)):
                read(invalid)
            assert check.call_count >= 1, name


def n63_word(symbol):
    return encode((symbol,) * 63)


LEE_4 = RingElem(0, 2)


@pytest.mark.parametrize("metric, book, expected", [
    ("dna", ["A" * 126, "T" * 126], 126),
    ("hamming", [n63_word(ALL_ELEMENTS[0]), n63_word(ALL_ELEMENTS[5])], 63),
    ("lee", [n63_word(ALL_ELEMENTS[0]), n63_word(LEE_4)], 252),
], ids=["dna", "hamming", "lee"])
def test_distance_product_of_the_widest_words(metric, book, expected):
    """n = 63 words (126 letters, 63 symbols) differing in every letter or
    symbol, the Lee pair at weight 4 in each symbol, so its score is the
    largest any pair of the paper's words can have; then the same words
    among random ones, one row per block, against ``row_min`` and pairs."""
    assert LEE_4.lee_weight() == 4
    rows, table = distance_rows(book, metric)
    assert DISTANCES[metric](book) == row_min(rows, table) == expected
    rng = random.Random(63)
    book = book + [n63_word(rng.choice(ALL_ELEMENTS)) for _ in range(4)]
    book += ["".join(rng.choice(CODONS) for _ in range(63)) for _ in range(4)]
    rows, table = distance_rows(book, metric)
    expected = brute_min(book, PAIR_DISTANCES[metric])
    with mock.patch.object(dna, "_BLOCK_ENTRIES", 1):
        assert DISTANCES[metric](book) == row_min(rows, table) == expected


@pytest.mark.parametrize("f1, size, distances", [
    ("1,1,1,1,1,1,1", 1024, {"hamming": 3, "reverse": 1, "rc": 1}),
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
    ["AACG", reverse_codons("AACG")],
    ["AACG", reverse_complement_codons("AACG")],
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
    ("hamming", ["AAAA", "AAT"], LengthMismatch, None),
    ("gc", ["AAAA", "AAT"], LengthMismatch, None),
    ("hamming", ["AAA", "AX"], LengthMismatch, None),
    ("hamming", ["AYT", "ACT", "AXT"], BadAlphabet, "'AXT'"),
    ("gc", ["GCX", "ACT", "AAX"], BadAlphabet, "'AAX'"),
    ("gc", ["AAX"], BadAlphabet, "'AAX'"),
])
def test_constraint_errors_come_in_order(constraint, book, error, message):
    """Mixed lengths, then a non-ACGT letter naming the first sorted bad
    word, also with one word; then, for reverse and RC, odd length, which
    names the first sorted book word and never its reverse-complement."""
    check = {**CONSTRAINTS, "gc": lambda b, d: dna.check_gc_constraint(b)}[constraint]
    with pytest.raises(error) as excinfo:
        check(book, 1)
    assert type(excinfo.value) is error
    if message is not None:
        assert message in str(excinfo.value)


@pytest.mark.parametrize("score", [
    dna.min_letterwise_distance,
    lambda book: dna.min_ring_distance(book, "lee"),
    lambda book: dna.check_hamming_constraint(book, 1),
    lambda book: dna.check_reverse_constraint(book, 1),
    lambda book: dna.check_rc_constraint(book, 1),
    dna.check_gc_constraint,
], ids=["letterwise", "ring", "hamming", "reverse", "rc", "gc"])
def test_a_bare_string_is_not_a_codebook(score):
    """A str would read as a book of one-letter words."""
    with pytest.raises(TypeError, match="not a str"):
        score("ACGT")


def test_hamming_and_gc_constraints_take_odd_lengths():
    """Unlike the reverse and RC constraints, which raise OddLength."""
    assert dna.check_hamming_constraint(["ACT", "AAT"], 1)
    assert not dna.check_hamming_constraint(["ACT", "AAT"], 2)
    assert dna.check_hamming_constraint(["ACG"], 4)
    assert dna.check_gc_constraint(["ACT", "AGT", "TCA"])
    assert not dna.check_gc_constraint(["ACT", "AAT"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.just([]), letter_books(), codebooks()))
def test_gc_constraint_matches_gc_content(book):
    """The empty book, one-word books and books of every length from 1 to 8."""
    assert dna.check_gc_constraint(book) == (len({dna.gc_content(w) for w in set(book)}) <= 1)


IMAGE_ROWS = {
    "codon reversal": dna._reversed_letters,
    "reverse-complement": lambda rows: 3 - dna._reversed_letters(rows),
    "letter reversal": lambda rows: rows[:, ::-1],
    "complement": lambda rows: 3 - rows,
}


@settings(max_examples=200, deadline=None)
@given(letter_books(), st.sampled_from([None, *IMAGE_ROWS]), st.integers(0, 9), st.data())
def test_row_min_contract(book, image_name, floor, data):
    """The product kernel ``dna._product_min``, with the block cap drawn from
    one row per block up to one block for the whole book, and the
    ``row_min`` oracle, each against the full m x m table of ordered pairs
    (image(x), y), skipping zero scores, for distinct letter rows and no
    image or an involutive, distance-preserving one: None exactly when no
    pair scores nonzero, a score from the true minimum up to below
    ``floor`` when the true minimum is below ``floor``, and the true
    minimum otherwise."""
    rows = dna._letter_rows(sorted(set(book)))
    assume(image_name not in ("codon reversal", "reverse-complement")
           or rows.shape[1] % 2 == 0)
    image = None if image_name is None else IMAGE_ROWS[image_name](rows)
    scores = ((rows if image is None else image)[:, None] != rows[None]).sum(axis=2)
    nonzero = scores[scores > 0]
    true = int(nonzero.min()) if nonzero.size else None
    entries = data.draw(st.integers(1, len(rows) ** 2), label="block entries")
    with mock.patch.object(dna, "_BLOCK_ENTRIES", entries):
        got = dna._product_min(rows, dna._LETTER_TABLE, image, floor)
    for result in (got, row_min(rows, dna._LETTER_TABLE, image, floor)):
        if true is None:
            assert result is None
        elif true < floor:
            assert true <= result < floor
        else:
            assert result == true


def test_ring_tables_match_ring_arithmetic():
    """Each 16x16 table entry, over all 256 pairs, against RingElem, and the
    codon of each element read back as its symbol index."""
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            assert dna._RING_TABLES["hamming"][x.index, y.index] == int(x != y)
            assert dna._RING_TABLES["lee"][x.index, y.index] == (x - y).lee_weight()
    symbols = dna._CODON_SYMBOL[dna._codon_pairs(dna._letter_rows(CODONS))]
    assert symbols.tolist() == [[x.index] for x in ALL_ELEMENTS]
