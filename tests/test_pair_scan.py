"""The shared pairwise scan against brute force over ordered pairs.

The references below are the plain definitions: every ordered pair of
distinct words for the distances, every ordered pair (x, y) with
image(x) != y for the constraints, and ring distances by RingElem
subtraction.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from z4udna import dna
from z4udna.cli import main
from z4udna.errors import TrivialCode
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
            else:
                assert (code, out.getvalue()) == (
                    0, f"{brute_min(book, ring_distance(metric))}\n"), metric
