"""DNA-string views of ring words and the classical codebook constraints.

A ring word of length n encodes as a nucleotide string of length 2n, one
codon per symbol.  Reversal of a DNA word here means reversal of the
*codon* order (the symbol-level reversal of the underlying ring word),
not strand reversal of individual letters; complement is letterwise
Watson-Crick pairing, which coincides with the ring-level complement
through the codon table.
"""

from __future__ import annotations

from operator import getitem, ne
from typing import Callable, Iterable, Sequence

from .errors import BadAlphabet, LengthMismatch, OddLength, TrivialCode
from .ring import ALL_ELEMENTS, RingElem, theta_inv

_WCC = str.maketrans("ACGT", "TGCA")
_LETTERS = frozenset("ACGT")

DnaWord = str


def encode(w: Sequence[RingElem]) -> DnaWord:
    """Concatenate the codon of each symbol."""
    return "".join(c.codon() for c in w)


def decode(d: DnaWord) -> tuple[RingElem, ...]:
    """Inverse of encode; validates alphabet and even length."""
    if set(d) - _LETTERS:
        raise BadAlphabet(f"letters outside ACGT in {d!r}")
    if len(d) % 2 != 0:
        raise OddLength(f"cannot split {d!r} into codons")
    return tuple(theta_inv(d[i:i + 2]) for i in range(0, len(d), 2))


def letterwise_complement(d: DnaWord) -> DnaWord:
    """A<->T, C<->G in place."""
    if set(d) - _LETTERS:
        raise BadAlphabet(f"letters outside ACGT in {d!r}")
    return d.translate(_WCC)


def reverse_word(d: DnaWord) -> DnaWord:
    """Reverse the codon order, keeping letters within each codon."""
    if len(d) % 2 != 0:
        raise OddLength(f"cannot split {d!r} into codons")
    return "".join(d[i:i + 2] for i in range(len(d) - 2, -2, -2))


def reverse_complement_word(d: DnaWord) -> DnaWord:
    return reverse_word(letterwise_complement(d))


def gc_content(d: DnaWord) -> int:
    """Number of G or C letters."""
    return sum(1 for ch in d if ch in "GC")


def hamming(x: DnaWord, y: DnaWord) -> int:
    if len(x) != len(y):
        raise LengthMismatch("words must share one length")
    return sum(map(ne, x, y))


def _as_book(codebook: Iterable[DnaWord]) -> list[DnaWord]:
    words = sorted(set(codebook))
    if not words:
        return words
    if len({len(w) for w in words}) != 1:
        raise LengthMismatch("words must share one length")
    for w in words:
        if set(w) - _LETTERS:
            raise BadAlphabet(f"letters outside ACGT in {w!r}")
    return words


# ---------------------------------------------------------------------------
# Pairwise scan: every codebook distance and constraint goes through here.
# ---------------------------------------------------------------------------

def _same(w):
    return w


def _pair_min(words: Sequence, distance: Callable, image: Callable = _same,
              floor: int = 0) -> int | None:
    """Least ``distance(image(x), y)`` over the words x, y of a book of
    distinct words, skipping every pair with image(x) == y; None when all
    pairs are skipped.  Returns the first value found below ``floor``.

    ``image`` is the identity, codon reversal or reverse-complement, an
    involution that preserves ``distance``, so (x, y) scores what (y, x)
    scores and the unordered pairs, each word with itself included, cover
    every ordered pair.
    """
    best = None
    for i, x in enumerate(words):
        ix = image(x)
        for y in words[i:]:
            if ix != y:
                dist = distance(ix, y)
                if best is None or dist < best:
                    if dist < floor:
                        return dist
                    best = dist
    return best


def _min_distance(words: Sequence, distance: Callable) -> int:
    if len(words) < 2:
        raise TrivialCode("need at least two words")
    return _pair_min(words, distance)


def _holds(codebook: Iterable[DnaWord], d: int, image: Callable) -> bool:
    best = _pair_min(_as_book(codebook), hamming, image, d)
    return best is None or best >= d


# Symbol distance tables indexed [4a + b][4c + d] by the two ring elements.
_RING_METRICS = {
    "hamming": tuple(tuple(int(x != y) for y in ALL_ELEMENTS) for x in ALL_ELEMENTS),
    "lee": tuple(tuple((x - y).lee_weight() for y in ALL_ELEMENTS) for x in ALL_ELEMENTS),
}


def min_letterwise_distance(codebook: Iterable[DnaWord]) -> int:
    """Minimum pairwise letterwise Hamming distance over distinct words."""
    return _min_distance(_as_book(codebook), hamming)


def min_ring_distance(codebook: Iterable[DnaWord], metric: str) -> int:
    """Minimum pairwise ring ``hamming`` or ``lee`` distance over distinct
    words, each read as the ring word it encodes (so of even length)."""
    if metric not in _RING_METRICS:
        raise ValueError(f"unknown ring metric {metric!r}")
    rows = _RING_METRICS[metric].__getitem__
    words = [tuple(c.index for c in decode(w)) for w in _as_book(codebook)]
    return _min_distance(words, lambda x, y: sum(map(getitem, map(rows, x), y)))


def check_hamming_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """All distinct pairs at letterwise distance >= d."""
    return _holds(codebook, d, _same)


def check_reverse_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """H(reverse(x), y) >= d over ordered pairs, skipping the coincidence
    reverse(x) == y (so palindromes do not fail against themselves)."""
    return _holds(codebook, d, reverse_word)


def check_rc_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """Same as the reverse constraint with reverse-complement in place of
    reverse."""
    return _holds(codebook, d, reverse_complement_word)


def check_gc_constraint(codebook: Iterable[DnaWord]) -> bool:
    """All words share one GC count."""
    words = _as_book(codebook)
    return len({gc_content(w) for w in words}) <= 1


# ---------------------------------------------------------------------------
# Codebook files: one word per line, uppercase ACGT, '#' comments allowed.
# ---------------------------------------------------------------------------

def parse_codebook(text: str) -> list[DnaWord]:
    words = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - _LETTERS:
            raise BadAlphabet(f"letters outside ACGT in {line!r}")
        words.append(line)
    return words


def read_codebook(path) -> list[DnaWord]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_codebook(fh.read())


def render_codebook(words: Iterable[DnaWord], comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.extend(words)
    return "\n".join(lines) + "\n"
