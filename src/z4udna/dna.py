"""DNA-string views of ring words and the classical codebook constraints.

A ring word of length n encodes as a nucleotide string of length 2n, one
codon per symbol.  Reversal of a DNA word here means reversal of the
*codon* order (the symbol-level reversal of the underlying ring word),
not strand reversal of individual letters; complement is letterwise
Watson-Crick pairing, which coincides with the ring-level complement
through the codon table.  That table is ``ring.CODON``, indexed by the
symbol index 4a + b; ``encode`` indexes it and ``decode`` and the row
readers below read through its inverse ``_CODON_SYMBOL``.

Codebook distances and constraints take a book of distinct words.  Every
codebook distance, and the reverse and reverse-complement constraints,
read the book once into rows, letter indices A, C, G, T = 0-3 for the
letterwise distance and the constraints and symbol indices 4a + b (the
row format of ``cyclic.Code``) for the ring Hamming and Lee distances.
One kernel, ``_row_min``, scores the image of each word (the word itself,
its codon reversal or its reverse-complement) against the word and all
later words with one lookup in a letter or symbol distance table, and
stops at the first score below the constraint's bound: about 80 ms for
the letterwise distance, and as much for a reverse or RC constraint
that holds, on the 1024 words of an n = 7 code on a shared 2-vCPU
machine.  The Hamming constraint still compares strings pair by pair in
``_pair_min``: the ``codebook`` benchmark keeps every span it records, so
faster passes hold more memory, and moving all three constraints at once
raised that workload's peak memory past its 10% bound.
"""

from __future__ import annotations

from operator import ne
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BadAlphabet, LengthMismatch, OddLength, TrivialCode
from .ring import ADD, ALL_ELEMENTS, CODON, LEE, NEG, RingElem

_WCC = str.maketrans("ACGT", "TGCA")
_LETTERS = frozenset("ACGT")

DnaWord = str


def _require_acgt(d: DnaWord) -> None:
    if set(d) - _LETTERS:
        raise BadAlphabet(f"letters outside ACGT in {d!r}")


def _require_codons(d: DnaWord) -> None:
    if len(d) % 2 != 0:
        raise OddLength(f"cannot split {d!r} into codons")


def encode(w: Sequence[RingElem]) -> DnaWord:
    """Concatenate the codon of each symbol."""
    return "".join([CODON[c.index] for c in w])


def decode(d: DnaWord) -> tuple[RingElem, ...]:
    """Inverse of encode; validates alphabet, then even length."""
    _require_acgt(d)
    return tuple(ALL_ELEMENTS[k] for k in _symbol_rows([d])[0].tolist())


def letterwise_complement(d: DnaWord) -> DnaWord:
    """A<->T, C<->G in place."""
    _require_acgt(d)
    return d.translate(_WCC)


def reverse_word(d: DnaWord) -> DnaWord:
    """Reverse the codon order, keeping letters within each codon;
    validates alphabet, then even length."""
    _require_acgt(d)
    _require_codons(d)
    return "".join(d[i:i + 2] for i in range(len(d) - 2, -2, -2))


def reverse_complement_word(d: DnaWord) -> DnaWord:
    """Codon reversal of the letterwise complement; validates alphabet,
    then even length, and names ``d`` itself in either error."""
    return reverse_word(d).translate(_WCC)


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
        _require_acgt(w)
    return words


# ---------------------------------------------------------------------------
# Pairwise scan over strings: the Hamming constraint.
# ---------------------------------------------------------------------------

def _pair_min(words: Sequence[DnaWord], floor: int) -> int | None:
    """Least ``hamming(x, y)`` over the pairs of distinct words x, y of a
    book, None for fewer than two words.  Returns the first value found
    below ``floor``."""
    best = None
    for i, x in enumerate(words):
        for y in words[i + 1:]:
            dist = hamming(x, y)
            if best is None or dist < best:
                if dist < floor:
                    return dist
                best = dist
    return best


# ---------------------------------------------------------------------------
# Codebook distances and the reverse and RC constraints on rows: one table
# lookup per word against itself and all later words.
# ---------------------------------------------------------------------------

# Distance tables indexed [x, y] by two letter indices or two ring symbol
# indices 4a + b: whether two letters differ, whether two ring elements
# differ, and the Lee weight of x - y.
_LETTER_TABLE = 1 - np.eye(4, dtype=np.uint8)
_LEE, _ADD, _NEG = (np.frombuffer(t, np.uint8) for t in (LEE, ADD, NEG))
_RING_TABLES = {
    "hamming": 1 - np.eye(16, dtype=np.uint8),
    "lee": _LEE[_ADD.reshape(16, 16)[:, _NEG[:16]]],
}

# Letter index A, C, G, T = 0-3 of each byte.
_LETTER = np.zeros(256, np.uint8)
_LETTER[list(b"ACGT")] = range(4)


def _letter_rows(words: Sequence[DnaWord]) -> np.ndarray:
    """The m x L uint8 rows of letter indices of m ACGT words of one
    length L."""
    width = len(words[0]) if words else 0
    letters = _LETTER[np.frombuffer("".join(words).encode("ascii"), np.uint8)]
    return letters.reshape(len(words), width)


def _codon_pairs(letters: np.ndarray) -> np.ndarray:
    """4p + q for each codon pq of letter rows of even width."""
    return letters[:, 0::2] << 2 | letters[:, 1::2]


# Symbol index of each codon, indexed by its letter pair 4p + q: the inverse
# of ring.CODON.
_CODON_SYMBOL = np.empty(16, np.uint8)
_CODON_SYMBOL[_codon_pairs(_letter_rows(CODON))[:, 0]] = range(16)


def _codon_letters(words: Sequence[DnaWord]) -> np.ndarray:
    """The letter rows of ACGT words of one even length; the error names
    the first word."""
    if words:
        _require_codons(words[0])
    return _letter_rows(words)


def _symbol_rows(words: Sequence[DnaWord]) -> np.ndarray:
    """The m x n uint8 rows of symbol indices of m ACGT words of one even
    length 2n."""
    return _CODON_SYMBOL[_codon_pairs(_codon_letters(words))]


def _reversed_letters(letters: np.ndarray) -> np.ndarray:
    """Codon reversal of letter rows of even width."""
    m, width = letters.shape
    return letters.reshape(m, width // 2, 2)[:, ::-1].reshape(m, width)


def _row_min(rows: np.ndarray, table: np.ndarray, image: np.ndarray | None = None,
             floor: int = 0) -> int | None:
    """Least nonzero score of ``image[i]`` against ``rows[j]``, j >= i, over
    the rows of a book of distinct words, scoring a pair by the ``table``
    entries of its letters or symbols summed along the row; None when no
    score is nonzero.  Returns a score below ``floor`` as soon as one is
    found.

    ``image`` defaults to ``rows``, giving the least distance over pairs of
    distinct words.  Otherwise it holds the codon reversal or the
    reverse-complement of each row, an involution that preserves distance,
    so (x, y) scores what (y, x) scores and j >= i covers every ordered
    pair; a score is zero exactly when image(x) == y.
    """
    if image is None:
        image = rows
    lows = []
    for i, x in enumerate(image):
        scores = table[x, rows[i:]].sum(axis=1)
        scores = scores[scores > 0]
        if scores.size:
            lows.append(int(scores.min()))
            if lows[-1] < floor:
                break
    return min(lows, default=None)


def _min_distance(rows: np.ndarray, table: np.ndarray) -> int:
    best = _row_min(rows, table)
    if best is None:
        raise TrivialCode("need at least two words")
    return best


def min_letterwise_distance(codebook: Iterable[DnaWord]) -> int:
    """Minimum pairwise letterwise Hamming distance over distinct words."""
    return _min_distance(_letter_rows(_as_book(codebook)), _LETTER_TABLE)


def min_ring_distance(codebook: Iterable[DnaWord], metric: str) -> int:
    """Minimum pairwise ring ``hamming`` or ``lee`` distance over distinct
    words, each read as the ring word it encodes (so of even length)."""
    if metric not in _RING_TABLES:
        raise ValueError(f"unknown ring metric {metric!r}")
    return _min_distance(_symbol_rows(_as_book(codebook)), _RING_TABLES[metric])


def _holds(best: int | None, d: int) -> bool:
    return best is None or best >= d


def _image_holds(codebook: Iterable[DnaWord], d: int, image: Callable) -> bool:
    letters = _codon_letters(_as_book(codebook))
    return _holds(_row_min(letters, _LETTER_TABLE, image(letters), d), d)


def check_hamming_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """All distinct pairs at letterwise distance >= d."""
    return _holds(_pair_min(_as_book(codebook), d), d)


def check_reverse_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """H(reverse(x), y) >= d over ordered pairs, skipping the coincidence
    reverse(x) == y (so palindromes do not fail against themselves)."""
    return _image_holds(codebook, d, _reversed_letters)


def check_rc_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """Same as the reverse constraint with reverse-complement in place of
    reverse; the complement of letter index x is 3 - x."""
    return _image_holds(codebook, d, lambda letters: 3 - _reversed_letters(letters))


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
        _require_acgt(line)
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
