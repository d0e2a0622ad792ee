"""DNA-string views of ring words and the classical codebook constraints.

A ring word of length n encodes as a nucleotide string of length 2n, one
codon per symbol.  Reversal of a DNA word here means reversal of the
*codon* order (the symbol-level reversal of the underlying ring word),
not strand reversal of individual letters; complement is letterwise
Watson-Crick pairing, which coincides with the ring-level complement
through the codon table.  That table is ``ring.CODON``, indexed by the
symbol index 4a + b; the ring distances read through its inverse
``_CODON_SYMBOL``.

A codebook is a collection of words (a list, tuple or set; a bare str is
not one).  Every codebook distance and constraint reads it through one
reader, ``_book``, which checks it and returns the letter rows (letter
indices A, C, G, T = 0-3) of its sorted distinct words; the ring Hamming
and Lee distances turn those rows into symbol indices 4a + b, the row
format of ``cyclic.Code``.  A valid book's alphabet is checked in one
table lookup over all its letters; only a book with a letter outside
ACGT is checked again one word at a time, to name the first bad word.
Codebook files are UTF-8 text, one ACGT word per line, and
``parse_codebook`` checks all their words in the same one lookup.  Every
distance and constraint scores pairs of rows by summing entries of a 4x4
letter or 16x16 symbol distance table along the row, through one kernel,
``_product_min``: one float32 matrix product per block of rows against
itself and all later rows, each block capped at 2^20 scores.  The
distances (``min_letterwise_distance``, ``min_ring_distance``) score
each word against the others; the Hamming, reverse and RC constraints
score the word, its codon reversal or its reverse-complement against the
words, and stop after the first block with a score below the
constraint's bound.

On the n = 7 codes of 256, 1024 and 4096 words, on a shared 2-vCPU
machine, ``_book`` takes 0.04-0.06, 0.24-0.36 and 1.2-1.7 ms, the
letterwise distance 0.14-0.22, 1.9-2.9 and 18-28 ms and the ring
distances 0.21-0.35, 2.7-4 and 27-39 ms, and a Hamming, reverse or RC
constraint that holds takes 0.14-0.23, 1.9-2.9 and 17-27 ms (5, 58-59
and 850-930 ms one word at a time).  A constraint that fails still
scores one whole block: 0.14-0.25, 1.9-2.9 and 3.3-4.9 ms.  The GC
constraint counts the letters C and G on the same rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import BadAlphabet, LengthMismatch, OddLength, TrivialCode
from .ring import ADD, CODON, LEE, NEG

_LETTERS = frozenset("ACGT")

DnaWord = str


def _require_acgt(d: DnaWord) -> None:
    if set(d) - _LETTERS:
        raise BadAlphabet(f"letters outside ACGT in {d!r}")


def _require_codons(d: DnaWord) -> None:
    if len(d) % 2 != 0:
        raise OddLength(f"cannot split {d!r} into codons")


def gc_content(d: DnaWord) -> int:
    """Number of G or C letters; validates alphabet."""
    _require_acgt(d)
    return sum(1 for ch in d if ch in "GC")


# ---------------------------------------------------------------------------
# Codebook distances and constraints on rows: both score blocks of rows with
# one matrix product each.
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

# Letter index A, C, G, T = 0-3 of each byte, and 4 of every other byte.
_LETTER = np.full(256, 4, np.uint8)
_LETTER[list(b"ACGT")] = range(4)


def _letters(words: Sequence[DnaWord]) -> np.ndarray:
    """The letter indices of the joined words, read in one table lookup.
    Only when that finds a letter outside ACGT are the words checked one
    at a time, which raises BadAlphabet naming the first bad word."""
    joined = "".join(words)
    letters = (_LETTER[np.frombuffer(joined.encode("ascii"), np.uint8)]
               if joined.isascii() else None)
    if letters is None or letters.max(initial=0) > 3:
        for w in words:
            _require_acgt(w)
    return letters


def _letter_rows(words: Sequence[DnaWord]) -> np.ndarray:
    """The m x L uint8 rows of letter indices of m words of one length L;
    raises BadAlphabet naming the first word with a letter outside ACGT."""
    width = len(words[0]) if words else 0
    return _letters(words).reshape(len(words), width)


def _codon_pairs(letters: np.ndarray) -> np.ndarray:
    """4p + q for each codon pq of letter rows of even width."""
    return letters[:, 0::2] << 2 | letters[:, 1::2]


# Symbol index of each codon, indexed by its letter pair 4p + q: the inverse
# of ring.CODON.
_CODON_SYMBOL = np.empty(16, np.uint8)
_CODON_SYMBOL[_codon_pairs(_letter_rows(CODON))[:, 0]] = range(16)


def _book(codebook: Iterable[DnaWord], codons: bool = False) -> np.ndarray:
    """The letter rows of the sorted distinct words of a book, a collection
    of words (a bare str is not one).  Raises LengthMismatch, then
    BadAlphabet naming the first sorted bad word, then, with ``codons``,
    OddLength naming the first sorted word."""
    if isinstance(codebook, str):
        raise TypeError("a codebook is a collection of words, not a str")
    words = sorted(set(codebook))
    if len({len(w) for w in words}) > 1:
        raise LengthMismatch("words must share one length")
    letters = _letter_rows(words)
    if codons and words:
        _require_codons(words[0])
    return letters


def _reversed_letters(letters: np.ndarray) -> np.ndarray:
    """Codon reversal of letter rows of even width."""
    m, width = letters.shape
    return letters.reshape(m, width // 2, 2)[:, ::-1].reshape(m, width)


# Most score entries one block of the product holds (4 MB of float32), so a
# 4096-word book is scored 256 rows at a time and never holds its 64 MB
# matrix.
_BLOCK_ENTRIES = 1 << 20


def _product_min(rows: np.ndarray, table: np.ndarray, image: np.ndarray | None = None,
                 floor: int = 0) -> int | None:
    """Least nonzero score of ``image[i]`` against ``rows[j]`` over the rows
    of a book of distinct words, scoring a pair by the ``table`` entries of
    its letters or symbols summed along the row; None when no score is
    nonzero.  Stops after the first block whose least score is below
    ``floor`` and returns that score.

    The score of (x, y) is the product of two rows of width L*k for a k x k
    table: the table rows of x's image gathered by its letters or symbols,
    and the one-hot encoding of y.  Each block of rows is scored against
    itself and the rows after it, one float32 product per block.  Every
    score is an integer of at most the largest table entry times L,
    4 * 63 = 252 for the ring words of n = 63, and float32 holds every
    integer up to 2^24, so any summation order gives it exactly.

    ``image`` defaults to ``rows``, giving the least distance over pairs of
    distinct words.  Otherwise it holds the codon reversal or the
    reverse-complement of each row, an involution that preserves distance,
    so (x, y) scores what (y, x) scores and a pair skipped before its block
    was scored in an earlier one; a score is zero exactly when
    image(x) == y.
    """
    if image is None:
        image = rows
    m, width = rows.shape
    k = len(table)
    weights = table.astype(np.float32).take(image, axis=0).reshape(m, width * k)
    onehot = np.eye(k, dtype=np.float32).take(rows, axis=0).reshape(m, width * k)
    step = max(1, _BLOCK_ENTRIES // max(m, 1))
    best = np.inf
    for start in range(0, m, step):
        scores = weights[start:start + step] @ onehot[start:].T
        scores[scores == 0] = np.inf
        best = min(best, scores.min(initial=np.inf))
        if best < floor:
            break
    return None if best == np.inf else int(best)


def _min_distance(rows: np.ndarray, table: np.ndarray) -> int:
    """The least distance over pairs of distinct rows; raises TrivialCode
    when no score is nonzero."""
    best = _product_min(rows, table)
    if best is None:
        raise TrivialCode("need at least two words")
    return best


def min_letterwise_distance(codebook: Iterable[DnaWord]) -> int:
    """Minimum pairwise letterwise Hamming distance over distinct words."""
    return _min_distance(_book(codebook), _LETTER_TABLE)


def min_ring_distance(codebook: Iterable[DnaWord], metric: str) -> int:
    """Minimum pairwise ring ``hamming`` or ``lee`` distance over distinct
    words, each read as the ring word it encodes (so of even length)."""
    if metric not in _RING_TABLES:
        raise ValueError(f"unknown ring metric {metric!r}")
    symbols = _CODON_SYMBOL[_codon_pairs(_book(codebook, codons=True))]
    return _min_distance(symbols, _RING_TABLES[metric])


def _holds(letters: np.ndarray, d: int, image: np.ndarray | None = None) -> bool:
    best = _product_min(letters, _LETTER_TABLE, image, d)
    return best is None or best >= d


def check_hamming_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """All distinct pairs at letterwise distance >= d; any word length."""
    return _holds(_book(codebook), d)


def check_reverse_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """H(reverse(x), y) >= d over ordered pairs, skipping the coincidence
    reverse(x) == y (so palindromes do not fail against themselves)."""
    letters = _book(codebook, codons=True)
    return _holds(letters, d, _reversed_letters(letters))


def check_rc_constraint(codebook: Iterable[DnaWord], d: int) -> bool:
    """Same as the reverse constraint with reverse-complement in place of
    reverse; the complement of letter index x is 3 - x."""
    letters = _book(codebook, codons=True)
    return _holds(letters, d, 3 - _reversed_letters(letters))


def check_gc_constraint(codebook: Iterable[DnaWord]) -> bool:
    """All words share one GC count: letters C and G are indices 1 and 2."""
    letters = _book(codebook)
    return np.unique(((letters == 1) | (letters == 2)).sum(axis=1)).size <= 1


# ---------------------------------------------------------------------------
# Codebook files: UTF-8 text, one word per line, uppercase ACGT, '#' comments
# allowed.
# ---------------------------------------------------------------------------

def parse_codebook(text: str) -> list[DnaWord]:
    """The stripped lines of a codebook file in file order, skipping blank
    lines and '#' comments; raises BadAlphabet naming the first line with a
    letter outside ACGT."""
    words = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    _letters(words)
    return words


def read_codebook(path) -> list[DnaWord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_codebook(fh.read())


def render_codebook(words: Iterable[DnaWord], comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.extend(words)
    return "\n".join(lines) + "\n"
