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
codebook distance reads the book once into rows, letter indices A, C, G,
T = 0-3 for the letterwise distance and symbol indices 4a + b (the row
format of ``cyclic.Code``) for the ring Hamming and Lee distances, and
scores each word against all later words with one lookup in a letter or
symbol distance table (``_row_min``): about 80 ms for the letterwise
distance of the 1024 words of an n = 7 code on a shared 2-vCPU machine.
The constraints still compare strings pair by pair in ``_pair_min``.
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
    """Reverse the codon order, keeping letters within each codon."""
    if len(d) % 2 != 0:
        raise OddLength(f"cannot split {d!r} into codons")
    return "".join(d[i:i + 2] for i in range(len(d) - 2, -2, -2))


def reverse_complement_word(d: DnaWord) -> DnaWord:
    """Codon reversal of the letterwise complement; validates alphabet,
    then even length, and names ``d`` itself in either error."""
    _require_acgt(d)
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
# Pairwise scan over strings: the constraints.
# ---------------------------------------------------------------------------

def _same(w):
    return w


def _pair_min(words: Sequence[DnaWord], image: Callable, floor: int) -> int | None:
    """Least ``hamming(image(x), y)`` over the words x, y of a book of
    distinct words, skipping every pair with image(x) == y; None when all
    pairs are skipped.  Returns the first value found below ``floor``.

    ``image`` is the identity, codon reversal or reverse-complement, an
    involution that preserves ``hamming``, so (x, y) scores what (y, x)
    scores and the unordered pairs, each word with itself included, cover
    every ordered pair.
    """
    best = None
    for i, x in enumerate(words):
        ix = image(x)
        for y in words[i:]:
            if ix != y:
                dist = hamming(ix, y)
                if best is None or dist < best:
                    if dist < floor:
                        return dist
                    best = dist
    return best


def _holds(codebook: Iterable[DnaWord], d: int, image: Callable) -> bool:
    best = _pair_min(_as_book(codebook), image, d)
    return best is None or best >= d


# ---------------------------------------------------------------------------
# Codebook distances on rows: one table lookup per word against later words.
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


def _symbol_rows(words: Sequence[DnaWord]) -> np.ndarray:
    """The m x n uint8 rows of symbol indices of m ACGT words of one even
    length 2n."""
    if words and len(words[0]) % 2 != 0:
        raise OddLength(f"cannot split {words[0]!r} into codons")
    return _CODON_SYMBOL[_codon_pairs(_letter_rows(words))]


def _row_min(rows: np.ndarray, table: np.ndarray) -> int:
    """Least distance over the pairs of rows of a book of distinct words,
    scoring a pair by the ``table`` entries of its letters or symbols,
    summed along the row."""
    if len(rows) < 2:
        raise TrivialCode("need at least two words")
    return int(min(table[rows[i], rows[i + 1:]].sum(axis=1).min()
                   for i in range(len(rows) - 1)))


def min_letterwise_distance(codebook: Iterable[DnaWord]) -> int:
    """Minimum pairwise letterwise Hamming distance over distinct words."""
    return _row_min(_letter_rows(_as_book(codebook)), _LETTER_TABLE)


def min_ring_distance(codebook: Iterable[DnaWord], metric: str) -> int:
    """Minimum pairwise ring ``hamming`` or ``lee`` distance over distinct
    words, each read as the ring word it encodes (so of even length)."""
    if metric not in _RING_TABLES:
        raise ValueError(f"unknown ring metric {metric!r}")
    return _row_min(_symbol_rows(_as_book(codebook)), _RING_TABLES[metric])


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
