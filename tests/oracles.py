"""The slow paths that the package's fast paths are checked against.

Each function here is a plain definition, written on ``RingElem``s, DNA
strings or one word at a time, and each one's docstring begins by naming
the fast path it checks.  None is called by the package.  Two reference
checkers keep their own modules because each is the whole subject of one:
``tests/test_poly_reference.py`` (``Poly`` arithmetic against coefficient
lists of ``RingElem``s) and ``tests/test_conditions_reference.py`` (T31-T42
reports against a constant-by-constant search).  The coefficient-list
division lives here, as ``cyclic.validate`` is checked against it too.
"""

import itertools

import numpy as np

from z4udna.cyclic import generator_polys
from z4udna.errors import (
    BadAlphabet,
    LengthMismatch,
    NonUnitLeadingCoefficient,
    OddLength,
    TrivialCode,
    ZeroPolynomial,
)
from z4udna.poly import Poly
from z4udna.ring import ALL_ELEMENTS, CODON, RingElem

_WCC = {"A": "T", "C": "G", "G": "C", "T": "A"}


# ---------------------------------------------------------------------------
# Ring elements and ring words (tuples of RingElem)
# ---------------------------------------------------------------------------

def inverse(x):
    """Checks ``ring.INV``: 1/x of a unit x = a + u*b is a - a^2*b*u, since
    an odd residue is its own inverse mod 4."""
    if not x.is_unit():
        raise ValueError(f"{x} is not a unit")
    return RingElem(x.a, -x.a * x.a * x.b)


def cyclic_shift(w):
    """Checks ``roll_rows`` of ``test_cyclic``, the oracle of
    ``Code.is_shift_closed``: (c0, ..., c_{n-1}) -> (c_{n-1}, c0, ..., c_{n-2})."""
    return w[-1:] + w[:-1]


def reverse_word(w):
    """Checks ``Code.is_reversible``, through ``closed_under``: the word
    read backwards."""
    return tuple(reversed(w))


def complement_word(w):
    """Checks ``Code.is_complement_closed``, through ``closed_under``:
    (1+u) - c symbolwise."""
    return tuple(c.complement() for c in w)


def reverse_complement(w):
    """Checks ``Code.is_rc_closed`` and ``Code.is_dna_code``, through
    ``closed_under``: the complement of the word read backwards."""
    return tuple(c.complement() for c in reversed(w))


def closed_under(words, word_map):
    """Checks ``Code.is_reversible``, ``is_complement_closed``,
    ``is_rc_closed`` and ``is_dna_code`` against the whole word set: whether
    ``word_map`` sends every word of the set into the set."""
    pool = set(words)
    return all(word_map(w) in pool for w in pool)


def words(code):
    """Checks ``enumerate_code`` and ``Code`` membership against word sets:
    the words of ``code.rows`` as tuples of RingElems, in stored order."""
    return [tuple(ALL_ELEMENTS[k] for k in row) for row in code.rows.tolist()]


def word_from_poly(f, n):
    """Checks the generator words that ``enumerate_code`` spans: f mod
    x^n - 1 as n RingElems, folded one term at a time."""
    word = [RingElem(0)] * n
    for k, c in enumerate(coeffs(f)):
        word[k % n] = word[k % n] + c
    return tuple(word)


def ideal_words(gens, limit=1 << 12):
    """Checks ``enumerate_code``: the ideal as the set of all
    m_a*g_a + m_b*g_b, or None once it is seen to hold more than ``limit``
    words."""
    n = gens.n

    def multiples(g):
        """{m*g mod x^n - 1 : every multiplier m}, one coefficient of m at a
        time, or None once the set holds more than ``limit`` words.

        After step i the set holds every sum of m_k x^k g over k <= i, so
        the last step holds all products m*g without listing the 16^n
        multipliers.  The sets only grow, so a set past ``limit`` means the
        result is too.
        """
        base = word_from_poly(g, n)
        out = {(RingElem(0),) * n}
        for i in range(n):
            shifted = tuple(base[(k - i) % n] for k in range(n))  # x^i * g
            terms = [tuple(m * c for c in shifted) for m in ALL_ELEMENTS]  # m x^i g
            step = set()
            for word in out:
                step.update(tuple(s + t for s, t in zip(word, term)) for term in terms)
                if len(step) > limit:
                    return None
            out = step
        return out

    g_a, g_b = generator_polys(gens)
    words = multiples(g_a)
    if words is None or g_b is None:
        return words
    others = multiples(g_b)
    if others is None:
        return None
    out = set()
    for v in words:
        out.update(tuple(x + y for x, y in zip(v, w)) for w in others)
        if len(out) > limit:
            return None
    return out


def all_multiplier_words(gens):
    """Checks ``enumerate_code`` and ``ideal_words``: the ideal as a plain
    set, built directly from its definition.

    Every product m*g over all 16^n multiplier polynomials is computed by
    coefficient convolution, then the two product sets are combined with a
    Minkowski sum (translates of the first set, skipping translations that
    already landed inside).  No iterative span closure is involved.
    """
    n = gens.n
    g_a, g_b = generator_polys(gens)

    def products(g):
        base = word_from_poly(g, n)
        out = set()
        for multiplier in itertools.product(ALL_ELEMENTS, repeat=n):
            word = [RingElem(0)] * n
            for i, m in enumerate(multiplier):
                if not m:
                    continue
                for j, c in enumerate(base):
                    k = (i + j) % n
                    word[k] = word[k] + m * c
            out.add(tuple(word))
        return out

    combined = products(g_a)
    if g_b is None:
        return combined
    second = products(g_b)
    result = set()
    for shift in second:
        if shift in result:
            continue  # its whole translate is already covered
        result |= {tuple(a + s for a, s in zip(word, shift)) for word in combined}
    return result


# ---------------------------------------------------------------------------
# Polynomials as coefficient lists of RingElem, lowest degree first
# ---------------------------------------------------------------------------

def coeffs(p):
    """Checks ``Poly`` arithmetic on ``Poly.symbols`` against the lists of
    this section: the coefficients of p as RingElems, lowest degree first."""
    return tuple(ALL_ELEMENTS[k] for k in p.symbols)


def trim(cs):
    """Checks the canonical form of ``Poly``: the coefficients as a tuple,
    trailing zeros dropped."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def xn_minus_1(n):
    """Checks ``poly._xn_minus_1``, the modulus ``cyclic.validate`` divides
    by, and builds the tests' x^n - 1: the polynomial of its coefficient
    list -1, 0, ..., 0, 1."""
    return Poly([-1] + [0] * (n - 1) + [1])


def ref_reciprocal(f):
    """Checks ``poly.reciprocal``: the coefficients reversed, trailing and
    then leading zeros dropped; ZeroPolynomial for the zero polynomial."""
    if not trim(f):
        raise ZeroPolynomial("reference")
    return trim(reversed(trim(f)))


def ref_self_reciprocal_constant(f):
    """Checks ``poly.self_reciprocal_constant``: the first of the 16
    constants m, in canonical element order, with m*f = f*; None when no
    constant works."""
    fr = ref_reciprocal(f)
    return next((m for m in ALL_ELEMENTS if trim(m * c for c in f) == fr), None)


def ref_mod(f, n):
    """Checks ``poly.poly_mod_xn``: coefficient k added onto k mod n."""
    out = [RingElem(0)] * n
    for k, c in enumerate(f):
        out[k % n] = out[k % n] + c
    return trim(out)


def ref_divmod(f, g):
    """Checks ``poly.poly_divmod`` and the remainder kernel under it:
    schoolbook long division by the inverse of the leading coefficient,
    every coefficient of g subtracted at every step; NonUnitLeadingCoefficient
    for a zero g or a non-unit leading coefficient, before anything else."""
    f, g = trim(f), trim(g)
    if not g or not g[-1].is_unit():
        raise NonUnitLeadingCoefficient("reference")
    inv = inverse(g[-1])
    rem = list(f)
    q = [RingElem(0)] * max(len(f) - len(g) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(g) - 1] * inv
        q[k] = c
        for i, y in enumerate(g):
            rem[k + i] = rem[k + i] - c * y
    return trim(q), trim(rem)


def ref_divides(g, f, n):
    """Checks ``poly.divides``: the remainder of f mod x^n - 1 by g mod
    x^n - 1 is zero; a g that reduces to zero divides only a zero f."""
    fr, gr = ref_mod(f, n), ref_mod(g, n)
    if not gr:
        return not fr
    return not ref_divmod(fr, gr)[1]


# ---------------------------------------------------------------------------
# DNA words (str over ACGT), one word or one pair at a time
# ---------------------------------------------------------------------------

def encode(w):
    """Checks ``ring.CODON`` against the ring's complement and reversal:
    the codon of each symbol, concatenated."""
    return "".join(c.codon() for c in w)


def decode(d):
    """Checks ``dna._CODON_SYMBOL``: the ring word a DNA word encodes, one
    codon at a time; ValueError on a letter outside ACGT or an odd length."""
    return tuple(ALL_ELEMENTS[CODON.index(d[i:i + 2])] for i in range(0, len(d), 2))


def letterwise_complement(d):
    """Checks the ``3 - letters`` complement of ``dna.check_rc_constraint``:
    A<->T, C<->G in place."""
    return "".join(_WCC[ch] for ch in d)


def reverse_codons(d):
    """Checks ``dna._reversed_letters``: the codon order reversed, the
    letters within each codon kept."""
    if len(d) % 2:
        raise ValueError(f"cannot split {d!r} into codons")
    return "".join(d[i:i + 2] for i in range(len(d) - 2, -2, -2))


def reverse_complement_codons(d):
    """Checks the image of ``dna.check_rc_constraint``: the codon reversal
    of the letterwise complement."""
    return letterwise_complement(reverse_codons(d))


def hamming(x, y):
    """Checks ``dna._LETTER_TABLE``: the number of positions where two words
    of one length differ."""
    return sum(a != b for a, b in zip(x, y, strict=True))


def ring_distance(metric):
    """Checks ``dna._RING_TABLES``: the ring ``hamming`` or ``lee`` distance
    of two DNA words, by RingElem subtraction of the ring words they
    encode."""
    def distance(x, y):
        diff = [cx - cy for cx, cy in zip(decode(x), decode(y), strict=True)]
        return (sum(1 for c in diff if c) if metric == "hamming"
                else sum(c.lee_weight() for c in diff))
    return distance


# ---------------------------------------------------------------------------
# Codebooks: pairs, rows and readers
# ---------------------------------------------------------------------------

def brute_min(words, distance):
    """Checks ``dna.min_letterwise_distance`` and ``dna.min_ring_distance``:
    the least distance over every ordered pair of distinct words."""
    book = set(words)
    dists = [distance(x, y) for x in book for y in book if x != y]
    if not dists:
        raise TrivialCode("need at least two words")
    return min(dists)


def brute_holds(words, d, image):
    """Checks the Hamming, reverse and RC constraints of ``dna``:
    hamming(image(x), y) >= d over every ordered pair with image(x) != y."""
    book = set(words)
    return all(hamming(image(x), y) >= d
               for x in book for y in book if image(x) != y)


def full_image_min(words, image):
    """Checks the constraints of ``dna`` at their bounds on whole codes: the
    least letterwise distance from image(x) to y over all m x m ordered
    pairs of a book, skipping image(x) == y, by one broadcast comparison of
    the raw ASCII bytes."""
    m, width = len(words), len(words[0])

    def ascii_rows(ws):
        return np.frombuffer("".join(ws).encode("ascii"), np.uint8).reshape(m, width)

    dists = (ascii_rows(map(image, words))[:, None] != ascii_rows(words)[None]).sum(axis=2)
    return int(dists[dists > 0].min())


def row_min(rows, table, image=None, floor=0):
    """Checks ``dna._product_min``, one table lookup per word: the least
    nonzero score of ``image[i]`` against ``rows[j]``, j >= i, over the rows
    of a book of distinct words, scoring a pair by the ``table`` entries of
    its letters or symbols summed along the row; None when no score is
    nonzero.  Returns a score below ``floor`` as soon as one is found.

    ``image`` defaults to ``rows``, giving the least distance over pairs of
    distinct words.  Otherwise it holds an involution of the rows that
    preserves distance, so (x, y) scores what (y, x) scores and j >= i
    covers every ordered pair; a score is zero exactly when image(x) == y.
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


def per_word_book(codebook, codons=False):
    """Checks ``dna._book``, one alphabet check per word: the letter rows of
    the sorted distinct words of a book, raising LengthMismatch, then
    BadAlphabet naming the first sorted bad word, then, with ``codons``,
    OddLength naming the first sorted word."""
    if isinstance(codebook, str):
        raise TypeError("a codebook is a collection of words, not a str")
    words = sorted(set(codebook))
    if len({len(w) for w in words}) > 1:
        raise LengthMismatch("words must share one length")
    for w in words:
        if set(w) - set("ACGT"):
            raise BadAlphabet(f"letters outside ACGT in {w!r}")
    if codons and words and len(words[0]) % 2:
        raise OddLength(f"cannot split {words[0]!r} into codons")
    width = len(words[0]) if words else 0
    return np.array([["ACGT".index(c) for c in w] for w in words],
                    np.uint8).reshape(len(words), width)


def per_line_codebook(text):
    """Checks ``dna.parse_codebook``, one alphabet check per line: the
    stripped lines of a codebook file's text, skipping blank lines and '#'
    comments."""
    words = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - set("ACGT"):
            raise BadAlphabet(f"letters outside ACGT in {line!r}")
        words.append(line)
    return words
