"""Cyclic codes over the ring: construction, enumeration, and analysis.

A code is built from a generator tuple ``(n, f1, f2, f14[, f3, f4])``; its
two ideal generators are ``f1 + 2*f2 + 2u*f14`` and, when the second pair
is present, ``u*f3 + 2u*f4``, both reduced mod x^n - 1.  Enumeration is
exact span closure over all cyclic shifts of the generators, capped so a
runaway instance fails loudly instead of thrashing.  The cap is decided
before each merge, so no set larger than the cap is ever built.

``enumerate_code`` alone builds a ``Code``, so every code is an ideal of
R[x]/(x^n - 1), and its minimum distance is its minimum nonzero weight.
A code holds the sorted rows of its words, which ``_dense.span_closure``
returns; only this module imports ``_dense``, which alone knows its keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import _dense
from .errors import InvalidGenerators, TrivialCode, LengthMismatch
from .poly import Poly, _divides, poly_mod_xn, xn_minus_1
from .ring import CODON, GRAY, LEE, TEXT, RingElem, U

DEFAULT_CAP = 1 << 20

_TWO_U = RingElem(0, 2)

_LEE = np.frombuffer(LEE, dtype=np.uint8)

CodeWord = tuple[RingElem, ...]

# Text of each symbol in each export format, indexed by 4a + b.
_SYMBOL_TEXT = {"ring": TEXT, "dna": CODON, "gray": GRAY}


def _poly_row(g: Poly, n: int) -> np.ndarray:
    """The word of a polynomial already reduced mod x^n - 1."""
    return np.frombuffer(g.symbols.ljust(n, b"\0"), dtype=np.uint8)


def word_to_row(w: CodeWord) -> np.ndarray:
    return np.array([c.index for c in w], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Generator tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSet:
    """Defining data of a cyclic code of odd length n.

    f2 must divide f1 must divide x^n - 1; the optional pair (f3, f4)
    obeys the same chain.  f14 is unconstrained apart from deg f14 < n.
    """

    n: int
    f1: Poly
    f2: Poly
    f14: Poly = Poly()
    f3: Optional[Poly] = None
    f4: Optional[Poly] = None


def validate(gens: GeneratorSet) -> list[str]:
    """Structural violations as data; an empty list means well-formed."""
    problems = []
    n = gens.n
    if n < 1 or n % 2 == 0:
        problems.append("n must be odd and positive")
        return problems
    modulus = xn_minus_1(n)

    def check_chain(small, big):
        # Both tests are literal and made only by a monic divisor.
        # Reduced mod x^n - 1, a big equal to x^n - 1 would be 0, which
        # every polynomial divides.
        low, high = getattr(gens, small), getattr(gens, big)
        for name, f in ((small, low), (big, high)):
            if not f.is_monic():
                problems.append(f"{name} must be monic")
        if high.is_monic() and not _divides(high.symbols, modulus.symbols):
            problems.append(f"{big} does not divide x^{n}-1")
        if low.is_monic() and not _divides(low.symbols, high.symbols):
            problems.append(f"{small} does not divide {big}")

    check_chain("f2", "f1")
    if (gens.f3 is None) != (gens.f4 is None):
        problems.append("f3 and f4 must be given together")
    elif gens.f3 is not None:
        check_chain("f4", "f3")
    if not gens.f14.is_zero and gens.f14.degree >= n:
        problems.append("f14 must have degree < n")
    return problems


def require_valid(gens: GeneratorSet) -> None:
    """Raise InvalidGenerators naming every problem ``validate`` finds."""
    problems = validate(gens)
    if problems:
        raise InvalidGenerators("; ".join(problems))


def generator_polys(gens: GeneratorSet) -> tuple[Poly, Optional[Poly]]:
    """The reduced ideal generators (f1 + 2f2 + 2u*f14, u*f3 + 2u*f4)."""
    require_valid(gens)
    g_a = poly_mod_xn(gens.f1 + gens.f2 * 2 + gens.f14 * _TWO_U, gens.n)
    g_b = None
    if gens.f3 is not None:
        g_b = poly_mod_xn(gens.f3 * U + gens.f4 * _TWO_U, gens.n)
    return g_a, g_b


# ---------------------------------------------------------------------------
# Enumerated codes
# ---------------------------------------------------------------------------

class Code:
    """An ideal that ``enumerate_code`` built, as the sorted rows of its
    words.

    ``generators`` holds its reduced ideal generators g_a[, g_b].  A word
    is a row of n symbol indices 4a + b (the indices of ``Poly.symbols``),
    and ``rows`` holds one distinct row per word, a uint8 array sorted
    lexicographically, which is the order by the (a, b) pairs of the
    symbols: the exports read the rows as stored, so they are deterministic
    and diffable.  Membership is a binary search in the rows, each row
    compared as one byte string.  Only ``is_shift_closed``, the
    guard of ``enumerate_code``, checks the whole set.  The other closure
    predicates ask the ideal's generators: reversal maps x^i*g to
    x^-i*rev(g), so the code is reversible iff each reversed generator is
    a word (Massey, *Reversible codes*, 1964, for fields).  The complement
    of w is c - w, c the all-(1+u) word, so the code is complement-closed
    iff c is a word, and RC-closed iff both hold.
    """

    def __init__(self, n: int, rows: np.ndarray, generators: tuple[Poly, ...]):
        self.n = n
        self.rows = rows
        self.generators = generators

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, w: CodeWord) -> bool:
        return len(w) == self.n and self._has_row(word_to_row(w))

    def _has_row(self, row: np.ndarray) -> bool:
        # each row viewed as one n-byte string, which compares as the row does
        as_bytes = np.dtype((np.void, self.n))
        rows = self.rows.view(as_bytes).ravel()
        key = np.ascontiguousarray(row).view(as_bytes)[0]
        i = rows.searchsorted(key)
        return bool(i < rows.size and rows[i] == key)

    # -- closure predicates -------------------------------------------------
    # The public predicates are traced, so each reaches its lookups through
    # the private helpers below, never through another public predicate.

    def is_shift_closed(self) -> bool:
        # a roll permutes words, so the set is closed under it iff the
        # sorted rolled rows are the rows.  The rows are sorted, so the
        # rolled rows sort by their first symbol, the last one before the
        # roll, and keep their order within it: one stable sort of the last
        # column sorts them.
        rows = self.rows
        by_last = rows.take(np.argsort(rows[:, -1], kind="stable"), axis=0)
        return np.array_equal(np.concatenate((by_last[:, -1:], by_last[:, :-1]), axis=1), rows)

    def is_reversible(self) -> bool:
        return self._reversible()

    def is_complement_closed(self) -> bool:
        return self._complement_closed()

    def is_rc_closed(self) -> bool:
        return self._rc_closed()

    def is_dna_code(self) -> bool:
        """Closed under reverse-complement, with no word equal to its own
        reverse-complement: exactly ``is_rc_closed``, since n is odd.  The
        middle symbol x of such a word would have (1+u) - x = x, that is
        2x = 1+u, and 2x has an even Z4 part."""
        return self._rc_closed()

    def _reversible(self) -> bool:
        return all(self._has_row(_poly_row(g, self.n)[::-1]) for g in self.generators)

    def _complement_closed(self) -> bool:
        return self._has_row(np.full(self.n, 5, dtype=np.uint8))  # all 1+u

    def _rc_closed(self) -> bool:
        # rc(w) = c - reverse(w), and c is its own reverse
        return self._complement_closed() and self._reversible()

    # -- distances ------------------------------------------------------------

    def _nonzero_rows(self) -> np.ndarray:
        if len(self) < 2:
            raise TrivialCode("need at least two codewords")
        # the rows are sorted and distinct, so only the first can be zero
        return self.rows[1:] if not self.rows[0].any() else self.rows

    def min_hamming_distance(self) -> int:
        """Minimum symbolwise Hamming distance: the minimum nonzero weight,
        since x - y is a word of the ideal for any two words x, y."""
        return int((self._nonzero_rows() != 0).sum(axis=1).min())

    def min_lee_distance(self) -> int:
        return int(_LEE[self._nonzero_rows()].sum(axis=1).min())

    # -- derived views ----------------------------------------------------------

    def _render(self, fmt: str) -> list[str]:
        """Each word in export format ``fmt``, in canonical word order."""
        text = _SYMBOL_TEXT[fmt]
        sep = "," if fmt == "ring" else ""
        return [sep.join([text[k] for k in word]) for word in self.rows.tolist()]

    def dna_words(self) -> list[str]:
        """Nucleotide strings of length 2n, in canonical word order."""
        return self._render("dna")

    def gray_words(self) -> list[str]:
        """Binary strings of length 4n, in canonical word order."""
        return self._render("gray")


def enumerate_code(gens: GeneratorSet, cap: int = DEFAULT_CAP) -> Code:
    """Exact enumeration of the ideal generated by the generator tuple.

    Span closure over the n cyclic shifts of each generator: starting
    from {0}, each shift vector v replaces the running set S by
    {s + r*v : s in S, r in R}, deduplicating as it goes.  Raises
    CapExceeded rather than truncating when the code has more than
    ``cap`` words; the cap is decided before each merge, so no set larger
    than ``cap`` is ever built.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    generators = tuple(g for g in generator_polys(gens) if g is not None)
    n = gens.n
    shifts = (np.arange(n) - np.arange(n)[:, None]) % n  # row i: x^i * g, g rolled by i
    vectors = [_poly_row(g, n)[shifts] for g in generators]
    code = Code(n, _dense.span_closure(np.concatenate(vectors), cap), generators)
    # spanning all n shifts of each generator makes the result an ideal,
    # which the distances and the reversal, complement and RC predicates
    # rely on; fail loudly if that ever stops being true
    if not code.is_shift_closed():
        raise RuntimeError("span closure returned a set that is not shift-closed")
    return code


def is_quasi_cyclic_index4(words: Iterable[str]) -> bool:
    """Whether a set of equal-length binary words is invariant under
    rotation by 4 bit positions."""
    pool = set(words)
    if not pool:
        return True
    lengths = {len(w) for w in pool}
    if len(lengths) != 1:
        raise LengthMismatch("words must share one length")
    length = lengths.pop()
    if length % 4 != 0:
        raise LengthMismatch("word length must be a multiple of 4")
    return all(w[-4:] + w[:-4] in pool for w in pool)


# ---------------------------------------------------------------------------
# Text export
# ---------------------------------------------------------------------------

EXPORT_FORMATS = ("ring", "dna", "gray")


def render_code_export(code: Code, fmt: str = "ring") -> str:
    """Code export file: n=, size=, generators= headers, one word per line."""
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"n={code.n}", f"size={len(code)}",
             "generators=" + ";".join(map(str, code.generators))]
    lines.extend(code._render(fmt))
    return "\n".join(lines) + "\n"
