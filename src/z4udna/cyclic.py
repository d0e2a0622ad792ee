"""Cyclic codes over the ring: construction, enumeration, and analysis.

A code is built from a generator tuple ``(n, f1, f2, f14[, f3, f4])``; its
two ideal generators are ``f1 + 2*f2 + 2u*f14`` and, when the second pair
is present, ``u*f3 + 2u*f4``, both reduced mod x^n - 1.  Enumeration is
exact span closure over all cyclic shifts of the generators, capped so a
runaway instance fails loudly instead of thrashing.  The cap is decided
before each merge, so no set larger than the cap is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _dense
from .errors import InvalidGenerators, TrivialCode, LengthMismatch
from .poly import Poly, poly_divmod, poly_mod_xn, xn_minus_1
from .ring import ALL_ELEMENTS, CODON, GRAY, LEE, TEXT, RingElem, U

DEFAULT_CAP = 1 << 20

_TWO_U = RingElem(0, 2)

_LEE = np.frombuffer(LEE, dtype=np.uint8)

CodeWord = tuple[RingElem, ...]

# Text of each symbol in each export format, indexed by 4a + b.
_SYMBOL_TEXT = {"ring": TEXT, "dna": CODON, "gray": GRAY}


# ---------------------------------------------------------------------------
# Word-level operations
# ---------------------------------------------------------------------------

def cyclic_shift(w: CodeWord) -> CodeWord:
    """Right rotation: (c0, ..., c_{n-1}) -> (c_{n-1}, c0, ..., c_{n-2})."""
    return w[-1:] + w[:-1]


def reverse_word(w: CodeWord) -> CodeWord:
    return tuple(reversed(w))


def complement_word(w: CodeWord) -> CodeWord:
    return tuple(c.complement() for c in w)


def reverse_complement(w: CodeWord) -> CodeWord:
    return tuple(c.complement() for c in reversed(w))


def word_from_poly(f: Poly, n: int) -> CodeWord:
    return tuple(ALL_ELEMENTS[k] for k in poly_mod_xn(f, n).symbols.ljust(n, b"\0"))


def word_to_row(w: CodeWord) -> np.ndarray:
    return np.array([c.index for c in w], dtype=np.uint8)


def row_to_word(row: np.ndarray) -> CodeWord:
    return tuple(ALL_ELEMENTS[k] for k in row.tolist())


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
        # Both divisions are literal and made only by a monic divisor.
        # Reduced mod x^n - 1, a big equal to x^n - 1 would be 0, which
        # every polynomial divides.
        low, high = getattr(gens, small), getattr(gens, big)
        for name, f in ((small, low), (big, high)):
            if not f.is_monic():
                problems.append(f"{name} must be monic")
        if high.is_monic() and not poly_divmod(modulus, high)[1].is_zero:
            problems.append(f"{big} does not divide x^{n}-1")
        if low.is_monic() and not poly_divmod(high, low)[1].is_zero:
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
    """An explicitly enumerated code, stored as one sorted key array.

    A word is a row of n symbol indices 4a + b (the indices of
    ``Poly.symbols``), and the code keeps one packed key per word
    (``_dense.pack``).  Key order is the lexicographic order of the rows,
    which is the order by the (a, b) pairs of the symbols, so words and
    exports, unpacked from the keys, are deterministic and diffable.
    Membership is a binary search in the keys.  All predicates below are
    exhaustive checks over the stored set, not algebraic shortcuts: each
    maps the keys and compares the sorted image with them, so rows are
    unpacked only for words, exports and distances.
    """

    def __init__(self, n: int, keys: np.ndarray, source: Optional[GeneratorSet] = None):
        self.n = n
        self._keys = keys
        self.source = source

    @classmethod
    def from_words(cls, n: int, words: Iterable[CodeWord]) -> "Code":
        """Build from explicit words (deduplicated; closure is not verified)."""
        stacked = [word_to_row(w) for w in words]
        if not stacked:
            raise ValueError("a code needs at least one word")
        if any(row.size != n for row in stacked):
            raise LengthMismatch(f"every word of a length-{n} code needs {n} symbols")
        return cls(n, _dense.canonical(np.stack(stacked)))

    def __len__(self) -> int:
        return self._keys.size

    def __contains__(self, w: CodeWord) -> bool:
        return len(w) == self.n and _dense.has_key(
            self._keys, _dense.pack(word_to_row(w).reshape(1, -1))[0])

    def _rows(self) -> np.ndarray:
        return _dense.unpack(self._keys, self.n)

    def words(self) -> Iterator[CodeWord]:
        """Words in canonical order."""
        for row in self._rows():
            yield row_to_word(row)

    # -- closure predicates -------------------------------------------------

    def is_shift_closed(self) -> bool:
        return _dense.same_set(self._keys, _dense.roll_keys(self._keys, self.n))

    def is_reversible(self) -> bool:
        return _dense.same_set(self._keys, _dense.reverse_keys(self._keys, self.n))

    def is_complement_closed(self) -> bool:
        return _dense.same_set(self._keys, _dense.complement_keys(self._keys, self.n))

    def is_rc_closed(self) -> bool:
        return _dense.same_set(self._keys, _dense.rc_keys(self._keys, self.n))

    def is_dna_code(self) -> bool:
        """Shift-closed, closed under reverse-complement, with no word
        equal to its own reverse-complement."""
        rc = _dense.rc_keys(self._keys, self.n)
        if (rc == self._keys).any():
            return False
        return self.is_shift_closed() and _dense.same_set(self._keys, rc)

    # -- distances ------------------------------------------------------------

    def _nonzero_rows(self) -> np.ndarray:
        if len(self) < 2:
            raise TrivialCode("need at least two codewords")
        return _dense.unpack(self._keys[self._keys != 0], self.n)

    def min_hamming_distance(self) -> int:
        """Minimum symbolwise Hamming distance; equals the minimum nonzero
        weight because the code is an additive group."""
        return int((self._nonzero_rows() != 0).sum(axis=1).min())

    def min_lee_distance(self) -> int:
        return int(_LEE[self._nonzero_rows()].sum(axis=1).min())

    # -- derived views ----------------------------------------------------------

    def _render(self, fmt: str) -> list[str]:
        """Each word in export format ``fmt``, in canonical word order."""
        text = _SYMBOL_TEXT[fmt]
        sep = "," if fmt == "ring" else ""
        return [sep.join([text[k] for k in word]) for word in self._rows().tolist()]

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
    g_a, g_b = generator_polys(gens)
    n = gens.n
    shifts = (np.arange(n) - np.arange(n)[:, None]) % n  # row i: x^i * g, g rolled by i
    vectors = [np.frombuffer(g.symbols.ljust(n, b"\0"), dtype=np.uint8)[shifts]
               for g in (g_a, g_b) if g is not None]
    code = Code(n, _dense.span_closure(np.concatenate(vectors), cap), gens)
    # spanning all n shifts of each generator makes the result an ideal;
    # fail loudly if that ever stops being true
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
    if code.source is not None:
        g_a, g_b = generator_polys(code.source)
        gen_text = str(g_a) + (f";{g_b}" if g_b is not None else "")
    else:
        gen_text = "-"
    lines = [f"n={code.n}", f"size={len(code)}", f"generators={gen_text}"]
    lines.extend(code._render(fmt))
    return "\n".join(lines) + "\n"
