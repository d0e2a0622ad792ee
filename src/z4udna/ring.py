"""Arithmetic on the 16-element commutative ring Z4 + u*Z4 with u^2 = 0.

Elements are written ``a + u*b`` with ``a, b`` residues mod 4.  The ring is
local with maximal ideal <2, u> and has characteristic 4; an element is a
unit exactly when its Z4 part ``a`` is odd.

Three fixed element-level maps matter downstream:

* ``codon``: a bijection onto the 16 nucleotide pairs over {A, C, G, T},
  chosen so that the ring complement ``x -> (1+u) - x`` matches the
  letterwise Watson-Crick complement (A<->T, C<->G) of the pair.
* ``gray_bits``: the 4-bit image ``a + u*b -> (beta(b), gamma(b),
  beta(a+b), gamma(a+b))`` built from the Z4 Gray pairs; it carries the
  Lee metric on the ring to the Hamming metric on bits.
* ``lee_weight``: Lee weight of the Z4 pair ``(b, a+b)``.

No element equals its own complement (2x = 1+u has no solution), which is
what makes length-preserving reverse-complement codes possible at all.
"""

from __future__ import annotations

import re

# 2-adic digits of c in Z4: c = alpha + 2*beta, and gamma = alpha + beta mod 2.
BETA = (0, 0, 1, 1)
GAMMA = (0, 1, 1, 0)

# Lee weight on Z4: min(c, 4 - c).
LEE_Z4 = (0, 1, 2, 1)

# Codon attached to (a, b).  Watson-Crick pairs sit at complementary
# ring elements: (a, b) and (1 - a, 1 - b) always map to letterwise
# complementary pairs.
_CODON_OF = {
    (0, 0): "AA", (1, 1): "TT", (1, 0): "GG", (0, 1): "CC",
    (2, 0): "AT", (3, 1): "TA", (3, 0): "GC", (2, 1): "CG",
    (0, 2): "GT", (1, 3): "CA", (0, 3): "AC", (1, 2): "TG",
    (2, 3): "CT", (3, 2): "GA", (2, 2): "AG", (3, 3): "TC",
}
_ELEM_OF_CODON = {v: k for k, v in _CODON_OF.items()}

_TEXT_RE = re.compile(r"^(?:([0-3])|([23])?u|([1-3])\+([23])?u)$")


class RingElem:
    """An element a + u*b, always stored with a and b reduced mod 4."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        self.a = a % 4
        self.b = b % 4

    @classmethod
    def parse(cls, text: str) -> "RingElem":
        """Parse the canonical text form: ``a``, ``bu`` or ``a+bu``.

        Accepts exactly what ``str`` emits, e.g. ``0``, ``3``, ``u``,
        ``2u``, ``1+u``, ``3+2u``.  Anything else (``1u``, ``0+2u``,
        whitespace, ...) is rejected.
        """
        m = _TEXT_RE.match(text)
        if not m:
            raise ValueError(f"not a ring element: {text!r}")
        if m.group(1) is not None:
            return cls(int(m.group(1)), 0)
        if m.group(3) is not None:
            return cls(int(m.group(3)), int(m.group(4) or 1))
        return cls(0, int(m.group(2) or 1))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RingElem(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RingElem(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RingElem(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a1 + u b1)(a2 + u b2) = a1 a2 + u (a1 b2 + a2 b1), u^2 = 0
        return RingElem(self.a * other.a, self.a * other.b + other.a * self.b)

    __rmul__ = __mul__

    def __eq__(self, other):
        # only another element compares: an int would equal RingElem(int)
        # without sharing its hash
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        ustr = "u" if self.b == 1 else f"{self.b}u"
        if self.a == 0:
            return ustr
        return f"{self.a}+{ustr}"

    def __repr__(self):
        return f"RingElem({self.a}, {self.b})"

    @property
    def index(self) -> int:
        """The symbol index 4a + b, the position in ``ALL_ELEMENTS``."""
        return 4 * self.a + self.b

    def is_unit(self) -> bool:
        """True iff the element is invertible, i.e. a is odd."""
        return self.a % 2 == 1

    def inverse(self) -> "RingElem":
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit")
        ai = self.a  # odd residues are self-inverse mod 4
        return RingElem(ai, -ai * ai * self.b)

    def complement(self) -> "RingElem":
        """Watson-Crick complement at the ring level: (1+u) - x."""
        return RingElem(1 - self.a, 1 - self.b)

    def lee_weight(self) -> int:
        return LEE_Z4[self.b] + LEE_Z4[(self.a + self.b) % 4]

    def gray_bits(self) -> tuple[int, int, int, int]:
        s = (self.a + self.b) % 4
        return (BETA[self.b], GAMMA[self.b], BETA[s], GAMMA[s])

    def gray_str(self) -> str:
        return "".join(map(str, self.gray_bits()))

    def codon(self) -> str:
        return _CODON_OF[(self.a, self.b)]


def _coerce(value) -> RingElem | None:
    if isinstance(value, RingElem):
        return value
    if isinstance(value, int):
        return RingElem(value)
    return None


U = RingElem(0, 1)

#: All 16 elements, ordered by (a, b).  This is the canonical element order
#: used wherever a deterministic sweep of the ring is needed.
ALL_ELEMENTS = tuple(RingElem(a, b) for a in range(4) for b in range(4))
UNITS = tuple(x for x in ALL_ELEMENTS if x.is_unit())

# Arithmetic on symbol indices: a + u*b is ALL_ELEMENTS[4a + b].  ADD and
# MUL are indexed by 16x + y; SCALE[x] and NEG are 256-byte
# ``bytes.translate`` tables for y -> x*y and y -> -y.
ADD = bytes(((x >> 2) + (y >> 2)) % 4 * 4 + (x + y) % 4 for x in range(16) for y in range(16))
MUL = bytes((x >> 2) * (y >> 2) % 4 * 4 + ((x >> 2) * y + (y >> 2) * x) % 4
            for x in range(16) for y in range(16))
SCALE = tuple(MUL[16 * x:16 * x + 16] * 16 for x in range(16))
NEG = bytes(-(k >> 2) % 4 * 4 + -k % 4 for k in range(16)) * 16
# INV[x] is the index of 1/x for a unit x (x & 4, an odd Z4 part) and 0 for
# a non-unit; 0 is never an inverse, so it doubles as "no inverse".
INV = bytes(MUL.index(4, 16 * x, 16 * x + 16) % 16 if x & 4 else 0 for x in range(16))
# COMPLEMENT[x] is the index of (1+u) - x and LEE[x] the Lee weight of x.
COMPLEMENT = bytes((1 - (k >> 2)) % 4 * 4 + (1 - k) % 4 for k in range(16))
LEE = bytes(LEE_Z4[k & 3] + LEE_Z4[((k >> 2) + k) % 4] for k in range(16))


def solve_unit(x: int, y: int) -> int | None:
    """The symbol index m = y * x^-1 solving m*x = y, or None for a non-unit x."""
    inv = INV[x]
    return MUL[y << 4 | inv] if inv else None


def theta_inv(codon: str) -> RingElem:
    """Inverse of ``RingElem.codon``; raises ValueError on unknown pairs."""
    try:
        a, b = _ELEM_OF_CODON[codon]
    except KeyError:
        raise ValueError(f"not a codon: {codon!r}") from None
    return RingElem(a, b)
