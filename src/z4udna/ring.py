"""Arithmetic on the 16-element commutative ring Z4 + u*Z4 with u^2 = 0.

Elements are written ``a + u*b`` with ``a, b`` residues mod 4.  The ring is
local with maximal ideal <2, u> and has characteristic 4; an element is a
unit exactly when its Z4 part ``a`` is odd.

Each element has a symbol index 4a + b, its position in ``ALL_ELEMENTS``
and its format in ``Poly.symbols`` and code rows.  Its three text forms
are stated once, as 16-entry tuples over that index:

* ``TEXT``: ``a``, ``bu`` or ``a+bu``; ``RingElem.parse`` accepts exactly
  these 16 strings.
* ``CODON``: the codon map theta onto the 16 nucleotide pairs, chosen so
  that the ring complement ``x -> (1+u) - x`` matches the letterwise
  Watson-Crick complement (A<->T, C<->G).
* ``GRAY``: the 4-bit image ``(beta(b), gamma(b), beta(a+b), gamma(a+b))``
  of ``a + u*b``, from the 2-adic digits c = alpha + 2*beta and gamma =
  alpha + beta mod 2; it carries the Lee metric to the Hamming metric.

``RingElem``'s arithmetic, ``complement`` and ``lee_weight`` (of the Z4
pair ``(b, a+b)``) stay on their (a, b) formulas, not on the index tables
``ADD``, ``MUL``, ``INV``, ``COMPLEMENT`` and ``LEE``: the tests use them
as the independent reference for those tables.

No element equals its own complement (2x = 1+u has no solution), which is
what makes length-preserving reverse-complement codes possible at all.
"""

from __future__ import annotations

# Lee weight on Z4: min(c, 4 - c).
LEE_Z4 = (0, 1, 2, 1)

# The text, codon and Gray forms of each element, indexed by 4a + b, one
# row per Z4 part a.  Watson-Crick pairs sit at complementary elements:
# (a, b) and (1 - a, 1 - b) always map to letterwise complementary codons.
TEXT = ("0", "u", "2u", "3u",
        "1", "1+u", "1+2u", "1+3u",
        "2", "2+u", "2+2u", "2+3u",
        "3", "3+u", "3+2u", "3+3u")
CODON = ("AA", "CC", "GT", "AC",
         "GG", "TT", "TG", "CA",
         "AT", "CG", "AG", "CT",
         "GC", "TA", "GA", "TC")
GRAY = ("0000", "0101", "1111", "1010",
        "0001", "0111", "1110", "1000",
        "0011", "0110", "1100", "1001",
        "0010", "0100", "1101", "1011")


class RingElem:
    """An element a + u*b, always stored with a and b reduced mod 4."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        self.a = a % 4
        self.b = b % 4

    @classmethod
    def parse(cls, text: str) -> "RingElem":
        """Parse the canonical text form: ``a``, ``bu`` or ``a+bu``.

        Accepts exactly the 16 strings of ``TEXT``, which is what ``str``
        emits, e.g. ``0``, ``3``, ``u``, ``2u``, ``1+u``, ``3+2u``.
        Anything else (``1u``, ``0+2u``, whitespace, ...) is rejected.
        """
        if text not in TEXT:
            raise ValueError(f"not a ring element: {text!r}")
        return cls(*divmod(TEXT.index(text), 4))

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
        return TEXT[self.index]

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
        return tuple(map(int, GRAY[self.index]))

    def gray_str(self) -> str:
        return GRAY[self.index]

    def codon(self) -> str:
        return CODON[self.index]


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
