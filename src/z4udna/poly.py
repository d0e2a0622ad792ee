"""Polynomials over the ring and over F2, and the x^n - 1 machinery.

``Poly`` is a canonical-form polynomial with ring coefficients: ascending
degree, no trailing zeros, the zero polynomial being the empty sequence.
Division works whenever the divisor has a unit leading coefficient, which
is all the divisibility conditions downstream ever need (their divisors
are monic).  Two byte kernels on symbol strings, one loop each, do the
x^n - 1 work: ``_fold`` reduces mod x^n - 1 for ``poly_mod_xn``, and
``_remainder`` returns only a remainder's symbols.  ``poly_divmod`` hands
it a quotient buffer.  ``_divides`` has two callers, ``divides`` and the
chain tests of ``cyclic.validate`` (on the symbols of ``_xn_minus_1``);
it answers a unit-constant divisor without dividing and otherwise tests
the remainder for zero.  Clause (b)(ii) of the T31-T42 conditions of
``conditions`` only asks whether a monic divisor of x^n - 1, which has no
u part, divides an even dividend 2h; ``_divides_twice`` answers that over
F2 on the ``_parity_mask`` of h, which adds by XOR, and divides nothing
over R.  ``_constant_factor`` solves t = m*s for a constant m, for clause
(a) (t = f*) and the (b)(i) note; a unit-lead s leaves one candidate m.
Reducing x^n - 1 by a lattice divisor takes about 9 us at n = 7 and 11,
22 and 125 us at n = 15, 21 and 63 (mean best per divisor, 2-vCPU shared
VM).  The product of two polynomials is taken by Kronecker substitution:
each operand's symbols 4a + b are packed once into a Python int, one
fixed-width slot per coefficient, and masking every slot's low two bits
reads off its Z4 part a (after a shift by 2) and its u part b in the same
slots.  Big-int products then give a*c and a*d + b*c, and the low two
bits of each slot are the coefficients of (a + ub)(c + ud) = ac + u(ad + bc).

The distinct irreducible factors of x^n - 1 over F2 (squarefree for odd
n) come in closed form from the 2-cyclotomic cosets mod n: each coset's
indicator is an idempotent, and gcds with the indicators split x^n - 1
into one factor per coset.  ``_f2_mod``, the F2 remainder on bitmasks,
serves this factoring and the (b)(ii) test of ``_divides_twice``.  The
factors are returned as ``Poly``s with coefficients 0 and 1, and each is
lifted to Z4 by one Graeffe step: split f into even and odd parts
f(x) = e(x^2) + x*o(x^2) and read the lift off ``+-(e(y)^2 - y*o(y)^2)``
with the sign fixed so the result is monic; ``divisor_lattice`` multiplies
the lifts out into the monic divisors of x^n - 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Union

from .errors import (
    NonUnitLeadingCoefficient,
    NotAFactor,
    UnsupportedLength,
    ZeroPolynomial,
)
from .ring import ADD, ALL_ELEMENTS, INV, MUL, NEG, SCALE, TEXT, RingElem

#: Largest supported code length for the factorization routines.
LENGTH_CAP = 63

Coeff = Union[RingElem, int]


def _index(c: Coeff) -> int:
    """Symbol index 4a + b of a coefficient; an int c means c + 0u."""
    return c.index if isinstance(c, RingElem) else c % 4 * 4


def _add(x, y) -> bytes:
    """Symbolwise sum of two index strings, as long as the longer one."""
    if len(x) < len(y):
        x, y = y, x
    return bytes([ADD[i << 4 | j] for i, j in zip(x, y)]) + x[len(y):]


def _pack(s: bytes, width: int) -> int:
    """One int holding symbol s[i] in the i-th slot of ``width`` bytes,
    lowest slot first."""
    slots = bytearray(len(s) * width)
    slots[::width] = s
    return int.from_bytes(slots, "little")


def _poly(symbols) -> "Poly":
    """The polynomial with these symbol indices, trailing zeros dropped."""
    p = Poly.__new__(Poly)
    p.symbols = bytes(symbols).rstrip(b"\0")
    return p


class Poly:
    """Polynomial over Z4 + u*Z4 in canonical ascending-coefficient form:
    ``symbols`` holds the index 4a + b of each coefficient a + u*b (its
    position in ``ALL_ELEMENTS``), lowest degree first, no trailing zeros."""

    __slots__ = ("symbols",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        self.symbols = bytes(map(_index, coeffs)).rstrip(b"\0")

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse comma-separated ascending coefficients, e.g. ``3,1,2,1``.

        Trailing zero coefficients are tolerated and canonicalized away;
        ``0`` denotes the zero polynomial.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial text")
        return cls(RingElem.parse(tok) for tok in text.split(","))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.symbols) - 1 if self.symbols else None

    @property
    def is_zero(self) -> bool:
        return not self.symbols

    def is_monic(self) -> bool:
        return self.symbols[-1:] == b"\4"

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(_add(self.symbols, other.symbols))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _poly(self.symbols.translate(NEG))

    def __mul__(self, other):
        if isinstance(other, (RingElem, int)):
            return _poly(self.symbols.translate(SCALE[_index(other)]))
        if not isinstance(other, Poly):
            return NotImplemented
        x, y = self.symbols, other.symbols
        if not x or not y:
            return Poly()
        # Kronecker substitution: (a + ub)(c + ud) = ac + u(ad + bc).  Each
        # operand is packed once, one whole symbol 4a + b to a slot of
        # `width` bytes, and its parts a and b are masked out of the same
        # slots.  A slot must hold a coefficient of a*d + b*c, at most
        # 2 * 3 * 3 * min(len x, len y), so no sum carries into its neighbour.
        width = ((18 * min(len(x), len(y))).bit_length() + 7) // 8
        size = len(x) + len(y) - 1
        low2 = int.from_bytes(b"\3".ljust(width, b"\0") * size, "little")
        p, q = _pack(x, width), _pack(y, width)
        a, b = p >> 2 & low2, p & low2
        c, d = q >> 2 & low2, q & low2
        out = (a * c & low2) << 2 | (a * d + b * c) & low2
        return _poly(out.to_bytes(size * width, "little")[::width])

    __rmul__ = __mul__

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"shift needs k >= 0, got {k}")
        return _poly(bytes(k) + self.symbols) if self.symbols else self

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __str__(self):
        return ",".join([TEXT[k] for k in self.symbols]) or "0"

    def __repr__(self):
        return f"Poly({str(self)!r})"


def _xn_minus_1(n: int) -> bytes:
    """The symbols of x^n - 1 for n >= 1; -1 is symbol 12 (3 + 0u)."""
    return b"\x0c" + bytes(n - 1) + b"\4"


def _fold(s: bytes, n: int) -> bytes:
    """s mod x^n - 1, each block of n symbols added onto the first: s itself
    when no longer than n, else canonical (trailing zeros dropped)."""
    if len(s) <= n:
        return s
    out = s[:n]
    for k in range(n, len(s), n):
        out = _add(out, s[k:k + n])
    return out.rstrip(b"\0")


def poly_mod_xn(f: Poly, n: int) -> Poly:
    """Canonical degree < n representative, folding x^k onto x^(k mod n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(f.symbols) <= n:
        return f  # already reduced; Poly is immutable, so no copy
    return _poly(_fold(f.symbols, n))


def _remainder(f: bytes, g: bytes, q=None) -> bytes:
    """The symbols of f mod g, for symbol strings f and g: f itself when
    it is shorter than g, else len(g) - 1 symbols, trailing zeros kept.

    The one division loop of the package.  A zero g, then a g whose
    leading symbol is not a unit, raises NonUnitLeadingCoefficient, both
    before a short f is returned.  Each step takes the top symbol t of
    the running remainder and c = t * lc(g)^-1: subtracting c*x^k*g
    clears t exactly, so t is dropped and only the len(g) - 1 symbols
    below it are rewritten, by adding c times the pre-negated lower part
    of g.  No quotient is kept unless a zeroed bytearray ``q`` of
    len(f) - len(g) + 1 symbols is given, which receives c at offset k.
    """
    if not g:
        raise NonUnitLeadingCoefficient("cannot divide by the zero polynomial")
    inv = INV[g[-1]]
    if not inv:
        raise NonUnitLeadingCoefficient(
            f"leading coefficient {TEXT[g[-1]]} of divisor is not a unit")
    dg = len(g) - 1
    if len(f) <= dg:
        return f
    minus_low = g[:-1].translate(NEG)
    rem = bytearray(f)
    for k in range(len(f) - 1 - dg, -1, -1):
        top = rem.pop()
        if top:
            c = MUL[top << 4 | inv]
            if q is not None:
                q[k] = c
            rem[k:] = bytes([ADD[i << 4 | j]
                             for i, j in zip(rem[k:], minus_low.translate(SCALE[c]))])
    return bytes(rem)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division f = q*g + r with deg r < deg g.

    Unique, and only defined, when the leading coefficient of g is a unit.
    """
    q = bytearray(max(len(f.symbols) - len(g.symbols) + 1, 0))
    r = _remainder(f.symbols, g.symbols, q)
    return _poly(q), _poly(r)


def divides(g: Poly, f: Poly, n: int) -> bool:
    """Whether g | f once both are reduced to canonical form mod x^n - 1.

    A divisor reducing to zero (such as x^n - 1 itself) divides only the
    zero residue.
    """
    return _divides(poly_mod_xn(g, n).symbols, poly_mod_xn(f, n).symbols)


def _divides(g: bytes, f: bytes) -> bool:
    """Whether g | f, for canonical symbol strings of any length, reduced
    mod x^n - 1 or not (``cyclic.validate`` passes x^n - 1 itself): a zero
    g divides only a zero f, a unit constant g divides every f without a
    division, and any other g divides f when it leaves a zero remainder."""
    if not g:
        return not f
    if len(g) == 1 and INV[g[0]]:
        return True
    return not _remainder(f, g).rstrip(b"\0")


def reciprocal(f: Poly) -> Poly:
    """x^(deg f) * f(1/x): the coefficient sequence reversed.

    Drops degree when the constant term of f is zero (the reversed
    sequence is renormalized).
    """
    if f.is_zero:
        raise ZeroPolynomial("reciprocal of the zero polynomial")
    return _poly(f.symbols[::-1])


def _constant_factor(s: bytes, t: bytes, among: bytes = bytes(range(16))):
    """The first symbol index m in ``among`` with s*m == t, for canonical
    symbol strings s and t, or None.

    When the lead of s is a unit, s*m keeps the length of s unless m = 0,
    so the one candidate is m = lc(t) * lc(s)^-1 (lc(t) = 0 for t = 0),
    checked with one scalar product; otherwise ``among`` is scanned in order.
    """
    inv = INV[s[-1]] if s else 0
    if inv:
        m = MUL[(t[-1] if t else 0) << 4 | inv]
        return m if m in among and s.translate(SCALE[m]).rstrip(b"\0") == t else None
    for m in among:
        if s.translate(SCALE[m]).rstrip(b"\0") == t:
            return m
    return None


def self_reciprocal_constant(f: Poly):
    """The first constant m in canonical element order with f* = m*f, or None.

    f* is f's symbols reversed, so a unit lead leaves the one candidate
    lc(f*) * lc(f)^-1, and only a non-unit lead scans all 16 constants.
    """
    s = f.symbols
    if not s:
        raise ZeroPolynomial("reciprocal of the zero polynomial")
    m = _constant_factor(s, s[::-1].rstrip(b"\0"))
    return None if m is None else ALL_ELEMENTS[m]


# ---------------------------------------------------------------------------
# x^n - 1 over F2 (polynomials as bitmasks, bit k the coefficient of x^k)
# ---------------------------------------------------------------------------

def _f2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


# bytes.translate table: the parity of the Z4 part a of a symbol 4a + b in
# bit 0, and that of its u part b in bit 1.
_PARITY = bytes((k >> 2 & 1) | (k & 1) << 1 for k in range(256))


def _parity_mask(h: bytes) -> int:
    """The parities of h = A + uB as one F2 mask on two byte-spaced planes:
    bit 8k holds the coefficient of x^k in A mod 2, bit 8k + 1 that in
    B mod 2.  Parities add by XOR, so the mask of a sum of symbol strings
    is the XOR of their masks."""
    return int.from_bytes(h.translate(_PARITY), "little")


def _divides_twice(g: bytes, h: int) -> bool:
    """Whether g | 2h, for a canonical symbol string g that is zero or has
    a unit lead and no u part, as every monic divisor of x^n - 1 has, and
    the ``_parity_mask`` h of any symbol string.

    A unit lead makes division by g R-linear, so 2h mod g = 2(h mod g),
    which is zero iff h mod g is zero mod 2.  With no u part in g, h mod g
    is A mod g + u(B mod g) for h = A + uB, so g | 2h iff g mod 2 divides
    both A mod 2 and B mod 2 over F2.  ``_f2_mod`` reduces both planes of
    the mask at once by g's mask m, whose bits are all at multiples of 8:
    it shifts m by 8t to clear a top bit of the A plane and by 8t + 1 for
    one of the B plane, so each step stays on one plane.  A zero g divides
    only an h that is zero mod 2.
    """
    if g.translate(None, b"\0\4\10\14") or g and not INV[g[-1]]:
        raise RuntimeError(f"divisor {_poly(g)} is not zero or of unit lead without a u part")
    if len(g) == 1:  # a unit constant divides every h
        return True
    m = _parity_mask(g)
    if not m:  # g is zero, as a unit lead makes any other g's mask nonzero
        return not h
    return not _f2_mod(h, m)


def _f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _f2_mod(a, b)
    return a


def _check_length(n: int) -> None:
    if n < 1 or n % 2 == 0 or n > LENGTH_CAP:
        raise UnsupportedLength(f"n must be odd with 1 <= n <= {LENGTH_CAP}, got {n}")


@lru_cache(maxsize=None)
def _factor_masks(n: int) -> tuple[int, ...]:
    """Bitmasks of the distinct irreducible factors of x^n - 1 over F2,
    by degree and then by coefficients read from the top down, which for
    equal degree is the order of the masks as integers.

    For odd n, squaring sends x^i to x^(2i mod n), so the indicators e of
    the 2-cyclotomic cosets {s, 2s, 4s, ...} mod n span Berlekamp's fixed
    space, one per irreducible factor (Calderbank & Sloane, DCC 1995).
    Each e is an idempotent, so every factor u of x^n - 1 splits as
    gcd(u, e) * gcd(u, e + 1).
    """
    cosets, seen = [], 0
    for s in range(n):
        e, k = 0, s
        while not (seen | e) >> k & 1:
            e |= 1 << k
            k = 2 * k % n
        if e:
            seen |= e
            cosets.append(e)
    factors = [1 << n | 1]
    for e in cosets:
        if len(factors) == len(cosets):
            break
        factors = [g for u in factors for g in (_f2_gcd(u, e), _f2_gcd(u, e ^ 1)) if g != 1]
    if len(factors) != len(cosets):
        raise RuntimeError(f"coset splitting of x^{n}-1 left a composite factor")
    return tuple(sorted(factors))


def factor_xn_minus_1_f2(n: int) -> list[Poly]:
    """Distinct irreducible factors of x^n - 1 over F2, sorted, as
    polynomials with coefficients 0 and 1."""
    _check_length(n)
    return [Poly(m >> k & 1 for k in range(m.bit_length())) for m in _factor_masks(n)]


def hensel_lift(f: Poly, n: int) -> Poly:
    """The monic Z4 polynomial congruent to f mod 2 that divides x^n - 1,
    for f with coefficients 0 and 1 dividing x^n - 1 over F2.

    Graeffe step: with f(x) = e(x^2) + x*o(x^2), the lift is
    +-(e(y)^2 - y*o(y)^2), negated when deg f is odd so that it comes out
    monic.
    """
    _check_length(n)
    if f.symbols.translate(None, b"\0\4"):
        raise NotAFactor(f"{f} has a coefficient other than 0 and 1")
    if f.is_zero:
        raise NotAFactor("zero polynomial is not a factor")
    mask = sum(1 << k for k, c in enumerate(f.symbols) if c)
    if _f2_mod(1 << n | 1, mask):
        raise NotAFactor(f"{f} does not divide x^{n}-1 over F2")
    even = _poly(f.symbols[0::2])
    odd = _poly(f.symbols[1::2])
    lifted = even * even - (odd * odd).shift(1)
    if f.degree % 2 == 1:
        lifted = -lifted
    return lifted


def factor_xn_minus_1_z4(n: int) -> list[Poly]:
    """Hensel lifts of all F2 factors; their product is x^n - 1 over Z4."""
    return [hensel_lift(f, n) for f in factor_xn_minus_1_f2(n)]


def divisor_lattice(n: int) -> list[Poly]:
    """Monic divisors of x^n - 1, indexed by their factor subset mask."""
    factors = factor_xn_minus_1_z4(n)
    prods = [Poly([1])]
    for mask in range(1, 1 << len(factors)):
        low = mask & -mask  # one multiplication: the mask without its low bit
        prods.append(prods[mask ^ low] * factors[low.bit_length() - 1])
    return prods
