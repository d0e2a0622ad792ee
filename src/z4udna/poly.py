"""Polynomials over the ring and over F2, and the x^n - 1 machinery.

``Poly`` is a canonical-form polynomial with ring coefficients: ascending
degree, no trailing zeros, the zero polynomial being the empty sequence.
Division works whenever the divisor has a unit leading coefficient, which
is all the divisibility conditions downstream ever need (their divisors
are monic).  The product of two polynomials is taken by Kronecker
substitution: the Z4 parts and the u parts of each operand are packed into
Python ints, one fixed-width slot per coefficient, so three big-int
products give a*c and a*d + b*c, and the low two bits of each slot are
the coefficients of (a + ub)(c + ud) = ac + u(ad + bc).

The distinct irreducible factors of x^n - 1 over F2 (squarefree for odd
n) come in closed form from the 2-cyclotomic cosets mod n: each coset's
indicator is an idempotent, and gcds with the indicators split x^n - 1
into one factor per coset.  The factors are returned as ``Poly``s with
coefficients 0 and 1, and each is lifted to Z4 by one Graeffe step: split
f into even and odd parts f(x) = e(x^2) + x*o(x^2) and read the lift off
``+-(e(y)^2 - y*o(y)^2)`` with the sign fixed so the result is monic.
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
from .ring import ADD, ALL_ELEMENTS, INV, MUL, NEG, SCALE, TEXT, RingElem, solve_unit

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


# bytes.translate tables: the Z4 part a and the u part b of a symbol 4a + b.
_Z4_PART = bytes(k >> 2 & 3 for k in range(256))
_U_PART = bytes(k & 3 for k in range(256))


def _pack(s: bytes, part: bytes, width: int) -> int:
    """One int holding part[s[i]] in the i-th slot of ``width`` bytes,
    lowest slot first."""
    slots = bytearray(len(s) * width)
    slots[::width] = s.translate(part)
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
    def coeffs(self) -> tuple[RingElem, ...]:
        return tuple(map(ALL_ELEMENTS.__getitem__, self.symbols))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.symbols) - 1 if self.symbols else None

    @property
    def is_zero(self) -> bool:
        return not self.symbols

    def is_monic(self) -> bool:
        return self.symbols[-1:] == b"\4"

    def lc(self) -> RingElem:
        if not self.symbols:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return ALL_ELEMENTS[self.symbols[-1]]

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
        # Kronecker substitution: (a + ub)(c + ud) = ac + u(ad + bc), with
        # each part packed one coefficient to a slot of `width` bytes.  A
        # slot must hold a coefficient of a*d + b*c, at most
        # 2 * 3 * 3 * min(len x, len y), so no sum carries into its neighbour.
        width = ((18 * min(len(x), len(y))).bit_length() + 7) // 8
        a, b = _pack(x, _Z4_PART, width), _pack(x, _U_PART, width)
        c, d = _pack(y, _Z4_PART, width), _pack(y, _U_PART, width)
        size = len(x) + len(y) - 1
        low2 = int.from_bytes(b"\3".ljust(width, b"\0") * size, "little")
        ac = a * c & low2
        ad_bc = (a * d + b * c) & low2
        return _poly((ac << 2 | ad_bc).to_bytes(size * width, "little")[::width])

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


def xn_minus_1(n: int) -> Poly:
    """x^n - 1 for n >= 1; -1 is symbol 12 (3 + 0u)."""
    return _poly(b"\x0c" + bytes(n - 1) + b"\4")


def poly_mod_xn(f: Poly, n: int) -> Poly:
    """Canonical degree < n representative, folding x^k onto x^(k mod n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = f.symbols
    if len(s) <= n:
        return f  # already reduced; Poly is immutable, so no copy
    out = s[:n]
    for k in range(n, len(s), n):
        out = _add(out, s[k:k + n])
    return _poly(out)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division f = q*g + r with deg r < deg g.

    Unique, and only defined, when the leading coefficient of g is a unit.
    """
    if g.is_zero:
        raise NonUnitLeadingCoefficient("cannot divide by the zero polynomial")
    inv = INV[g.symbols[-1]]
    if not inv:
        raise NonUnitLeadingCoefficient(f"leading coefficient {g.lc()} of divisor is not a unit")
    dg = g.degree
    rem = bytearray(f.symbols)
    qlen = len(rem) - dg
    if qlen <= 0:
        return Poly(), f
    minus_g = g.symbols.translate(NEG)
    q = bytearray(qlen)
    for k in range(qlen - 1, -1, -1):
        top = rem[k + dg]
        if top:
            q[k] = c = MUL[top << 4 | inv]
            rem[k:k + dg + 1] = _add(rem[k:k + dg + 1], minus_g.translate(SCALE[c]))
    return _poly(q), _poly(rem[:dg])


def divides(g: Poly, f: Poly, n: int) -> bool:
    """Whether g | f once both are reduced to canonical form mod x^n - 1.

    A divisor reducing to zero (such as x^n - 1 itself) divides only the
    zero residue.
    """
    fr = poly_mod_xn(f, n)
    gr = poly_mod_xn(g, n)
    if gr.is_zero:
        return fr.is_zero
    _, r = poly_divmod(fr, gr)
    return r.is_zero


def reciprocal(f: Poly) -> Poly:
    """x^(deg f) * f(1/x): the coefficient sequence reversed.

    Drops degree when the constant term of f is zero (the reversed
    sequence is renormalized).
    """
    if f.is_zero:
        raise ZeroPolynomial("reciprocal of the zero polynomial")
    return _poly(f.symbols[::-1])


def constant_factor(f: Poly, g: Poly, among: bytes = bytes(range(16))):
    """The first symbol index m in ``among`` with f*m == g, or None.

    When the leading coefficient of f is a unit, f*m keeps the degree of f
    unless m = 0, so m*lc(f) = lc(g) (0 for g = 0) leaves one candidate,
    checked with one scalar product; otherwise ``among`` is scanned in order.
    """
    s, t = f.symbols, g.symbols
    m = solve_unit(s[-1], t[-1] if t else 0) if s else None
    if m is not None:
        among = (m,) if m in among else ()
    for m in among:
        if s.translate(SCALE[m]).rstrip(b"\0") == t:
            return m
    return None


def self_reciprocal_constant(f: Poly):
    """The first constant m in canonical element order with f* = m*f, or None.

    For a unit leading coefficient a the only candidate is f(0) * a^-1
    (f(0) is the coefficient of x^(deg f) in f*); only a non-unit one
    needs the scan over all 16 constants.  A palindromic f gives 1.
    """
    m = constant_factor(f, reciprocal(f))
    return None if m is None else ALL_ELEMENTS[m]


# ---------------------------------------------------------------------------
# x^n - 1 over F2 (polynomials as bitmasks, bit k the coefficient of x^k)
# ---------------------------------------------------------------------------

def _f2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


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
