"""Polynomials over the ring and over F2, and the x^n - 1 machinery.

``Poly`` is a canonical-form polynomial with ring coefficients: ascending
degree, no trailing zeros, the zero polynomial being the empty sequence.
Division works whenever the divisor has a unit leading coefficient, which
is all the divisibility conditions downstream ever need (their divisors
are monic).

``BinPoly`` is a GF(2) polynomial stored as an integer bitmask (bit k is
the coefficient of x^k).  The distinct irreducible factors of x^n - 1 over
F2 (squarefree for odd n) are found by deterministic Berlekamp splitting,
and each factor is lifted to Z4 by one Graeffe step: split f into even and
odd parts f(x) = e(x^2) + x*o(x^2) and read the lift off
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
from .ring import ADD, ALL_ELEMENTS, INV, MUL, NEG, SCALE, RingElem, solve_unit

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
        out = bytearray(len(x) + len(y) - 1)
        for i, c in enumerate(x):
            if c:
                out[i:i + len(y)] = _add(out[i:i + len(y)], y.translate(SCALE[c]))
        return _poly(out)

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
        return ",".join(map(str, self.coeffs)) or "0"

    def __repr__(self):
        return f"Poly({str(self)!r})"


def x_pow(k: int) -> Poly:
    """x^k for k >= 0."""
    return _poly(bytes(k) + b"\4")


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
# GF(2) polynomials as bitmasks
# ---------------------------------------------------------------------------

class BinPoly:
    """GF(2) polynomial; bit k of ``mask`` is the coefficient of x^k."""

    __slots__ = ("mask",)

    def __init__(self, coeffs: Iterable[int] = ()):
        mask = 0
        for k, c in enumerate(coeffs):
            if int(c) & 1:
                mask |= 1 << k
        self.mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "BinPoly":
        p = cls()
        p.mask = mask
        return p

    @property
    def degree(self):
        return self.mask.bit_length() - 1 if self.mask else None

    @property
    def coeffs(self) -> tuple[int, ...]:
        if not self.mask:
            return ()
        return tuple((self.mask >> k) & 1 for k in range(self.mask.bit_length()))

    def __eq__(self, other):
        if not isinstance(other, BinPoly):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __str__(self):
        if not self.mask:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"BinPoly({str(self)!r})"


def _f2_deg(a: int) -> int:
    return a.bit_length() - 1


def _f2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _f2_mod(a: int, m: int) -> int:
    dm = _f2_deg(m)
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _f2_mod(a, b)
    return a


def _f2_sort_key(mask: int):
    # Degree first, then the coefficient sequence read from the top down,
    # which matches the order the polynomials are conventionally written in.
    d = _f2_deg(mask)
    return (d, tuple((mask >> (d - k)) & 1 for k in range(d + 1)))


def _berlekamp_squarefree(f: int) -> list[int]:
    """Distinct irreducible factors of a squarefree f over F2.

    Classic Berlekamp: the fixed points of the Frobenius map v -> v^2 in
    F2[x]/(f) form a subalgebra whose dimension equals the number of
    irreducible factors; each basis vector v splits every composite factor
    through gcd(u, v - c) for c in F2.
    """
    d = _f2_deg(f)
    if d <= 1:
        return [f]
    # rows[i] = x^(2i) mod f
    rows = []
    cur = 1
    xsq = _f2_mod(4, f)
    for _ in range(d):
        rows.append(cur)
        cur = _f2_mod(_f2_mul(cur, xsq), f)
    # Left null space of (Q + I): combinations of rows that cancel.
    mrows = [rows[i] ^ (1 << i) for i in range(d)]
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for i in range(d):
        r, tag = mrows[i], 1 << i
        while r:
            col = r.bit_length() - 1
            if col not in pivots:
                pivots[col] = (r, tag)
                break
            pr, pt = pivots[col]
            r ^= pr
            tag ^= pt
        if r == 0:
            basis.append(tag)
    count = len(basis)
    factors = [f]
    for v in basis:
        if len(factors) == count:
            break
        if v == 1:
            continue
        refined = []
        for u in factors:
            if _f2_deg(u) <= 1:
                refined.append(u)
                continue
            g = _f2_gcd(u, _f2_mod(v, u))
            if g in (1, u):
                refined.append(u)
                continue
            h = _f2_gcd(u, _f2_mod(v ^ 1, u))
            refined.extend((g, h))
        factors = refined
    if len(factors) != count:
        raise RuntimeError("Berlekamp splitting left a composite factor")
    return factors


def _check_length(n: int) -> None:
    if n < 1 or n % 2 == 0 or n > LENGTH_CAP:
        raise UnsupportedLength(f"n must be odd with 1 <= n <= {LENGTH_CAP}, got {n}")


@lru_cache(maxsize=None)
def _factor_masks(n: int) -> tuple[int, ...]:
    masks = _berlekamp_squarefree((1 << n) | 1)
    return tuple(sorted(masks, key=_f2_sort_key))


def factor_xn_minus_1_f2(n: int) -> list[BinPoly]:
    """Distinct monic irreducible factors of x^n - 1 over F2, sorted."""
    _check_length(n)
    return [BinPoly.from_mask(m) for m in _factor_masks(n)]


def hensel_lift(f: BinPoly, n: int) -> Poly:
    """The monic Z4 polynomial congruent to f mod 2 that divides x^n - 1.

    Graeffe step: with f(x) = e(x^2) + x*o(x^2), the lift is
    +-(e(y)^2 - y*o(y)^2), negated when deg f is odd so that it comes out
    monic.
    """
    _check_length(n)
    if not f.mask:
        raise NotAFactor("zero polynomial is not a factor")
    if _f2_mod((1 << n) | 1, f.mask):
        raise NotAFactor(f"{f} does not divide x^{n}-1 over F2")
    bits = f.coeffs
    even = Poly(bits[0::2])
    odd = Poly(bits[1::2])
    lifted = even * even - x_pow(1) * odd * odd
    if f.degree % 2 == 1:
        lifted = -lifted
    return lifted


def factor_xn_minus_1_z4(n: int) -> list[Poly]:
    """Hensel lifts of all F2 factors; their product is x^n - 1 over Z4."""
    return [hensel_lift(f, n) for f in factor_xn_minus_1_f2(n)]
