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
from .ring import ALL_ELEMENTS, RingElem, ZERO

#: Largest supported code length for the factorization routines.
LENGTH_CAP = 63

Coeff = Union[RingElem, int]


class Poly:
    """Polynomial over Z4 + u*Z4 in canonical ascending-coefficient form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        items = [c if isinstance(c, RingElem) else RingElem(c) for c in coeffs]
        while items and not items[-1]:
            items.pop()
        self.coeffs: tuple[RingElem, ...] = tuple(items)

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
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == RingElem(1)

    def lc(self) -> RingElem:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (RingElem, int)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if self.is_zero:
            return self
        return Poly([ZERO] * k + list(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"Poly({str(self)!r})"


def x_pow(k: int) -> Poly:
    return Poly([0] * k + [1])


def xn_minus_1(n: int) -> Poly:
    return Poly([-1] + [0] * (n - 1) + [1])


def poly_mod_xn(f: Poly, n: int) -> Poly:
    """Canonical degree < n representative, folding x^k onto x^(k mod n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [ZERO] * n
    for k, c in enumerate(f.coeffs):
        out[k % n] = out[k % n] + c
    return Poly(out)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division f = q*g + r with deg r < deg g.

    Unique, and only defined, when the leading coefficient of g is a unit.
    """
    if g.is_zero:
        raise NonUnitLeadingCoefficient("cannot divide by the zero polynomial")
    lead = g.lc()
    if not lead.is_unit():
        raise NonUnitLeadingCoefficient(
            f"leading coefficient {lead} of divisor is not a unit"
        )
    inv = lead.inverse()
    dg = g.degree
    rem = list(f.coeffs)
    qlen = len(rem) - dg
    if qlen <= 0:
        return Poly(), f
    q = [ZERO] * qlen
    for k in range(qlen - 1, -1, -1):
        top = rem[k + dg]
        if not top:
            continue
        c = top * inv
        q[k] = c
        for i, gc in enumerate(g.coeffs):
            rem[k + i] = rem[k + i] - c * gc
    return Poly(q), Poly(rem[:dg])


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
    return Poly(reversed(f.coeffs))


def self_reciprocal_constant(f: Poly):
    """Some constant m with f* = m*f, or None if there is none.

    All 16 constants are tried in canonical element order, so the result
    is deterministic; for a palindromic f it is 1.
    """
    fr = reciprocal(f)
    for m in ALL_ELEMENTS:
        if f * m == fr:
            return m
    return None


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

    def __mul__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly.from_mask(_f2_mul(self.mask, other.mask))

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
