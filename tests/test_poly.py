"""Polynomial arithmetic, reciprocals, factorization and lifting."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import coeffs, xn_minus_1
from z4udna import poly
from z4udna.errors import (
    NonUnitLeadingCoefficient,
    NotAFactor,
    UnsupportedLength,
    ZeroPolynomial,
)
from z4udna.poly import (
    Poly,
    _add,
    _divides,
    _divides_twice,
    _fold,
    _parity_mask,
    _poly,
    divides,
    divisor_lattice,
    factor_xn_minus_1_f2,
    factor_xn_minus_1_z4,
    hensel_lift,
    poly_divmod,
    poly_mod_xn,
    reciprocal,
    self_reciprocal_constant,
)
from z4udna.ring import ALL_ELEMENTS, NEG, SCALE, RingElem, UNITS

G2 = Poly.parse("3,1,2,1")   # x^3+2x^2+x-1
G3 = Poly.parse("3,2,3,1")   # x^3-x^2-2x-1


def rand_poly(rng, degree, unit_lc=False, nonzero_const=False):
    coeffs = [rng.choice(ALL_ELEMENTS) for _ in range(degree + 1)]
    if nonzero_const:
        nonzero = [x for x in ALL_ELEMENTS if x]
        coeffs[0] = rng.choice(nonzero)
    if unit_lc:
        coeffs[-1] = rng.choice(UNITS)  # last, so degree 0 keeps a unit
    return Poly(coeffs)


def test_canonical_form():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly().is_zero
    assert Poly([0]).is_zero
    assert Poly([1, 1]).degree == 1
    assert Poly().degree is None


def test_mul_examples():
    assert Poly.parse("3,1") * Poly.parse("1,1,1") == xn_minus_1(3)
    assert Poly.parse("1,2") * Poly.parse("1,2") == Poly([1])
    f = Poly.parse("2,0,1,3")
    assert f + Poly() == f


def test_mod_xn():
    assert poly_mod_xn(Poly([0, 0, 0, 1]), 3) == Poly([1])
    assert poly_mod_xn(Poly([0, 1, 0, 0, 1]), 3) == Poly([0, 2])
    f = Poly.parse("1,2,3")
    assert poly_mod_xn(f, 3) == f
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        poly_mod_xn(f, 0)


def test_divmod_examples():
    q, r = poly_divmod(xn_minus_1(3), Poly.parse("3,1"))
    assert (q, r) == (Poly.parse("1,1,1"), Poly())
    f = Poly.parse("1,1,1")
    assert poly_divmod(f, f) == (Poly([1]), Poly())
    q, r = poly_divmod(Poly.parse("1,1,1"), Poly.parse("3,1"))
    assert (q, r) == (Poly.parse("2,1"), Poly([3]))


def test_divmod_round_trip_randomized():
    rng = random.Random(202)
    for _ in range(300):
        f = rand_poly(rng, rng.randrange(0, 9))
        g = rand_poly(rng, rng.randrange(0, 5), unit_lc=True)
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_divmod_requires_unit_lc():
    with pytest.raises(NonUnitLeadingCoefficient):
        poly_divmod(Poly.parse("1,1"), Poly.parse("1,2"))
    with pytest.raises(NonUnitLeadingCoefficient):
        poly_divmod(Poly.parse("1,1"), Poly())


def test_divides():
    assert divides(Poly.parse("1,1,1"), xn_minus_1(3), 3)
    f = Poly.parse("1,1,1")
    assert divides(f, f, 3)
    assert not divides(Poly.parse("3,1"), Poly.parse("1,1,1"), 3)
    # divisor congruent to zero divides only the zero residue
    assert divides(xn_minus_1(3), xn_minus_1(3), 3)
    assert not divides(xn_minus_1(3), Poly([1]), 3)


def test_divides_a_unit_lead_dividend_by_itself_without_dividing(monkeypatch):
    """f | f for every monic divisor f of x^7 - 1, x^7 - 1 included, and
    zero | zero never reach the division kernel; with it, a non-unit lead
    equal to the dividend (u + 2x) still raises."""
    def no_division(f, g, q=None):
        raise AssertionError(f"divided {f!r} by {g!r}")

    lattice = divisor_lattice(7)
    assert lattice[-1] == xn_minus_1(7)
    with monkeypatch.context() as patched:
        patched.setattr(poly, "_remainder", no_division)
        assert all(_divides(f.symbols, f.symbols) is True for f in lattice)
        assert _divides(b"", b"") is True
    with pytest.raises(NonUnitLeadingCoefficient):
        _divides(b"\x01\x08", b"\x01\x08")


@functools.cache
def reduced_divisors(n):
    """The lattice divisors of x^n - 1 reduced mod x^n - 1, as the T31/T32
    clauses reduce f2 and f4: the constant 1 first and x^n - 1, folded to
    zero, last; at n = 21 and 63 those two around 30 seeded others."""
    divisors = [_fold(g.symbols, n) for g in divisor_lattice(n)]
    if n in (21, 63):
        divisors[1:-1] = random.Random(n).sample(divisors[1:-1], 30)
    return divisors


def double(h):
    return h.translate(SCALE[8]).rstrip(b"\0")  # 2 is symbol 8


def test_reduced_divisors_run_from_one_to_zero():
    for n in (3, 5, 7, 9, 15, 21, 63):
        divisors = reduced_divisors(n)
        assert divisors[0] == b"\4" and divisors[-1] == b""
        assert len(divisors) == (32 if n in (21, 63) else len(divisor_lattice(n)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 7, 9, 15, 21, 63)), st.data())
def test_divides_twice_matches_division_over_the_ring(n, data):
    # h is any symbol string below degree n, as the clauses' h is; g*q + 2r
    # is one whose double every g divides, so both answers are exercised.
    # The clauses pass the mask of a sum x + y as the XOR of the masks of x
    # and y, which must answer as 2(x + y) divided over R does.
    symbols = st.lists(st.integers(0, 15), max_size=n).map(bytes)
    h, q, r = data.draw(symbols), data.draw(symbols), data.draw(symbols)
    x, y = data.draw(symbols), data.draw(symbols)
    for g in reduced_divisors(n):
        assert _divides_twice(g, _parity_mask(h)) == _divides(g, double(h))
        multiple = _add((_poly(g) * _poly(q)).symbols, r.translate(SCALE[8]))
        assert _divides_twice(g, _parity_mask(multiple)) and _divides(g, double(multiple))
        assert (_divides_twice(g, _parity_mask(x) ^ _parity_mask(y))
                == _divides(g, double(_add(x, y))))
        # x and multiple - x sum to a multiple: their masks XOR to one
        rest = _add(multiple, x.translate(NEG))
        assert _divides_twice(g, _parity_mask(x) ^ _parity_mask(rest))


def test_divides_twice_by_zero_and_by_one():
    # zero divides 2h only when h is zero mod 2; the constant 1 divides all
    def by_zero(h):
        return _divides_twice(b"", _parity_mask(h))

    assert by_zero(b"") and by_zero(b"\2\10\12\0")
    assert not by_zero(b"\10\1") and not by_zero(b"\4")
    assert all(_divides_twice(b"\4", _parity_mask(bytes([k]))) for k in range(16))


@pytest.mark.parametrize("g", [b"\1", b"\1\4", b"\4\5", b"\4\10"])
def test_divides_twice_refuses_a_u_part_or_a_non_unit_lead(g):
    # u, u + x and 1 + (1+u)x have a u part; 1 + 2x has a non-unit lead
    with pytest.raises(RuntimeError):
        _divides_twice(g, _parity_mask(b"\4"))


def test_reciprocal():
    assert reciprocal(Poly.parse("1,1,1")) == Poly.parse("1,1,1")
    assert reciprocal(Poly.parse("3,1,2,1")) == Poly.parse("1,2,1,3")
    with pytest.raises(ZeroPolynomial):
        reciprocal(Poly())


def test_reciprocal_involution_randomized():
    rng = random.Random(77)
    for _ in range(300):
        f = rand_poly(rng, rng.randrange(0, 9), nonzero_const=True)
        assert reciprocal(reciprocal(f)) == f


def test_reciprocal_degree_collapse():
    # zero constant term: the reversed sequence renormalizes to lower degree
    f = Poly.parse("0,1,1")
    assert reciprocal(f) == Poly.parse("1,1")


def test_self_reciprocal_constant():
    assert self_reciprocal_constant(Poly.parse("1,1,1")) == RingElem(1)
    assert self_reciprocal_constant(G2 * G3) == RingElem(1)
    assert (G2 * G3) == Poly([1] * 7)
    assert self_reciprocal_constant(G2) is None
    assert self_reciprocal_constant(Poly.parse("3,1")) == RingElem(3)
    # the G2 reciprocal is 3*G3
    assert reciprocal(G2) == G3 * RingElem(3)
    with pytest.raises(ZeroPolynomial, match="^reciprocal of the zero polynomial$"):
        self_reciprocal_constant(Poly())


def test_reciprocal_product_and_sum_rules():
    rng = random.Random(4242)
    for _ in range(250):
        degs = sorted(rng.randrange(0, 9) for _ in range(3))
        h, g, f = (rand_poly(rng, d, unit_lc=True, nonzero_const=True) for d in degs)
        assert reciprocal(f * g * h) == reciprocal(f) * reciprocal(g) * reciprocal(h)
        s = f + g + h
        if s.is_zero or s.degree != f.degree:
            continue  # leading cancellation voids the stated shift pattern
        expect = (reciprocal(f)
                  + reciprocal(g).shift(f.degree - g.degree)
                  + reciprocal(h).shift(f.degree - h.degree))
        assert reciprocal(s) == expect


def test_factor_f2():
    assert [str(f) for f in factor_xn_minus_1_f2(7)] == ["1,1", "1,1,0,1", "1,0,1,1"]
    assert [str(f) for f in factor_xn_minus_1_f2(1)] == ["1,1"]
    assert [str(f) for f in factor_xn_minus_1_f2(3)] == ["1,1", "1,1,1"]


@pytest.mark.parametrize("bad_n", [0, -3, 2, 4, 64, 65])
def test_factor_rejects_unsupported_lengths(bad_n):
    with pytest.raises(UnsupportedLength):
        factor_xn_minus_1_f2(bad_n)


def test_hensel_lift_examples():
    assert hensel_lift(Poly.parse("1,1"), 7) == Poly.parse("3,1")
    assert hensel_lift(Poly.parse("1,1,0,1"), 7) == G2
    assert hensel_lift(Poly.parse("1,0,1,1"), 7) == G3


# Coefficients 2, u and 3 are refused even where the polynomial reduces
# mod 2 to a factor of x^7 - 1 (1,1,0,1 and 1,1).
@pytest.mark.parametrize("text", ["1,1,2,1", "1,1,u,1", "3,1", "0", "1,1,1"])
def test_hensel_lift_rejects_what_is_not_a_binary_factor(text):
    with pytest.raises(NotAFactor):
        hensel_lift(Poly.parse(text), 7)


def test_factor_z4_examples():
    assert set(factor_xn_minus_1_z4(3)) == {Poly.parse("3,1"), Poly.parse("1,1,1")}
    assert set(factor_xn_minus_1_z4(7)) == {Poly.parse("3,1"), G2, G3}


def test_lifts_all_supported_lengths():
    # x^n - 1 is squarefree with one irreducible factor per 2-cyclotomic
    # coset {s, 2s, 4s, ...} mod n; as many non-constant factors as cosets,
    # with the product check below, make every factor irreducible.
    for n in range(1, 64, 2):
        cosets = {frozenset(s * 2**k % n for k in range(n)) for s in range(n)}
        f2_factors = factor_xn_minus_1_f2(n)
        z4_factors = factor_xn_minus_1_z4(n)
        assert len(f2_factors) == len(cosets)
        product = Poly([1])
        for lift, base in zip(z4_factors, f2_factors):
            assert base.degree >= 1 and lift.is_monic()
            # congruent mod 2
            assert Poly(c.a % 2 for c in coeffs(lift)) == base
            assert all(c.b == 0 for c in coeffs(lift))
            _, r = poly_divmod(xn_minus_1(n), lift)
            assert r.is_zero
            product = product * lift
        assert product == xn_minus_1(n)


def test_poly_text_round_trip():
    for text in ["0", "3,1", "1,1,1", "3,1,2,1", "0,u", "2+3u,0,1"]:
        assert str(Poly.parse(text)) == text
    assert Poly.parse("1,1,0") == Poly.parse("1,1")
    with pytest.raises(ValueError):
        Poly.parse("")
    with pytest.raises(ValueError):
        Poly.parse("1,,2")
