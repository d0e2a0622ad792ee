"""Integer-coded ``Poly`` arithmetic against a slow reference.

The references work on coefficient lists of ``RingElem``s, lowest degree
first, with the ring's own operators and nothing from ``z4udna.poly``.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    coeffs,
    ref_divides,
    ref_divmod,
    ref_mod,
    ref_reciprocal,
    ref_self_reciprocal_constant,
    trim,
    xn_minus_1,
)
from z4udna.conditions import (
    check_rc_single,
    check_reversible_double,
    check_reversible_single,
)
from z4udna.cyclic import GeneratorSet, generator_polys
from z4udna.errors import NonUnitLeadingCoefficient, ZeroPolynomial
from z4udna.poly import (
    Poly,
    _constant_factor,
    _xn_minus_1,
    divides,
    divisor_lattice,
    factor_xn_minus_1_z4,
    poly_divmod,
    poly_mod_xn,
    reciprocal,
    self_reciprocal_constant,
)
from z4udna.ring import ALL_ELEMENTS, RingElem, UNITS

ZERO = RingElem(0)
elems = st.sampled_from(ALL_ELEMENTS)
coeff_lists = st.lists(elems, max_size=10)
palindromes = st.lists(elems, max_size=5).map(lambda cs: cs + cs[::-1])
unit_lc_lists = st.builds(lambda cs, lead: cs + [lead],
                          st.lists(elems, max_size=5), st.sampled_from(UNITS))
non_units = st.sampled_from([x for x in ALL_ELEMENTS if x and not x.is_unit()])
non_unit_lc_lists = st.builds(lambda cs, lead: cs + [lead],
                              st.lists(elems, max_size=5), non_units)
# Leading zeros make f* drop degree, so f(0) = 0 gets its own strategy.
zero_constant_lists = st.builds(lambda k, cs: [ZERO] * k + cs,
                                st.integers(1, 3), st.one_of(unit_lc_lists, non_unit_lc_lists))
any_lists = st.one_of(coeff_lists, palindromes, unit_lc_lists, non_unit_lc_lists,
                      zero_constant_lists)


def ref_add(f, g):
    size = max(len(f), len(g))
    f = list(f) + [ZERO] * (size - len(f))
    g = list(g) + [ZERO] * (size - len(g))
    return trim(x + y for x, y in zip(f, g))


def ref_mul(f, g):
    out = [ZERO] * (len(f) + len(g))
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except (NonUnitLeadingCoefficient, ZeroPolynomial) as exc:
        return type(exc)


def divmod_outcome(f, g):
    return outcome(lambda: tuple(map(coeffs, poly_divmod(Poly(f), Poly(g)))))


@given(st.lists(st.one_of(elems, st.integers(-20, 20)), max_size=10))
def test_constructor_reads_ints_as_z4_constants(cs):
    expect = trim(c if isinstance(c, RingElem) else RingElem(c) for c in cs)
    assert coeffs(Poly(cs)) == expect
    assert Poly(cs).symbols == bytes(4 * c.a + c.b for c in expect)


@given(coeff_lists, coeff_lists)
def test_add_sub_neg(f, g):
    assert coeffs(Poly(f) + Poly(g)) == ref_add(f, g)
    assert coeffs(Poly(f) - Poly(g)) == ref_add(f, [-c for c in g])
    assert coeffs(-Poly(f)) == trim(-c for c in f)


@given(coeff_lists, coeff_lists, elems, st.integers(-9, 9))
def test_mul_by_poly_element_and_int(f, g, m, i):
    assert coeffs(Poly(f) * Poly(g)) == ref_mul(f, g)
    assert coeffs(Poly(f) * m) == coeffs(m * Poly(f)) == trim(c * m for c in f)
    assert coeffs(Poly(f) * i) == coeffs(i * Poly(f)) == trim(c * i for c in f)


# Operands as long as the lattice products at n = 63 (up to 64
# coefficients) and past them, led by zero (a non-canonical trailing zero),
# a unit or a zero divisor.
long_lists = st.builds(lambda cs, lead: cs + [lead],
                       st.integers(0, 139).flatmap(lambda k: st.lists(elems, min_size=k,
                                                                      max_size=k)),
                       st.one_of(st.just(ZERO), st.sampled_from(UNITS), non_units))


@settings(deadline=None)
@given(long_lists, long_lists)
def test_mul_matches_reference_at_lattice_lengths(f, g):
    assert coeffs(Poly(f) * Poly(g)) == ref_mul(f, g)


def test_mul_past_the_two_byte_slot():
    """4000 coefficients of 3+3u on each side: coefficient k of the
    square is m_k (3+3u)^2 = m_k (1+2u), m_k = min(k+1, 7999-k) being the
    number of pairs i + j = k, and the u part reaches 18 * 4000 > 2^16
    before it is reduced."""
    f = Poly([RingElem(3, 3)] * 4000)
    assert coeffs(f * f) == tuple(min(k + 1, 7999 - k) * RingElem(1, 2) for k in range(7999))


@given(coeff_lists, st.integers(0, 6))
def test_shift(f, k):
    assert coeffs(Poly(f).shift(k)) == trim([ZERO] * k + list(f))


@given(coeff_lists, st.integers(1, 6))
def test_mod_xn(f, n):
    assert coeffs(poly_mod_xn(Poly(f), n)) == ref_mod(f, n)


@given(coeff_lists, st.one_of(unit_lc_lists, coeff_lists))
def test_divmod(f, g):
    assert divmod_outcome(f, g) == outcome(ref_divmod, f, g)


def same(text, n):
    """An explicit ``test_divides`` example with g = f = ``Poly.parse(text)``."""
    cs = list(coeffs(Poly.parse(text)))
    return example(cs, cs, n)


# g = f with unit leads (x - 1 and a cubic divisor of x^7 - 1, a lead of
# 1 + u, x^7 - 1 itself, which is zero mod x^7 - 1, and a degree-4 g at
# n = 3, which reduces first) and with non-unit leads (u + 2x, 1 + x + ux^2).
@settings(deadline=None)
@given(st.one_of(unit_lc_lists, coeff_lists, long_lists), st.one_of(coeff_lists, long_lists),
       st.one_of(st.integers(1, 6), st.sampled_from((7, 15, 21, 63))))
@same("3,1", 7)
@same("3,1,2,1", 7)
@same("2,0,1+u", 7)
@same("3,0,0,0,0,0,0,1", 7)
@same("1,1,1,1,1", 3)
@same("u,2", 7)
@same("1,1,u", 7)
def test_divides(g, f, n):
    assert outcome(divides, Poly(g), Poly(f), n) == outcome(ref_divides, g, f, n)


@pytest.mark.parametrize("lead", UNITS)
@settings(deadline=None, max_examples=25)
@given(long_lists, st.lists(elems, max_size=70))
def test_divmod_at_lattice_lengths(lead, f, low):
    """Dividends of up to 140 coefficients by divisors of up to 71 led by
    each unit, by the divisor's degree-0 lead alone, and a dividend cut
    shorter than the divisor."""
    g = low + [lead]
    for dividend, divisor in ((f, g), (f, [lead]), (f[:len(low)], g)):
        assert divmod_outcome(dividend, divisor) == outcome(ref_divmod, dividend, divisor)


def test_division_errors_come_before_the_short_dividend():
    """A zero divisor, then a non-unit leading coefficient, raises even
    when the dividend is shorter than the divisor, with the same texts."""
    for f in (Poly(), Poly([1])):
        with pytest.raises(NonUnitLeadingCoefficient) as zero:
            poly_divmod(f, Poly())
        assert str(zero.value) == "cannot divide by the zero polynomial"
        for g in (Poly.parse("1,1,2"), Poly.parse("3,0,0,u"), Poly.parse("2+3u")):
            with pytest.raises(NonUnitLeadingCoefficient) as non_unit:
                poly_divmod(f, g)
            assert str(non_unit.value) == f"leading coefficient {coeffs(g)[-1]} of divisor is not a unit"
    with pytest.raises(NonUnitLeadingCoefficient):
        divides(Poly.parse("1,1,2"), Poly([1]), 7)


@pytest.mark.parametrize("c", ALL_ELEMENTS, ids=str)
@settings(deadline=None, max_examples=25)
@given(st.one_of(coeff_lists, long_lists), st.sampled_from((7, 15, 21, 63)))
def test_divides_by_a_constant(c, f, n):
    """A unit constant divides every polynomial; a nonzero non-unit one
    raises the division's error, also for a zero dividend; zero divides
    only a zero residue."""
    if c.is_unit():
        assert divides(Poly([c]), Poly(f), n) is True
    elif c:
        for dividend in (Poly(f), Poly()):
            with pytest.raises(NonUnitLeadingCoefficient) as excinfo:
                divides(Poly([c]), dividend, n)
            assert str(excinfo.value) == f"leading coefficient {c} of divisor is not a unit"
    else:
        assert divides(Poly([c]), Poly(f), n) is (not ref_mod(f, n))
        assert divides(Poly([c]), Poly(), n) is True


# m*P and m*P*(x - 1) for a palindrome P and a unit m: f* is f or -f when
# P keeps its degree, so a solved constant is hit as well as missed.
near_palindromes = st.builds(
    lambda cs, m, odd: coeffs(Poly(cs) * m * Poly.parse("3,1" if odd else "1")),
    palindromes, st.sampled_from(UNITS), st.booleans())


@given(st.one_of(any_lists, near_palindromes, st.lists(elems, min_size=1, max_size=40)))
def test_reciprocal_and_self_reciprocal_constant(f):
    """The solved constant equals the ordered 16-constant scan, also for
    non-unit leading coefficients and zero constant terms."""
    assert outcome(lambda: coeffs(reciprocal(Poly(f)))) == outcome(ref_reciprocal, f)
    assert (outcome(self_reciprocal_constant, Poly(f))
            == outcome(ref_self_reciprocal_constant, f))


def test_self_reciprocal_constant_on_every_lattice_divisor():
    # every monic divisor of x^n - 1 for odd n <= 31, times a unit that
    # cycles through the eight, so every unit lead is met
    k = 0
    for n in range(1, 32, 2):
        for g in divisor_lattice(n):
            f = g * UNITS[k % len(UNITS)]
            k += 1
            assert self_reciprocal_constant(f) == ref_self_reciprocal_constant(coeffs(f)), f


def symbols(cs):
    """The canonical symbol string of a coefficient list."""
    return bytes(map(ALL_ELEMENTS.index, trim(cs)))


def ordered_scan(f, g, among):
    """The first m of the list ``among`` with m*f = g, or None."""
    return next((m for m in among if trim(m * c for c in f) == trim(g)), None)


@given(any_lists, st.one_of(any_lists, st.none()), elems, st.sets(elems, min_size=1))
def test_constant_factor_matches_the_ordered_scan(f, g, m, among):
    if g is None:  # a multiple of f, so that matches are common
        g = [m * c for c in f]
    among = sorted(among, key=ALL_ELEMENTS.index)
    got = _constant_factor(symbols(f), symbols(g), bytes(map(ALL_ELEMENTS.index, among)))
    assert (None if got is None else ALL_ELEMENTS[got]) == ordered_scan(f, g, among)


def test_constant_factor_on_every_single_symbol_pair():
    # m*x = y for constants x and y: a unit x leaves the unique solution
    # y * x^-1, which is not found when ``among`` leaves it out, and a
    # non-unit x the first match of the 16-constant scan
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            got = _constant_factor(symbols([x]), symbols([y]))
            assert (None if got is None else ALL_ELEMENTS[got]) == ordered_scan(
                [x], [y], ALL_ELEMENTS)
            if x.is_unit():
                assert [m for m in ALL_ELEMENTS if m * x == y] == [ALL_ELEMENTS[got]]
                others = bytes(k for k in range(16) if k != got)
                assert _constant_factor(symbols([x]), symbols([y]), others) is None


def ref_product(factors):
    """The product of a list of polynomials, on coefficient lists."""
    out = (RingElem(1),)
    for f in factors:
        out = ref_mul(out, coeffs(f))
    return out


@pytest.mark.parametrize("n", [*range(1, 16, 2), 21, 45, 63])
def test_divisor_lattice_entries_are_the_products_of_their_factors(n):
    """Entry mask of the lattice is the product of the lifted factors whose
    bits are set in mask: every mask at n <= 15, 40 seeded ones beyond."""
    lattice = divisor_lattice(n)
    factors = factor_xn_minus_1_z4(n)
    assert len(lattice) == 1 << len(factors)
    masks = range(len(lattice)) if n <= 15 else random.Random(n).sample(range(len(lattice)), 40)
    for mask in masks:
        chosen = [f for i, f in enumerate(factors) if mask >> i & 1]
        assert coeffs(lattice[mask]) == ref_product(chosen), (n, mask)
    assert lattice[-1] == xn_minus_1(n)


@given(st.integers(1, 64))
def test_xn_minus_1_literal(n):
    assert _xn_minus_1(n) == xn_minus_1(n).symbols


@given(coeff_lists, st.integers(0, 4))
def test_mod_xn_keeps_a_reduced_polynomial(f, extra):
    f = Poly(f)
    n = max(len(f.symbols), 1) + extra  # deg f < n
    assert poly_mod_xn(f, n) == f
    assert poly_mod_xn(f, n) is f


def test_shift_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Poly([1, 2]).shift(-1)
    with pytest.raises(ValueError):
        Poly().shift(-1)
    with pytest.raises(ValueError):
        _xn_minus_1(0)


def lattice_tuples_63():
    """A single- and a double-generator tuple from the n=63 divisor lattice."""
    lattice = divisor_lattice(63)
    f1, f2 = lattice[0b111111], lattice[0b111]
    f3, f4 = lattice[0b1111110000], lattice[0b1110000]
    f14 = Poly.parse("1,u,2+3u")
    return GeneratorSet(63, f1, f2, f14), GeneratorSet(63, f1, f2, f14, f3, f4)


def test_symbolic_checks_create_no_ring_elements(monkeypatch):
    single, double = lattice_tuples_63()
    small = GeneratorSet(7, Poly.parse("1,1,1,1,1,1,1"), Poly.parse("1,1,1,1,1,1,1"))
    created = []
    original = RingElem.__init__

    def counting_init(self, *args):
        created.append(args)
        original(self, *args)

    monkeypatch.setattr(RingElem, "__init__", counting_init)
    assert check_reversible_double(double).theorem == "T32"
    assert check_reversible_single(single).theorem == "T31"
    generator_polys(double)
    assert check_rc_single(small).theorem == "T41"
    assert created == []
    RingElem(1)  # the counter does see a new element
    assert created == [(1,)]
