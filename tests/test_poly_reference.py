"""Integer-coded ``Poly`` arithmetic against a slow reference.

The references work on coefficient lists of ``RingElem``s, lowest degree
first, with the ring's own operators and nothing from ``z4udna.poly``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from z4udna.conditions import (
    check_rc_single,
    check_reversible_double,
    check_reversible_single,
)
from z4udna.cyclic import GeneratorSet, generator_polys, word_from_poly
from z4udna.errors import NonUnitLeadingCoefficient, ZeroPolynomial
from z4udna.poly import (
    Poly,
    constant_factor,
    divides,
    factor_xn_minus_1_z4,
    poly_divmod,
    poly_mod_xn,
    reciprocal,
    self_reciprocal_constant,
    xn_minus_1,
)
from z4udna.ring import ALL_ELEMENTS, RingElem, UNITS, solve_unit

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


def trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


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


def ref_mod(f, n):
    out = [ZERO] * n
    for k, c in enumerate(f):
        out[k % n] = out[k % n] + c
    return trim(out)


def ref_divmod(f, g):
    f, g = trim(f), trim(g)
    if not g or not g[-1].is_unit():
        raise NonUnitLeadingCoefficient("reference")
    inv = g[-1].inverse()
    rem = list(f)
    q = [ZERO] * max(len(f) - len(g) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(g) - 1] * inv
        q[k] = c
        for i, y in enumerate(g):
            rem[k + i] = rem[k + i] - c * y
    return trim(q), trim(rem)


def ref_divides(g, f, n):
    fr, gr = ref_mod(f, n), ref_mod(g, n)
    if not gr:
        return not fr
    return not ref_divmod(fr, gr)[1]


def ref_reciprocal(f):
    if not trim(f):
        raise ZeroPolynomial("reference")
    return trim(reversed(trim(f)))


def ref_self_reciprocal_constant(f):
    fr = ref_reciprocal(f)
    return next((m for m in ALL_ELEMENTS if trim(m * c for c in f) == fr), None)


def outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except (NonUnitLeadingCoefficient, ZeroPolynomial) as exc:
        return type(exc)


@given(st.lists(st.one_of(elems, st.integers(-20, 20)), max_size=10))
def test_constructor_reads_ints_as_z4_constants(cs):
    expect = trim(c if isinstance(c, RingElem) else RingElem(c) for c in cs)
    assert Poly(cs).coeffs == expect
    assert Poly(cs).symbols == bytes(4 * c.a + c.b for c in expect)
    if expect:
        assert Poly(cs).lc() == expect[-1]


@given(coeff_lists, coeff_lists)
def test_add_sub_neg(f, g):
    assert (Poly(f) + Poly(g)).coeffs == ref_add(f, g)
    assert (Poly(f) - Poly(g)).coeffs == ref_add(f, [-c for c in g])
    assert (-Poly(f)).coeffs == trim(-c for c in f)


@given(coeff_lists, coeff_lists, elems, st.integers(-9, 9))
def test_mul_by_poly_element_and_int(f, g, m, i):
    assert (Poly(f) * Poly(g)).coeffs == ref_mul(f, g)
    assert (Poly(f) * m).coeffs == (m * Poly(f)).coeffs == trim(c * m for c in f)
    assert (Poly(f) * i).coeffs == (i * Poly(f)).coeffs == trim(c * i for c in f)


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
    assert (Poly(f) * Poly(g)).coeffs == ref_mul(f, g)


def test_mul_past_the_two_byte_slot():
    """4000 coefficients of 3+3u on each side: coefficient k of the
    square is m_k (3+3u)^2 = m_k (1+2u), m_k = min(k+1, 7999-k) being the
    number of pairs i + j = k, and the u part reaches 18 * 4000 > 2^16
    before it is reduced."""
    f = Poly([RingElem(3, 3)] * 4000)
    assert (f * f).coeffs == tuple(min(k + 1, 7999 - k) * RingElem(1, 2) for k in range(7999))


@given(coeff_lists, st.integers(0, 6))
def test_shift(f, k):
    assert Poly(f).shift(k).coeffs == trim([ZERO] * k + list(f))


@given(coeff_lists, st.integers(1, 6))
def test_mod_xn(f, n):
    assert poly_mod_xn(Poly(f), n).coeffs == ref_mod(f, n)


@given(coeff_lists, st.one_of(unit_lc_lists, coeff_lists))
def test_divmod(f, g):
    got = outcome(lambda: tuple(p.coeffs for p in poly_divmod(Poly(f), Poly(g))))
    assert got == outcome(ref_divmod, f, g)


@given(st.one_of(unit_lc_lists, coeff_lists), coeff_lists, st.integers(1, 6))
def test_divides(g, f, n):
    assert outcome(divides, Poly(g), Poly(f), n) == outcome(ref_divides, g, f, n)


@given(any_lists)
def test_reciprocal_and_self_reciprocal_constant(f):
    """The solved constant equals the ordered 16-constant scan, also for
    non-unit leading coefficients and zero constant terms."""
    assert outcome(lambda: reciprocal(Poly(f)).coeffs) == outcome(ref_reciprocal, f)
    assert (outcome(self_reciprocal_constant, Poly(f))
            == outcome(ref_self_reciprocal_constant, f))


@given(any_lists, st.one_of(any_lists, st.none()), elems, st.sets(elems, min_size=1))
def test_constant_factor_matches_the_ordered_scan(f, g, m, among):
    if g is None:  # a multiple of f, so that matches are common
        g = [m * c for c in f]
    among = sorted(among, key=ALL_ELEMENTS.index)
    scan = next((m for m in among if trim(m * c for c in f) == trim(g)), None)
    got = constant_factor(Poly(f), Poly(g), bytes(map(ALL_ELEMENTS.index, among)))
    assert (None if got is None else ALL_ELEMENTS[got]) == scan


def test_solve_unit_inverts_every_unit():
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            m = solve_unit(ALL_ELEMENTS.index(x), ALL_ELEMENTS.index(y))
            if x.is_unit():
                assert ALL_ELEMENTS[m] * x == y
            else:
                assert m is None


@given(st.integers(1, 64))
def test_xn_minus_1_literal(n):
    assert xn_minus_1(n) == Poly([-1] + [0] * (n - 1) + [1])


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
        xn_minus_1(0)


def lattice_tuples_63():
    """A single- and a double-generator tuple from the n=63 divisor lattice."""
    factors = factor_xn_minus_1_z4(63)

    def product(indices):
        p = Poly([1])
        for i in indices:
            p = p * factors[i]
        return p

    f1, f2 = product(range(6)), product(range(3))
    f3, f4 = product(range(4, 10)), product(range(4, 7))
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
    g_a, _ = generator_polys(double)
    word_from_poly(g_a, 63)
    assert check_rc_single(small).theorem == "T41"
    assert created == []
    RingElem(1)  # the counter does see a new element
    assert created == [(1,)]
