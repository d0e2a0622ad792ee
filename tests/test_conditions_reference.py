"""Full T31-T42 reports, notes included, against a reference checker.

The reference finds the self-reciprocal constant of f1/f3 and the (b)(i)
unit factor by trying the constants one by one in canonical element order,
and builds the rest of each report from the paper's clauses with plain
``Poly`` arithmetic.  T41/T42 add membership of the all-(3+3u) word, which
the reference decides by evaluating f1 at 1 in ``RingElem`` arithmetic.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import coeffs, ref_self_reciprocal_constant, xn_minus_1
from z4udna.conditions import (
    ConditionReport,
    check_rc_double,
    check_rc_single,
    check_reversible_double,
    check_reversible_single,
)
from z4udna.cyclic import GeneratorSet
from z4udna.poly import (
    Poly,
    divides,
    divisor_lattice,
    poly_mod_xn,
    reciprocal,
)
from z4udna.ring import ALL_ELEMENTS, UNITS, RingElem


def ref_unit_factor(rhs, lhs):
    return next((m for m in UNITS[1:] if rhs * m == lhs), None)


def ref_common(gens, names):
    failures, notes = [], []
    for name in names:
        if ref_self_reciprocal_constant(coeffs(getattr(gens, name))) is None:
            failures.append(f"(a) {name} is not self-reciprocal")
    n = gens.n
    i = gens.f1.degree - gens.f2.degree
    lhs = poly_mod_xn(reciprocal(gens.f2).shift(i), n)
    rhs = poly_mod_xn(gens.f2, n)
    if lhs != rhs:
        failures.append("(b)(i) x^i*f2* != f2")
        m = ref_unit_factor(rhs, lhs)
        if m is not None:
            notes.append(f"(b)(i) holds up to the unit factor m={m}")
    j, shifted, f14r = None, Poly(), Poly()
    if not gens.f14.is_zero:
        j = gens.f1.degree - gens.f14.degree
        if j < 0:
            notes.append("j < 0 (deg f14 exceeds deg f1); exponent taken mod n")
        shifted = poly_mod_xn(reciprocal(gens.f14).shift(j % n), n)
        f14r = poly_mod_xn(gens.f14, n)
    return failures, notes, i, j, poly_mod_xn(shifted * 2 + f14r * 2, n), shifted == f14r


def ref_check(gens):
    n = gens.n
    if gens.f3 is None:
        failures, notes, i, j, dividend, equal = ref_common(gens, ["f1"])
        if j is None:
            branch = "vacuous"
        elif equal:
            branch = "equality"
        elif divides(gens.f2, dividend, n):
            branch = "divisibility"
        else:
            branch = None
            failures.append("(b)(ii) x^j*f14* != f14 and f2 does not divide 2x^j*f14* + 2f14")
        theorem = "T31"
    else:
        failures, notes, i, j, dividend, _ = ref_common(gens, ["f1", "f3"])
        if divides(gens.f4, dividend, n):
            branch = "div-f14" if j is not None else "vacuous"
        elif divides(gens.f4, poly_mod_xn(dividend + gens.f2 * 2, n), n):
            branch = "div-f14-plus-f2"
        else:
            branch = None
            failures.append("(b)(ii) f4 divides neither 2x^j*f14* + 2f14 nor that plus 2f2")
        theorem = "T32"
    return ConditionReport(theorem, not failures, i, j, branch,
                           tuple(failures), tuple(notes))


MEMBERSHIP = "membership: the all-(3+3u) word is not in the code"


def ref_rc_check(gens):
    """T41/T42: the T31/T32 reference plus f1(1) being a unit."""
    report = ref_check(gens)
    failures = report.failures
    if not sum(coeffs(gens.f1), RingElem(0)).is_unit():
        failures += (MEMBERSHIP,)
    return report._replace(theorem={"T31": "T41", "T32": "T42"}[report.theorem],
                           satisfied=not failures, failures=failures)


def check(gens):
    single = gens.f3 is None
    return check_reversible_single(gens) if single else check_reversible_double(gens)


def rc_check(gens):
    return check_rc_single(gens) if gens.f3 is None else check_rc_double(gens)


def lattice_tuples(n, per_form, seed):
    """Seeded single- and double-generator tuples from the divisor lattice
    of x^n - 1, with f14 of degree <= 2."""
    lattice = divisor_lattice(n)
    bits = len(lattice).bit_length() - 1  # one bit per factor
    rng = random.Random(seed)

    def pair():
        m = rng.getrandbits(bits)
        return lattice[m], lattice[m & rng.getrandbits(bits)]

    out = []
    for double in (False, True):
        for _ in range(per_form):
            f1, f2 = pair()
            f14 = Poly(rng.choice(ALL_ELEMENTS) for _ in range(3))
            out.append(GeneratorSet(n, f1, f2, f14, *(pair() if double else ())))
    return out


X_MINUS_1 = Poly.parse("3,1")


def special_tuples(n):
    """The corner cases: a (b)(i) unit factor m = 3, f2 = x^n - 1 and j < 0.

    m = 3 is the only unit factor the divisor pairs f2 | f1 of the n = 7,
    15 and 21 lattices show; every pair there was tried.
    """
    full = xn_minus_1(n)
    f14 = Poly.parse("1,u,2")
    return [
        GeneratorSet(n, X_MINUS_1, X_MINUS_1),
        GeneratorSet(n, X_MINUS_1, X_MINUS_1, Poly(), full, X_MINUS_1),
        GeneratorSet(n, full, full, f14),
        GeneratorSet(n, full, full, f14, full, full),
        GeneratorSet(n, X_MINUS_1, Poly([1]), f14),
        GeneratorSet(n, X_MINUS_1, X_MINUS_1, f14, X_MINUS_1, Poly([1])),
    ]


@pytest.mark.parametrize("n", [7, 15, 21, 63])
def test_reports_match_the_reference_scans(n):
    tuples = lattice_tuples(n, 60, seed=n) + special_tuples(n)
    notes = set()
    members = set()
    for gens in tuples:
        report = check(gens)
        assert report == ref_check(gens), gens
        notes.update(report.notes)
        report = rc_check(gens)
        assert report == ref_rc_check(gens), gens
        members.add(MEMBERSHIP not in report.failures)
    # the corner cases really are exercised, and the word is in some codes only
    assert members == {True, False}
    assert "(b)(i) holds up to the unit factor m=3" in notes
    assert "j < 0 (deg f14 exceeds deg f1); exponent taken mod n" in notes



@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 7, 15, 21)), st.integers(0, 2**32 - 1), st.booleans(),
       st.data())
def test_reports_match_the_reference_for_f14_of_any_degree(n, seed, double, data):
    # f14 of any degree below n and any coefficients: x^(j mod n)*f14* can
    # fold past x^n, and an f14 with zero low coefficients has a reciprocal
    # of lower degree, which the scans above reach only by chance
    coeffs = data.draw(st.lists(st.sampled_from(ALL_ELEMENTS), max_size=n))
    gens = lattice_tuples(n, 1, seed)[double]._replace(f14=Poly(coeffs))
    assert check(gens) == ref_check(gens)
    assert rc_check(gens) == ref_rc_check(gens)
