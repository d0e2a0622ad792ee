"""Element-level arithmetic, complement identities, codon and Gray tables."""

import itertools

import pytest

from z4udna.ring import (
    ALL_ELEMENTS,
    COMPLEMENT,
    LEE,
    RingElem,
    UNITS,
    complement,
    gray,
    lee_weight,
    psi,
    theta,
    theta_inv,
)

ONE_PLUS_U = RingElem(1, 1)
WCC = {"A": "T", "T": "A", "C": "G", "G": "C"}


def test_there_are_16_elements():
    assert len(set(ALL_ELEMENTS)) == 16


def test_addition_examples():
    assert RingElem(2) + RingElem(3, 1) == RingElem(1, 1)
    assert RingElem(2, 2) + RingElem(2, 2) == RingElem(0)
    for x in ALL_ELEMENTS:
        assert RingElem(0) + x == x


def test_multiplication_examples():
    u = RingElem(0, 1)
    assert u * u == RingElem(0)
    assert ONE_PLUS_U * ONE_PLUS_U == RingElem(1, 2)
    assert RingElem(2) * RingElem(2) == RingElem(0)


def test_ring_axioms_exhaustive():
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    for x, y, z in itertools.product(ALL_ELEMENTS, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_units_are_odd_z4_part():
    assert len(UNITS) == 8
    for x in ALL_ELEMENTS:
        assert x.is_unit() == (x.a % 2 == 1)
    assert RingElem(1).is_unit()
    assert not RingElem(2).is_unit()
    assert RingElem(1, 3).is_unit()
    assert RingElem(1, 3) * RingElem(1, 1) == RingElem(1)


def test_inverse_round_trip():
    for x in UNITS:
        assert x * x.inverse() == RingElem(1)
    with pytest.raises(ValueError):
        RingElem(2).inverse()


def test_complement_examples():
    assert complement(RingElem(0)) == ONE_PLUS_U
    assert complement(RingElem(2)) == RingElem(3, 1)


def test_complement_identities_exhaustive():
    three_wcc = RingElem(3) * ONE_PLUS_U
    for x in ALL_ELEMENTS:
        assert x + complement(x) == ONE_PLUS_U
        assert complement(complement(x)) == x
        assert x != complement(x)
        assert complement(RingElem(2) * x) + three_wcc == RingElem(2) * x
        assert complement(x) + three_wcc == RingElem(3) * x
    for a in range(4):
        d = RingElem(0, 2) * RingElem(a)
        assert complement(d) + three_wcc == d
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        assert complement(x + y) == complement(x) + complement(y) + three_wcc
    two_wcc = RingElem(2) * ONE_PLUS_U
    for x, y, z in itertools.product(ALL_ELEMENTS, repeat=3):
        assert complement(x + y + z) == complement(x) + complement(y) + complement(z) + two_wcc


def test_codon_table_rows():
    assert theta(RingElem(0)) == "AA"
    assert theta(ONE_PLUS_U) == "TT"
    assert theta(RingElem(2))  == "AT"
    assert theta(RingElem(3, 1)) == "TA"
    assert theta(RingElem(2, 3)) == "CT"
    assert theta(RingElem(3, 2)) == "GA"
    assert theta(RingElem(0, 2)) == "GT"
    assert theta(RingElem(1, 3)) == "CA"


def test_codon_bijection_and_wcc():
    codons = {theta(x) for x in ALL_ELEMENTS}
    assert len(codons) == 16
    for x in ALL_ELEMENTS:
        assert theta_inv(theta(x)) == x
        letterwise = "".join(WCC[ch] for ch in theta(x))
        assert theta(complement(x)) == letterwise
    with pytest.raises(ValueError):
        theta_inv("AX")


def test_psi_table():
    assert [psi(c) for c in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_gray_table_rows():
    expected = {
        "AA": "0000", "TT": "0111", "GG": "0001", "CC": "0101",
        "AT": "0011", "TA": "0100", "GC": "0010", "CG": "0110",
        "GT": "1111", "CA": "1000", "AC": "1010", "TG": "1110",
        "CT": "1001", "GA": "1101", "AG": "1100", "TC": "1011",
    }
    for x in ALL_ELEMENTS:
        assert x.gray_str() == expected[theta(x)]
    assert len({x.gray_str() for x in ALL_ELEMENTS}) == 16


def test_lee_weights():
    assert lee_weight(RingElem(0)) == 0
    assert lee_weight(ONE_PLUS_U) == 3
    assert lee_weight(RingElem(0, 3)) == 2
    for x in ALL_ELEMENTS:
        assert lee_weight(x) == sum(gray(x))


def test_symbol_tables_match_element_maps():
    for a, b in itertools.product(range(4), repeat=2):
        x = RingElem(a, b)
        assert ALL_ELEMENTS[x.index] == x
        assert ALL_ELEMENTS[COMPLEMENT[x.index]] == x.complement()
        assert LEE[x.index] == x.lee_weight()


def test_lee_hamming_isometry():
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        dist = sum(1 for bx, by in zip(gray(x), gray(y)) if bx != by)
        assert lee_weight(x - y) == dist


def test_text_round_trip():
    for x in ALL_ELEMENTS:
        assert RingElem.parse(str(x)) == x
    assert str(RingElem(0)) == "0"
    assert str(RingElem(0, 1)) == "u"
    assert str(RingElem(0, 2)) == "2u"
    assert str(RingElem(3, 2)) == "3+2u"
    assert str(RingElem(1, 1)) == "1+u"


@pytest.mark.parametrize("bad", ["", "4", "1u", "0+2u", "2+0u", "2+1u", "-1", "u2", " 1", "uu"])
def test_parse_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        RingElem.parse(bad)
