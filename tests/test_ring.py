"""Element-level arithmetic, complement identities, codon and Gray tables."""

import itertools

import pytest

from oracles import coeffs, decode, inverse
from z4udna.poly import Poly
from z4udna.ring import (
    ALL_ELEMENTS,
    INV,
    LEE,
    RingElem,
    UNITS,
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
        assert x * inverse(x) == RingElem(1)
    with pytest.raises(ValueError):
        inverse(RingElem(2))


def test_complement_examples():
    assert RingElem(0).complement() == ONE_PLUS_U
    assert RingElem(2).complement() == RingElem(3, 1)


def test_complement_identities_exhaustive():
    three_wcc = RingElem(3) * ONE_PLUS_U
    for x in ALL_ELEMENTS:
        assert x + x.complement() == ONE_PLUS_U
        assert x.complement().complement() == x
        assert x != x.complement()
        assert (RingElem(2) * x).complement() + three_wcc == RingElem(2) * x
        assert x.complement() + three_wcc == RingElem(3) * x
    for a in range(4):
        d = RingElem(0, 2) * RingElem(a)
        assert d.complement() + three_wcc == d
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        assert (x + y).complement() == x.complement() + y.complement() + three_wcc
    two_wcc = RingElem(2) * ONE_PLUS_U
    for x, y, z in itertools.product(ALL_ELEMENTS, repeat=3):
        assert ((x + y + z).complement()
                == x.complement() + y.complement() + z.complement() + two_wcc)


def test_int_minus_element():
    for x in ALL_ELEMENTS:
        for i in range(-5, 6):
            assert i - x == RingElem(i - x.a, -x.b)


@pytest.mark.parametrize("operation", [
    lambda: Poly.parse("3,1") + 1.5,
    lambda: Poly.parse("3,1") - "x",
    lambda: Poly.parse("3,1") * 1.5,
    lambda: RingElem(1, 2) + 1.5,
    lambda: RingElem(1, 2) - 1.5,
    lambda: 1.5 - RingElem(1, 2),
], ids=["poly+float", "poly-str", "poly*float", "elem+float", "elem-float", "float-elem"])
def test_operators_reject_other_types(operation):
    with pytest.raises(TypeError):
        operation()


def test_equality_agrees_with_hash():
    # an int is not a ring element: RingElem(1) == 5 used to hold although
    # the two hashes differ
    assert RingElem(1) != 5 and RingElem(1) != 1 and 1 != RingElem(1)
    assert (Poly.parse("3") == 3) is False
    values = list(ALL_ELEMENTS) + list(range(-4, 8))
    for a, b in itertools.product(values, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


def test_codon_table_rows():
    assert RingElem(0).codon() == "AA"
    assert ONE_PLUS_U.codon() == "TT"
    assert RingElem(2).codon() == "AT"
    assert RingElem(3, 1).codon() == "TA"
    assert RingElem(2, 3).codon() == "CT"
    assert RingElem(3, 2).codon() == "GA"
    assert RingElem(0, 2).codon() == "GT"
    assert RingElem(1, 3).codon() == "CA"


def test_codon_bijection_and_wcc():
    codons = {x.codon() for x in ALL_ELEMENTS}
    assert len(codons) == 16
    for x in ALL_ELEMENTS:
        assert decode(x.codon()) == (x,)
        letterwise = "".join(WCC[ch] for ch in x.codon())
        assert x.complement().codon() == letterwise


def test_gray_table_rows():
    expected = {
        "AA": "0000", "TT": "0111", "GG": "0001", "CC": "0101",
        "AT": "0011", "TA": "0100", "GC": "0010", "CG": "0110",
        "GT": "1111", "CA": "1000", "AC": "1010", "TG": "1110",
        "CT": "1001", "GA": "1101", "AG": "1100", "TC": "1011",
    }
    for x in ALL_ELEMENTS:
        assert x.gray_str() == expected[x.codon()]
    assert len({x.gray_str() for x in ALL_ELEMENTS}) == 16


def test_lee_weights():
    assert RingElem(0).lee_weight() == 0
    assert ONE_PLUS_U.lee_weight() == 3
    assert RingElem(0, 3).lee_weight() == 2
    for x in ALL_ELEMENTS:
        assert x.lee_weight() == sum(x.gray_bits())


def test_symbol_tables_match_element_maps():
    for a, b in itertools.product(range(4), repeat=2):
        x = RingElem(a, b)
        assert ALL_ELEMENTS[x.index] == x
        assert INV[x.index] == (inverse(x).index if x.is_unit() else 0)
        assert LEE[x.index] == x.lee_weight()


def test_lee_hamming_isometry():
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        dist = sum(1 for bx, by in zip(x.gray_bits(), y.gray_bits()) if bx != by)
        assert (x - y).lee_weight() == dist


def test_text_round_trip():
    for x in ALL_ELEMENTS:
        assert RingElem.parse(str(x)) == x
    assert str(RingElem(0)) == "0"
    assert str(RingElem(0, 1)) == "u"
    assert str(RingElem(0, 2)) == "2u"
    assert str(RingElem(3, 2)) == "3+2u"
    assert str(RingElem(1, 1)) == "1+u"
    assert repr(RingElem(1, 2)) == "RingElem(1, 2)"
    assert repr(Poly.parse("3,1")) == "Poly('3,1')"


@pytest.mark.parametrize("bad", ["", "4", "1u", "0+2u", "2+0u", "2+1u", "-1", "u2", " 1", "uu"])
def test_parse_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        RingElem.parse(bad)


# The 16 canonical texts and the (a, b) of the element each one names.
CANONICAL_TEXT = {
    "0": (0, 0), "u": (0, 1), "2u": (0, 2), "3u": (0, 3),
    "1": (1, 0), "1+u": (1, 1), "1+2u": (1, 2), "1+3u": (1, 3),
    "2": (2, 0), "2+u": (2, 1), "2+2u": (2, 2), "2+3u": (2, 3),
    "3": (3, 0), "3+u": (3, 1), "3+2u": (3, 2), "3+3u": (3, 3),
}


def test_text_format_is_exactly_the_canonical_forms():
    """Every string of length <= 4 over 0123u+, and two with a space: the
    element parser accepts exactly the 16 canonical forms, each naming the
    element whose text it is, and the polynomial parser rejects every other
    string as a coefficient, by name."""
    texts = ["".join(p) for k in range(5) for p in itertools.product("0123u+", repeat=k)]
    for text in texts + [" 1", "1 "]:
        if text in CANONICAL_TEXT:
            x = RingElem.parse(text)
            assert ((x.a, x.b), str(x)) == (CANONICAL_TEXT[text], text)
            assert coeffs(Poly.parse(f"1,{text},1"))[1] == x
            continue
        with pytest.raises(ValueError, match=r"^not a ring element: "):
            RingElem.parse(text)
        with pytest.raises(ValueError) as excinfo:
            Poly.parse(f"1,{text},1")
        assert str(excinfo.value) == f"not a ring element: {text!r}"
