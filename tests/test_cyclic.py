"""Generator validation, enumeration, closure properties and exports."""

import random

import numpy as np
import pytest

from z4udna import _dense
from z4udna.cyclic import (
    Code,
    GeneratorSet,
    complement_word,
    cyclic_shift,
    enumerate_code,
    generator_polys,
    is_quasi_cyclic_index4,
    render_code_export,
    reverse_complement,
    reverse_word,
    validate,
    word_from_poly,
    word_to_row,
)
from z4udna.errors import CapExceeded, InvalidGenerators, LengthMismatch, TrivialCode
from z4udna.poly import Poly, divides, factor_xn_minus_1_z4, poly_divmod, xn_minus_1
from z4udna.ring import ALL_ELEMENTS, RingElem

R = RingElem
G2_3 = Poly.parse("1,1,1")
EX_61I = GeneratorSet(3, G2_3, G2_3)
EX_61II = GeneratorSet(3, G2_3, G2_3, Poly(), Poly.parse("3,1"), Poly.parse("1"))
G27 = Poly.parse("3,1,2,1") * Poly.parse("3,2,3,1")
EX_62 = GeneratorSet(7, G27, G27)


def words_of(values):
    return tuple(R(*v) if isinstance(v, tuple) else R(v) for v in values)


def test_word_operations():
    w = words_of([0, 1, 2])
    assert cyclic_shift(w) == words_of([2, 0, 1])
    assert reverse_word(w) == words_of([2, 1, 0])
    assert complement_word(words_of([0, 0, 0])) == words_of([(1, 1)] * 3)
    assert reverse_complement(words_of([2, 0, 0])) == words_of([(1, 1), (1, 1), (3, 1)])
    const = words_of([5, 5, 5])
    assert cyclic_shift(const) == const
    shifted = w
    for _ in range(3):
        shifted = cyclic_shift(shifted)
    assert shifted == w


def test_word_maps_are_involutions():
    rng = random.Random(3)
    for _ in range(50):
        w = tuple(rng.choice(ALL_ELEMENTS) for _ in range(7))
        assert reverse_word(reverse_word(w)) == w
        assert complement_word(complement_word(w)) == w
        assert reverse_complement(reverse_complement(w)) == w
        assert reverse_complement(w) == complement_word(reverse_word(w))
        assert reverse_complement(w) == reverse_word(complement_word(w))


def test_validate():
    assert validate(EX_61I) == []
    assert validate(EX_61II) == []
    assert any("odd" in v for v in validate(GeneratorSet(4, G2_3, G2_3)))
    bad_chain = GeneratorSet(3, Poly.parse("3,1"), G2_3)
    assert any("f2 does not divide f1" in v for v in validate(bad_chain))
    not_divisor = GeneratorSet(3, Poly.parse("0,1"), Poly.parse("1"))
    assert any("does not divide x^3-1" in v for v in validate(not_divisor))
    non_monic = GeneratorSet(3, Poly.parse("1,1,2"), Poly.parse("1"))
    assert any("monic" in v for v in validate(non_monic))
    half_pair = GeneratorSet(3, G2_3, G2_3, Poly(), Poly.parse("3,1"), None)
    assert any("together" in v for v in validate(half_pair))
    big_f14 = GeneratorSet(3, G2_3, G2_3, Poly.parse("0,0,0,1"))
    assert any("f14" in v for v in validate(big_f14))


def test_generator_polys():
    g_a, g_b = generator_polys(EX_61I)
    assert g_a == Poly.parse("3,3,3")
    assert g_b is None
    g_a, g_b = generator_polys(EX_61II)
    assert g_b == Poly.parse("u,u")
    f1 = Poly.parse("1,1,1")
    assert generator_polys(GeneratorSet(3, f1, f1))[0] == f1 * RingElem(3)
    with pytest.raises(InvalidGenerators):
        generator_polys(GeneratorSet(4, f1, f1))


def test_enumerate_constant_code():
    code = enumerate_code(EX_61I)
    assert len(code) == 16
    expected = {tuple([c] * 3) for c in ALL_ELEMENTS}
    assert set(code.words()) == expected
    assert code.source is EX_61I


def test_enumerate_zero_code():
    gens = GeneratorSet(3, xn_minus_1(3), xn_minus_1(3))
    code = enumerate_code(gens)
    assert set(code.words()) == {words_of([0, 0, 0])}


def test_enumerate_length7():
    code = enumerate_code(EX_62)
    assert len(code) == 16
    assert code.min_hamming_distance() == 7


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_code(GeneratorSet(3, Poly.parse("1"), Poly.parse("1")), cap=100)


def test_enumerate_rejects_a_set_that_is_not_shift_closed(monkeypatch):
    def not_closed(vectors, cap):
        return _dense.canonical(np.stack([word_to_row(words_of([0, 0, 0])),
                                          word_to_row(words_of([1, 0, 0]))]))

    monkeypatch.setattr(_dense, "span_closure", not_closed)
    with pytest.raises(RuntimeError, match="not shift-closed"):
        enumerate_code(EX_61I)


def test_enumerated_codes_are_closed():
    rng = random.Random(12)
    factors = factor_xn_minus_1_z4(3)
    divisors = [Poly([1]), factors[0], factors[1], factors[0] * factors[1]]
    for _ in range(10):
        f1 = rng.choice(divisors)
        f2 = rng.choice([d for d in divisors if d.degree <= f1.degree])
        if not divides(f2, f1, 3):
            continue
        f14 = Poly(rng.choice(ALL_ELEMENTS) for _ in range(3))
        gens = GeneratorSet(3, f1, f2, f14)
        code = enumerate_code(gens)
        assert code.is_shift_closed()
        ws = list(code.words())
        for _ in range(100):
            a, b = rng.choice(ws), rng.choice(ws)
            assert tuple(x + y for x, y in zip(a, b)) in code
            r = rng.choice(ALL_ELEMENTS)
            assert tuple(r * x for x in a) in code


def test_span_closure_order_independent():
    gens = EX_61II
    from z4udna.cyclic import generator_polys as gp
    g_a, g_b = gp(gens)
    vectors = []
    for g in (g_a, g_b):
        base = word_to_row(word_from_poly(g, 3))
        for i in range(3):
            vectors.append(_dense.roll_rows(base.reshape(1, -1), i)[0])
    reference = _dense.span_closure(vectors, 1 << 20)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert np.array_equal(_dense.span_closure(shuffled, 1 << 20), reference)


def test_min_distances():
    code = enumerate_code(EX_61I)
    assert code.min_hamming_distance() == 3
    assert code.min_lee_distance() == 3  # the all-ones constant word has Lee weight 3
    synthetic = Code.from_words(3, [words_of([0, 0, 0]), words_of([2, 2, 2])])
    assert synthetic.min_lee_distance() == 6
    assert synthetic.min_hamming_distance() == 3
    trivial = Code.from_words(3, [words_of([0, 0, 0])])
    with pytest.raises(TrivialCode):
        trivial.min_hamming_distance()


def test_closure_predicates():
    code = enumerate_code(EX_61I)
    assert code.is_rc_closed()
    assert code.is_reversible()
    assert code.is_complement_closed()
    assert code.is_dna_code()
    zero = Code.from_words(3, [words_of([0, 0, 0])])
    # reversal fixes the zero word, but its complement is the all-(1+u) word
    assert zero.is_reversible()
    assert not zero.is_complement_closed()
    assert not zero.is_rc_closed()
    assert not zero.is_dna_code()
    synthetic = Code.from_words(
        3, [words_of([0, 0, 0]), words_of([1, 0, 0]),
            words_of([0, 0, 1]), words_of([1, 0, 1])])
    assert synthetic.is_reversible()


def test_dna_code_requires_shift_closure():
    # rc-closed but not shift-closed
    w = words_of([(0, 0), (2, 0), (0, 0)])
    code = Code.from_words(3, [w, reverse_complement(w)])
    assert not code.is_shift_closed()
    assert not code.is_dna_code()


def test_gray_image():
    zero = Code.from_words(3, [words_of([0, 0, 0])])
    assert zero.gray_words() == ["0" * 12]
    tt = Code.from_words(3, [words_of([(1, 1)] * 3)])
    assert tt.gray_words() == ["011101110111"]
    code = enumerate_code(EX_61I)
    assert len(code.gray_image()) == len(code)


def test_quasi_cyclic_index4():
    code = enumerate_code(EX_61I)
    assert is_quasi_cyclic_index4(code.gray_words())
    assert is_quasi_cyclic_index4({"0" * 12})
    assert not is_quasi_cyclic_index4({"10000000"})
    with pytest.raises(LengthMismatch):
        is_quasi_cyclic_index4({"0000", "00000000"})
    with pytest.raises(LengthMismatch):
        is_quasi_cyclic_index4({"000000"})


def test_export_formats():
    code = enumerate_code(EX_61I)
    text = render_code_export(code, "ring")
    lines = text.splitlines()
    assert lines[:3] == ["n=3", "size=16", "generators=3,3,3"]
    assert lines[3] == "0,0,0"
    assert len(lines) == 19
    digit_rows = [[d for tok in line.split(",")
                   for d in (RingElem.parse(tok).a, RingElem.parse(tok).b)]
                  for line in lines[3:]]
    assert digit_rows == sorted(digit_rows)
    dna_text = render_code_export(code, "dna")
    assert "AAAAAA" in dna_text.splitlines()
    gray_text = render_code_export(code, "gray")
    assert "000000000000" in gray_text.splitlines()
    both = render_code_export(enumerate_code(EX_61II), "ring")
    assert both.splitlines()[2] == "generators=3,3,3;u,u"
    with pytest.raises(ValueError):
        render_code_export(code, "csv")


def test_export_is_deterministic():
    a = render_code_export(enumerate_code(EX_61II), "ring")
    b = render_code_export(enumerate_code(EX_61II), "ring")
    assert a == b


def test_enumerate_length21_uses_wide_rows():
    # 2n = 42 digits exceeds the packed-key width, exercising the
    # row-wise dedup path end to end
    ones = Poly([1] * 21)
    assert poly_divmod(xn_minus_1(21), Poly.parse("3,1")) == (ones, Poly())
    gens = GeneratorSet(21, ones, ones)
    code = enumerate_code(gens)
    assert len(code) == 16
    assert set(code.words()) == {tuple([c] * 21) for c in ALL_ELEMENTS}
    assert code.is_dna_code()
    assert code.min_hamming_distance() == 21
    assert is_quasi_cyclic_index4(code.gray_words())
    assert words_of([(3, 3)] * 21) in code
    assert words_of([(1, 0)] + [(3, 3)] * 20) not in code


def test_membership_and_word_round_trip():
    code = enumerate_code(EX_61I)
    for w in code.words():
        assert w in code
    assert words_of([1, 0, 0]) not in code
    # a zero word of another length is not a word of the n=3 code
    assert words_of([0]) not in code
    assert words_of([0, 0, 0, 0]) not in code
    row = word_to_row(words_of([(2, 3), (0, 1), (3, 0)]))
    from z4udna.cyclic import row_to_word
    assert row_to_word(row) == words_of([(2, 3), (0, 1), (3, 0)])
