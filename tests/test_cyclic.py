"""Generator validation, enumeration, closure properties and exports."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_acceptance import _oracle_words
from z4udna import _dense
from z4udna.conditions import _divisor_lattice, _random_instance
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
    row_to_word,
    validate,
    word_from_poly,
    word_to_row,
)
from z4udna.errors import CapExceeded, InvalidGenerators, LengthMismatch, TrivialCode
from z4udna.poly import Poly, divides, factor_xn_minus_1_z4, poly_divmod, xn_minus_1
from z4udna.ring import ADD, ALL_ELEMENTS, COMPLEMENT, RingElem

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


def test_validate_divides_the_chain_literally():
    # reduced mod x^3 - 1, f1 = x^3 - 1 is 0, which every polynomial divides
    x3 = xn_minus_1(3)
    for small in (Poly.parse("1,0,0,0,0,1"), Poly.parse("2,1")):  # x^5 + 1, x + 2
        assert validate(GeneratorSet(3, x3, small)) == ["f2 does not divide f1"]
        assert validate(GeneratorSet(3, G2_3, G2_3, Poly(), x3, small)) == [
            "f4 does not divide f3"]
    assert validate(GeneratorSet(3, x3, x3)) == []
    assert validate(GeneratorSet(3, x3, G2_3, Poly(), x3, Poly.parse("3,1"))) == []


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


def test_cap_bounds_memory_of_wide_rows():
    # n = 21 packs words into Python-int keys; merging one translate at a
    # time keeps the set near the cap instead of materialising all 16
    # translates of it
    x_minus_1 = Poly.parse("3,1")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            enumerate_code(GeneratorSet(21, x_minus_1, x_minus_1), cap=1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


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
            vectors.append(roll_rows(base.reshape(1, -1), i)[0])
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
    assert len(set(code.gray_words())) == len(code)


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
    # n = 21 symbols exceeds the 16 symbols of a uint64 key, so the words
    # are Python-int keys end to end
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


def test_enumerate_length73_constant_code():
    # 73 symbols make a 292-bit key, far past one uint64
    ones = Poly([1] * 73)
    assert poly_divmod(xn_minus_1(73), Poly.parse("3,1")) == (ones, Poly())
    code = enumerate_code(GeneratorSet(73, ones, ones))
    assert len(code) == 16
    assert words_of([(3, 3)] * 73) in code
    assert words_of([(3, 3)] * 72 + [(3, 2)]) not in code
    assert code.is_dna_code()
    assert code.min_hamming_distance() == 73


def test_membership_and_word_round_trip():
    code = enumerate_code(EX_61I)
    for w in code.words():
        assert w in code
    assert words_of([1, 0, 0]) not in code
    # a zero word of another length is not a word of the n=3 code
    assert words_of([0]) not in code
    assert words_of([0, 0, 0, 0]) not in code
    row = word_to_row(words_of([(2, 3), (0, 1), (3, 0)]))
    assert list(row) == [11, 1, 12]
    assert row_to_word(row) == words_of([(2, 3), (0, 1), (3, 0)])


def test_from_words_rejects_words_of_another_length():
    with pytest.raises(LengthMismatch):
        Code.from_words(3, [words_of([0, 0, 0, 0]), words_of([1, 0, 0, 0])])
    with pytest.raises(LengthMismatch):
        Code.from_words(3, [words_of([0, 0, 0]), words_of([1, 0])])


# ---------------------------------------------------------------------------
# Symbol-row kernels against RingElem reference code
# ---------------------------------------------------------------------------

# both sides of the 16-symbol packed-key limit of _dense
LENGTHS = (1, 3, 15, 16, 17, 21)

elements = st.builds(RingElem, st.integers(0, 3), st.integers(0, 3))


@st.composite
def word_lists(draw, max_words=12, lengths=LENGTHS):
    n = draw(st.sampled_from(lengths))
    word = st.lists(elements, min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(word, min_size=1, max_size=max_words))


def _rows(words):
    return np.stack([word_to_row(w) for w in words])


def _words(rows):
    return [row_to_word(row) for row in rows]


def _key_words(keys, n):
    return _words(_dense.unpack(keys, n))


def _sorted_set(words):
    """Distinct words in canonical order: by the (a, b) pairs of the symbols."""
    return sorted(set(words), key=lambda w: [(c.a, c.b) for c in w])


# Word maps on symbol rows: the reference for the key maps of _dense.

def roll_rows(rows, shift=1):
    """Cyclic shift by ``shift`` symbols (right rotation for +1)."""
    return np.roll(rows, shift, axis=1)


def reverse_rows(rows):
    return rows[:, ::-1]


_COMPLEMENT = np.frombuffer(COMPLEMENT, dtype=np.uint8)


def complement_rows(rows):
    """(1+u) - x symbolwise."""
    return _COMPLEMENT[rows]


def rc_rows(rows):
    return reverse_rows(complement_rows(rows))


@settings(max_examples=80, deadline=None)
@given(word_lists())
def test_canonical_sorts_by_symbol_pairs(case):
    n, words = case
    assert _key_words(_dense.canonical(_rows(words)), n) == _sorted_set(words)


@settings(max_examples=80, deadline=None)
@given(word_lists(), st.integers(-25, 25))
def test_row_maps_match_word_maps(case, shift):
    n, words = case
    rows = _rows(words)
    assert _words(complement_rows(rows)) == [complement_word(w) for w in words]
    assert _words(reverse_rows(rows)) == [reverse_word(w) for w in words]
    assert _words(rc_rows(rows)) == [reverse_complement(w) for w in words]
    shifted = words
    for _ in range(shift % n):
        shifted = [cyclic_shift(w) for w in shifted]
    assert _words(roll_rows(rows, shift)) == shifted


# the key types' sides at 16/17 symbols (16 is where reversal shifts by 0)
# and past 64 bits
KEY_LENGTHS = LENGTHS + (80,)

_KEY_MAPS = {
    "roll": (_dense.roll_keys, cyclic_shift),
    "reverse": (_dense.reverse_keys, reverse_word),
    "complement": (_dense.complement_keys, complement_word),
    "rc": (_dense.rc_keys, reverse_complement),
}


def _distinct_symbols(n):
    return n, [tuple(ALL_ELEMENTS[k % 16] for k in range(n))]


@pytest.mark.parametrize("name", sorted(_KEY_MAPS))
@settings(max_examples=60, deadline=None)
@given(word_lists(lengths=KEY_LENGTHS), st.integers(1, 25))
@example(_distinct_symbols(16), 1)
@example(_distinct_symbols(17), 1)
@example(_distinct_symbols(80), 1)
def test_key_maps_match_word_maps(name, case, times):
    key_map, word_map = _KEY_MAPS[name]
    n, words = case
    keys = _dense.pack(_rows(words))
    for _ in range(times):
        keys = key_map(keys, n)
        words = [word_map(w) for w in words]
    assert keys.dtype == _dense.pack(_rows(words)).dtype
    assert _key_words(keys, n) == words


@settings(max_examples=80, deadline=None)
@given(word_lists(max_words=1))
def test_scalar_orbit_is_every_multiple(case):
    # the span of one vector v is its orbit Rv under the 16 ring scalars
    n, (w,) = case
    multiples = [tuple(r * c for c in w) for r in ALL_ELEMENTS]
    keys = _dense.span_closure([word_to_row(w)], 16)
    assert _key_words(keys, n) == _sorted_set(multiples)


@settings(max_examples=80, deadline=None)
@given(word_lists(), st.data())
def test_translates_are_symbolwise_sums(case, data):
    n, words = case
    deltas = data.draw(st.lists(st.lists(elements, min_size=n, max_size=n).map(tuple),
                                min_size=1, max_size=4))
    expected = _sorted_set(tuple(x + y for x, y in zip(w, d))
                           for w in words for d in deltas)
    _, low, high = _dense._key_type(n)
    keys = _dense.canonical(_rows(words))
    translates = [_dense._add_keys(keys, d, low, high) for d in _dense.pack(_rows(deltas))]
    assert _key_words(np.unique(np.concatenate(translates)), n) == expected


@settings(max_examples=60, deadline=None)
@given(word_lists())
def test_min_distances_are_min_nonzero_weights(case):
    n, words = case
    words = [(RingElem(0),) * n] + words
    nonzero = [w for w in set(words) if any(w)]
    assume(nonzero)
    code = Code.from_words(n, words)
    assert code.min_hamming_distance() == min(sum(1 for c in w if c) for w in nonzero)
    assert code.min_lee_distance() == min(sum(c.lee_weight() for c in w) for w in nonzero)


def _multiples(g, n, limit):
    """{m*g mod x^n - 1 : every multiplier m}, one coefficient of m at a time,
    or None once the set holds more than ``limit`` words.

    After step i the set holds every sum of m_k x^k g over k <= i, so the
    last step holds all products m*g without listing the 16^n multipliers.
    The sets only grow, so a set past ``limit`` means the result is too.
    """
    base = word_from_poly(g, n)
    out = {(RingElem(0),) * n}
    for i in range(n):
        shifted = tuple(base[(k - i) % n] for k in range(n))  # x^i * g
        terms = [tuple(m * c for c in shifted) for m in ALL_ELEMENTS]  # m x^i g
        step = set()
        for word in out:
            step.update(tuple(s + t for s, t in zip(word, term)) for term in terms)
            if len(step) > limit:
                return None
        out = step
    return out


def _ideal_words(gens, limit=1 << 12):
    """The ideal as the set of all m_a*g_a + m_b*g_b, as in acceptance-09,
    or None once it is seen to hold more than ``limit`` words."""
    g_a, g_b = generator_polys(gens)
    words = _multiples(g_a, gens.n, limit)
    if words is None or g_b is None:
        return words
    others = _multiples(g_b, gens.n, limit)
    if others is None:
        return None
    out = set()
    for v in words:
        out.update(tuple(x + y for x, y in zip(v, w)) for w in others)
        if len(out) > limit:
            return None
    return out


def _small_instance(n, limit, rng):
    """A random generator tuple of length n whose code has at most ``limit``
    words, with its words; sized by the oracle so that no enumeration, and
    no cap of the code under test, decides which draws are kept."""
    lattice = _divisor_lattice(n)
    while True:
        gens = _random_instance(n, 2, lattice, rng)
        words = _ideal_words(gens, limit)
        if words is not None:
            return gens, words


def test_ideal_oracle_matches_acceptance_oracle():
    for gens in (EX_61I, EX_61II, GeneratorSet(3, Poly.parse("3,1"), Poly.parse("1"))):
        assert _ideal_words(gens) == _oracle_words(gens)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_enumerate_matches_oracle_on_small_length7_codes(seed):
    gens, words = _small_instance(7, 256, random.Random(seed))
    assert list(enumerate_code(gens, cap=256).words()) == _sorted_set(words)


def test_enumerate_matches_oracle_on_wide_rows():
    ones = Poly([1] * 21)
    gens = GeneratorSet(21, ones, ones)
    assert list(enumerate_code(gens).words()) == _sorted_set(_ideal_words(gens))


# ---------------------------------------------------------------------------
# Packed-key kernels of _dense against row arithmetic, at every key width
# ---------------------------------------------------------------------------

_ADD16 = np.frombuffer(ADD, dtype=np.uint8).reshape(16, 16)

# across the uint64/Python-int key boundary at 16/17 symbols and past 64
WIDE = st.integers(1, 80)


@st.composite
def rows_and_delta(draw, max_rows=12):
    width = draw(WIDE)
    cells = st.lists(st.integers(0, 15), min_size=width, max_size=width)
    rows = draw(st.lists(cells, min_size=1, max_size=max_rows))
    return np.array(rows, dtype=np.uint8), np.array(draw(cells), dtype=np.uint8)


@settings(max_examples=150, deadline=None)
@given(rows_and_delta())
@example((np.full((1, 16), 15, dtype=np.uint8), np.full(16, 15, dtype=np.uint8)))
@example((np.full((1, 17), 15, dtype=np.uint8), np.full(17, 15, dtype=np.uint8)))
@example((np.full((1, 80), 15, dtype=np.uint8), np.full(80, 15, dtype=np.uint8)))
def test_key_addition_is_symbolwise_ring_addition(case):
    # all-15 words set every bit of their keys, so every lane mask bit counts
    rows, d = case
    _, low, high = _dense._key_type(d.size)
    keys = _dense._add_keys(_dense.pack(rows), _dense.pack(d.reshape(1, -1))[0], low, high)
    assert np.array_equal(keys, _dense.pack(_ADD16[rows, d]))
    assert np.array_equal(_dense.unpack(keys, d.size), _ADD16[rows, d])


_KEY_MAP_FUNCTIONS = tuple(key_map for key_map, _ in _KEY_MAPS.values())


@settings(max_examples=80, deadline=None)
@given(rows_and_delta(), st.sampled_from(_KEY_MAP_FUNCTIONS))
def test_same_set_agrees_with_canonical_comparison(case, key_map):
    rows, _ = case
    width = rows.shape[1]
    # the union of all images is closed under the map, so both answers occur
    closed = _dense.canonical(rows)
    for _ in range(width):
        closed = np.union1d(closed, key_map(closed, width))
    for keys in (_dense.canonical(rows), closed):
        image = key_map(keys, width)
        assert _dense.same_set(keys, image) == np.array_equal(keys, np.unique(image))
        as_rows = set(map(bytes, _dense.unpack(keys, width)))
        assert _dense.same_set(keys, image) == (
            as_rows == set(map(bytes, _dense.unpack(image, width))))
    assert _dense.same_set(closed, key_map(closed, width))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from((3, 7)), st.integers(0, 2**32 - 1))
def test_key_span_closure_matches_oracle_on_shuffled_vectors(n, seed):
    rng = random.Random(seed)
    gens, words = _small_instance(n, 128, rng)
    expected = _sorted_set(words)
    vectors = [word_to_row(word_from_poly(g.shift(i), n))
               for g in generator_polys(gens) if g is not None for i in range(n)]
    rng.shuffle(vectors)
    sizes = [1] + [_dense.span_closure(vectors[:j], 1 << 20).size
                   for j in range(1, len(vectors) + 1)]
    # S + Rv is |S + Rv| / |S| cosets of S, and S is already there: a
    # multiple whose coset the union holds is not merged
    merged = []
    add_keys = _dense._add_keys

    def counted(keys, d, *masks):
        merged.append(d)
        return add_keys(keys, d, *masks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_dense, "_add_keys", counted)
        keys = _dense.span_closure(vectors, len(expected))
    assert _key_words(keys, n) == expected
    assert len(merged) == sum(after // before - 1 for before, after in zip(sizes, sizes[1:]))
    if len(expected) > 1:
        # the cap fires on the merge that first passes it, the last one
        full = len(merged)
        merged.clear()
        with pytest.MonkeyPatch.context() as patch, pytest.raises(CapExceeded):
            patch.setattr(_dense, "_add_keys", counted)
            _dense.span_closure(vectors, len(expected) - 1)
        assert len(merged) == full


def test_span_closure_skips_vectors_already_in_the_span(monkeypatch):
    # R*v adds nothing when v is in the span, so the set is not translated
    calls = []
    add_keys = _dense._add_keys

    def counted(keys, d, *masks):
        calls.append(d)
        return add_keys(keys, d, *masks)

    monkeypatch.setattr(_dense, "_add_keys", counted)
    v = word_to_row(words_of([1, 2, 3, 0, 5]))
    _dense.span_closure([v], 1 << 20)
    alone = len(calls)
    calls.clear()
    keys = _dense.span_closure([v, _dense._MUL16[2, v], v, _dense._MUL16[5, v]], 1 << 20)
    assert len(calls) == alone and len(keys) == 16
