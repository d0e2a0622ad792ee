"""Generator validation, enumeration, closure properties and exports."""

import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    all_multiplier_words,
    closed_under,
    complement_word,
    coeffs,
    cyclic_shift,
    ideal_words,
    ref_divmod,
    reverse_complement,
    reverse_word,
    word_from_poly,
    words,
)
from z4udna import _dense, dna
from z4udna.conditions import _divisor_lattice, _exhaustive_instances, _random_instance
from z4udna.cyclic import (
    Code,
    GeneratorSet,
    enumerate_code,
    generator_polys,
    is_quasi_cyclic_index4,
    render_code_export,
    validate,
    word_to_row,
)
from z4udna.errors import CapExceeded, InvalidGenerators, LengthMismatch, TrivialCode
from z4udna.poly import Poly, divides, factor_xn_minus_1_z4, poly_divmod, xn_minus_1
from z4udna.ring import ADD, ALL_ELEMENTS, GRAY, RingElem

R = RingElem
G2_3 = Poly.parse("1,1,1")
EX_61I = GeneratorSet(3, G2_3, G2_3)
EX_61II = GeneratorSet(3, G2_3, G2_3, Poly(), Poly.parse("3,1"), Poly.parse("1"))
ZERO_3 = GeneratorSet(3, xn_minus_1(3), xn_minus_1(3))
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


@functools.cache
def lattice(n):
    return _divisor_lattice(n)


def ref_problems(gens):
    """What ``validate`` lists for a tuple of odd length, with every
    division made by ``ref_divmod`` on coefficient lists."""
    n, one = gens.n, R(1)
    modulus = (R(3),) + (R(0),) * (n - 1) + (one,)
    problems = []

    def chain(small, big):
        low, high = coeffs(getattr(gens, small)), coeffs(getattr(gens, big))
        problems.extend(f"{name} must be monic" for name, f in ((small, low), (big, high))
                        if f[-1:] != (one,))
        if high[-1:] == (one,) and ref_divmod(modulus, high)[1]:
            problems.append(f"{big} does not divide x^{n}-1")
        if low[-1:] == (one,) and ref_divmod(high, low)[1]:
            problems.append(f"{small} does not divide {big}")

    chain("f2", "f1")
    if (gens.f3 is None) != (gens.f4 is None):
        problems.append("f3 and f4 must be given together")
    elif gens.f3 is not None:
        chain("f4", "f3")
    if not gens.f14.is_zero and gens.f14.degree >= n:
        problems.append("f14 must have degree < n")
    return problems


@st.composite
def lattice_chain(draw, n):
    """A chain small | big | x^n - 1 from the divisor lattice, either
    polynomial sometimes perturbed by one term c*x^k, k <= its degree, so
    that it may not divide, or may not be monic."""
    divisors = lattice(n)
    big = draw(st.integers(0, len(divisors) - 1))
    small = big & draw(st.integers(0, len(divisors) - 1))

    def perturbed(f):
        k = draw(st.integers(0, f.degree))
        term = Poly([draw(st.sampled_from(ALL_ELEMENTS))]).shift(k)
        return draw(st.sampled_from((f, f + term)))

    return perturbed(divisors[small]), perturbed(divisors[big])


@st.composite
def lattice_tuples(draw):
    n = draw(st.sampled_from((7, 15, 21, 63)))
    f2, f1 = draw(lattice_chain(n))
    f14 = Poly(draw(st.lists(st.sampled_from(ALL_ELEMENTS), max_size=n + 1)))
    f4, f3 = draw(st.sampled_from(((None, None), draw(lattice_chain(n)))))
    if draw(st.booleans()) and f3 is not None:  # a lone f3 or f4
        f3, f4 = draw(st.sampled_from(((f3, None), (None, f4))))
    return GeneratorSet(n, f1, f2, f14, f3, f4)


@settings(deadline=None)
@given(lattice_tuples())
def test_validate_matches_reference_division_on_lattice_chains(gens):
    assert validate(gens) == ref_problems(gens)


@pytest.mark.parametrize("fields, problems", [
    (("1,1,2", "2", "0,0,0,1", "0,1,1", "3,1"),
     ["f2 must be monic", "f1 must be monic", "f3 does not divide x^3-1",
      "f4 does not divide f3", "f14 must have degree < n"]),
    (("0,1", "2,1", "1,0,0,2", "1,1,2", "2,1"),
     ["f1 does not divide x^3-1", "f2 does not divide f1", "f3 must be monic",
      "f4 does not divide f3", "f14 must have degree < n"]),
    (("3,1", "2", "0,1,2,3,1", "1,1,1", None),
     ["f2 must be monic", "f3 and f4 must be given together",
      "f14 must have degree < n"]),
])
def test_validate_lists_every_problem_in_order(fields, problems):
    """Both chains in turn, each as: small, then big, not monic; big does
    not divide x^n - 1; small does not divide big; then the f3/f4 pairing
    and last f14, every problem once."""
    f1, f2, f14, f3, f4 = (None if f is None else Poly.parse(f) for f in fields)
    assert validate(GeneratorSet(3, f1, f2, f14, f3, f4)) == problems


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
    assert set(words(code)) == expected
    assert code.generators == (Poly.parse("3,3,3"),)


def test_enumerate_zero_code():
    code = enumerate_code(ZERO_3)
    assert set(words(code)) == {words_of([0, 0, 0])}


def test_enumerate_length7():
    code = enumerate_code(EX_62)
    assert len(code) == 16
    assert code.min_hamming_distance() == 7


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_code(GeneratorSet(3, Poly.parse("1"), Poly.parse("1")), cap=100)
    with pytest.raises(ValueError, match="^cap must be >= 1$"):
        enumerate_code(EX_61I, cap=0)


@pytest.mark.parametrize("gens, size", [
    (EX_61I, 16),
    (EX_61II, 256),
    (GeneratorSet(7, Poly.parse("3,0,0,0,0,0,0,1"), Poly.parse("3,1,2,1")), 256),
    (GeneratorSet(7, G27, G27, Poly(), Poly.parse("3,1,2,1"), Poly.parse("3,1,2,1")), 1024),
    (GeneratorSet(21, Poly([1] * 21), Poly([1] * 21)), 16),
], ids=["n3-single", "n3-double", "n7-single", "n7-double", "n21"])
def test_cap_is_exact_at_the_code_size(gens, size):
    with pytest.raises(CapExceeded, match=f"^code grew past cap={size - 1}$"):
        enumerate_code(gens, cap=size - 1)
    assert len(enumerate_code(gens, cap=size)) == size


def test_no_merge_builds_a_set_past_the_cap(monkeypatch):
    # a new coset S + d is disjoint from the running union and holds |S|
    # words, so the cap is decided before the merge that would pass it
    cap = 1 << 16
    merges = []
    union1d = np.union1d

    def recorded(acc, translate):
        union = union1d(acc, translate)
        merges.append((acc.size, translate.size, union.size))
        return union

    monkeypatch.setattr(np, "union1d", recorded)
    rng = random.Random(14)
    lattice = _divisor_lattice(7)
    over_cap = 0
    while over_cap < 4:
        try:
            enumerate_code(_random_instance(7, 2, lattice, rng), cap)
        except CapExceeded:
            over_cap += 1
    x_minus_1 = Poly.parse("3,1")
    with pytest.raises(CapExceeded):
        enumerate_code(GeneratorSet(21, x_minus_1, x_minus_1), cap)
    assert merges
    assert all(union == size + coset for size, coset, union in merges)
    assert max(union for _, _, union in merges) <= cap


def test_span_closure_rejects_a_merge_that_is_not_one_whole_coset(monkeypatch):
    union1d = np.union1d
    monkeypatch.setattr(np, "union1d", lambda acc, translate: union1d(acc, translate)[1:])
    with pytest.raises(RuntimeError, match="did not add one whole coset"):
        enumerate_code(EX_61I)


def test_cap_bounds_memory_of_wide_rows():
    # n = 21 packs words into two-word np.void keys; one translate is merged
    # at a time and the cap is decided before each merge, so no set larger
    # than the cap is built, let alone all 16 translates of it
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
        return np.stack([word_to_row(words_of([0, 0, 0])), word_to_row(words_of([1, 0, 0]))])

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
        ws = words(code)
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
    # 2*(1 + x + x^2) spans {0, 2θ, 2uθ, (2+2u)θ}, θ the all-ones word
    twos = enumerate_code(GeneratorSet(3, xn_minus_1(3), Poly.parse("1,1,1")))
    assert len(twos) == 4
    assert twos.min_lee_distance() == 6
    assert twos.min_hamming_distance() == 3
    zero = enumerate_code(ZERO_3)
    with pytest.raises(TrivialCode):
        zero.min_hamming_distance()


def test_closure_predicates():
    code = enumerate_code(EX_61I)
    assert code.is_rc_closed()
    assert code.is_reversible()
    assert code.is_complement_closed()
    assert code.is_dna_code()
    zero = enumerate_code(ZERO_3)
    # reversal fixes the zero word, but its complement is the all-(1+u) word
    assert zero.is_reversible()
    assert not zero.is_complement_closed()
    assert not zero.is_rc_closed()
    assert not zero.is_dna_code()
    # 2*(x^3 + x + 1) spans 2 times the binary Hamming code of x^3 + x + 1,
    # whose reversal is the code of x^3 + x^2 + 1
    twos = enumerate_code(GeneratorSet(7, xn_minus_1(7), Poly.parse("3,1,2,1")))
    assert not twos.is_reversible()


def test_gray_image():
    zero = enumerate_code(ZERO_3)
    assert zero.gray_words() == ["0" * 12]
    code = enumerate_code(EX_61I)
    assert code.gray_words() == ["".join(GRAY[c.index] for c in w) for w in words(code)]
    assert "011101110111" in code.gray_words()  # (1+u, 1+u, 1+u)
    assert len(set(code.gray_words())) == len(code)


def test_quasi_cyclic_index4():
    code = enumerate_code(EX_61I)
    assert is_quasi_cyclic_index4(code.gray_words())
    assert is_quasi_cyclic_index4({"0" * 12})
    assert is_quasi_cyclic_index4([])
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
    # n = 21 symbols exceeds the 16 symbols of one 64-bit key word, so the
    # words are two-word np.void keys end to end
    ones = Poly([1] * 21)
    assert poly_divmod(xn_minus_1(21), Poly.parse("3,1")) == (ones, Poly())
    gens = GeneratorSet(21, ones, ones)
    code = enumerate_code(gens)
    assert len(code) == 16
    assert set(words(code)) == {tuple([c] * 21) for c in ALL_ELEMENTS}
    assert code.is_dna_code()
    assert code.min_hamming_distance() == 21
    assert is_quasi_cyclic_index4(code.gray_words())
    assert words_of([(3, 3)] * 21) in code
    assert words_of([(1, 0)] + [(3, 3)] * 20) not in code


def test_enumerate_length73_constant_code():
    # 73 symbols make a key of five 64-bit words
    ones = Poly([1] * 73)
    assert poly_divmod(xn_minus_1(73), Poly.parse("3,1")) == (ones, Poly())
    code = enumerate_code(GeneratorSet(73, ones, ones))
    assert len(code) == 16
    assert words_of([(3, 3)] * 73) in code
    assert words_of([(3, 3)] * 72 + [(3, 2)]) not in code
    assert code.is_dna_code()
    assert code.min_hamming_distance() == 73


@pytest.mark.parametrize("n", [33, 63])
def test_enumerate_multiword_keys_matches_the_multiples_of_g(n):
    # 33 symbols are the first length whose key takes three 64-bit words.
    # g = (x^n - 1)/(x^2 + x + 1) generates the ideal of the multiples
    # m*g with deg m <= 1, 256 words, built here from Poly products
    g = Poly.parse(",".join(["3,1,0"] * (n // 3 - 1) + ["3,1"]))
    assert poly_divmod(xn_minus_1(n), Poly.parse("1,1,1")) == (g, Poly())
    expected = {word_from_poly(Poly([m0, m1]) * g, n)
                for m0 in ALL_ELEMENTS for m1 in ALL_ELEMENTS}
    assert len(expected) == 256
    assert words(enumerate_code(GeneratorSet(n, g, g))) == _sorted_set(expected)


def test_membership_and_word_to_row():
    code = enumerate_code(EX_61I)
    for w in words(code):
        assert w in code
    assert words_of([1, 0, 0]) not in code
    # a zero word of another length is not a word of the n=3 code
    assert words_of([0]) not in code
    assert words_of([0, 0, 0, 0]) not in code
    row = word_to_row(words_of([(2, 3), (0, 1), (3, 0)]))
    assert list(row) == [11, 1, 12]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 2**32 - 1), st.data())
def test_membership_matches_the_ideal_oracle(n, seed, data):
    # lattice tuples whose ideal the oracle lists in at most 4096 words;
    # each probe is a word of the ideal or any word of length n
    gens, ideal = _small_instance(n, 4096, random.Random(seed))
    code = enumerate_code(gens)
    probe = (st.sampled_from(_sorted_set(ideal))
             | st.lists(elements, min_size=n, max_size=n).map(tuple))
    for w in data.draw(st.lists(probe, min_size=1, max_size=16)):
        assert (w in code) == (w in ideal)


# ---------------------------------------------------------------------------
# Symbol-row kernels against RingElem reference code
# ---------------------------------------------------------------------------

# both sides of the one-, two- and three-word key boundaries of _dense
# (16/17 and 32/33 symbols)
LENGTHS = (1, 3, 15, 16, 17, 21, 32, 33)

elements = st.builds(RingElem, st.integers(0, 3), st.integers(0, 3))


@st.composite
def word_lists(draw, max_words=12, lengths=LENGTHS):
    n = draw(st.sampled_from(lengths))
    word = st.lists(elements, min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(word, min_size=1, max_size=max_words))


def _rows(words):
    return np.stack([word_to_row(w) for w in words])


def _words(rows):
    return words(Code(rows.shape[1], rows, ()))


def _sorted_set(words):
    """Distinct words in canonical order: by the (a, b) pairs of the symbols."""
    return sorted(set(words), key=lambda w: [(c.a, c.b) for c in w])


# Word maps on symbol rows, checked against the word maps of oracles.

def roll_rows(rows, shift=1):
    """Cyclic shift by ``shift`` symbols (right rotation for +1)."""
    return np.roll(rows, shift, axis=1)


def reverse_rows(rows):
    return rows[:, ::-1]


_COMPLEMENT = np.array([x.complement().index for x in ALL_ELEMENTS], dtype=np.uint8)


def complement_rows(rows):
    """(1+u) - x symbolwise."""
    return _COMPLEMENT[rows]


def rc_rows(rows):
    return reverse_rows(complement_rows(rows))


@settings(max_examples=80, deadline=None)
@given(word_lists())
def test_canonical_sorts_by_symbol_pairs(case):
    n, words = case
    assert _words(_dense._unpack(np.unique(_dense._pack(_rows(words))), n)) == _sorted_set(words)


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


@settings(max_examples=80, deadline=None)
@given(word_lists(max_words=1))
def test_scalar_orbit_is_every_multiple(case):
    # the span of one vector v is its orbit Rv under the 16 ring scalars
    n, (w,) = case
    multiples = [tuple(r * c for c in w) for r in ALL_ELEMENTS]
    rows = _dense.span_closure([word_to_row(w)], 16)
    assert _words(rows) == _sorted_set(multiples)


@settings(max_examples=80, deadline=None)
@given(word_lists(), st.data())
def test_translates_are_symbolwise_sums(case, data):
    n, words = case
    deltas = data.draw(st.lists(st.lists(elements, min_size=n, max_size=n).map(tuple),
                                min_size=1, max_size=4))
    expected = _sorted_set(tuple(x + y for x, y in zip(w, d))
                           for w in words for d in deltas)
    keys = np.unique(_dense._pack(_rows(words)))
    d_low, d_high = _dense._lanes(_dense._pack(_rows(deltas)))
    translates = [_dense._add_keys(_dense._lanes(keys), d, keys.dtype)
                  for d in zip(d_low, d_high)]
    assert _words(_dense._unpack(np.unique(np.concatenate(translates)), n)) == expected


def _small_instance(n, limit, rng):
    """A random generator tuple of length n whose code has at most ``limit``
    words, with its words; sized by the oracle so that no enumeration, and
    no cap of the code under test, decides which draws are kept."""
    lattice = _divisor_lattice(n)
    while True:
        gens = _random_instance(n, 2, lattice, rng)
        words = ideal_words(gens, limit)
        if words is not None:
            return gens, words


@pytest.mark.parametrize("n", [3, 5, 7])
def test_min_distances_match_pairwise_reference(n):
    # The weight path of Code and the pair scan of dna, against the minimum
    # over distinct pairs of oracle words of the weights of x - y.
    rng = random.Random(n)
    for _ in range(7):
        gens, words = _small_instance(n, 64, rng)
        code = enumerate_code(gens)
        assert len(code) == len(words)
        diffs = [[x - y for x, y in zip(a, b)] for a, b in itertools.combinations(words, 2)]
        if not diffs:
            with pytest.raises(TrivialCode):
                code.min_hamming_distance()
            continue
        expected = {"hamming": min(sum(1 for c in d if c) for d in diffs),
                    "lee": min(sum(c.lee_weight() for c in d) for d in diffs)}
        assert code.min_hamming_distance() == expected["hamming"]
        assert code.min_lee_distance() == expected["lee"]
        for metric, value in expected.items():
            assert dna.min_ring_distance(code.dna_words(), metric) == value


def test_ideal_oracle_matches_acceptance_oracle():
    for gens in (EX_61I, EX_61II, GeneratorSet(3, Poly.parse("3,1"), Poly.parse("1"))):
        assert ideal_words(gens) == all_multiplier_words(gens)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_enumerate_matches_oracle_on_small_length7_codes(seed):
    gens, expected = _small_instance(7, 256, random.Random(seed))
    assert words(enumerate_code(gens, cap=256)) == _sorted_set(expected)


def test_enumerate_matches_oracle_on_wide_rows():
    ones = Poly([1] * 21)
    gens = GeneratorSet(21, ones, ones)
    assert words(enumerate_code(gens)) == _sorted_set(ideal_words(gens))


# ---------------------------------------------------------------------------
# Closure predicates, answered from the generators, against the word set
# ---------------------------------------------------------------------------

def _closure_answers(words, reverse, complement, rc):
    """What each closure predicate of Code must answer on the whole word
    set, given the set's three word maps."""
    rc_closed = closed_under(words, rc)
    return {"is_reversible": closed_under(words, reverse),
            "is_complement_closed": closed_under(words, complement),
            "is_rc_closed": rc_closed,
            "is_dna_code": rc_closed and all(rc(w) != w for w in words)}


def _mismatches(code, answers):
    return [name for name, answer in answers.items() if getattr(code, name)() != answer]


@settings(max_examples=16, deadline=None)
@given(st.sampled_from((3, 5, 7, 9)), st.integers(0, 2**32 - 1))
def test_closure_predicates_match_the_word_set(n, seed):
    gens, words = _small_instance(n, 64, random.Random(seed))
    answers = _closure_answers(words, reverse_word, complement_word, reverse_complement)
    assert _mismatches(enumerate_code(gens), answers) == []


def _row_bytes(rows):
    """Each row as one bytes word."""
    data, n = np.ascontiguousarray(rows).tobytes(), rows.shape[1]
    return [data[i:i + n] for i in range(0, len(data), n)]


def test_closure_predicates_match_row_maps_on_the_length3_lattice():
    # all 1440 tuples at n = 3 with f14 of degree <= 1, codes of 1 to 4096
    # words, each word set mapped whole by the row maps
    mismatches, seen = [], set()
    for gens in _exhaustive_instances(3, 1):
        code = enumerate_code(gens)
        rows = code.rows
        words = _row_bytes(rows)
        maps = [dict(zip(words, _row_bytes(row_map(rows)))).__getitem__
                for row_map in (reverse_rows, complement_rows, rc_rows)]
        answers = _closure_answers(words, *maps)
        mismatches += [(gens, name) for name in _mismatches(code, answers)]
        seen.add(tuple(answers.values()))
    assert mismatches == []
    # every code of length 3 is reversible; the other predicates answer
    # both ways
    assert {answers[0] for answers in seen} == {True}
    assert all(len(set(column)) == 2 for column in list(zip(*seen))[1:])


@pytest.mark.parametrize("gens, holds", [
    (GeneratorSet(21, Poly([1] * 21), Poly([1] * 21)), True),
    (GeneratorSet(73, Poly([1] * 73), Poly([1] * 73)), True),
    # a 16-word code with a generator whose reversal is not a word
    (GeneratorSet(7, xn_minus_1(7), xn_minus_1(7), Poly(), xn_minus_1(7),
                  Poly.parse("3,1,2,1")), False),
], ids=["n21-constant", "n73-constant", "n7-not-reversible"])
def test_closure_predicates_match_the_word_set_on_named_codes(gens, holds):
    answers = _closure_answers(ideal_words(gens), reverse_word, complement_word,
                               reverse_complement)
    assert answers["is_reversible"] == holds
    assert _mismatches(enumerate_code(gens), answers) == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_no_odd_length_word_is_its_own_reverse_complement(data):
    # a word of length 2k + 1 whose last k symbols mirror its first k is as
    # near as one gets: its middle symbol x would still need (1+u) - x = x,
    # that is 2x = 1+u, and 2x has an even Z4 part
    k = data.draw(st.integers(0, 20))
    half = st.lists(elements, min_size=k, max_size=k).map(tuple)
    left, middle = data.draw(half), data.draw(elements)
    right = data.draw(st.one_of(st.just(reverse_complement(left)), half))
    word = left + (middle,) + right
    assert reverse_complement(word) != word


# ---------------------------------------------------------------------------
# The rows of a Code: binary-search lookup and shift closure, at every width
# ---------------------------------------------------------------------------

# both sides of the one-, two- and three-word key boundaries of _dense,
# and past 64
ROW_WIDTHS = (1, 2, 3, 15, 16, 17, 21, 32, 33, 63, 80)


@st.composite
def row_sets(draw, max_rows=24):
    """Sorted, distinct rows of one width, as a Code stores them."""
    width = draw(st.sampled_from(ROW_WIDTHS))
    cells = st.lists(st.integers(0, 15), min_size=width, max_size=width)
    rows = np.array(draw(st.lists(cells, min_size=1, max_size=max_rows)), dtype=np.uint8)
    return np.unique(rows, axis=0)


def _rolled_set_is_the_set(rows):
    return set(map(bytes, roll_rows(rows))) == set(map(bytes, rows))


@settings(max_examples=150, deadline=None)
@given(row_sets(), st.data())
def test_row_lookup_finds_each_row_and_rejects_rows_one_symbol_off(rows, data):
    width = rows.shape[1]
    code = Code(width, rows, ())
    held = set(map(bytes, rows))
    assert all(w in code for w in words(code))
    for row in rows:
        off = row.copy()
        k = data.draw(st.integers(0, width - 1))
        off[k] = (off[k] + data.draw(st.integers(1, 15))) % 16
        assert (_words(off[None])[0] in code) == (bytes(off) in held)
    assert code.is_shift_closed() == _rolled_set_is_the_set(rows)


@settings(max_examples=80, deadline=None)
@given(row_sets())
def test_shift_closure_agrees_with_set_comparison(rows):
    width = rows.shape[1]
    # the union of all rolls is shift-closed, so both answers occur
    closed = np.unique(np.concatenate([roll_rows(rows, i) for i in range(width)]), axis=0)
    for each in (rows, closed):
        assert Code(width, each, ()).is_shift_closed() == _rolled_set_is_the_set(each)
    assert Code(width, closed, ()).is_shift_closed()


# ---------------------------------------------------------------------------
# Packed-key kernels of _dense against row arithmetic, at every key width
# ---------------------------------------------------------------------------

_ADD16 = np.frombuffer(ADD, dtype=np.uint8).reshape(16, 16)

# across every 64-bit word boundary of a key (16/17, 32/33, 48/49 and
# 64/65 symbols) and past it
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
@example((np.full((1, 32), 15, dtype=np.uint8), np.full(32, 15, dtype=np.uint8)))
@example((np.full((1, 33), 15, dtype=np.uint8), np.full(33, 15, dtype=np.uint8)))
@example((np.full((1, 48), 15, dtype=np.uint8), np.full(48, 15, dtype=np.uint8)))
@example((np.full((1, 49), 15, dtype=np.uint8), np.full(49, 15, dtype=np.uint8)))
@example((np.full((1, 64), 15, dtype=np.uint8), np.full(64, 15, dtype=np.uint8)))
@example((np.full((1, 65), 15, dtype=np.uint8), np.full(65, 15, dtype=np.uint8)))
@example((np.full((1, 80), 15, dtype=np.uint8), np.full(80, 15, dtype=np.uint8)))
def test_key_addition_is_symbolwise_ring_addition(case):
    # all-15 words set every bit of their keys, so every lane mask bit counts
    rows, d = case
    keys = _dense._pack(rows)
    d_lanes = _dense._lanes(_dense._pack(d.reshape(1, -1)))
    keys = _dense._add_keys(_dense._lanes(keys), d_lanes, keys.dtype)
    assert np.array_equal(keys, _dense._pack(_ADD16[rows, d]))
    assert np.array_equal(_dense._unpack(keys, d.size), _ADD16[rows, d])


@settings(max_examples=15, deadline=None)
@given(st.sampled_from((3, 7)), st.integers(0, 2**32 - 1))
def test_key_span_closure_matches_oracle_on_shuffled_vectors(n, seed):
    rng = random.Random(seed)
    gens, words = _small_instance(n, 128, rng)
    expected = _sorted_set(words)
    vectors = [word_to_row(word_from_poly(g.shift(i), n))
               for g in generator_polys(gens) if g is not None for i in range(n)]
    rng.shuffle(vectors)
    sizes = [1] + [len(_dense.span_closure(vectors[:j], 1 << 20))
                   for j in range(1, len(vectors) + 1)]
    # S + Rv is |S + Rv| / |S| cosets of S, and S is already there: a
    # multiple whose coset the union holds is not merged
    merged = []
    add_keys = _dense._add_keys

    def counted(lanes, d, dtype):
        merged.append(d)
        return add_keys(lanes, d, dtype)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_dense, "_add_keys", counted)
        rows = _dense.span_closure(vectors, len(expected))
    assert _words(rows) == expected
    assert len(merged) == sum(after // before - 1 for before, after in zip(sizes, sizes[1:]))
    if len(expected) > 1:
        # the cap fires before the merge that would first pass it, the last
        # one, so that coset is never translated
        full = len(merged)
        merged.clear()
        with pytest.MonkeyPatch.context() as patch, pytest.raises(CapExceeded):
            patch.setattr(_dense, "_add_keys", counted)
            _dense.span_closure(vectors, len(expected) - 1)
        assert len(merged) == full - 1


def test_span_closure_skips_vectors_already_in_the_span(monkeypatch):
    # R*v adds nothing when v is in the span, so the set is not translated
    calls = []
    add_keys = _dense._add_keys

    def counted(lanes, d, dtype):
        calls.append(d)
        return add_keys(lanes, d, dtype)

    monkeypatch.setattr(_dense, "_add_keys", counted)
    v = word_to_row(words_of([1, 2, 3, 0, 5]))
    _dense.span_closure([v], 1 << 20)
    alone = len(calls)
    calls.clear()
    rows = _dense.span_closure([v, _dense._MUL16[2, v], v, _dense._MUL16[5, v]], 1 << 20)
    assert len(calls) == alone and len(rows) == 16
