"""End-to-end acceptance checks.

Each test prints one pass/fail line (run with ``pytest -s`` to see them);
every expected value below is exact.  Reference figures that the errata
protocol audits are kept in ``CATALOG_*`` constants: the enumeration is
ground truth and mismatches are reported, not hidden.
"""

import itertools
import random
import time

from z4udna import dna
from z4udna.conditions import (
    check_rc_single,
    check_reversible_double,
    check_reversible_single,
    sweep,
)
from z4udna.cyclic import (
    GeneratorSet,
    enumerate_code,
    generator_polys,
    is_quasi_cyclic_index4,
    word_from_poly,
)
from z4udna.poly import (
    Poly,
    divides,
    factor_xn_minus_1_z4,
    reciprocal,
    xn_minus_1,
)
from z4udna.ring import ALL_ELEMENTS, RingElem, UNITS, theta

ONE_PLUS_U = RingElem(1, 1)
WCC = {"A": "T", "T": "A", "C": "G", "G": "C"}

G2_3 = Poly.parse("1,1,1")
EX_61I = GeneratorSet(3, G2_3, G2_3)
EX_61II = GeneratorSet(3, G2_3, G2_3, Poly(), Poly.parse("3,1"), Poly.parse("1"))
G2_7 = Poly.parse("3,1,2,1")
G3_7 = Poly.parse("3,2,3,1")
EX_62 = GeneratorSet(7, G2_7 * G3_7, G2_7 * G3_7)

#: The published 16-word codebook for the length-3 constant-codon code.
CATALOG_WORDS_N3 = frozenset({
    "AAAAAA", "TTTTTT", "CCCCCC", "GGGGGG",
    "ATATAT", "TATATA", "CTCTCT", "GAGAGA",
    "AGAGAG", "TCTCTC", "CGCGCG", "GCGCGC",
    "ACACAC", "TGTGTG", "CACACA", "GTGTGT",
})
CATALOG_WORDS_N7 = frozenset(w[:2] * 7 for w in CATALOG_WORDS_N3)

#: Catalog figures for the double-generator length-3 construction, audited
#: by the errata protocol below (computed values win on mismatch).
CATALOG_61II = {"size": 64, "hamming": 3, "dna": 2}

#: Bit images of the 16 codons, by codon.
CATALOG_GRAY = {
    "AA": "0000", "TT": "0111", "GG": "0001", "CC": "0101",
    "AT": "0011", "TA": "0100", "GC": "0010", "CG": "0110",
    "GT": "1111", "CA": "1000", "AC": "1010", "TG": "1110",
    "CT": "1001", "GA": "1101", "AG": "1100", "TC": "1011",
}


def _report(label, ok, t0):
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({time.perf_counter() - t0:.2f}s)")
    assert ok, label


def test_acceptance_01_complement_identities():
    t0 = time.perf_counter()
    three = RingElem(3) * ONE_PLUS_U
    two = RingElem(2) * ONE_PLUS_U
    ok = all(x + x.complement() == ONE_PLUS_U for x in ALL_ELEMENTS)
    ok &= all((x + y).complement() == x.complement() + y.complement() + three
              for x, y in itertools.product(ALL_ELEMENTS, repeat=2))
    ok &= all((x + y + z).complement() ==
              x.complement() + y.complement() + z.complement() + two
              for x, y, z in itertools.product(ALL_ELEMENTS, repeat=3))
    ok &= all((RingElem(0, 2) * RingElem(a)).complement() + three == RingElem(0, 2) * RingElem(a)
              for a in range(4))
    ok &= all((RingElem(2) * x).complement() + three == RingElem(2) * x for x in ALL_ELEMENTS)
    ok &= all(x.complement() + three == RingElem(3) * x for x in ALL_ELEMENTS)
    elapsed_ok = time.perf_counter() - t0 < 1.0
    _report("complement identities, exhaustive over 16/256/4096/4/16 cases",
            ok and elapsed_ok, t0)


def test_acceptance_02_codon_table_fidelity():
    t0 = time.perf_counter()
    codons = {theta(x) for x in ALL_ELEMENTS}
    ok = len(codons) == 16
    ok &= all(theta(x.complement()) == "".join(WCC[ch] for ch in theta(x))
              for x in ALL_ELEMENTS)
    ok &= dna.letterwise_complement("GCATAG") == "CGTATC"
    _report("codon table is a WCC-compatible bijection (incl. GCATAG -> CGTATC)",
            ok and time.perf_counter() - t0 < 1.0, t0)


def test_acceptance_03_gray_table_and_isometry():
    t0 = time.perf_counter()
    ok = all(x.gray_str() == CATALOG_GRAY[theta(x)] for x in ALL_ELEMENTS)
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        hamming = sum(1 for bx, by in zip(x.gray_bits(), y.gray_bits()) if bx != by)
        ok &= (x - y).lee_weight() == hamming
    _report("4-bit images bit-exact for all 16 codons; Lee/Hamming isometry on 256 pairs",
            ok and time.perf_counter() - t0 < 1.0, t0)


def test_acceptance_04_length3_code():
    t0 = time.perf_counter()
    code = enumerate_code(EX_61I)
    dna_words = code.dna_words()
    ok = len(code) == 16
    ok &= code.min_hamming_distance() == 3
    ok &= dna.min_letterwise_distance(dna_words) == 3
    ok &= set(dna_words) == CATALOG_WORDS_N3
    ok &= code.is_dna_code()
    ok &= check_rc_single(EX_61I).satisfied
    _report("length-3 code: 16 words, distance 3, catalog DNA set, RC conditions",
            ok and time.perf_counter() - t0 < 1.0, t0)


def test_acceptance_05_length7_code():
    t0 = time.perf_counter()
    ok = set(factor_xn_minus_1_z4(7)) == {Poly.parse("3,1"), G2_7, G3_7}
    code = enumerate_code(EX_62)
    ok &= len(code) == 16
    ok &= code.min_hamming_distance() == 7
    ok &= set(code.dna_words()) == CATALOG_WORDS_N7
    ok &= code.is_dna_code()
    _report("length-7 code: lifted factorization, 16 words, distance 7, catalog DNA set",
            ok and time.perf_counter() - t0 < 1.0, t0)


def test_acceptance_06_errata_protocol_for_double_generator_code():
    t0 = time.perf_counter()
    code = enumerate_code(EX_61II)
    computed = {
        "size": len(code),
        "hamming": code.min_hamming_distance(),
        "dna": dna.min_letterwise_distance(code.dna_words()),
    }
    discrepancies = [
        f"DISCREPANCY {key}: computed={computed[key]} catalog={CATALOG_61II[key]}"
        for key in sorted(CATALOG_61II)
        if computed[key] != CATALOG_61II[key]
    ]
    print(f"double-generator length-3 code: computed {computed}, catalog {CATALOG_61II}")
    for line in discrepancies:
        print(line)
    if not discrepancies:
        print("catalog figures confirmed")
    # Passing means the computation completed and the audit report exists;
    # computed values are the ground truth either way.
    ok = set(computed) == set(CATALOG_61II)
    _report("errata protocol: double-generator code audited against catalog figures",
            ok and time.perf_counter() - t0 < 5.0, t0)


def test_acceptance_07_prediction_vs_brute_force():
    t0 = time.perf_counter()
    reports = sweep(3, max_f14_degree=2)
    reports += sweep(7, max_f14_degree=2, seed=42, samples=100, cap=1 << 16)
    n7 = [r for r in reports if r.gens.n == 7]
    disagreements = [r for r in reports if not r.agree]
    ok = len(n7) == 200
    ok &= all(r.erratum for r in disagreements)  # every disagreement is named
    by_name = {}
    for r in disagreements:  # one name identifies one instance and property
        key = (r.gens, r.property)
        ok &= by_name.setdefault(r.erratum, key) == key
    agree = len(reports) - len(disagreements)
    print(f"swept {len(reports)} reports: {agree} agree, "
          f"{len(disagreements)} disagreements, all emitted as named errata")
    for r in disagreements[:5]:
        print(f"  {r.erratum}: f1={r.gens.f1} f2={r.gens.f2} f14={r.gens.f14} "
              f"f3={r.gens.f3} f4={r.gens.f4} property={r.property} "
              f"predicted={r.predicted} observed={r.observed}")
    ok &= all(r.predicted <= r.observed for r in reports)  # conditions stay sufficient
    _report("prediction vs brute force: exhaustive n=3 and 100 seeded n=7 instances",
            ok and time.perf_counter() - t0 < 300.0, t0)


def test_acceptance_08_gray_images_are_quasi_cyclic():
    t0 = time.perf_counter()
    ok = True
    for gens in (EX_61I, EX_61II, EX_62):
        ok &= is_quasi_cyclic_index4(enumerate_code(gens).gray_words())
    _report("binary images invariant under 4-bit rotation for all three example codes",
            ok and time.perf_counter() - t0 < 1.0, t0)


def _oracle_words(gens):
    """The ideal as a plain set, built directly from its definition.

    Every product m*g over all 4096 multiplier polynomials is computed by
    coefficient convolution, then the two product sets are combined with a
    Minkowski sum (translates of the first set, skipping translations that
    already landed inside).  No iterative span closure is involved.
    """
    n = gens.n
    g_a, g_b = generator_polys(gens)

    def products(g):
        base = word_from_poly(g, n)
        out = set()
        for coeffs in itertools.product(ALL_ELEMENTS, repeat=n):
            word = [RingElem(0)] * n
            for i, m in enumerate(coeffs):
                if not m:
                    continue
                for j, c in enumerate(base):
                    k = (i + j) % n
                    word[k] = word[k] + m * c
            out.add(tuple(word))
        return out

    combined = products(g_a)
    if g_b is None:
        return combined
    second = products(g_b)
    result = set()
    for shift in second:
        if shift in result:
            continue  # its whole translate is already covered
        result |= {tuple(a + s for a, s in zip(word, shift)) for word in combined}
    return result


def test_acceptance_09_enumeration_matches_direct_oracle():
    t0 = time.perf_counter()
    rng = random.Random(11)
    factors = factor_xn_minus_1_z4(3)
    divisors = [Poly([1]), factors[0], factors[1], factors[0] * factors[1]]
    checked = 0
    ok = True
    while checked < 20:
        f1 = rng.choice(divisors)
        f2 = rng.choice([d for d in divisors if divides(d, f1, 3)])
        f14 = Poly(rng.choice(ALL_ELEMENTS) for _ in range(3))
        if rng.random() < 0.5:
            gens = GeneratorSet(3, f1, f2, f14)
        else:
            f3 = rng.choice(divisors)
            f4 = rng.choice([d for d in divisors if divides(d, f3, 3)])
            gens = GeneratorSet(3, f1, f2, f14, f3, f4)
        ok &= set(enumerate_code(gens).words()) == _oracle_words(gens)
        checked += 1
    _report("enumeration equals the all-multipliers oracle on 20 random length-3 codes",
            ok and time.perf_counter() - t0 < 30.0, t0)


def test_acceptance_10_reciprocal_algebra():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    nonzero = [x for x in ALL_ELEMENTS if x]

    def sample(degree):
        coeffs = [rng.choice(ALL_ELEMENTS) for _ in range(degree + 1)]
        coeffs[0] = rng.choice(nonzero)
        coeffs[-1] = rng.choice(UNITS)  # last, so degree 0 keeps a unit
        return Poly(coeffs)

    product_cases = sum_cases = involution_cases = 0
    ok = True
    while product_cases < 1000 or sum_cases < 1000 or involution_cases < 1000:
        degs = sorted(rng.randrange(0, 9) for _ in range(3))
        h, g, f = (sample(d) for d in degs)
        ok &= reciprocal(f * g * h) == reciprocal(f) * reciprocal(g) * reciprocal(h)
        product_cases += 1
        s = f + g + h
        if not s.is_zero and s.degree == f.degree:
            expect = (reciprocal(f)
                      + reciprocal(g).shift(f.degree - g.degree)
                      + reciprocal(h).shift(f.degree - h.degree))
            ok &= reciprocal(s) == expect
            sum_cases += 1
        ok &= reciprocal(reciprocal(f)) == f
        involution_cases += 1
    _report(f"reciprocal algebra: product rule x{product_cases}, sum rule x{sum_cases}, "
            f"involution x{involution_cases}",
            ok and time.perf_counter() - t0 < 5.0, t0)
