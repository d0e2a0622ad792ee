"""Condition checkers and the prediction-vs-brute-force harness."""

from collections import Counter

import pytest

from oracles import xn_minus_1
from z4udna import conditions
from z4udna.conditions import (
    PROPERTIES,
    _exhaustive_instances,
    check_rc_double,
    check_rc_single,
    check_reversible_double,
    check_reversible_single,
    cross_validate,
    format_sweep_report,
    predict,
    sweep,
)
from z4udna.cyclic import GeneratorSet, enumerate_code
from z4udna.errors import CapExceeded, InvalidGenerators, WrongForm
from z4udna.poly import Poly, self_reciprocal_constant
from z4udna.ring import RingElem

G2_3 = Poly.parse("1,1,1")
EX_61I = GeneratorSet(3, G2_3, G2_3)
EX_61II = GeneratorSet(3, G2_3, G2_3, Poly(), Poly.parse("3,1"), Poly.parse("1"))
G2 = Poly.parse("3,1,2,1")
G3 = Poly.parse("3,2,3,1")
EX_62 = GeneratorSet(7, G2 * G3, G2 * G3)


def test_single_checker_on_worked_examples():
    rep = check_reversible_single(EX_61I)
    assert rep.satisfied and rep.theorem == "T31"
    assert rep.i_shift == 0 and rep.j_shift is None and rep.branch == "vacuous"
    rep = check_reversible_single(EX_62)
    assert rep.satisfied


def test_single_checker_failure_names_a():
    rep = check_reversible_single(GeneratorSet(7, G2, G2))
    assert not rep.satisfied
    assert any(f.startswith("(a)") for f in rep.failures)


def test_double_checker_on_worked_example():
    rep = check_reversible_double(EX_61II)
    assert rep.satisfied and rep.theorem == "T32"
    assert rep.branch == "vacuous"


def test_double_checker_rejects_non_self_reciprocal_f3():
    gens = GeneratorSet(7, G2 * G3, G2 * G3, Poly(), G2, Poly.parse("1"))
    rep = check_reversible_double(gens)
    assert not rep.satisfied
    assert any("f3" in f for f in rep.failures)


def test_f4_equal_one_divides_everything():
    f14 = Poly.parse("1,2")
    gens = GeneratorSet(3, xn_minus_1(3), xn_minus_1(3), f14,
                        Poly.parse("3,1"), Poly.parse("1"))
    rep = check_reversible_double(gens)
    assert not any("(b)(ii)" in f for f in rep.failures)


def test_wrong_form_errors():
    with pytest.raises(WrongForm):
        check_reversible_single(EX_61II)
    with pytest.raises(WrongForm):
        check_reversible_double(EX_61I)
    with pytest.raises(InvalidGenerators):
        check_reversible_single(GeneratorSet(4, G2_3, G2_3))
    # a half-given (f3, f4) pair fits neither form, and the form is checked
    # before validation, which would call it InvalidGenerators
    f3_only = GeneratorSet(3, G2_3, G2_3, Poly(), Poly.parse("3,1"))
    f4_only = GeneratorSet(3, G2_3, G2_3, Poly(), None, Poly.parse("1"))
    for gens in (f3_only, f4_only):
        for checker in (check_reversible_single, check_reversible_double):
            with pytest.raises(WrongForm):
                checker(gens)


def test_predict_reaches_one_public_checker_and_t41_t42_skip_t31_t32(monkeypatch):
    # predict looks each checker up at its module attribute and calls the
    # one for its property and form; T41/T42 run the shared body themselves
    # and call neither T31 nor T32.
    names = ("check_reversible_single", "check_reversible_double",
             "check_rc_single", "check_rc_double")
    calls = Counter()
    for name in names:
        def counted(gens, name=name, original=getattr(conditions, name)):
            calls[name] += 1
            return original(gens)
        monkeypatch.setattr(conditions, name, counted)
    check_rc_single(EX_61I)
    check_rc_double(EX_61II)
    assert not calls
    expected = {("reversible", EX_61I): "check_reversible_single",
                ("reversible", EX_61II): "check_reversible_double",
                ("rc_closed", EX_61I): "check_rc_single",
                ("rc_closed", EX_61II): "check_rc_double"}
    for (prop, gens), name in expected.items():
        calls.clear()
        predict(gens, prop)
        assert calls == {name: 1}


def test_rc_checkers_add_membership():
    rep = check_rc_single(EX_61I)
    assert rep.satisfied and rep.theorem == "T41"
    rep = check_rc_double(EX_61II)
    assert rep.satisfied and rep.theorem == "T42"
    zero = GeneratorSet(3, xn_minus_1(3), xn_minus_1(3))
    rep = check_rc_single(zero)
    assert not rep.satisfied
    assert any("membership" in f for f in rep.failures)


def test_rc_implies_reversible_conditions():
    for gens in (EX_61I, EX_62):
        rc = check_rc_single(gens)
        rev = check_reversible_single(gens)
        if rc.satisfied:
            assert rev.satisfied


def test_unit_multiple_note():
    gens = GeneratorSet(3, Poly.parse("3,1"), Poly.parse("3,1"))
    rep = check_reversible_single(gens)
    assert not rep.satisfied
    assert any("unit factor m=3" in note for note in rep.notes)


def test_negative_j_is_noted_not_fatal():
    gens = GeneratorSet(3, Poly.parse("3,1"), Poly.parse("1"), Poly.parse("0,0,1"))
    rep = check_reversible_single(gens)
    assert rep.j_shift == -1
    assert any("j < 0" in note for note in rep.notes)


def test_cross_validate_worked_examples():
    r = cross_validate(EX_61I, "rc_closed")
    assert r.predicted and r.observed and r.agree and r.erratum is None
    r = cross_validate(GeneratorSet(7, G2, G2), "reversible")
    assert not r.predicted and not r.observed and r.agree


def test_cross_validate_disagreement_is_named():
    gens = GeneratorSet(3, Poly.parse("3,1"), Poly.parse("3,1"))
    r = cross_validate(gens, "reversible")
    assert not r.predicted and r.observed and not r.agree
    assert r.erratum and r.erratum.startswith("erratum-n3-reversible-")
    # same instance, same name
    assert cross_validate(gens, "reversible").erratum == r.erratum


def test_predict_dispatch():
    assert predict(EX_61I, "reversible").theorem == "T31"
    assert predict(EX_61I, "rc_closed").theorem == "T41"
    assert predict(EX_61II, "reversible").theorem == "T32"
    assert predict(EX_61II, "rc_closed").theorem == "T42"
    with pytest.raises(ValueError):
        predict(EX_61I, "palindromic")
    with pytest.raises(ValueError, match="^unknown property 'bogus'$"):
        cross_validate(EX_61I, "bogus")


def test_sweep_n1_all_agree():
    reports = sweep(1)
    assert reports and all(r.agree for r in reports)


def test_sweep_reports_are_reproducible():
    a = sweep(3, samples=12, seed=9, cap=1 << 14)
    b = sweep(3, samples=12, seed=9, cap=1 << 14)
    assert format_sweep_report(a) == format_sweep_report(b)
    assert len(a) == 24  # two properties per instance


def test_sweep_skips_capped_instances():
    reports = sweep(7, samples=5, seed=3, cap=1 << 12)
    assert len(reports) == 10
    for r in reports:
        assert len(enumerate_code(r.gens, 1 << 12)) <= 1 << 12


def test_sweep_raises_when_cap_starves_sampling():
    with pytest.raises(CapExceeded):
        sweep(7, samples=5, seed=3, cap=4)


@pytest.mark.parametrize("samples", [0, -1])
def test_sweep_needs_at_least_one_sample(samples):
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        sweep(3, samples=samples)


@pytest.mark.parametrize("samples", [None, 4], ids=["exhaustive", "sampled"])
def test_sweep_needs_a_nonnegative_f14_degree(samples):
    with pytest.raises(ValueError, match="max_f14_degree must be >= 0, got -1"):
        sweep(3, max_f14_degree=-1, samples=samples)


def test_format_sweep_report():
    reports = sweep(3, samples=4, seed=1, cap=1 << 14)
    text = format_sweep_report(reports)
    lines = text.splitlines()
    assert len(lines) == len(reports) + 1
    assert lines[-1].startswith("agreements=")
    for line, rep in zip(lines, reports):
        assert f"property={rep.property}" in line
        assert f"agree={str(rep.agree).lower()}" in line
        if not rep.agree:
            assert "erratum=" in line


def test_every_disagreement_carries_an_erratum():
    reports = sweep(3, samples=30, seed=2, cap=1 << 14)
    for r in reports:
        assert r.agree or r.erratum


def test_conditions_are_pure():
    a = check_reversible_single(EX_61I)
    b = check_reversible_single(EX_61I)
    assert a == b


@pytest.mark.parametrize("build", [
    lambda: GeneratorSet(3, G2_3, Poly.parse("1")),
    lambda: check_rc_single(EX_61I),
    lambda: cross_validate(EX_61II, "reversible"),
], ids=["GeneratorSet", "ConditionReport", "CrossValReport"])
def test_tuple_and_report_types_are_immutable_values(build):
    value, twin = build(), build()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert {value: "kept"}[twin] == "kept"
    field = value._fields[1]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    changed = value._replace(**{field: None})
    assert getattr(changed, field) is None and changed != value and value == twin
    if isinstance(value, GeneratorSet):
        assert repr(value) == ("GeneratorSet(n=3, f1=Poly('1,1,1'), f2=Poly('1'), "
                               "f14=Poly('0'), f3=None, f4=None)")


def test_conditions_are_sound_on_the_exhaustive_length7_lattice():
    # Every divisor of x^n - 1 is self-reciprocal for n = 3, 5 and 9, so
    # only a lattice like n = 7's can catch a reversibility prediction that
    # does not hold.  Codes over the cap are skipped: 229 of the 3024
    # tuples (f14 of degree 0) have at most 2^8 words.
    wrong = Counter()
    enumerated = 0
    for gens in _exhaustive_instances(7, 0):
        try:
            code = enumerate_code(gens, cap=1 << 8)
        except CapExceeded:
            continue
        enumerated += 1
        observed = {"reversible": code.is_reversible(), "rc_closed": code.is_rc_closed()}
        for prop in PROPERTIES:
            report = predict(gens, prop)
            if report.satisfied and not observed[prop]:
                wrong[report.theorem, prop] += 1
                # the known T32 defect (ROADMAP, "Bug: T32 and T42 accept
                # codes that are not reversible"): nothing checks f4 itself
                assert gens.f4 is not None and self_reciprocal_constant(gens.f4) is None
    assert enumerated == 229
    # T31/T41 never predict a property the code lacks; fixing the T32 bug
    # takes both of these counts to 0
    assert wrong == {("T32", "reversible"): 48, ("T42", "rc_closed"): 12}


@pytest.mark.parametrize("gens, branch, size", [
    (GeneratorSet(7, xn_minus_1(7), xn_minus_1(7), Poly(), xn_minus_1(7), G2),
     "vacuous", 16),
    # the first false positive pinned outside n = 7, and with a non-constant f14
    (GeneratorSet(15, xn_minus_1(15), Poly.parse("1,0,0,1,0,0,1,0,0,1,0,0,1"),
                  Poly.parse("0,2+2u"), Poly.parse("1,3,0,1,3,1,0,3,1"),
                  Poly.parse("1,0,2,3,1")),
     "div-f14", 1 << 21),
], ids=["n7", "n15"])
def test_t32_accepts_these_codes_that_are_not_reversible(gens, branch, size):
    # The two reproductions of the known T32 defect (ROADMAP, "Bug: T32 and
    # T42 accept codes that are not reversible"), pinned at today's verdicts.
    # Adding "(a) f4 is self-reciprocal" to T32 flips its verdict on both.
    report = check_reversible_double(gens)
    assert report.satisfied and report.branch == branch
    assert self_reciprocal_constant(gens.f4) is None
    code = enumerate_code(gens, cap=1 << 22)
    assert len(code) == size and not code.is_reversible()


@pytest.mark.parametrize("n, max_f14_degree, cap, expected", [
    # the whole n=3 lattice with f14 of degree <= 1: 1440 tuples
    (3, 1, 1 << 12, {("single", True): 48, ("double", True): 432,
                     ("single", False): 96, ("double", False): 864}),
    # the 229 n=7 codes of at most 2^8 words, f14 of degree 0
    (7, 0, 1 << 8, {("single", True): 3, ("double", True): 27,
                    ("single", False): 20, ("double", False): 179}),
], ids=["n3", "n7"])
def test_membership_clause_matches_enumeration(n, max_f14_degree, cap, expected):
    # T41/T42 decide "the all-(3+3u) word is in the code" from f1(1) alone;
    # the enumerated code must agree on every tuple, in and out of the code
    all_3_3u = (RingElem(3, 3),) * n
    seen = Counter()
    for gens in _exhaustive_instances(n, max_f14_degree):
        try:
            code = enumerate_code(gens, cap)
        except CapExceeded:
            continue
        report = predict(gens, "rc_closed")
        claimed = "membership: the all-(3+3u) word is not in the code" not in report.failures
        assert claimed == (all_3_3u in code), gens
        seen["single" if gens.f3 is None else "double", claimed] += 1
    assert seen == expected
