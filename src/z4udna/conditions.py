"""Symbolic reversibility / reverse-complement conditions, cross-validated.

Four named condition sets are evaluated on a generator tuple:

* ``T31`` (single generator) and ``T32`` (double generator): the code is
  predicted reversible when (a) f1 (and f3) are self-reciprocal, (b)(i)
  x^i*f2* = f2, and (b)(ii) the f14 clause holds, where
  i = deg f1 - deg f2 and j = deg f1 - deg f14.  One body, ``_check``,
  computes T31-T42, every clause for both forms, in report order;
  ``_FORMS`` holds what differs by form (the theorem names, the clause (a)
  list and the texts), and only the (b)(ii) branch differs in logic.  The
  (b) clauses run on symbol strings through ``poly``'s kernels and build
  no ``Poly``, the (b)(i) note too.  (b)(ii) asks whether f2 (T31) or f4
  (T32) divides 2h, h = x^j*f14* + f14, or 2(h + f2), and is decided on F2
  parity masks by ``poly._divides_twice``: for a divisor g with a unit
  lead, 2h mod g = 2(h mod g), and a monic divisor of x^n - 1 has no u
  part, so g | 2(A + uB) iff g mod 2 divides A mod 2 and B mod 2 over F2.
  The clause reads h and h + f2 only through their parities, which add by
  XOR: it takes the masks of x^j*f14*, f14 and f2 and builds no sum.
* ``T41`` / ``T42``: T31 / T32 plus membership of the word with every
  symbol 3+3u, which is the reverse-complement of the zero word; ``_check``
  adds it as the last clause.  Membership is decided from f1(1) being a
  unit, without enumerating the code, so no condition check has a cap or
  can exceed one.

Equalities are tested literally after reduction mod x^n - 1; when a
condition fails literally but holds up to a unit factor, that is recorded
as an informational note, not as success.  The cross-validation harness
compares each prediction with the closure predicates of the enumerated
code (``Code.is_reversible``, ``Code.is_rc_closed``, which test the code's
generators for membership), and any disagreement is surfaced as a named
erratum record instead of being absorbed.  Sweeps draw from
``poly.divisor_lattice``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import NamedTuple, Optional

from .cyclic import (
    Code,
    DEFAULT_CAP,
    GeneratorSet,
    enumerate_code,
    require_valid,
    validate,  # noqa: F401  kept importable as conditions.validate
)
from .errors import CapExceeded, WrongForm
from .poly import (
    Poly,
    _constant_factor,
    _divides_twice,
    _fold,
    _parity_mask,
    divisor_lattice,
    self_reciprocal_constant,
)
from .ring import ALL_ELEMENTS, RingElem, UNITS

PROPERTIES = ("reversible", "rc_closed")

# Symbol indices of the units other than 1, in canonical element order.
_UNITS_BUT_ONE = bytes(m.index for m in UNITS[1:])  # UNITS[0] is 1

# Single and double form: the theorems (reversibility, reverse-complement),
# the polynomials clause (a) requires to be self-reciprocal, the WrongForm
# message and the (b)(ii) failure.
_FORMS = ((("T31", "T41"), ("f1",), "single-generator checker given a double-generator tuple",
           "(b)(ii) x^j*f14* != f14 and f2 does not divide 2x^j*f14* + 2f14"),
          (("T32", "T42"), ("f1", "f3"), "double-generator checker needs f3 and f4",
           "(b)(ii) f4 divides neither 2x^j*f14* + 2f14 nor that plus 2f2"))


class ConditionReport(NamedTuple):
    """Outcome of one condition set on one generator tuple.

    ``branch`` names the (b)(ii) disjunct that held: "equality" or
    "divisibility" for T31/T41, "div-f14" or "div-f14-plus-f2" for
    T32/T42, and "vacuous" when f14 = 0 makes the clause trivial.
    ``failures`` lists the unmet conditions; satisfied iff it is empty.
    """

    theorem: str
    satisfied: bool
    i_shift: int
    j_shift: Optional[int]
    branch: Optional[str]
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()


class CrossValReport(NamedTuple):
    gens: GeneratorSet
    property: str
    predicted: bool
    observed: bool
    agree: bool
    erratum: Optional[str] = None


def _check(gens: GeneratorSet, double: bool, rc: bool) -> ConditionReport:
    """T32 if ``double`` else T31, or T42/T41 if ``rc``, clause by clause
    in report order."""
    theorems, names, wrong_form, b2_failure = _FORMS[double]
    # the double form needs both f3 and f4, the single form neither
    if (gens.f3 is None) == double or (gens.f4 is None) == double:
        raise WrongForm(wrong_form)
    require_valid(gens)
    n = gens.n
    failures = [f"(a) {name} is not self-reciprocal" for name in names
                if self_reciprocal_constant(getattr(gens, name)) is None]
    notes: list[str] = []
    # The (b) clauses work on symbol strings: x^k*f* mod x^n - 1 is f's
    # symbols reversed after k zeros, folded.
    f1, f2, f14 = gens.f1.symbols, gens.f2.symbols, gens.f14.symbols
    # (b)(i) is tested literally; a unit-factor near-miss is noted but fails
    i = len(f1) - len(f2)
    lhs = _fold((bytes(i) + f2[::-1]).rstrip(b"\0"), n)
    rhs = _fold(f2, n)
    if lhs != rhs:
        failures.append("(b)(i) x^i*f2* != f2")
        m = _constant_factor(rhs, lhs, _UNITS_BUT_ONE)
        if m is not None:
            notes.append(f"(b)(i) holds up to the unit factor m={ALL_ELEMENTS[m]}")
    # (b)(ii) works on x^j*f14* reduced and on f14, which validate keeps
    # below degree n; f14 = 0 leaves j None and h = x^j*f14* + f14 zero.
    # Its dividends are 2h and 2(h + f2), and _divides_twice reads each
    # through its parity mask alone: the divisor g, f2 or f4 reduced, is
    # zero or a monic divisor of x^n - 1, which has no u part, and a unit
    # lead makes 2h mod g = 2(h mod g), zero iff h mod g is zero mod 2.
    # Parities add by XOR, so no sum is built.
    j, shifted = None, f14
    if f14:
        j = len(f1) - len(f14)
        if j < 0:
            notes.append("j < 0 (deg f14 exceeds deg f1); exponent taken mod n")
        shifted = _fold((bytes(j % n) + f14[::-1]).rstrip(b"\0"), n)
    branch = None
    if double:
        f4 = _fold(gens.f4.symbols, n)
        h = _parity_mask(shifted) ^ _parity_mask(f14)
        if _divides_twice(f4, h):
            branch = "div-f14" if j is not None else "vacuous"
        elif _divides_twice(f4, h ^ _parity_mask(rhs)):
            branch = "div-f14-plus-f2"
    elif j is None or shifted == f14:
        branch = "vacuous" if j is None else "equality"
    elif _divides_twice(rhs, _parity_mask(shifted) ^ _parity_mask(f14)):
        branch = "divisibility"
    if branch is None:
        failures.append(b2_failure)
    # T41/T42 add "the all-(3+3u) word is in the code", decided from f1(1).
    # For odd n, x - 1 and theta = (x^n - 1)/(x - 1) are coprime (theta(1)
    # = n is a unit), so R[x]/(x^n - 1) = R x R[x]/(theta).  The word is
    # (3+3u)*theta, which maps to (a unit, 0); it lies in the code iff the
    # generators evaluated at 1 span R.  R is local, u*f3 + 2u*f4 is in uR
    # at 1, and 2f2(1) + 2u*f14(1) is not a unit, so that holds iff f1(1) is
    # a unit: iff the Z4 parts a = s >> 2 of f1's coefficients have an odd sum.
    if rc and not sum(s >> 2 for s in f1) & 1:
        failures.append("membership: the all-(3+3u) word is not in the code")
    return ConditionReport(theorems[rc], not failures, i, j, branch,
                           tuple(failures), tuple(notes))


def check_reversible_single(gens: GeneratorSet) -> ConditionReport:
    """Condition set T31 for a single-generator code."""
    return _check(gens, False, False)


def check_reversible_double(gens: GeneratorSet) -> ConditionReport:
    """Condition set T32 for a double-generator code."""
    return _check(gens, True, False)


def check_rc_single(gens: GeneratorSet) -> ConditionReport:
    """Condition set T41: T31 plus membership of the all-(3+3u) word."""
    return _check(gens, False, True)


def check_rc_double(gens: GeneratorSet) -> ConditionReport:
    """Condition set T42: T32 plus membership of the all-(3+3u) word."""
    return _check(gens, True, True)


# ---------------------------------------------------------------------------
# Cross-validation against the enumerated code
# ---------------------------------------------------------------------------

def _field_texts(gens: GeneratorSet) -> list[str]:
    """The fields of a tuple as text, "-" for an absent f3/f4."""
    return ["-" if v is None else str(v) for v in gens]


def _erratum_name(gens: GeneratorSet, prop: str) -> str:
    digest = hashlib.sha1("|".join(_field_texts(gens)).encode()).hexdigest()[:8]
    return f"erratum-n{gens.n}-{prop}-{digest}"


def predict(gens: GeneratorSet, prop: str) -> ConditionReport:
    """The condition report relevant to a property and generator form."""
    single = gens.f3 is None
    if prop == "reversible":
        return check_reversible_single(gens) if single else check_reversible_double(gens)
    if prop == "rc_closed":
        return check_rc_single(gens) if single else check_rc_double(gens)
    raise ValueError(f"unknown property {prop!r}")


def _crossval_with_code(gens: GeneratorSet, prop: str, code: Code) -> CrossValReport:
    predicted = predict(gens, prop).satisfied
    observed = code.is_reversible() if prop == "reversible" else code.is_rc_closed()
    agree = predicted == observed
    return CrossValReport(gens, prop, predicted, observed, agree,
                          None if agree else _erratum_name(gens, prop))


def cross_validate(gens: GeneratorSet, prop: str,
                   cap: int = DEFAULT_CAP) -> CrossValReport:
    """Compare the symbolic prediction with the closure of the enumerated code."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    return _crossval_with_code(gens, prop, enumerate_code(gens, cap))


# ---------------------------------------------------------------------------
# Sweeps over the divisor lattice
# ---------------------------------------------------------------------------

#: Coefficient alphabet for exhaustive f14 generation: zero, a unit, the
#: two kinds of zero divisors.  Degree <= 2 over these four values gives
#: the 64 representative f14 polynomials the exhaustive sweep walks.
F14_ALPHABET = (RingElem(0), RingElem(1), RingElem(2), RingElem(0, 1))


def _submasks(mask: int) -> list[int]:
    return [s for s in range(mask + 1) if s & mask == s]


def _exhaustive_instances(n: int, max_f14_degree: int):
    """Every single-generator tuple, then every double-generator one."""
    lattice = divisor_lattice(n)
    ncoef = min(max_f14_degree, n - 1) + 1
    f14s = [Poly(c) for c in itertools.product(F14_ALPHABET, repeat=ncoef)]
    pairs = [(f1, lattice[m2]) for m1, f1 in enumerate(lattice) for m2 in _submasks(m1)]
    return itertools.chain(
        (GeneratorSet(n, *pair, f14) for pair, f14 in itertools.product(pairs, f14s)),
        (GeneratorSet(n, *pair, f14, *second)
         for pair, second, f14 in itertools.product(pairs, pairs, f14s)))


def _random_instance(n: int, max_f14_degree: int, lattice: list[Poly],
                     rng: random.Random):
    f1_mask = rng.randrange(len(lattice))
    f2 = lattice[rng.choice(_submasks(f1_mask))]
    ncoef = min(max_f14_degree, n - 1) + 1
    f14 = Poly(rng.choice(ALL_ELEMENTS) for _ in range(ncoef))
    if rng.random() < 0.5:
        return GeneratorSet(n, lattice[f1_mask], f2, f14)
    f3_mask = rng.randrange(len(lattice))
    f4 = lattice[rng.choice(_submasks(f3_mask))]
    return GeneratorSet(n, lattice[f1_mask], f2, f14, lattice[f3_mask], f4)


def _sampled_codes(n: int, max_f14_degree: int, seed: int, samples: int, cap: int):
    """``samples`` seeded draws with their codes; a draw over ``cap`` is
    skipped, and after ``200 * samples`` draws the walk gives up."""
    lattice = divisor_lattice(n)
    rng = random.Random(seed)
    collected = 0
    attempts = 0
    while collected < samples:
        attempts += 1
        if attempts > 200 * samples:
            raise CapExceeded(
                f"collected only {collected} of {samples} instances under cap={cap}")
        gens = _random_instance(n, max_f14_degree, lattice, rng)
        try:
            code = enumerate_code(gens, cap)
        except CapExceeded:
            continue
        collected += 1
        yield gens, code


def sweep(n: int, max_f14_degree: int = 2, seed: int = 0,
          samples: Optional[int] = None, cap: int = DEFAULT_CAP) -> list[CrossValReport]:
    """Cross-validate generator tuples drawn from the divisor lattice.

    With ``samples=None`` the lattice is walked exhaustively with f14
    ranging over the representative alphabet; otherwise ``samples`` >= 1
    instances are drawn with the seeded generator, skipping (and
    redrawing past) instances whose enumeration exceeds ``cap``.  Each
    instance is enumerated, then yields one report per property, in a
    fixed order, so the result is deterministic.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if max_f14_degree < 0:
        raise ValueError(f"max_f14_degree must be >= 0, got {max_f14_degree}")
    if samples is None:
        codes = ((gens, enumerate_code(gens, cap))
                 for gens in _exhaustive_instances(n, max_f14_degree))
    else:
        codes = _sampled_codes(n, max_f14_degree, seed, samples, cap)
    return [_crossval_with_code(gens, prop, code)
            for gens, code in codes for prop in PROPERTIES]


def format_sweep_report(reports: list[CrossValReport]) -> str:
    """One line per report plus an ``agreements=k/total`` summary."""
    lines = []
    agreements = 0
    for r in reports:
        line = (" ".join(f"{k}={v}" for k, v in zip(GeneratorSet._fields, _field_texts(r.gens)))
                + f" property={r.property} predicted={str(r.predicted).lower()} "
                f"observed={str(r.observed).lower()} agree={str(r.agree).lower()}")
        if r.erratum:
            line += f" erratum={r.erratum}"
        else:
            agreements += 1
        lines.append(line)
    lines.append(f"agreements={agreements}/{len(reports)}")
    return "\n".join(lines) + "\n"
