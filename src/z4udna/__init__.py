"""Cyclic DNA codes of odd length over the ring Z4 + u*Z4 (u^2 = 0).

The package builds cyclic codes from generator polynomial tuples,
enumerates them exactly, maps codewords to DNA strings and 4-bit binary
Gray images, evaluates the symbolic reversibility and reverse-complement
conditions, and cross-validates every prediction against brute-force
closure checks.
"""

from .ring import (
    ALL_ELEMENTS,
    RingElem,
    UNITS,
    psi,
    theta,
    theta_inv,
)
from .poly import (
    LENGTH_CAP,
    Poly,
    divides,
    factor_xn_minus_1_f2,
    factor_xn_minus_1_z4,
    hensel_lift,
    poly_divmod,
    poly_mod_xn,
    reciprocal,
    self_reciprocal_constant,
    xn_minus_1,
)
from .cyclic import (
    Code,
    CodeWord,
    DEFAULT_CAP,
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
)
from .conditions import (
    ConditionReport,
    CrossValReport,
    check_rc_double,
    check_rc_single,
    check_reversible_double,
    check_reversible_single,
    cross_validate,
    format_sweep_report,
    sweep,
)
from . import dna, errors

__version__ = "0.1.0"
