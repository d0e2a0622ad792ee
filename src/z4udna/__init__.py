"""Cyclic DNA codes of odd length over the ring Z4 + u*Z4 (u^2 = 0).

The package builds cyclic codes from generator polynomial tuples,
enumerates them exactly, maps codewords to DNA strings and 4-bit binary
Gray images, evaluates the symbolic reversibility and reverse-complement
conditions, and cross-validates every prediction against brute-force
closure checks.

The root holds the README quickstart's names only; everything else is
imported from its module: ``ring``, ``poly``, ``cyclic``, ``conditions``,
``dna`` or ``errors``.
"""

from .poly import Poly
from .cyclic import GeneratorSet, enumerate_code
from .conditions import check_rc_single
from . import dna, errors

__version__ = "0.1.0"
