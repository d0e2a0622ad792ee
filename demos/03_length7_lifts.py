"""Factor x^7-1, lift the factors to Z4, and build the length-7 DNA code.

Run:  python3 demos/03_length7_lifts.py
"""

from z4udna.conditions import check_rc_single
from z4udna.cyclic import GeneratorSet, enumerate_code, is_quasi_cyclic_index4
from z4udna.poly import (
    factor_xn_minus_1_f2,
    factor_xn_minus_1_z4,
    hensel_lift,
    self_reciprocal_constant,
)

print("irreducible factors of x^7-1 over F2 and their Z4 lifts:")
for base in factor_xn_minus_1_f2(7):
    print(f"  {str(base):>10}  ->  {hensel_lift(base, 7)}")

g1, g2, g3 = factor_xn_minus_1_z4(7)
product = g2 * g3
print(f"\nf1 = f2 = {g2} * {g3} = {product}")
print(f"self-reciprocal constant of f1: {self_reciprocal_constant(product)}")

gens = GeneratorSet(7, product, product)
code = enumerate_code(gens)
print(f"\nsize={len(code)}  hamming={code.min_hamming_distance()}  "
      f"dna_code={code.is_dna_code()}  "
      f"rc conditions={check_rc_single(gens).satisfied}")

print("\ncodebook (length-14 strands):")
for word in code.dna_words():
    print("  " + word)

print(f"\nbinary image is quasi-cyclic of index 4: "
      f"{is_quasi_cyclic_index4(code.gray_words())}")
