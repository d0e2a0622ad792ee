"""Tour of the 16-element ring: codons, complements, Gray images, Lee weights.

Run:  python3 demos/01_ring_tour.py
"""

from z4udna.ring import ALL_ELEMENTS, RingElem, theta

print("element | codon | gray | lee | unit | complement")
print("-" * 52)
for x in ALL_ELEMENTS:
    print(f"{str(x):>7} |  {theta(x)}   | {x.gray_str()} |  {x.lee_weight()}  | "
          f"{'yes' if x.is_unit() else ' no'}  | {x.complement()}")

print()
print("Every element pairs with its complement so that x + comp(x) = 1+u:")
x = RingElem(2, 3)
print(f"  {x} + {x.complement()} = {x + x.complement()}")

print()
print("The codon map turns ring complement into letterwise Watson-Crick pairing:")
for value in (RingElem(0), RingElem(2), RingElem(0, 2)):
    print(f"  theta({str(value):>3}) = {theta(value)}   "
          f"theta(comp) = {theta(value.complement())}")

print()
print("Gray images carry Lee distance to Hamming distance:")
a, b = RingElem(1, 1), RingElem(3, 0)
bits_a, bits_b = a.gray_bits(), b.gray_bits()
hamming = sum(1 for p, q in zip(bits_a, bits_b) if p != q)
print(f"  lee({a} - {b}) = {(a - b).lee_weight()}   "
      f"hamming({a.gray_str()}, {b.gray_str()}) = {hamming}")
