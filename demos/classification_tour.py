"""Tour of the classification profiles across the built-in catalog.

Run: python3 demos/classification_tour.py

Prints one row per catalog group with the main class predicates, then digs
into the three groups that separate the hierarchy levels from each other:
nearly nilpotent sits strictly between nilpotent and strongly supersoluble,
and strongly supersoluble strictly inside supersoluble.
"""

from modmax import catalog
from modmax.classify import all_chief_factors, classify

print(f"{'group':<10} {'order':>5}  nilp  nearnilp  str.super  super  soluble")
for entry in catalog.standard_suite():
    g = catalog.construct(entry.name)
    p = classify(g)
    print(f"{entry.name:<10} {g.order:>5}  "
          f"{str(p.nilpotent):<5} {str(p.nearly_nilpotent):<9} "
          f"{str(p.strongly_supersoluble):<10} {str(p.supersoluble):<6} "
          f"{p.soluble}")

print()
print("The separating trio, with the chief factors that decide each level:")
for name in ("S3", "hol_C7", "hol_C13"):
    g = catalog.construct(name)
    p = classify(g)
    print(f"\n{name} (order {g.order}): nilpotent={p.nilpotent}, "
          f"nearly nilpotent={p.nearly_nilpotent}, "
          f"strongly supersoluble={p.strongly_supersoluble}, "
          f"supersoluble={p.supersoluble}")
    for f in all_chief_factors(g):
        print(f"   {f.descriptor()}")

print("""
Reading the trio:
 - S3 is nearly nilpotent but not nilpotent: both chief factors are cyclic
   and the induced automorphism orders are 1 and 2 (a prime).
 - hol_C7 = C7 with its full automorphism group is strongly supersoluble
   (automizer order 6 is square free) but 6 is not 1 or a prime, so it is
   not nearly nilpotent.
 - hol_C13 is supersoluble but automizer order 12 = 2^2 * 3 is not square
   free, so it is not strongly supersoluble.
""")
