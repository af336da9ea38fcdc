"""Why the depth bounds in the two main theorems cannot be weakened.

Run: python3 demos/bound_sharpness.py

Both statements bound the chain depth n by the number of distinct primes
(plus one for the residual version).  Two small groups show the bounds are
exact: the alternating group on 4 points, and its direct product with a
central involution.
"""

from modmax import catalog
from modmax.classify import is_nilpotent_hall, is_supersoluble, \
    residual_strongly_supersoluble
from modmax.groups import prime_spectrum
from modmax.lattice import lattice_of
from modmax.verify import census, verify_sharpness_A, verify_sharpness_B

a4 = catalog.construct("A4")
lat = lattice_of(a4)
print("First narrative: the alternating group of order 12.")
print(f"   prime spectrum {prime_spectrum(a4)}, so the bound allows n <= 2")
n3 = [lat.subgroups[i] for i in lat.n_maximal_indices(3)]
print(f"   3-maximal subgroups: {[s.order for s in n3]} "
      "(just the trivial one, which is modular)")
chain = lat.witness_chain(0, 3)
print(f"   a witnessing chain of subgroup orders: "
      f"{' > '.join(map(str, chain.orders()))}")
print(f"   supersoluble: {is_supersoluble(a4)}")
print("   So at n=3 every n-maximal subgroup is modular, yet the conclusion")
print("   is false. The theorem survives only because 3 > 2: the bound on n")
print("   is doing real work and cannot be dropped.")
print(f"   harness verdict: {verify_sharpness_A(a4).conclusion}")

print()
g24 = catalog.construct("A4xC2")
print("Second narrative: the order-24 product with a central involution.")
print(f"   prime spectrum {prime_spectrum(g24)}, residual bound allows n <= 3")
r = residual_strongly_supersoluble(g24)
print(f"   strongly supersoluble residual has order {r.order}")
print(f"   nilpotent Hall: {is_nilpotent_hall(g24, r)} "
      f"(gcd({r.order}, {g24.order // r.order}) != 1)")
cen = census(g24)
print(f"   least n with every n-maximal subgroup modular: "
      f"{cen.min_n_all_modular}")
print("   All 4-maximal subgroups are modular, but 4 exceeds the bound 3,")
print("   and indeed the residual fails to be a Hall subgroup. Raising the")
print("   bound to allow n=4 would make the statement false here.")
print(f"   harness verdict: {verify_sharpness_B(g24).conclusion}")
