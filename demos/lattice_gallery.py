"""Subgroup lattices and embedding predicates on a few small groups.

Run: python3 demos/lattice_gallery.py > lattice.out
     (the final section writes quaternion_lattice.dot next to it;
      render with: dot -Tpng quaternion_lattice.dot > lattice.png)
"""

from pathlib import Path

from modmax import catalog
from modmax.lattice import lattice_of

for name in ("S3", "Q8", "A4", "S4"):
    g = catalog.construct(name)
    lat = lattice_of(g)
    print(f"{name}: {lat.size} subgroups, longest maximal chain "
          f"{lat.max_chain_length}")
    for i, s in enumerate(lat.subgroups):
        flags = "".join((
            "N" if lat.is_normal(i) else "-",
            "M" if lat.is_modular(i) else "-",
            "Q" if lat.is_quasinormal(i) else "-",
            "S" if lat.is_s_quasinormal(i) else "-",
            "s" if lat.is_subnormal(i) else "-",
        ))
        depths = [n for n, layer in enumerate(lat.layers) if layer >> i & 1]
        print(f"   [{i:>2}] order {s.order:>2}  {flags}  n-maximal for n in {depths}")
    print()

print("Flag legend: Normal, Modular, Quasinormal, S-quasinormal, subnormal.")
print()
print("A4 shows the gap between the notions: the four order-3 subgroups and")
print("three order-2 subgroups are neither modular nor S-quasinormal, while")
print("in S3 every subgroup is modular yet the order-2 ones fail to be")
print("S-quasinormal. Modularity and S-quasinormality are incomparable.")

out = Path(__file__).with_name("quaternion_lattice.dot")
out.write_text(lattice_of(catalog.construct("Q8")).to_dot())
print(f"\nwrote {out.name}")
