"""Region homology by matrix reduction: Betti numbers, representatives,
explicit bounding chains, and the direct persistence barcode.

Run:  python demos/03_region_homology.py
"""

import math

from mvbetti import (Chain, PointCloud, betti_at_scale, build_leaf,
                     chain_boundary, persistence_barcode)

square = PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])
# build_leaf reduces the region once for every listed scale; view(s) is the
# region's solver at scale s.
solver = build_leaf(range(4), square, [1.0], 1, 2).view(1.0)
print("Unit square at scale 1 (sides connect, diagonals do not):")
print("  betti =", solver.betti_all(), " -> one component, one loop")

loop = solver.representatives(1)[0]
print("  stored loop representative:", loop)

z = Chain(1, 2, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
print("  coords of the four-sides cycle ({basis index: residue}):", solver.coords(z, 1))
print("  bound(four-sides cycle):", solver.bound(z, 1), " (non-bounding)")

print()
tri = PointCloud([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
tsolver = build_leaf(range(3), tri, [1.0], 1, 2).view(1.0)
zb = chain_boundary(Chain(2, 2, {(0, 1, 2): 1}))
w = tsolver.bound(zb, 1)
print("Filled triangle: the perimeter bounds;")
print("  bound(perimeter) =", w)
print("  boundary of that chain equals the perimeter:", chain_boundary(w) == zb)

print()
h = math.sqrt(3) / 2
hexagon = PointCloud([[1, 0], [0.5, h], [-0.5, h], [-1, 0], [-0.5, -h], [0.5, -h]])
bars = persistence_barcode(range(6), hexagon, 2.0, 1, 2)
print("Hexagon barcode up to scale 2 (dimension, birth, death):")
for b in bars:
    death = "open" if b.death is None else round(b.death, 4)
    print(f"  H{b.dim}: [{round(b.birth, 4)}, {death})")
for s in (0.5, 1.0, 1.9):
    print(f"  alive at scale {s}: beta_0 = {betti_at_scale(bars, 0, s)},",
          f"beta_1 = {betti_at_scale(bars, 1, s)}")
