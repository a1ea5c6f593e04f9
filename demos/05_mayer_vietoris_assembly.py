"""Assembling global homology from two overlapping pieces of a hexagon.

The loop of the hexagon is invisible inside either piece (both are
contractible arcs); it appears in the kernel of the overlap-to-pieces map and
the assembly reconstructs an explicit global cycle for it.

Run:  python demos/05_mayer_vietoris_assembly.py
"""

import math

from mvbetti import Chain, NodeRegion, PointCloud, assemble, build_f, build_leaf, chain_boundary

h = math.sqrt(3) / 2
hexagon = PointCloud([[1, 0], [0.5, h], [-0.5, h], [-1, 0], [-0.5, -h], [0.5, -h]])

# Two arcs covering the hexagon; their overlap is two far-apart vertices.
top = build_leaf([0, 1, 2, 5], hexagon, [1.0], 1, 3).view(1.0)
bottom = build_leaf([2, 3, 4, 5], hexagon, [1.0], 1, 3).view(1.0)
overlap = build_leaf([2, 5], hexagon, [1.0], 1, 3).view(1.0)

print("piece betti:", top.betti_all(), "and", bottom.betti_all(),
      "(both contractible arcs)")
print("overlap betti:", overlap.betti_all(), "(two isolated points)")

fm = build_f([top, bottom], [overlap], 0, 3)
print("\nf_0 maps the overlap's two components into the two pieces:")
print("  columns:", fm.columns, " -> rank 1, kernel dimension 1")

# The region (union point set, overlap check) does not depend on the scale;
# assemble gives its solver at the children's scale.
region = NodeRegion([top, bottom], [overlap], 1, 3)
node = assemble(region, [top, bottom], [overlap])
print("\nassembled union betti:", node.betti_all())
print("  beta_0 = coker(f_0) = 2 - 1 = 1")
print("  beta_1 = ker(f_0)   = 2 - 1 = 1   (no loop lives in any piece!)")

# The Betti numbers above read only ranks; the lift is built on this first
# read of the representatives.
lift = node.representatives(1)[0]
print("\nconnecting lift built for the kernel vector (a global 1-cycle):")
print(" ", lift)
print("  it is a cycle:", chain_boundary(lift).is_zero())

cycle = Chain(1, 3, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (0, 5): -1})
print("\nthe oriented six-sides cycle has coordinates", node.coords(cycle, 1),
      "({basis index: residue}) in the assembled basis")
print("and admits no bounding chain:", node.bound(cycle, 1))

print("\nqueries are chain-level and exact; a boundary computed in a piece:")
zb = chain_boundary(Chain(1, 3, {(0, 1): 1, (1, 2): 1}))
print("  coords of d(path 0-1-2) =", node.coords(zb, 0), "(no nonzero entry: class zero)")
w = node.bound(zb, 0)
print("  bound() returns a chain with exactly that boundary:",
      chain_boundary(w) == zb)
