"""Core building blocks: point clouds, prime fields, simplices, chains.

Run:  python demos/01_points_chains_fields.py
"""

import numpy as np

from mvbetti import Chain, PointCloud, PrimeField, boundary, chain_boundary

print("== Point clouds and the metric ==")
cloud = PointCloud([[0, 0], [3, 4], [3, 0]])
print("points:", cloud.coords.tolist())
dist = cloud.pairwise([0, 1, 2])
print("distance between points 0 and 1 =", dist[0, 1])
print("diameter of all three =", dist.max())

print("\n== Prime field arithmetic (exact, no floats) ==")
F5 = PrimeField(5)
p = F5.p
print("in Z/5: 3 + 4 =", (3 + 4) % p, ", 3 * 4 =", (3 * 4) % p)
print("inverse of 4 mod 5:", pow(4, -1, p), " (4 * 4 = 16 = 1 mod 5)")

print("\n== Boundaries ==")
b2 = boundary((0, 1, 2), 2)
b3 = boundary((0, 1, 2), 3)
print("boundary of triangle (0,1,2) over Z/2:", b2)
print("same over Z/3 (signs survive):        ", b3)
print("boundary of the boundary is zero:", chain_boundary(b3).is_zero())

print("\n== Chains form a module ==")
z = Chain(1, 3, {(0, 1): 1, (1, 2): 1})
print("z          =", z)
print("z + z      =", z + z)
print("z scaled 2 =", z.scaled(2))
print("z - z is zero:", (z - z).is_zero())

print("\n== Random sanity: d(d(simplex)) = 0 in every field ==")
rng = np.random.default_rng(0)
for p in (2, 3, 5, 7):
    verts = tuple(sorted(rng.choice(100, size=5, replace=False)))
    assert chain_boundary(boundary(verts, p)).is_zero()
print("checked random 4-simplices over Z/2, Z/3, Z/5, Z/7: all zero")
