"""Enumerating Rips complexes: a simplex for every subset of diameter <= scale.

Run:  python demos/02_rips_complexes.py
"""

import math

from mvbetti import PointCloud, enumerate_complex

h = math.sqrt(3) / 2
hexagon = PointCloud([[1, 0], [0.5, h], [-0.5, h], [-1, 0], [-0.5, -h], [0.5, -h]])

print("Regular hexagon with side 1; distances: side 1, short diagonal",
      round(math.sqrt(3), 3), ", long diagonal 2")
print()
print(f"{'scale':>6}  {'vertices':>8}  {'edges':>5}  {'triangles':>9}")
for scale in (0.5, 1.0, 1.75, 2.0):
    cx = enumerate_complex(range(6), hexagon, scale, 2)
    print(f"{scale:>6}  {cx.count(0):>8}  {cx.count(1):>5}  {cx.count(2):>9}")

print("""
At 0.5 nothing connects; at 1.0 the six sides form a hollow loop; at 1.75
the short diagonals fill in the loop; at 2.0 everything is a clique.""")

cx = enumerate_complex(range(6), hexagon, 1.0, 2)
# The rows of the edges' facet table are their two vertex rows, positions
# in cx.points, the region's point ids.
print("edges at scale 1.0:", [tuple(s) for s in cx.points[cx.facets[1]].tolist()])
print("each edge records its diameter:", [round(d, 6) for d in cx.diameters[1].tolist()])
