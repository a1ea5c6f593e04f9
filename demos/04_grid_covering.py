"""The overlapping grid: cells, overlaps, the Lebesgue property, box splitting.

Run:  python demos/04_grid_covering.py
"""

import numpy as np

from mvbetti import PointCloud, build_covering, choose_k, full_box, split_axis

rng = np.random.default_rng(1)
cloud = PointCloud(rng.random((40, 2)) * 10)
eps = 0.9

mins, maxs = cloud.axis_ranges()
extent = float((maxs - mins).max())
k, capped = choose_k(parallel=9, dim=2, extent=extent, eps=eps)
print(f"parallelism budget 9 in 2 axes -> k = {k} cells per axis (capped: {capped})")

cov = build_covering(cloud, eps, k)
ax = cov.axes[0]
print(f"\naxis 0 spans [{ax.origin:.3f}, {ax.origin + ax.extent:.3f}], eps = {eps}")
print("cells:   ", [(round(a, 3), round(b, 3)) for a, b in ax.cells])
print("overlaps:", [(round(a, 3), round(b, 3)) for a, b in ax.overlaps])
print("every overlap is exactly eps wide; cells overlap only their neighbors.")

print("\nAny simplex with diameter <= eps fits inside one cell per axis")
print("(coordinate projections shrink distances, so spans stay <= eps):")
dist = cloud.pairwise(range(cloud.n))
edge = tuple(int(v) for v in np.argwhere(np.triu(dist <= eps, 1))[0])
lo, hi = cloud.coords[list(edge), 0].min(), cloud.coords[list(edge), 0].max()
inside = [j for j, (a, b) in enumerate(ax.cells) if a <= lo and hi <= b]
print(f"  edge {edge} of length {dist[edge]:.3f} with x-span [{lo:.3f}, {hi:.3f}] lies in cells {inside} on axis 0")

print("\nRecursive decomposition of the whole box:")
sp = split_axis(full_box(2), cov)
print(f"  split axis {sp.axis}: {len(sp.pieces)} pieces, {len(sp.overlaps)} overlap boxes")
sub = split_axis(sp.pieces[0], cov)
print(f"  each piece splits on axis {sub.axis} into {len(sub.pieces)} cubes;")
print(f"  cubes are leaves: {split_axis(sub.pieces[0], cov) is None}")

counts = [len(cov.points_in_box(cloud, b)) for b in sub.pieces]
print(f"  leaf point counts under piece 0: {counts} of {cloud.n} total")
leaves = 1
for k in cov.k_per_axis:    # k cells and k - 1 overlaps per axis
    leaves *= 2 * k - 1
print(f"  total leaf regions for the run: {leaves}")
