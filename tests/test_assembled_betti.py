"""Assembled Betti numbers of adversarial clouds equal a brute-force count.

run() on a grid with up to three cells per axis is checked against
conftest's brute_force_betti, which enumerates vertex subsets and takes dense
ranks: it shares nothing with the package but the distance function.  The
clouds sit on a small lattice, so many distances tie, and they carry
- extra points exactly on the cell and overlap endpoints of the covering
  that run() builds;
- scales exactly equal to pairwise distances, the top one being eps;
- coordinate offsets from 1e6 to 1e12;
- axes of zero extent and duplicate points;
- d up to 4 and p in {2, 3, 5};
- two cells on an axis whose extent / 2 may be at most eps.
n is capped at 12 for n_max = 1 and at 9 for n_max = 2, so the dense ranks
stay small.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mvbetti.core import PointCloud
from mvbetti.covering import build_covering
from mvbetti.engine import run

from conftest import brute_force_betti


@st.composite
def grid_cases(draw):
    """(cloud, eps, scales, grid, p, n_max) with a valid explicit grid."""
    d = draw(st.integers(1, 4))
    n_max = draw(st.sampled_from([1, 2]))
    cap = 12 if n_max == 1 else 9
    n = draw(st.integers(2, cap - 2))
    lattice = draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                            min_size=n, max_size=n))
    coords = np.asarray(lattice, dtype=np.float64)
    flat = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    coords[:, sorted(flat)] = 0.0
    if draw(st.booleans()):
        coords[-1] = coords[0]
    step = draw(st.sampled_from([0.25, 0.3, 1.0]))
    offset = draw(st.sampled_from([0.0, 1e6, 1e9, 1e12]))
    coords = coords * step + offset

    base = PointCloud(coords)
    dists = sorted({float(x) for x in base.pairwise(range(n)).ravel()} - {0.0})
    scales = sorted(set(draw(st.lists(st.sampled_from(dists), min_size=1, max_size=2))
                        if dists else [step]))
    eps = scales[-1]

    grid = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    split = draw(st.integers(0, d - 1))
    grid[split] = max(2, grid[split])
    try:
        cov = build_covering(base, eps, grid)
    except ValueError:      # three cells need extent / 3 > eps
        grid = [min(k, 2) for k in grid]
        cov = build_covering(base, eps, grid)

    # Points on cell and overlap endpoints (the overlaps' endpoints are
    # the cells'), inside each axis's range so the covering stays the same.
    mins, maxs = base.axis_ranges()
    ends = [sorted({x for ab in ax.cells for x in ab if mins[a] <= x <= maxs[a]})
            for a, ax in enumerate(cov.axes)]
    axes = [a for a in range(d) if ends[a]]
    extra = []
    if axes:
        for _ in range(draw(st.integers(0, cap - n))):
            pt = coords[draw(st.integers(0, n - 1))].copy()
            a = draw(st.sampled_from(axes))
            pt[a] = draw(st.sampled_from(ends[a]))
            extra.append(pt)
    cloud = PointCloud(np.vstack([coords] + extra)) if extra else base
    return cloud, eps, scales, grid, draw(st.sampled_from([2, 3, 5])), n_max


@settings(max_examples=200, deadline=None)
@given(grid_cases())
def test_assembled_betti_equal_brute_force(case):
    cloud, eps, scales, grid, p, n_max = case
    report = run(cloud, eps, scales, n_max=n_max, field=p, workers=1, grid=grid)
    for sr in report.scales:
        assert sr.betti == brute_force_betti(range(cloud.n), cloud, sr.scale, n_max, p), (
            sr.scale, cloud.coords.tolist(), grid)
