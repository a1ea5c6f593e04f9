"""coords()/bound() of an assembled root and of a leaf on random cycles.

Every cycle is built from known parts, z = sum_b a_b * rep_b + dw, with
random coefficients a and a random (n+1)-chain w of the whole cloud's
complex at the scale.  So coords(z, n) must be exactly the nonzero part of
a, and bound(z, n) must be None exactly when a != 0 and otherwise return a
chain whose boundary is z.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mvbetti.core import Chain, PointCloud, chain_boundary
from mvbetti.covering import build_covering
from mvbetti.engine import execute_scale, plan_jobs
from mvbetti.mayer_vietoris import MVNodeSolver
from mvbetti.reduction import DEFAULT_BUDGET, build_leaf
from mvbetti.rips import enumerate_complex

from conftest import vertex_levels


@st.composite
def chase_cases(draw):
    """A small 2-D cloud, a scale, p, n_max, a seeded generator, and whether
    the class part a of each test cycle is forced to zero.

    The cloud is uniform in the unit square, or a jittered ring around the
    origin plus a square loop in the lower-left corner and a lone point in
    the upper-right one.  The ring crosses both grid splits, so the root
    holds it as a kernel class (a connecting lift); the square lies inside
    one piece, so it is a cokernel class.  Uniform clouds this small rarely
    give either."""
    n = draw(st.integers(5, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        angles = 2 * np.pi * (np.arange(n) + rng.uniform(-0.15, 0.15, n)) / n
        radii = 0.4 + rng.uniform(-0.02, 0.02, n)
        ring = radii[:, None] * np.c_[np.cos(angles), np.sin(angles)]
        scale = max(float(np.linalg.norm(ring[i] - ring[i - 1])) for i in range(n))
        scale *= draw(st.floats(1.0, 1.3))
        # Sides below the scale, diagonals above it: an unfilled 4-cycle.
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) * (scale / 1.2) - 1.5
        cloud = PointCloud(np.vstack([ring, square, [[1.5, 1.5]]]))
    else:
        cloud = PointCloud(rng.random((n, 2)))
        scale = draw(st.floats(0.15, 0.6))
    p = draw(st.sampled_from([2, 3, 5]))
    n_max = draw(st.integers(1, 2))
    zero_class = draw(st.booleans())
    return cloud, scale, p, n_max, rng, zero_class


def _check_queries(solver, uppers, n, p, rng, zero_class):
    reps = solver.representatives(n)
    assert len(reps) == solver.betti(n)
    a = np.zeros(len(reps), dtype=np.int64) if zero_class else rng.integers(0, p, len(reps))
    z = Chain.zero(n, p)
    for b, c in enumerate(a):
        if c:
            z = z + reps[b].scaled(int(c))
    if uppers:
        picks = rng.choice(len(uppers), size=min(4, len(uppers)), replace=False)
        w = Chain(n + 1, p, {uppers[int(i)]: int(rng.integers(1, p)) for i in picks})
        z = z + chain_boundary(w)
    want = {b: int(c) for b, c in enumerate(a) if c}

    assert solver.coords(z, n) == want
    got = solver.bound(z, n)
    if want:
        assert got is None
    else:
        assert got is not None and chain_boundary(got) == z


@settings(max_examples=30, deadline=None)
@given(chase_cases())
def test_root_and_leaf_queries_recover_known_classes(case):
    cloud, scale, p, n_max, rng, zero_class = case
    covering = build_covering(cloud, scale, [2, 2])
    root, _, _ = execute_scale(cloud, covering, plan_jobs(covering), scale, n_max, p,
                               DEFAULT_BUDGET, 1, [scale], {})
    assert isinstance(root, MVNodeSolver)
    leaf = build_leaf(range(cloud.n), cloud, [scale], n_max, p).view(scale)
    assert root.betti_all() == leaf.betti_all()
    # The whole cloud's complex at scale, as the single-scale leaf holds it.
    cx = enumerate_complex(range(cloud.n), cloud, scale, n_max + 1)
    levels = [[tuple(s) for s in level.tolist()] for level in vertex_levels(cx)]
    for n in range(n_max + 1):
        for solver in (root, leaf):
            _check_queries(solver, levels[n + 1], n, p, rng, zero_class)
