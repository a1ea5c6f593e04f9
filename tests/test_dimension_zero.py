"""Dimension 0 is component labels: every solver's basis at dimension 0 is
one root vertex per component, and a vertex's class is its label.

On leaves (hypothesis leaf_cases) and on every leaf and node of nested grids
(nodes label through their pieces) at every scale: a representative is a
single vertex whose coords are its own class; v - w has zero class exactly
when an independent union-find over the region's edges at that scale joins
v and w; bound(v - w, 0) has boundary v - w whenever it is not None; and a
vertex outside the region raises ValueError.  Building f_0 reads labels and
calls no solver's coords().
"""

import numpy as np
import pytest
from hypothesis import given, settings

from mvbetti import engine, mayer_vietoris
from mvbetti.core import Chain, PointCloud, chain_boundary
from mvbetti.covering import build_covering
from mvbetti.mayer_vietoris import MVNodeSolver
from mvbetti.reduction import LeafSolver, build_leaf

from conftest import brute_force_components, node_of
from test_leaf_views import leaf_cases


def _vertex(v, p):
    return Chain(0, p, {(int(v),): 1})


def _check_dimension_0(solver, cloud, scale, p, rng, bounds=8):
    region = solver.ids.tolist()
    comp = brute_force_components(region, cloud, scale)
    # One single-vertex representative per component, each its own class.
    roots = []
    for b in range(solver.betti(0)):
        rep = solver.representative(0, b)
        assert len(rep.terms) == 1 and list(rep.terms.values()) == [1]
        ((v,),) = rep.terms
        roots.append(v)
        assert solver.coords(rep, 0) == {b: 1}
    assert solver.roots().tolist() == roots
    assert sorted(comp[v] for v in roots) == sorted(set(comp.values()))
    # v - w is a boundary exactly when v and w are joined at this scale.
    pairs = [(v, comp[v]) for v in region]
    pairs += [(v, region[i]) for v, i in zip(region, rng.permutation(len(region)))]
    for v, w in pairs:
        z = _vertex(v, p) - _vertex(w, p)
        assert (solver.coords(z, 0) == {}) == (comp[v] == comp[w])
    for i in rng.permutation(len(pairs))[:bounds]:
        v, w = pairs[i]
        z = _vertex(v, p) - _vertex(w, p)
        chain = solver.bound(z, 0)
        assert (chain is None) == (comp[v] != comp[w])
        if chain is not None:
            assert chain_boundary(chain) == z
    # Labels agree with coords, batched over the whole region.
    labels = solver.labels(np.array(region))
    assert [{b: 1} for b in labels.tolist()] == [solver.coords(_vertex(v, p), 0)
                                                  for v in region]
    outside = sorted(set(range(cloud.n)) - set(region))
    if outside:
        u = _vertex(outside[len(outside) // 2], p)
        if region:
            u = u - _vertex(region[0], p)
        for query in (solver.coords, solver.bound):
            with pytest.raises(ValueError):
                query(u, 0)
        with pytest.raises(ValueError):
            solver.labels(np.array(region[:1] + outside[:1]))


@settings(max_examples=40, deadline=None)
@given(leaf_cases(primes=(2, 3, 5), n_maxes=(0, 1)))
def test_leaf_labels_are_components(case):
    cloud, scales, p, n_max, rng = case
    pts = range(1, cloud.n)     # point 0 lies outside the region
    red = build_leaf(pts, cloud, scales, n_max, p)
    for s in sorted(set(scales)):
        _check_dimension_0(red.view(s), cloud, s, p, rng)


def _solvers(cloud, eps, scale, grid, p, n_max=1):
    """Every solver of the box tree of a run at one scale, leaves and
    nodes, children before parents, as run() walks it."""
    covering = build_covering(cloud, eps, grid)
    jobs, _ = engine.plan_jobs(covering)
    solvers = {}
    for box, job in jobs.items():
        if job.pieces:
            solvers[box] = node_of([solvers[b] for b in job.pieces],
                                   [solvers[b] for b in job.overlaps])
        else:
            pts = covering.points_in_box(cloud, box)
            solvers[box] = build_leaf(pts, cloud, [scale], n_max, p).view(scale)
    return list(solvers.values())


@pytest.mark.parametrize("d,n,eps,scales,grid,p", [
    (2, 160, 0.15, [0.04, 0.08, 0.15], [4, 4], 2),
    (3, 150, 0.25, [0.12, 0.25], [3, 3, 3], 3),
    (2, 120, 0.2, [0.05, 0.1, 0.2], [3, 2], 5),
], ids=["2d-4x4-p2", "3d-3x3x3-p3", "2d-3x2-p5"])
def test_nested_grid_labels_are_components(d, n, eps, scales, grid, p):
    cloud = PointCloud(np.random.default_rng(3).random((n, d)))
    rng = np.random.default_rng(4)
    for s in scales:
        solvers = _solvers(cloud, eps, s, grid, p)
        nodes = [x for x in solvers if isinstance(x, MVNodeSolver)]
        assert nodes and any(isinstance(pc, MVNodeSolver) for x in nodes for pc in x.pieces)
        for solver in solvers:
            _check_dimension_0(solver, cloud, s, p, rng, bounds=4)
        # The root covers the cloud: nothing lies outside it.
        assert np.array_equal(solvers[-1].ids, np.arange(cloud.n))


def test_f0_is_built_from_labels_without_coords(monkeypatch):
    # A nested 3x3 grid at n_max 1: f_0 reads labels only, while the
    # dimension-1 assembly still queries both kinds of solver.
    calls = {"build_f 0": [], "other": []}
    building = []
    original_build_f = mayer_vietoris.build_f

    def build_f(pieces, inters, n, field):
        building.append(n)
        try:
            return original_build_f(pieces, inters, n, field)
        finally:
            building.pop()

    def counting(cls):
        original = cls.coords

        def coords(self, z, n):
            key = "build_f 0" if building == [0] else "other"
            calls[key].append(cls.__name__)
            return original(self, z, n)
        monkeypatch.setattr(cls, "coords", coords)

    monkeypatch.setattr(mayer_vietoris, "build_f", build_f)
    counting(LeafSolver)
    counting(MVNodeSolver)
    cloud = PointCloud(np.random.default_rng(2).random((200, 2)))
    report = engine.run(cloud, 0.2, [0.1, 0.2], n_max=1, field=3, workers=1, grid=[3, 3])
    assert report.diagnostics["ranks_f"]["0.1"]["0"]["0"] > 0
    assert calls["build_f 0"] == []
    assert {"LeafSolver", "MVNodeSolver"} <= set(calls["other"])
