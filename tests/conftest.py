"""Shared fixtures and independent test oracles.

The oracles here (dense row-reduction rank, brute-force subset enumeration,
the textbook barcode reduction) deliberately do not reuse the library's
column-reduction, pairing or clique-expansion code paths.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from mvbetti.core import Chain, PointCloud, _distances
from mvbetti.mayer_vietoris import NodeRegion, assemble
from mvbetti.rips import RipsComplex, enumerate_complex, vertex_rows

HEX_H = math.sqrt(3) / 2
# Regular hexagon with side exactly 1 (all six side lengths compare <= 1.0).
HEX_POINTS = [
    [1.0, 0.0], [0.5, HEX_H], [-0.5, HEX_H],
    [-1.0, 0.0], [-0.5, -HEX_H], [0.5, -HEX_H],
]

# Regular tetrahedron: all pairwise distances are exactly sqrt(8).
TETRA_POINTS = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
TETRA_SIDE = math.sqrt(8)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@pytest.fixture
def hexagon():
    return PointCloud(HEX_POINTS)


@pytest.fixture
def unit_square():
    return PointCloud(UNIT_SQUARE)


def hexagon_cycle(p: int) -> Chain:
    """The oriented sum of the six hexagon sides; a 1-cycle over any field."""
    terms = {}
    for i in range(6):
        a, b = i, (i + 1) % 6
        s = (min(a, b), max(a, b))
        terms[s] = terms.get(s, 0) + (1 if a < b else -1)
    return Chain(1, p, terms)


def dense(coords: dict, size: int) -> list:
    """A sparse {basis index: residue} class vector as a list of length size.

    Every key must be a basis index and every stored residue nonzero."""
    assert all(0 <= i < size for i in coords) and all(coords.values())
    out = [0] * size
    for i, c in coords.items():
        out[i] = c
    return out


def dense_rank_mod_p(M, p: int) -> int:
    """Row-based Gauss-Jordan rank over Z/p (independent of the library)."""
    A = (np.asarray(M, dtype=np.int64) % p).copy()
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
        if r == rows:
            break
    return r


def brute_force_simplices(points, cloud: PointCloud, scale: float, max_dim: int):
    """All subsets of size <= max_dim+1 with diameter <= scale, per dimension."""
    pts = sorted(points)
    out = [[] for _ in range(max_dim + 1)]
    for q in range(max_dim + 1):
        for sub in combinations(pts, q + 1):
            if diameter(cloud, sub) <= scale:
                out[q].append(tuple(sub))
    return out


def dense_boundary(simplices_lower, simplices_upper, p: int):
    """Dense boundary matrix built independently from face formulas."""
    idx = {s: i for i, s in enumerate(simplices_lower)}
    M = np.zeros((len(simplices_lower), len(simplices_upper)), dtype=np.int64)
    for j, s in enumerate(simplices_upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            M[idx[face], j] = 1 if i % 2 == 0 else p - 1
    return M


def brute_force_components(points, cloud: PointCloud, scale: float) -> dict:
    """{point: smallest point of its component} of the graph on points whose
    edges are the pairs at distance <= scale: union-find over every pair,
    independent of the library's pairing."""
    pts = sorted(points)
    dist = cloud.pairwise(pts)
    root = {v: v for v in pts}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j in combinations(range(len(pts)), 2):
        if dist[i, j] <= scale:
            a, b = sorted((find(pts[i]), find(pts[j])))
            root[b] = a
    return {v: find(v) for v in pts}


def brute_force_betti(points, cloud, scale, n_max, p):
    """Betti numbers via subset enumeration plus dense rank, fully independent."""
    levels = brute_force_simplices(points, cloud, scale, n_max + 1)
    betti = []
    for n in range(n_max + 1):
        cn = len(levels[n])
        rank_n = 0
        if n >= 1 and cn:
            rank_n = dense_rank_mod_p(dense_boundary(levels[n - 1], levels[n], p), p)
        rank_next = 0
        if levels[n + 1]:
            rank_next = dense_rank_mod_p(dense_boundary(levels[n], levels[n + 1], p), p)
        betti.append(cn - rank_n - rank_next)
    return betti


def brute_force_barcode(points, cloud, eps_max, n_max, p):
    """The persistence barcode by the standard column reduction, fully
    independent: every simplex of brute_force_simplices up to dimension
    n_max + 1 in the whole filtration's (diameter, dimension, lex) order,
    each boundary column reduced left to right against the earlier ones.

    A pair (lowest row i, column j) gives the bar (dim i, diam i, diam j)
    unless it has zero length; a simplex of dimension <= n_max that is
    neither a pivot row nor has a nonzero reduced column gives an open bar.
    Returns [(dim, birth, death or None)] sorted by (dim, birth, death), an
    open bar first among equal births.
    """
    levels = brute_force_simplices(points, cloud, eps_max, n_max + 1)
    order = sorted((diameter(cloud, s), q, s) for q, level in enumerate(levels) for s in level)
    index = {s: j for j, (_, _, s) in enumerate(order)}
    columns, pivots = [], {}    # pivots: lowest row -> column
    for j, (_, q, s) in enumerate(order):
        col = {}
        if q:
            for i in range(q + 1):
                col[index[s[:i] + s[i + 1:]]] = 1 if i % 2 == 0 else p - 1
        while col and max(col) in pivots:
            low = max(col)
            src = columns[pivots[low]]
            c = col[low] * pow(src[low], p - 2, p) % p
            for r, x in src.items():
                y = (col.get(r, 0) - c * x) % p
                if y:
                    col[r] = y
                else:
                    del col[r]
        columns.append(col)
        if col:
            pivots[max(col)] = j
    deaths = {i: order[j][0] for i, j in pivots.items()}
    bars = []
    for j, (diam, q, _) in enumerate(order):
        if q > n_max or columns[j]:
            continue
        death = deaths.get(j)
        if death is None or death > diam:
            bars.append((q, diam, death))
    bars.sort(key=lambda b: (b[0], b[1], -1.0 if b[2] is None else b[2]))
    return bars


def betti_at(report, scale: float) -> list:
    """The Betti numbers of a run() report at one of its scales."""
    for sr in report.scales:
        if sr.scale == scale:
            return sr.betti
    raise KeyError(f"scale {scale} not in report")


def node_of(pieces, inters, n_max, field):
    """The node over piece and overlap solvers at one scale: assemble over
    a NodeRegion built from those solvers."""
    return assemble(NodeRegion(pieces, inters, n_max, field), pieces, inters)


def distance(cloud: PointCloud, i: int, j: int) -> float:
    """Euclidean distance between points i and j of the cloud, computed
    for that one pair (the metric PointCloud.pairwise computes in blocks)."""
    if not (0 <= i < cloud.n and 0 <= j < cloud.n):
        raise IndexError(f"point index out of range: ({i}, {j}) with n={cloud.n}")
    return float(_distances(cloud.coords[i], cloud.coords[j]))


def diameter(cloud: PointCloud, vertices) -> float:
    """Max pairwise distance over a nonempty vertex-index set (0 for
    singletons)."""
    idx = list(vertices)
    if not idx:
        raise ValueError("diameter of an empty vertex set is undefined")
    if len(idx) == 1:
        if not 0 <= idx[0] < cloud.n:
            raise IndexError(f"point index out of range: {idx[0]}")
        return 0.0
    return float(cloud.pairwise(idx).max())


def leaf_count(covering) -> int:
    """The number of leaf boxes of a covering: 2k - 1 cells and overlaps
    per axis of k cells."""
    n = 1
    for k in covering.k_per_axis:
        n *= 2 * k - 1
    return n


def random_cloud(rng, n, d) -> PointCloud:
    return PointCloud(rng.random((n, d)))


def distance_quantile(cloud: PointCloud, q: float) -> float:
    dm = cloud.pairwise(range(cloud.n))
    iu = np.triu_indices(cloud.n, 1)
    return float(np.quantile(dm[iu], q))


def vertex_levels(cx: RipsComplex):
    """The levels of cx as (count(q), q + 1) int64 arrays of global point
    indices, in cx's row order: rips.vertex_rows of every row, mapped
    through cx.points.  The complex stores no vertex rows of its own."""
    return [cx.points[vertex_rows(cx.facets, q, np.arange(cx.count(q)))]
            for q in range(cx.max_dim + 1)]


def leaf_levels(points, cloud: PointCloud, scales, top: int):
    """Levels 0..top of a leaf over scales as (vertex tuples, diameters)
    lists, in the leaf's row order: enumerate_complex at the top scale, then
    a level with a diameter above the first scale sorted by (diameter, lex
    position), the order LeafReduction documents.  A reference for the rows
    of a leaf, which keeps no vertex levels of its own; unlike the oracles
    above it enumerates with the library, since it fixes an order, not
    which simplices exist."""
    cx = enumerate_complex(points, cloud, max(scales), top)
    levels = []
    for simplices, diams in zip(vertex_levels(cx), cx.diameters):
        simplices, diams = [tuple(s) for s in simplices.tolist()], diams.tolist()
        order = range(len(diams))
        if diams and max(diams) > min(scales):
            order = sorted(order, key=lambda i: (diams[i], i))
        levels.append(([simplices[i] for i in order], [diams[i] for i in order]))
    return levels


def leaf_complex(points, cloud: PointCloud, scales, top: int) -> RipsComplex:
    """The complex of leaf_levels as a RipsComplex, its levels in the
    leaf's row order, for the library routines that take one.  Its facet
    tables come from looked_up_facets, not from the library's expansion."""
    levels = leaf_levels(points, cloud, scales, top)
    simplices = [s for s, _ in levels]
    return RipsComplex(
        np.array([s for (s,) in simplices[0]], np.int64), top,
        [np.array(diams, np.float64) for _, diams in levels],
        [None] + [np.array(looked_up_facets(simplices, q), np.int64).reshape(-1, q + 1)
                  for q in range(1, top + 1)])


def looked_up_facets(levels, q):
    """Facet rows of level q from combinations() and a {vertex tuple: row}
    dict of level q - 1: combinations drops the last vertex first, the
    facet_signs order."""
    index = {tuple(s): i for i, s in enumerate(levels[q - 1])}
    return [[index[f] for f in combinations(tuple(s), q)] for s in levels[q]]
