"""Rips complex enumeration for a region of a point cloud.

A vertex set spans a simplex exactly when its diameter is at most the scale,
i.e. the complex is the clique complex of the scale-neighborhood graph, so
enumeration runs by extending each q-simplex with vertices adjacent to all of
its vertices and larger than its maximum (each simplex generated once, in
lexicographic order).

The scale-neighbourhood graph comes from PointCloud.close_pairs, which
buckets the region's points into cells just wider than the scale on up to
three axes and computes distances, in blocks of bounded size, only between
points of the same or adjacent cells.  Its memory is linear in points plus
edges, and the edges count against the simplex budget as they are found,
so the budget bounds the distance stage as well.

The edges become sorted arrays: CSR offsets of each vertex's higher
neighbours.  Every level then comes from the one below it with numpy, in
blocks of at most _EXPAND_BLOCK candidates (core.blocked_ranges), each
counted against the budget before the next is expanded.  The expansion
finds a coface's facets while it tests the coface, one search per facet in
the level below, so it writes each level's facet table with no second
lookup.  A complex is its level-0 point ids, diameters and facet tables,
all arrays: it stores no vertex rows.

The facet tables are the one facet lookup: a row of one is a simplex's
boundary (a leaf builds its columns from them when a query reads them,
and boundary_matrix its {row: coefficient} dicts), the pairing in
reduction reads its coboundaries from them, and vertex_rows
reads any simplex's vertices off them, as in Ripser (Bauer, 2021).
RipsComplex.reorder keeps them consistent when reduction._order_levels
sorts the levels by diameter.  A leaf keeps the tables and drops its
complex.
"""

from __future__ import annotations

import numpy as np

from .core import PointCloud, blocked_ranges, require_int, require_real, search_sorted

DEFAULT_BUDGET = 10_000_000
_EXPAND_BLOCK = 1 << 16     # candidate cofaces of one clique expansion block


class BudgetExceededError(RuntimeError):
    """Simplex enumeration crossed the configured budget."""

    def __init__(self, budget: int, region_size: int):
        super().__init__(
            f"simplex budget {budget} exceeded while enumerating a region "
            f"of {region_size} points; raise the budget or lower the scale"
        )
        self.budget = budget
        self.region_size = region_size


class RipsComplex:
    """All simplices of diameter <= scale on a region, up to max_dim.

    points is level 0: the sorted int64 array of the region's global point
    indices, a vertex row being a position in it.  diameters[q] is the
    float64 array of the q-simplices' diameters.  facets is [None, F_1,
    ..., F_max_dim], as the clique expansion writes them: row i of the
    (count(q), q + 1) int64 array F_q holds the level q-1 positions of the
    facets of q-simplex i in the order of facet_signs(q, p), facet m
    dropping vertex q - m, so F_1 holds the edges' vertex rows.  No other
    vertex rows are stored: vertex_rows works them out from the tables.
    Levels are in lex order as enumerated; a leaf reduction or the oracle
    may stable-sort them by diameter (reorder) before pairing them.
    Nothing here looks a simplex up: a leaf answers its queries from the
    facet tables (reduction.LeafReduction).
    """

    __slots__ = ("points", "max_dim", "diameters", "facets")

    def __init__(self, points, max_dim, diameters, facets):
        self.points = points
        self.max_dim = max_dim
        self.diameters = diameters
        self.facets = facets

    def reorder(self, q: int, order):
        """Put level q in the given order of its current positions: its
        diameters and rows (table rows, or points at level 0) move, and
        level q+1's table entries are relabelled to the new positions.  The
        arrays held here are replaced, not kept beside reordered copies."""
        self.diameters[q] = self.diameters[q][order]
        if q:
            self.facets[q] = self.facets[q][order]
        else:
            self.points = self.points[order]
        if q < self.max_dim:
            inverse = np.empty_like(order)
            inverse[order] = np.arange(len(order))
            self.facets[q + 1] = inverse[self.facets[q + 1]]

    def count(self, q: int) -> int:
        if q < 0 or q > self.max_dim:
            return 0
        return len(self.diameters[q])

    def total(self) -> int:
        return sum(len(d) for d in self.diameters)


def vertex_rows(facets, q: int, rows):
    """The (len(rows), q + 1) vertex rows of the q-simplices at rows, an int
    array, read from the facet tables [None, F_1, ...]: F_1's rows are the
    edges' vertex rows, and for q >= 2 facet 0 drops the last vertex and
    facet q the first.  The points of a complex map them to global ids."""
    if q < 2:
        return facets[1][rows] if q else rows[:, None]
    f = facets[q][rows]
    return np.column_stack((vertex_rows(facets, q - 1, f[:, 0]),
                            vertex_rows(facets, q - 1, f[:, q])[:, -1]))


def _point_ids(points, n: int):
    """The point indices as a sorted int64 array; a ValueError unless they
    are distinct integers in 0..n-1."""
    ids = np.asarray(points if isinstance(points, np.ndarray) else list(points))
    if ids.size == 0:
        return np.empty(0, np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError(f"point indices must be integers, not {ids.dtype} of shape {ids.shape}")
    ids = np.sort(ids.astype(np.int64))
    if ids[0] < 0 or ids[-1] >= n:
        raise ValueError(f"point index {ids[0] if ids[0] < 0 else ids[-1]} is out of range "
                         f"for a cloud of {n} points")
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if len(repeated):
        raise ValueError(f"point index {repeated[0]} is repeated")
    return ids


def _edges(pts, cloud: PointCloud, scale: float, budget: int):
    """Every edge of the scale-neighbourhood graph on the sorted global
    indices pts, as arrays (lo, hi, dist) of local vertex rows lo < hi and
    their distance, lexsorted by (lo, hi), from cloud.close_pairs (whose
    positions in pts are the local rows).

    Edges are counted block by block: once the points plus the edges pass
    budget, BudgetExceededError is raised before more are computed.  The
    clique expansion would raise on exactly that condition.
    """
    n = len(pts)
    blocks, edges = [], 0
    for block in cloud.close_pairs(pts, scale):
        edges += len(block[0])
        if n + edges > budget:
            raise BudgetExceededError(budget, n)
        blocks.append(block)
    if not blocks:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    lo, hi, dist = (np.concatenate(a) for a in zip(*blocks))
    order = np.argsort(lo * n + hi)     # distinct keys: the (lo, hi) lex order
    return lo[order], hi[order], dist[order]


def enumerate_complex(
    points,
    cloud: PointCloud,
    scale: float,
    max_dim: int,
    budget: int = DEFAULT_BUDGET,
) -> RipsComplex:
    """Enumerate the Rips complex of a point-index set at one scale.

    The points are distinct integers in 0..cloud.n - 1, in any order,
    scale is a finite real >= 0, and max_dim and budget are ints >= 0, or
    a ValueError names the argument.
    Membership uses the closed condition (pairwise distances <= scale).
    Raises BudgetExceededError when the total simplex count passes budget.
    """
    scale = require_real("scale", scale)
    max_dim = require_int("max_dim", max_dim, 0)
    budget = require_int("budget", budget, 0)
    pts = _point_ids(points, cloud.n)
    n = len(pts)
    diameters = [np.zeros(n)] + [np.empty(0) for _ in range(max_dim)]
    facets = [None] + [np.empty((0, q + 1), np.int64) for q in range(1, max_dim + 1)]
    if n == 0:
        return RipsComplex(pts, max_dim, diameters, facets)
    count = n
    if count > budget:
        raise BudgetExceededError(budget, n)

    if max_dim >= 1:
        lo, hi, dist = _edges(pts, cloud, scale, budget)
        count += len(lo)
        # starts[v]:starts[v + 1] are the edges from v to its higher
        # neighbours, in ascending order.  An edge's facets are its vertex
        # rows.
        starts = np.searchsorted(lo, np.arange(n + 1))
        facets[1] = np.column_stack((lo, hi))
        diameters[1] = dist
        last = hi   # each simplex's last vertex, of the level being expanded
        for q in range(1, max_dim):
            blocks = [(last[:0], diameters[q + 1], facets[q + 1])]     # the empty level
            for block in _cofaces(last, diameters[q], facets[q], starts, hi, n):
                count += len(block[1])
                if count > budget:
                    raise BudgetExceededError(budget, n)
                blocks.append(block)
            last, diameters[q + 1], facets[q + 1] = (np.concatenate(a) for a in zip(*blocks))

    return RipsComplex(pts, max_dim, diameters, facets)


def _cofaces(last, diams, facets, starts, hi, n):
    """Yield the simplices one dimension up from a level on n vertices,
    given by its simplices' last vertex rows, diameters and facet table in
    lex order, as (last vertices, diameters, facets) blocks in lex order of
    at most _EXPAND_BLOCK candidates, or of one simplex with more.

    Row i of the level is keyed by facets[i, 0] * n + last[i]: the position
    of the simplex without its last vertex, then that vertex.  The keys of
    a lexsorted level ascend, and they stay below n times the count of the
    level below, so they are exact in int64 for any complex that fits in
    memory, where a radix key over the three vertices of a triangle would
    pass 2^63 once n > 2^21.  The candidates of a simplex s are the higher
    neighbours w of its last vertex, in ascending order.  Facet 0 of s + w
    is s; facet m >= 1 drops the vertex that facet m - 1 of s drops, so it
    is that facet plus w, searched in the level by its key.  w extends s
    when every facet is found: together they hold every edge (v, w).  A
    coface's diameter is the largest of the simplex's and those facets'
    diameters: max is exact, so the bits equal those of a diameter computed
    over all pairs.
    """
    keys = facets[:, 0] * n + last
    first = starts[last]
    # Candidate c of simplex s is edge first[s] + c.
    for sid, edge in blocked_ranges(first, starts[last + 1] - first, _EXPAND_BLOCK):
        w = hi[edge]
        found, d = [sid], diams[sid]    # facet positions of the kept candidates
        for f in facets.T:
            key = f[found[0]] * n + w
            pos, ok = search_sorted(keys, key)
            pos = pos[ok]
            found = [c[ok] for c in found] + [pos]
            w, d = w[ok], np.maximum(d[ok], diams[pos])
        yield w, d, np.column_stack(found)


def facet_signs(q: int, p: int):
    """Boundary coefficients over Z/p of the facets in facet table order: the
    m-th facet drops vertex q - m, so its sign is (-1)^(q - m)."""
    return [p - 1 if (q - m) % 2 else 1 for m in range(q + 1)]


def boundary_matrix(cx: RipsComplex, q: int, p: int):
    """Sparse boundary matrix from q-simplices to (q-1)-simplices over Z/p.

    Column j is the {row: coefficient} dict, at every p, of the j-th
    q-simplex's alternating-sign faces, read from the facet table
    cx.facets[q].  The package calls it nowhere: it is the tests'
    reference for boundary columns.
    """
    if q < 1 or q > cx.max_dim:
        raise ValueError(f"boundary dimension {q} out of range 1..{cx.max_dim}")
    signs = facet_signs(q, p)
    return [dict(zip(r, signs)) for r in cx.facets[q].tolist()]
