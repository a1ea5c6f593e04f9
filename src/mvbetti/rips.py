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
blocks of at most _EXPAND_BLOCK candidates, each block counted against the
budget before the next is expanded.  The expansion finds a coface's facets
while it tests the coface, one search per facet in the level below, so it
writes each level's facet table, one int array per level that holds the
facet positions of every simplex, with no second lookup.  A complex is
plain enumeration output, its levels and tables arrays: it makes no vertex
tuples.

The facet tables are the one facet lookup: boundary_column turns one of
their rows into a native boundary column (boundary_matrix and a leaf's
implicit apparent columns both build theirs with it), and the pairing in
reduction reads its coboundaries from them.  RipsComplex.reorder keeps them
consistent when reduction._order_levels sorts the levels by diameter.  A
leaf keeps the tables and drops its complex: they build its apparent
columns on first read and give back the vertex rows of any simplex a query
names.
"""

from __future__ import annotations

import numpy as np

from .core import PointCloud

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

    points is the tuple of the region's sorted global point indices.
    simplices[q] is a (count(q), q + 1) int64 array whose rows are the
    q-simplices as increasing global point indices, lexicographically sorted
    as enumerated; diameters[q] is the float64 array of their diameters.
    facets is [None, F_1, ..., F_max_dim], as the clique expansion writes
    them: row i of the (count(q), q + 1) int64 array F_q holds the level
    q-1 positions of the facets of q-simplex i in the order of
    facet_signs(q, p), facet m dropping vertex q - m, so F_1 holds the
    edges' local vertex rows.  A leaf reduction or the oracle may
    stable-sort the levels by diameter (reorder) before pairing them.
    Nothing here looks a simplex up: a leaf answers its queries from the
    facet tables (reduction.LeafReduction).
    """

    __slots__ = ("points", "max_dim", "simplices", "diameters", "facets")

    def __init__(self, points, max_dim, simplices, diameters, facets):
        self.points = points
        self.max_dim = max_dim
        self.simplices = simplices
        self.diameters = diameters
        self.facets = facets

    def reorder(self, q: int, order):
        """Put level q in the given order of its current positions: its
        simplices, diameters and facet table rows move, and the entries of
        level q+1's table are relabelled to the new positions.  The arrays
        held here are replaced, not kept beside their reordered copies."""
        self.simplices[q] = self.simplices[q][order]
        self.diameters[q] = self.diameters[q][order]
        if q:
            self.facets[q] = self.facets[q][order]
        if q < self.max_dim:
            inverse = np.empty_like(order)
            inverse[order] = np.arange(len(order))
            self.facets[q + 1] = inverse[self.facets[q + 1]]

    def count(self, q: int) -> int:
        if q < 0 or q > self.max_dim:
            return 0
        return len(self.simplices[q])

    def total(self) -> int:
        return sum(len(level) for level in self.simplices)


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

    Membership uses the closed condition (pairwise distances <= scale).
    Raises BudgetExceededError when the total simplex count passes budget.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    pts = np.array(sorted(int(i) for i in points), dtype=np.int64)
    n = len(pts)
    simplices = [pts[:, None]] + [np.empty((0, q + 1), np.int64)
                                  for q in range(1, max_dim + 1)]
    diameters = [np.zeros(n)] + [np.empty(0) for _ in range(max_dim)]
    facets = [None] + [np.empty((0, q + 1), np.int64) for q in range(1, max_dim + 1)]
    if n == 0:
        return RipsComplex(tuple(), max_dim, simplices, diameters, facets)
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
        simplices[1] = facets[1] = np.column_stack((lo, hi))
        diameters[1] = dist
        for q in range(1, max_dim):
            blocks = [(simplices[q + 1], diameters[q + 1], facets[q + 1])]     # the empty level
            for block in _cofaces(simplices[q], diameters[q], facets[q], starts, hi, n):
                count += len(block[1])
                if count > budget:
                    raise BudgetExceededError(budget, n)
                blocks.append(block)
            simplices[q + 1], diameters[q + 1], facets[q + 1] = (
                np.concatenate(a) for a in zip(*blocks))
        for q in range(1, max_dim + 1):
            simplices[q] = pts[simplices[q]]

    return RipsComplex(tuple(pts.tolist()), max_dim, simplices, diameters, facets)


def _cofaces(level, diams, facets, starts, hi, n):
    """Yield the simplices one dimension up from level (local vertex rows,
    lexsorted, on n vertices) and their diameters and facet tables, in lex
    order, as (vertex rows, diameters, facets) blocks of at most
    _EXPAND_BLOCK candidates, or of one simplex with more.

    Row i of level is keyed by facets[i, 0] * n + its last vertex: the
    position of the simplex without its last vertex, then that vertex.  The
    keys of a lexsorted level ascend, and they stay below n times the count
    of the level below, so they are exact in int64 for any complex that
    fits in memory, where a radix key over the three vertices of a triangle
    would pass 2^63 once n > 2^21.  The candidates of a simplex s are the higher neighbours w of
    its last vertex, in ascending order.  Facet 0 of s + w is s; facet
    m >= 1 drops the vertex that facet m - 1 of s drops, so it is that facet
    plus w, searched in level by its key.  w extends s when every facet is
    found: together they hold every edge (v, w).  A coface's diameter is
    the largest of the simplex's and those facets' diameters: max is exact,
    so the bits equal those of a diameter computed over all pairs.
    """
    last = level[:, -1]
    keys = facets[:, 0] * n + last
    first = starts[last]
    sizes = starts[last + 1] - first
    ends = sizes.cumsum()
    a, m = 0, len(level)
    while a < m:
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + _EXPAND_BLOCK, "right")))
        size = sizes[a:b]
        total = int(ends[b - 1] - done)
        # Candidate c of simplex s is edge first[s] + c.
        sid = np.repeat(np.arange(a, b), size)
        w = hi[np.arange(total) + np.repeat(first[a:b] - (ends[a:b] - size - done), size)]
        found, d = [sid], diams[sid]    # facet positions of the kept candidates
        for f in facets.T:
            key = f[found[0]] * n + w
            pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            ok = keys[pos] == key
            pos = pos[ok]
            found = [c[ok] for c in found] + [pos]
            w, d = w[ok], np.maximum(d[ok], diams[pos])
        yield np.column_stack((level[found[0]], w)), d, np.column_stack(found)
        a = b


def facet_signs(q: int, p: int):
    """Boundary coefficients over Z/p of the facets in facet table order: the
    m-th facet drops vertex q - m, so its sign is (-1)^(q - m)."""
    return [p - 1 if (q - m) % 2 else 1 for m in range(q + 1)]


def boundary_column(rows, signs, p: int):
    """The boundary of one simplex as a native column of reduce_columns:
    an int bitset (bit r = row r) at p = 2, a {row: coefficient} dict
    otherwise.  rows is its facet-table row as a list, signs the level's
    facet_signs."""
    if p == 2:
        col = 0
        for x in rows:
            col |= 1 << x
        return col
    return dict(zip(rows, signs))


def boundary_matrix(cx: RipsComplex, q: int, p: int, columns=None):
    """Sparse boundary matrix from q-simplices to (q-1)-simplices over Z/p.

    Column j is boundary_column of the j-th q-simplex: its alternating-sign
    faces, read from the facet table cx.facets[q].  With columns, a list of
    q-simplex indices, only those columns are built, in that order.
    """
    if q < 1 or q > cx.max_dim:
        raise ValueError(f"boundary dimension {q} out of range 1..{cx.max_dim}")
    facets = cx.facets[q]
    if columns is not None:
        facets = facets[np.asarray(columns, dtype=np.intp)]
    signs = facet_signs(q, p)
    return [boundary_column(r, signs, p) for r in facets.tolist()]
