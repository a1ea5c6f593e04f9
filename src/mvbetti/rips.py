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
neighbours and one sorted key per edge.  Every level then comes from the one
below it with numpy, in blocks of at most _EXPAND_BLOCK candidates, each
block counted against the budget before the next is expanded.  A complex
is plain enumeration output, its levels arrays: it makes no vertex tuples.

facet_tables turns the levels of a complex into one int array per level
that holds the facet positions of every simplex.  It is the one facet
lookup: boundary_column turns one of its rows into a native boundary column
(boundary_matrix and a leaf's implicit apparent columns both build theirs
with it), and the pairing in reduction reads its coboundaries from it.  A
caller builds it once per complex, before any reordering, while the levels
are in enumeration order; reduction._order_levels then sorts the levels by
diameter and relabels the tables through the permutations.  A leaf keeps
the tables and drops its complex: they build its apparent columns on first
read and give back the vertex rows of any simplex a query names.
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
    as enumerated; diameters[q] is the float64 array of their diameters.  A
    leaf reduction or the oracle may stable-sort the levels by diameter
    before pairing them.  Nothing here looks a simplex up: a leaf answers
    its queries from its facet tables (reduction.LeafReduction).
    """

    __slots__ = ("points", "max_dim", "simplices", "diameters")

    def __init__(self, points, max_dim, simplices, diameters):
        self.points = points
        self.max_dim = max_dim
        self.simplices = simplices
        self.diameters = diameters

    def reorder(self, q: int, order):
        """Put level q in the given order of its current positions."""
        self.simplices[q] = self.simplices[q][order]
        self.diameters[q] = self.diameters[q][order]

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
    if n == 0:
        return RipsComplex(tuple(), max_dim, simplices, diameters)
    count = n
    if count > budget:
        raise BudgetExceededError(budget, n)

    if max_dim >= 1:
        lo, hi, dist = _edges(pts, cloud, scale, budget)
        count += len(lo)
        # starts[v]:starts[v + 1] are the edges from v to its higher
        # neighbours, in ascending order; keys are the edges' (lo, hi) keys,
        # ascending too.
        starts = np.searchsorted(lo, np.arange(n + 1))
        keys = lo * n + hi
        level, diams = np.column_stack((lo, hi)), dist
        simplices[1], diameters[1] = level, diams
        for q in range(2, max_dim + 1):
            blocks = [(simplices[q], diameters[q])]     # the empty level
            for block in _cofaces(level, diams, starts, hi, dist, keys, n):
                count += len(block[1])
                if count > budget:
                    raise BudgetExceededError(budget, n)
                blocks.append(block)
            level, diams = (np.concatenate(a) for a in zip(*blocks))
            simplices[q], diameters[q] = level, diams
        for q in range(1, max_dim + 1):
            simplices[q] = pts[simplices[q]]

    return RipsComplex(tuple(pts.tolist()), max_dim, simplices, diameters)


def _cofaces(level, diams, starts, hi, dist, keys, n):
    """Yield the simplices one dimension up from level (local vertex rows,
    lexsorted) and their diameters, in lex order, as (vertex rows, diameters)
    blocks of at most _EXPAND_BLOCK candidates, or of one simplex with more.

    The candidates of a simplex are the higher neighbours w of its last
    vertex, in ascending order; w extends it when the edge key (v, w) of
    every other vertex v is in keys.  A coface's diameter is the largest of
    the simplex's and the new edges' distances: max is exact, so the bits
    equal those of a diameter computed over all pairs.
    """
    last = level[:, -1]
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
        e = np.arange(total) + np.repeat(first[a:b] - (ends[a:b] - size - done), size)
        w, d = hi[e], np.maximum(diams[sid], dist[e])
        for i in range(level.shape[1] - 1):
            key = level[sid, i] * n + w
            pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            ok = keys[pos] == key
            sid, w, d = sid[ok], w[ok], np.maximum(d[ok], dist[pos[ok]])
        yield np.column_stack((level[sid], w)), d
        a = b


def facet_tables(cx: RipsComplex, top: int):
    """[None, F_1, ..., F_top], one facet table per level 1..top.

    F_q is a (count(q), q + 1) int64 array: row i holds the (q-1)-level
    positions of the facets of q-simplex i, in the order of facet_signs(q, p).
    Built in the levels' current order; cheapest in enumeration order.
    """
    levels = cx.simplices[:top + 1]
    # row[g] is the level-0 position of point g, g below the cloud's size.
    row = np.empty(cx.points[-1] + 1 if cx.points else 0, np.int64)
    row[levels[0][:, 0]] = np.arange(cx.count(0))
    return _facet_tables([row[v] for v in levels], cx.count(0))


def _facet_tables(levels, n: int):
    """Facet tables from the vertex rows levels[q] of every level q >= 1 of
    a closed complex on n vertices (levels[0] is not read).

    A (q-1)-simplex, q >= 2, is keyed by (position of its first q - 1
    vertices in level q-2) * n + (its last vertex), where the position of a
    vertex in level 0 is its row.  Keys are distinct within a level and
    below count(q-2) * n.  Both counts stay below 2^31 for any complex that
    fits in memory (2^31 simplices take hundreds of GB as tuples), so the
    keys are exact in int64, where a radix key over all q vertices would
    pass 2^63 at q = 3 once n > 2^21.  Column 0 of F_q is the position of
    the prefix v_0..v_{q-1}, found one vertex at a time; the facet that drops
    v_{q-m}, m >= 1, is facet m - 1 of that prefix plus v_q.  So level q
    costs 2q - 1 searchsorted calls and, for the level above, one argsort.
    A facet that is not in the level below raises ValueError.
    """
    tables = [None]
    index = [None]      # level k -> (sorted keys, their positions)

    def find(k, keys):
        sorted_keys, at = index[k]
        pos = np.searchsorted(sorted_keys, keys)
        if keys.size and not (len(sorted_keys) and np.array_equal(
                sorted_keys[np.minimum(pos, len(sorted_keys) - 1)], keys)):
            raise ValueError(f"a facet of a level-{k + 1} simplex is not in level {k}")
        return at[pos]

    for q in range(1, len(levels)):
        v = levels[q]
        table = np.empty(v.shape, np.int64)
        if q == 1:
            table[:, 0], table[:, 1] = v[:, 0], v[:, 1]
        else:
            # Position of the prefix v_0..v_{q-1}, found one vertex at a time.
            prefix = v[:, 0]
            for k in range(1, q):
                prefix = find(k, prefix * n + v[:, k])
            table[:, 0] = prefix
            # Dropping v_{q-m} (m >= 1) leaves facet m - 1 of the prefix plus v_q.
            for m in range(1, q + 1):
                table[:, m] = find(q - 1, tables[q - 1][prefix, m - 1] * n + v[:, q])
        tables.append(table)
        if q + 1 < len(levels):
            keys = table[:, 0] * n + v[:, q]
            at = np.argsort(keys)
            index.append((keys[at], at))
    return tables


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


def boundary_matrix(cx: RipsComplex, q: int, p: int, columns=None, facets=None):
    """Sparse boundary matrix from q-simplices to (q-1)-simplices over Z/p.

    Column j is boundary_column of the j-th q-simplex: its alternating-sign
    faces.  With columns, a list of q-simplex indices, only those columns
    are built, in that order.  facets is level q's facet table from
    facet_tables, built here when not given.
    """
    if q < 1 or q > cx.max_dim:
        raise ValueError(f"boundary dimension {q} out of range 1..{cx.max_dim}")
    if facets is None:
        facets = facet_tables(cx, q)[q]
    if columns is not None:
        facets = facets[np.asarray(columns, dtype=np.intp)]
    signs = facet_signs(q, p)
    return [boundary_column(r, signs, p) for r in facets.tolist()]
