"""Rips complex enumeration for a region of a point cloud.

A vertex set spans a simplex exactly when its diameter is at most the scale,
i.e. the complex is the clique complex of the scale-neighborhood graph, so
enumeration runs by extending each q-simplex with vertices adjacent to all of
its vertices and larger than its maximum (each simplex generated once, in
lexicographic order).

The scale-neighbourhood graph comes from PointCloud.close_pairs, a sweep
along the region's axis of largest extent that computes distance blocks of
bounded size only where a pair can still be close.  Its memory is linear in
points plus edges, and the edges count against the simplex budget as they
are found, so the budget bounds the distance stage as well.

facet_tables turns the levels of a complex into one int array per level
that holds the facet positions of every simplex.  It is the one facet
lookup: boundary_matrix builds its columns from it, and the pairing in
reduction reads its coboundaries from it.  A caller builds it once per
complex, after any reordering of the levels, and drops it when done.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .core import Chain, PointCloud

DEFAULT_BUDGET = 10_000_000


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

    simplices[q] is the list of q-simplices (tuples of global point indices),
    lexicographically sorted as enumerated; diameters[q] aligns with it and,
    for the levels below max_dim, the only ones looked up, index[q] inverts
    it.  A leaf reduction or the oracle may reorder the levels by scale
    bucket before pairing them; index is built on first use, so it is built
    once, after any reordering.
    """

    __slots__ = ("points", "scale", "max_dim", "simplices", "diameters", "_index")

    def __init__(self, points, scale, max_dim, simplices, diameters):
        self.points = points
        self.scale = scale
        self.max_dim = max_dim
        self.simplices = simplices
        self.diameters = diameters
        self._index = None

    @property
    def index(self):
        if self._index is None:
            self._index = [{s: i for i, s in enumerate(level)}
                           for level in self.simplices[:self.max_dim]]
        return self._index

    def reorder(self, q: int, order):
        """Put level q in the given order of its current positions."""
        level, diams = self.simplices[q], self.diameters[q]
        self.simplices[q] = [level[i] for i in order]
        self.diameters[q] = [diams[i] for i in order]
        self._index = None

    def count(self, q: int) -> int:
        if q < 0 or q > self.max_dim:
            return 0
        return len(self.simplices[q])

    def total(self) -> int:
        return sum(len(level) for level in self.simplices)

    def column_of_chain(self, chain: Chain) -> dict:
        """Chain of a level below max_dim as a sparse coefficient vector over
        this complex's basis."""
        q = chain.dim
        if chain.is_zero():
            return {}
        if not 0 <= q < self.max_dim:
            raise ValueError(f"dimension {q} chains are not indexed; only levels "
                             f"below {self.max_dim} are")
        idx = self.index[q]
        col = {}
        for s, c in chain.terms.items():
            row = idx.get(s)
            if row is None:
                raise ValueError(f"simplex {s} is not in this complex")
            col[row] = c
        return col

    def chain_of_column(self, col: dict, q: int, p: int) -> Chain:
        level = self.simplices[q]
        return Chain(q, p, {level[r]: c for r, c in col.items()})


def _neighbours(pts, cloud: PointCloud, scale: float, budget: int) -> dict:
    """{vertex: {higher neighbour: distance}} over the sorted point list pts,
    every dict in ascending neighbour order, from cloud.close_pairs.

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
        return {g: {} for g in pts}
    lo, hi, dist = (np.concatenate(a) for a in zip(*blocks))
    order = np.lexsort((hi, lo))
    lo, his, ds = lo[order], hi[order].tolist(), dist[order].tolist()
    nbrs, start = {}, 0
    for g, end in zip(pts, np.searchsorted(lo, pts, "right").tolist()):
        nbrs[g] = dict(zip(his[start:end], ds[start:end]))
        start = end
    return nbrs


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
    pts = sorted(int(i) for i in points)
    n = len(pts)
    simplices = [[] for _ in range(max_dim + 1)]
    diameters = [[] for _ in range(max_dim + 1)]
    if n == 0:
        return RipsComplex(tuple(), scale, max_dim, simplices, diameters)

    simplices[0] = [(g,) for g in pts]
    diameters[0] = [0.0] * n
    count = n
    if count > budget:
        raise BudgetExceededError(budget, n)

    if max_dim >= 1:
        nbrs = _neighbours(pts, cloud, scale, budget)

        # Each simplex carries its common neighbours above its last vertex,
        # each with its largest distance to the simplex's vertices, so a
        # coface's diameter is one comparison.
        prev = [((g,), 0.0, nbrs[g]) for g in pts]
        for q in range(1, max_dim + 1):
            level, diams = simplices[q], diameters[q]
            cur = []
            for verts, diam, cands in prev:
                for w, dw in cands.items():
                    d = dw if dw > diam else diam
                    s = verts + (w,)
                    level.append(s)
                    diams.append(d)
                    count += 1
                    if count > budget:
                        raise BudgetExceededError(budget, n)
                    if q < max_dim:
                        # nbrs[w] holds only vertices above w; cands
                        # ascends, so the extension keeps the order.
                        nw = nbrs[w]
                        ext = {}
                        for u, du in cands.items():
                            x = nw.get(u)
                            if x is not None:
                                ext[u] = x if x > du else du
                        cur.append((s, d, ext))
            prev = cur

    return RipsComplex(tuple(pts), scale, max_dim, simplices, diameters)


def facet_tables(cx: RipsComplex, top: int):
    """[None, F_1, ..., F_top], one facet table per level 1..top.

    F_q is a (count(q), q + 1) int64 array: row i holds the (q-1)-level
    positions of the facets of q-simplex i, in the order of facet_signs(q, p).
    Built in the levels' current order, so after any reordering.
    """
    levels = [np.fromiter(chain.from_iterable(cx.simplices[q]), np.int64,
                          cx.count(q) * (q + 1)).reshape(-1, q + 1)
              for q in range(top + 1)]
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


def boundary_matrix(cx: RipsComplex, q: int, p: int, columns=None, facets=None):
    """Sparse boundary matrix from q-simplices to (q-1)-simplices over Z/p.

    Returns (nrows, columns) with the columns in reduce_columns' own
    representation: int bitsets (bit r = row r) at p = 2, {row: coefficient}
    dicts otherwise.  Column j holds the alternating-sign faces of the j-th
    q-simplex.  With columns, a list of q-simplex indices, only those
    columns are built, in that order.  facets is level q's facet table from
    facet_tables, built here when not given.
    """
    if q < 1 or q > cx.max_dim:
        raise ValueError(f"boundary dimension {q} out of range 1..{cx.max_dim}")
    if facets is None:
        facets = facet_tables(cx, q)[q]
    if columns is not None:
        facets = facets[np.asarray(columns, dtype=np.intp)]
    rows = facets.tolist()
    if p == 2:
        out = []
        for r in rows:
            col = 0
            for x in r:
                col |= 1 << x
            out.append(col)
    else:
        signs = facet_signs(q, p)
        out = [dict(zip(r, signs)) for r in rows]
    return cx.count(q - 1), out
