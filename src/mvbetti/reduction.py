"""Exact homology linear algebra over Z/p.

Column reduction (R = D*V with V invertible upper-triangular) gives the
Betti numbers of a region at each requested scale and its membership
queries (express a cycle in the homology basis / produce an explicit
bounding chain).  A region is reduced once, into one elimination table per
dimension that serves every scale, and keeps its pairing once, as arrays:
each simplex's killer, a live mask and per-scale ranks, from which a
per-scale view picks the rows that are representatives at its scale.  What
a query reads is built one entry at a time, on its first read, in a _Lazy
dict: a row's table column, a level's simplex index, an apparent column; a
row's cycle chain is built once for every scale.  The pairing that
precedes the reduction also gives the direct filtration barcode, the oracle
for the divide-and-conquer path (see persistence_barcode for what it
shares with run() and what keeps it independent).

Columns are native Python values: int bitsets (bit r = row r) at p = 2,
where column addition is one XOR, and {row: nonzero residue} dicts
otherwise.  Elimination goes through three routines: reduce_columns
reduces a matrix left to right with V, one loop per representation;
cohomology_pairs finds the pivot pairs of a boundary matrix, so that a
region reduces only the columns it reads: by union-find over the edges for
D_1, and above that by reducing coboundary columns read from the level's
facet table (written by the clique expansion, RipsComplex.facets, and
shared with boundary_matrix); and eliminate reduces one column against a
table of columns with distinct lowest rows, given as a row lookup, the step
behind every coords/bound query of a region and the Mayer-Vietoris kernel
and cokernel.  In every dimension, the apparent columns (R_k = the boundary
of k, V_k = e_k) are found from the facet table and left implicit, built
from it on first read; only the other columns a region reads are built and
reduced.  combine forms linear combinations of columns, and as_dict
decodes a column of either representation.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .core import (Chain, ConsistencyError, PointCloud, PrimeField, chain_boundary,
                   require_int, require_query, require_real, require_scales)
from .rips import (DEFAULT_BUDGET, boundary_column, boundary_matrix, enumerate_complex,
                   facet_signs, vertex_rows)


# ---------------------------------------------------------------------------
# Columns


def _bits(col) -> int:
    """A {row: coefficient} column as an int bitset (p = 2)."""
    v = 0
    for r in col:
        v |= 1 << r
    return v


def as_dict(col) -> dict:
    """A column of either representation as a new {row: residue} dict."""
    if type(col) is not int:
        return dict(col)
    out = {}
    while col:
        bit = col & -col        # lowest set bit
        out[bit.bit_length() - 1] = 1
        col ^= bit
    return out


def _unit(j: int, p: int):
    """The native column e_j."""
    return 1 << j if p == 2 else {j: 1}


def _axpy(col: dict, src: dict, c: int, p: int):
    """col += c * src over Z/p, in place, for dict columns: a row whose sum
    is zero is deleted, so col keeps only nonzero residues."""
    for r, x in src.items():
        y = (col.get(r, 0) + c * x) % p
        if y:
            col[r] = y
        else:
            del col[r]


def combine(terms, p: int):
    """The native column sum(c * col) over (col, c) pairs of native columns."""
    if p == 2:
        out = 0
        for col, c in terms:
            if c & 1:
                out ^= col
        return out
    out = {}
    for col, c in terms:
        _axpy(out, col, c, p)
    return out


def eliminate(col, lookup, p: int):
    """Reduce one column against a table of columns with distinct lowest rows.

    lookup(row) returns the table entry (column, tag) whose column has row
    as its lowest (largest) nonzero row, or None when row is not a table
    row: a dict's .get, or a leaf's table that builds each entry on first
    lookup.  Every table column is native and nonzero.  The rows of col are
    swept in descending order: a table row is cleared by subtracting the
    multiple of its column that cancels it, which touches no larger row;
    any other row is set aside.  Returns (remainder, used): col = remainder
    + sum(c * column) over the (tag, c) pairs in used, no row of the
    remainder is a table row, and each tag appears at most once.  A dict
    col holds nonzero residues; at p = 2 col may also be a bitset, and the
    remainder is native either way.
    """
    used = []
    if p == 2:
        if type(col) is not int:
            col = _bits(col)
        rest = 0
        while col:
            l = col.bit_length() - 1
            e = lookup(l)
            if e is None:
                bit = 1 << l
                rest |= bit
                col ^= bit
            else:
                col ^= e[0]
                used.append((e[1], 1))
        return rest, used
    col = dict(col)
    rest = {}
    while col:
        l = max(col)
        e = lookup(l)
        if e is None:
            rest[l] = col.pop(l)
            continue
        src, tag = e
        c = col[l] * pow(src[l], -1, p) % p
        _axpy(col, src, p - c, p)
        used.append((tag, c))
    return rest, used


# ---------------------------------------------------------------------------
# Reduction


class ReducedPair:
    """Result of left-to-right column reduction: R = D*V exactly over Z/p.

    V is invertible upper-triangular; distinct nonzero columns of R have
    distinct lowest nonzero rows, recorded in pivots (low row -> column).
    r and v hold the columns of R and V by column index: lists when the
    ncols columns were given as a list, {column index: column} mappings when
    they were given as one (a leaf leaves its apparent columns implicit
    there, see _apparent_columns).  Columns are native (bitsets at p = 2, dicts
    otherwise).
    """

    __slots__ = ("ncols", "field", "r", "v", "pivots")

    def __init__(self, ncols, field, r, v, pivots):
        self.ncols = ncols
        self.field = field
        self.r = r
        self.v = v
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)


def reduce_columns(columns, field: PrimeField, into: ReducedPair = None) -> ReducedPair:
    """Left-to-right column reduction of a sparse matrix over Z/p, with V.

    columns is a list of {row: nonzero residue} dicts, or a {column index:
    column} dict in ascending index order standing for a matrix whose other
    columns are zero: those get no R or V entry and cost nothing.  At p = 2
    a column may also be an int bitset (bit r = row r).  While a column
    shares its lowest nonzero row with an earlier column, the appropriate
    multiple of that earlier column is subtracted; V records the operations.
    Deterministic given the column order.

    into, a reduction of other columns of the same matrix whose pivots are
    already entered, is extended in place with the dict columns and
    returned.  Its pivot columns are read through its r and v as sources;
    each must be final whatever columns come before it, and no column
    before it may reach its pivot row, as holds for an apparent column (see
    _apparent_columns).
    """
    n = len(columns)
    if into is not None:
        items, R, V, pivots = columns.items(), into.r, into.v, into.pivots
        into.ncols += n
    elif type(columns) is dict:
        items, R, V, pivots = columns.items(), {}, {}, {}
    else:
        items, R, V, pivots = enumerate(columns), [None] * n, [None] * n, {}
    if field.p == 2:
        _reduce_bits(items, R, V, pivots)
    else:
        _reduce_dicts(items, R, V, pivots, field)
    return into if into is not None else ReducedPair(n, field, R, V, pivots)


def _reduce_bits(items, R, V, pivots):
    """The Z/2 loop: lowest row is the top bit, column addition is XOR.
    Fills R, V and pivots."""
    for j, col in items:
        if type(col) is not int:
            col = _bits(col)
        v = 1 << j
        while col:
            l = col.bit_length() - 1
            k = pivots.get(l)
            if k is None:
                pivots[l] = j
                break
            col ^= R[k]
            v ^= V[k]
        R[j] = col
        V[j] = v


def _reduce_dicts(items, R, V, pivots, field):
    """The odd-p loop over dict columns.  Each pivot column's negated
    inverse of its lowest coefficient is computed once, when it is first
    a source, so a step costs one multiplication plus an _axpy on R and
    one on V."""
    p = field.p
    neg_inv = {}    # pivot column -> -(lowest coefficient)^-1 mod p
    for j, col in items:
        col = dict(col)
        v = {j: 1}
        while col:
            l = max(col)
            k = pivots.get(l)
            if k is None:
                pivots[l] = j
                break
            src = R[k]
            c = neg_inv.get(k)
            if c is None:
                c = neg_inv[k] = (-field.inv(src[l])) % p
            c = (col[l] * c) % p
            _axpy(col, src, c, p)
            _axpy(v, V[k], c, p)
        R[j] = col
        V[j] = v


def cohomology_pairs(cx, q: int, field: PrimeField, clear=()):
    """Pivot pairs of D_q, found by reducing the coboundary columns of the
    (q-1)-simplices instead of the boundary columns of the q-simplices.

    Returns {(q-1)-simplex: q-simplex}, equal to the pivots of
    reduce_columns over all of boundary_matrix(cx, q, p): homology and
    cohomology have the same pairs (de Silva, Morozov & Vejdemo-Johansson,
    "Dualities in persistent (co)homology", 2011).  The columns are read
    from level q's facet table, cx.facets[q].

    At q = 1 the pairs come from union-find over the edges in level order
    (Kruskal), each component rooted at its smallest vertex row: an edge
    that joins roots a < b pairs with b.  b is the lowest row of the edge's
    reduced column, which has a nonzero coefficient sum on each of the two
    components and no pivot row.  clear is not read there.

    For q >= 2 the coboundary column of a (q-1)-simplex holds its cofaces
    with their boundary coefficients.  An argsort of the flattened facet
    table groups its entries by facet into a sparse (CSR) matrix: entry e
    is coface e // (q+1), with the sign of facet column e % (q+1).  The
    columns are reduced in descending simplex order, and a column's pivot
    is its earliest coface (Bauer, "Ripser", 2021).  A column that is the
    latest facet of its earliest coface forms an apparent pair with it: no
    column above it holds that coface, so these pairs are entered before the
    loop.  Of the others, a column whose earliest coface is free is paired
    by reading that one entry; a column becomes a dict only when it needs
    an addition or is the source of one, and a source's negated inverse of
    its pivot coefficient is computed once.  Simplices in clear, the pivot
    columns of D_{q-1}, are skipped: their coboundary columns reduce to zero.
    """
    facets = cx.facets[q]
    if q == 1:
        return _union_find_pairs(facets, cx.count(0))
    p, k, n = field.p, q + 1, cx.count(q - 1)
    flat = facets.ravel()
    # The order within a column is not used, so the sort need not be stable.
    cofaces = np.argsort(flat)
    coefs = np.array(facet_signs(q, p))[cofaces % k]
    cofaces //= k
    sizes = np.bincount(flat, minlength=n)
    ends = sizes.cumsum()
    starts = ends - sizes
    first = np.full(n, -1, np.int64)    # each column's earliest coface
    live = sizes > 0
    first[live] = np.minimum.reduceat(cofaces, starts[live])
    if clear:
        first[np.fromiter(clear, np.int64, len(clear))] = -1
    apparent = np.flatnonzero(first >= 0)
    apparent = apparent[reduce(np.maximum, facets.T)[first[apparent]] == apparent]
    table = dict(zip(first[apparent].tolist(), apparent.tolist()))  # pivot -> column
    pairs = dict(zip(apparent.tolist(), first[apparent].tolist()))
    first[apparent] = -1
    first, starts, ends = first.tolist(), starts.tolist(), ends.tolist()

    def column(i):
        s, e = starts[i], ends[i]
        return dict(zip(cofaces[s:e].tolist(), coefs[s:e].tolist()))

    reduced = {}    # column -> its reduced coboundary, once it is a dict
    neg_inv = {}    # source column -> -(its pivot coefficient)^-1 mod p
    for i in range(n - 1, -1, -1):
        low = first[i]
        if low < 0:
            continue
        j = table.get(low)
        if j is not None:
            col = column(i)
            while j is not None:
                src = reduced.get(j)
                if src is None:
                    src = reduced[j] = column(j)
                c = neg_inv.get(j)
                if c is None:
                    c = neg_inv[j] = (-field.inv(src[low])) % p
                c = (col[low] * c) % p
                _axpy(col, src, c, p)
                if not col:
                    break
                low = min(col)
                j = table.get(low)
            if not col:
                continue
            reduced[i] = col
        pairs[i] = low
        table[low] = i
    return pairs


def _union_find_pairs(edges, n: int):
    """Pivot pairs of D_1 from the (count(1), 2) vertex rows of the edges in
    level order, on n vertices; roots are merged into the smaller one."""
    root = list(range(n))
    pairs = {}
    for j, (a, b) in enumerate(edges.tolist()):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            if a > b:
                a, b = b, a
            root[b] = a
            pairs[b] = j
    return pairs


# ---------------------------------------------------------------------------
# Leaf homology solver


def _order_levels(cx, floor: float):
    """Stable-sort the levels of cx above 0 by diameter, in place.

    A level with some diameter above floor is stable-sorted by diameter,
    i.e. put in (diameter, lex) order with one sort; cx.reorder moves its
    facet table with it and relabels the table above.  A level whose
    diameters are all <= floor stays in lex order: at every scale >= floor
    the whole level is in, so any order of it is a prefix order.  The
    complex at any scale >= floor is then a prefix of every level, as a leaf
    needs, and the pairs are those of the whole filtration's (diameter,
    dimension, lex) order, as the oracle needs (Bauer, "Ripser", 2021).
    """
    for q in range(1, cx.max_dim + 1):
        diams = cx.diameters[q]
        if len(diams) and diams.max() > floor:
            cx.reorder(q, np.argsort(diams, kind="stable"))


def _pair_levels(cx, field: PrimeField):
    """Pivot pairs of every D_q of cx as {q: {(q-1)-simplex: q-simplex}},
    with pairs[0] = {} for D_0 = 0: cohomology_pairs in ascending q, each
    level cleared by the pivot columns of the level below."""
    pairs = {0: {}}
    for q in range(1, cx.max_dim + 1):
        pairs[q] = cohomology_pairs(cx, q, field, set(pairs[q - 1].values()))
    return pairs


class _Lazy(dict):
    """A dict whose entries are built on first read: a missing key is
    make(key), kept unless it is None.  A make that raises KeyError marks
    a key that may not be read.  make is bound with functools.partial to
    the arrays it reads, never to its owner, so no owner is in a
    reference cycle."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self._make(key)
        if value is not None:
            self[key] = value
        return value


def _apparent(apparent, facets, signs, p: int, k):
    """R_k = rips.boundary_column of facet-table row k, or V_k = e_k when
    facets is None, of an apparent column k (apparent[k] true); KeyError
    for any other k."""
    if not (0 <= k < len(apparent) and apparent[k]):
        raise KeyError(k)
    return _unit(k, p) if facets is None else boundary_column(facets[k].tolist(), signs, p)


def _apparent_columns(facets, nrows: int, field: PrimeField) -> ReducedPair:
    """The reduction of D_q at its apparent columns, from level q's facet
    table facets (kept, to build them) on nrows (q-1)-simplices.

    Column k is apparent when k is the earliest coface of its lowest row
    l = max(facets[k]).  No column before k then holds row l, so neither does
    any combination of them: in a left-to-right reduction k is never
    reduced, l is its pivot, R_k = the boundary of k and V_k = e_k, over
    every Z/p and in every prefix.  Their pivots are entered; r and v build
    a column on first read (_Lazy, _apparent).
    Ripser's apparent pairs (Bauer, 2021), found here on the homology side,
    apart from cohomology_pairs.
    """
    ncols, width = facets.shape
    p = field.p
    low = reduce(np.maximum, facets.T)
    first = np.full(nrows, ncols, np.int64)     # each row's earliest coface
    np.minimum.at(first, facets.ravel(), np.arange(ncols).repeat(width))
    apparent = first[low] == np.arange(ncols)
    cols = np.flatnonzero(apparent)
    signs = facet_signs(width - 1, p)
    return ReducedPair(
        len(cols), field,
        _Lazy(partial(_apparent, apparent, facets, signs, p)),
        _Lazy(partial(_apparent, apparent, None, None, p)),
        dict(zip(low[cols].tolist(), cols.tolist())))


def _table_entry(killer, live, r, v, row):
    """Row row's entry (column, row) of dimension n's eliminate() table,
    from killer[n], live[n], r[n+1] and v[n]: R_k when the row's killer in
    D_{n+1} is k, else V_j at an unkilled zero column of D_n (e_j at a
    vertex).  A pivot column of D_n (live[row] false) is no table row:
    None."""
    k = int(killer[row])
    if k >= 0:
        return r[k], row
    if live[row]:
        return v[row], row
    return None


def _level_index(facets, prefix, points, q):
    """{vertex tuple: row} of level q below the top.  The tuples hold the
    int objects of points, not a new int per entry as tolist() makes."""
    if not 0 <= q < len(prefix) - 1:
        raise KeyError(q)
    count = prefix[q][-1]
    cols = vertex_rows(facets, q, np.arange(count)).T.tolist()
    keys = zip(*(map(points.__getitem__, col) for col in cols))
    return dict(zip(keys, range(count)))


class LeafReduction:
    """One reduction of a region's Rips complex that serves every requested scale.

    The complex is enumerated once at the top scale and _order_levels puts
    every level with a diameter above the first scale in (diameter, lex)
    order, so the complex at every requested scale is a prefix of every
    level, prefix[q][b] q-simplices long, and left-to-right reduction of
    each boundary matrix is also a reduction of the complex at every
    requested scale.  Under a single scale nothing is reordered.  Pairs
    come first: cohomology_pairs finds the pivot pairs of D_1, ...,
    D_{n_max+1} in ascending dimension, each level cleared by the pivot
    columns of the level below.

    Every D_q is then reduced the same way, top dimension first, keeping R
    and V only for the columns the views read.  At the top these are the
    pivot columns; below it, every column except the cleared ones: a
    q-simplex that is the pivot row of some reduced (q+1)-column R_k is a
    cycle, and R_k is its cycle column.  The other columns of D_q reduce to
    zero and a zero column is never added to another, so the kept R and V
    equal those of a full reduction.  Of the kept columns, the apparent
    ones (_apparent_columns, found from level q's facet table, which is
    kept) are entered first and stay implicit, R_k = the boundary of k and
    V_k = e_k, built only when read; just the others are built and reduced
    into them.  Every reduction, apparent pivots included, must reproduce
    the pairs found first, or ConsistencyError is raised.

    The pairing is then kept once, in arrays: killer[n] gives each
    n-simplex's killer in D_{n+1} (-1 when none), live[n] is false at the
    pivot columns of D_n, and ranks[q][b], read off the sorted pivot
    columns, is the rank of D_q on the prefix of scales[b]; of each reduced
    D_q only r[q] and v[q] stay (v[0], of D_0 = 0, is the identity).  The
    live n-simplices are the rows of the dimension-n eliminate() table for
    every scale, and a view (view(scale), a LeafSolver) picks its basis
    from killer[n] and live[n].  The column of a row is built only when a
    query reaches that row, and kept in tables[n] (_Lazy); a Betti-only
    run builds none.  The complex is dropped after the build: the leaf keeps
    its level-0 id array (points and point_set are made from it), prefix
    (the last entry of each level is its count) and the facet tables, which
    give every simplex's vertex rows (rips.vertex_rows), as in Ripser
    (Bauer, 2021).  index[q] maps level q's vertex tuples to rows, built on
    the first query at level q, for q below the top; chain_of_column maps
    rows back.  chain(n, row) builds a table row's cycle chain once, for
    every view.  Entries are built on the thread that queries, during
    assembly on the calling thread.
    """

    def __init__(self, points, cloud: PointCloud, scales, n_max: int,
                 field: PrimeField, budget: int = DEFAULT_BUDGET):
        self.scales = scales    # sorted and distinct (build_leaf)
        self.n_max = n_max
        self.field = field
        top = n_max + 1
        cx = enumerate_complex(points, cloud, self.scales[-1], top, budget)
        self._ids = cx.points   # global id of each vertex row
        self.points = tuple(cx.points.tolist())
        self.point_set = frozenset(self.points)
        _order_levels(cx, self.scales[0])
        self.facets = cx.facets
        # prefix[q][b]: the q-simplices of diameter <= scales[b].  A level
        # left in lex order has every diameter <= scales[0], so each search
        # in it ends at its length as if it were sorted.
        self.prefix = [np.searchsorted(d, self.scales, "right").tolist()
                       for d in cx.diameters]
        pairs = _pair_levels(cx, field)

        self.r = {}
        self.v = {0: _Lazy(partial(_apparent, np.ones(cx.count(0), bool), None, None, field.p))}
        self.ranks = {0: [0] * len(self.scales)}
        self.killer = [None] * top
        self.live = [np.ones(cx.count(n), bool) for n in range(top)]
        for q in range(top, 0, -1):
            red = _apparent_columns(self.facets[q], cx.count(q - 1), field)
            if q == top:
                needed = np.zeros(cx.count(q), bool)
                needed[list(pairs[q].values())] = True
            else:
                needed = self.killer[q] < 0
            needed[list(red.pivots.values())] = False   # apparent: left implicit
            built = np.flatnonzero(needed).tolist()
            reduce_columns(dict(zip(built, boundary_matrix(cx, q, field.p, built))),
                           field, into=red)
            if red.pivots != pairs[q]:
                raise ConsistencyError(
                    f"reduced D_{q} pivots differ from its cohomology pairs "
                    f"({len(red.pivots)} vs {len(pairs[q])})"
                )
            lows = np.fromiter(red.pivots, np.int64, red.rank)
            cols = np.fromiter(red.pivots.values(), np.int64, red.rank)
            self.killer[q - 1] = np.full(cx.count(q - 1), -1, np.int64)
            self.killer[q - 1][lows] = cols
            cols.sort()
            self.ranks[q] = np.searchsorted(cols, self.prefix[q]).tolist()
            if q < top:
                self.live[q][cols] = False
            self.r[q], self.v[q] = red.r, red.v

        self.tables = [_Lazy(partial(_table_entry, self.killer[n], self.live[n],
                                     self.r[n + 1], self.v[n]))
                       for n in range(top)]
        self.index = _Lazy(partial(_level_index, self.facets, self.prefix, self.points))
        self._chains = {}   # (dimension, row) -> the row's cycle chain

    def view(self, scale: float) -> "LeafSolver":
        return LeafSolver(self, scale)

    def chain(self, n: int, row: int) -> Chain:
        """The cycle chain of row row of dimension n's table, built once for
        every scale; callers must not mutate it."""
        z = self._chains.get((n, row))
        if z is None:
            z = self._chains[n, row] = self.chain_of_column(
                as_dict(self.tables[n][row][0]), n, self.field.p)
        return z

    def chain_of_column(self, col: dict, q: int, p: int) -> Chain:
        """The chain of a {row: coefficient} column over level q."""
        rows = vertex_rows(self.facets, q, np.fromiter(col, np.int64, len(col)))
        return Chain(q, p, dict(zip(map(tuple, self._ids[rows].tolist()), col.values())))


class LeafSolver:
    """Homology of one region at one scale: a view of a LeafReduction.

    A view is the list of its live rows.  The live rows of the reduction's
    dimension-n table below the view's n-limit span the cycle space Z_n of
    the complex at its scale.  A row is a representative unless its killer k
    lies in the view's (n+1)-prefix, where R_k is a boundary with preimage
    V_k.  The view keeps {representative row: basis index} per dimension,
    picked from the reduction's killer and live arrays with numpy and
    checked against its ranks, so betti(n) = dim Z_n - rank d_{n+1} is the
    size of that dict and no table column is built; _rows lists the same
    rows by basis index.  coords() expresses a cycle in the representative
    basis as a sparse {basis index: nonzero residue} dict, the
    representation of a dict column; bound() returns an explicit preimage
    under the boundary map, from the V_k of the killed rows, whenever the
    class vanishes.  Both build the table columns they reach on first use,
    and representative(n, b) the chain of the one class it names
    (LeafReduction.chain).
    """

    def __init__(self, reduction: LeafReduction, scale: float):
        b = bisect_left(reduction.scales, scale)
        if b == len(reduction.scales) or reduction.scales[b] != scale:
            raise ValueError(f"scale {scale} is not one of the leaf's scales")
        self.reduction = reduction
        self.scale = scale
        self.n_max = reduction.n_max
        self.field = reduction.field
        self.point_set = reduction.point_set
        # Simplices of the view per dimension: a prefix of every level.
        self._limit = [reduction.prefix[q][b] for q in range(self.n_max + 2)]
        self._basis = []    # per dimension: {representative row: basis index}
        self._rows = []     # per dimension: basis index -> representative row
        for n in range(self.n_max + 1):
            end = self._limit[n]
            killer = reduction.killer[n][:end]
            rows = np.flatnonzero(reduction.live[n][:end]
                                  & ((killer < 0) | (killer >= self._limit[n + 1]))).tolist()
            basis = dict(zip(rows, range(len(rows))))
            self._basis.append(basis)
            self._rows.append(rows)

            expected = end - reduction.ranks[n][b] - reduction.ranks[n + 1][b]
            if len(basis) != expected:
                raise ConsistencyError(
                    f"homology basis size mismatch at dimension {n}: "
                    f"{len(basis)} reps vs {expected} expected"
                )

    # -- queries

    def betti(self, n: int) -> int:
        if n < 0 or n > self.n_max:
            return 0
        return len(self._basis[n])

    def representative(self, n: int, b: int) -> Chain:
        """The cycle chain of basis class b at dimension n, shared with every
        view of the reduction; callers must not mutate it."""
        return self.reduction.chain(n, self._rows[n][b])

    def representatives(self, n: int):
        """Cycle chains whose classes form the homology basis at dimension n."""
        return [self.representative(n, b) for b in range(self.betti(n))]

    def _column(self, z: Chain, n: int) -> dict:
        """z over the view's n-simplices; simplices beyond the view are foreign."""
        idx, end = self.reduction.index[n], self._limit[n]
        col = {}
        for s, c in z.terms.items():
            row = idx.get(s, end)
            if row >= end:
                raise ValueError(f"simplex {s} is not in this complex")
            col[row] = c
        return col

    def _eliminate(self, z: Chain, n: int):
        """Express a nonzero cycle as (sparse rep coordinates, (killed row,
        coefficient) terms of the rest, a boundary in the view)."""
        red = self.reduction
        rest, used = eliminate(self._column(z, n), red.tables[n].__getitem__, self.field.p)
        if rest:
            raise ValueError(
                f"chain is not a cycle of this region's complex (unmatched row "
                f"{max(as_dict(rest))} at dimension {n})"
            )
        basis = self._basis[n]
        coords = {}
        killed = []
        for row, c in used:
            b = basis.get(row)
            if b is None:
                killed.append((row, c))
            else:
                coords[b] = c
        return coords, killed

    def coords(self, z: Chain, n: int) -> dict:
        """A cycle's class in the homology basis as {basis index: nonzero residue}."""
        require_query(z, n, self.n_max)
        if z.is_zero():
            return {}
        return self._eliminate(z, n)[0]

    def bound(self, z: Chain, n: int):
        """A chain w with boundary exactly z, or None when [z] != 0.

        The returned chain is re-checked against z before being returned.
        """
        require_query(z, n, self.n_max)
        if z.is_zero():
            return Chain.zero(n + 1, self.field.p)
        coords, killed = self._eliminate(z, n)
        if coords:
            return None
        p, red = self.field.p, self.reduction
        preimage = [(red.v[n + 1][int(red.killer[n][row])], c) for row, c in killed]
        chain = red.chain_of_column(as_dict(combine(preimage, p)), n + 1, p)
        if chain_boundary(chain) != z:
            raise ConsistencyError("bound() produced a chain whose boundary differs from z")
        return chain

    def betti_all(self):
        return [self.betti(n) for n in range(self.n_max + 1)]


def build_leaf(points, cloud, scales, n_max, field,
               budget: int = DEFAULT_BUDGET) -> LeafReduction:
    """The one reduction of a region's Rips complex for every scale in
    `scales`; its view(s) is the region solver at scale s.  The scales are
    a non-empty sequence of finite reals >= 0, n_max an int >= 0, or a
    ValueError names the argument."""
    field = PrimeField(field)
    return LeafReduction(points, cloud, require_scales("scales", scales),
                         require_int("n_max", n_max, 0), field, budget)


# ---------------------------------------------------------------------------
# Direct persistence oracle


class Bar(NamedTuple):
    dim: int
    birth: float
    death: object  # float, or None for a class alive at the top scale


def persistence_barcode(points, cloud, eps_max, n_max, field,
                        budget: int = DEFAULT_BUDGET):
    """Barcode of the scale-filtered Rips complex up to eps_max.

    Simplices enter at their diameter, ties ordered by dimension then lex
    order.  Pairs between levels q-1 and q depend only on the order within
    each level, so _order_levels puts every level in (diameter, lex) order
    with one stable sort (floor 0: a level of zero diameters stays in lex
    order, which is that order) and it is paired as a leaf is.  An
    n-simplex that is not a column of the D_n pairs is born at its diameter
    and dies at its D_{n+1} partner's, or gives an open bar; zero-length
    bars are dropped.  The bars of each dimension are read with numpy and
    ordered by (birth, death), an open bar first among equal births.  The
    oracle shares enumeration, level ordering and pairing with run(),
    nothing else; the tests' brute_force_betti and brute_force_barcode, the
    golden barcode frozen from a global reduction and the benchmark's
    frozen seed-0 Betti numbers keep it independent.  eps_max is a finite
    real >= 0 and n_max an int >= 0, or a ValueError names the argument.
    """
    field = PrimeField(field)
    eps_max = require_real("eps_max", eps_max)
    n_max = require_int("n_max", n_max, 0)
    cx = enumerate_complex(points, cloud, eps_max, n_max + 1, budget)
    _order_levels(cx, 0.0)
    pairs = _pair_levels(cx, field)

    bars = []
    for n in range(n_max + 1):
        births = cx.diameters[n]
        death = np.full(len(births), np.inf)
        up = pairs[n + 1]
        death[list(up)] = cx.diameters[n + 1][list(up.values())]
        keep = death > births
        keep[list(pairs[n].values())] = False
        birth, death = births[keep], death[keep]
        order = np.lexsort((np.where(death == np.inf, -1.0, death), birth))
        bars += [Bar(n, b, None if d == np.inf else d)
                 for b, d in zip(birth[order].tolist(), death[order].tolist())]
    return bars


def betti_at_scale(bars, n: int, scale: float) -> int:
    """Number of dimension-n bars alive at the given scale."""
    return sum(
        1 for b in bars if b.dim == n and b.birth <= scale and (b.death is None or b.death > scale)
    )
