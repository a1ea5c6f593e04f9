"""Exact homology linear algebra over Z/p.

Column reduction (R = D*V with V invertible upper-triangular) gives the
Betti numbers of a region at each requested scale and its membership
queries (express a cycle in the homology basis / produce an explicit
bounding chain).  A region keeps its pairing once, as arrays: each
simplex's killer, a live mask and per-scale ranks, from which a per-scale
view picks the rows that are representatives at its scale.  What a query
reads is built one entry at a time, on its first read, and serves every
scale: a column of R and V, a level's sorted search keys, a row's cycle
chain.  Dimension 0 needs none of these for a class: its basis is one root
vertex per component, the roots that union-find's elder rule leaves at the
view's scale, and a vertex's class is its label, an array lookup (a view's
labels come from one pointer-jumping pass over the merge forest that the
D_1 union-find records).  The pairing also gives the direct filtration
barcode, the oracle for the divide-and-conquer path (see
persistence_barcode for what it shares with run() and what keeps it
independent).

Columns are {row: nonzero residue} dicts, updated by core._axpy, at
every p, except inside a leaf: there they are int bitsets (bit r = row r)
at p = 2, where column addition is one XOR.  A leaf builds its columns,
its tables' and those of the cycles it is asked about, in its own format,
and decodes what it returns (as_dict), so no bitset leaves it.  Every
exact step is one pivot step, _reduce_column: cancel a column's lowest row
against a pair (R, V) whose R has the same lowest row, by the path of the
column's type.  Its callers: reduce_columns reduces a matrix of dict
columns left to right with V; cohomology_pairs finds the pivot pairs of a
boundary matrix by reducing coboundary columns read from the level's facet
table (written by the clique expansion, RipsComplex.facets), as dicts at
every p, and _pair_levels takes D_1's pairs from union-find over the edges
instead; a leaf's _Columns builds its R and V one column at a time; and
eliminate reduces one column against a table of (R, V) pairs with distinct
lowest rows, in the table's own format, given as a row lookup, the step
behind a region's coords queries above dimension 0, its bound queries and
the Mayer-Vietoris kernel and cokernel.  The pairs have one format from
the pairing to every reader, the leaf, its views and the oracle: per
level, an int64 killer array, each simplex's partner one dimension up or
-1.  A region's build ends at its pairing: the columns R_j and V_j of its
reduction are built one at a time, from the pairs, when a query reads them
(_Columns), and each checks the pairs as it is built.  combine forms
linear combinations of a leaf's columns, and as_dict decodes a column of
either format.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial, reduce
import itertools
from typing import NamedTuple

import numpy as np

from .core import (Chain, ConsistencyError, PointCloud, PrimeField, _axpy, chain_boundary,
                   require_int, require_query, require_real, require_scales, search_sorted)
# boundary_matrix is not called here: perfbench/tracer.py wraps this
# module's name for it, as it does reduce_columns.
from .rips import DEFAULT_BUDGET, boundary_matrix, enumerate_complex, facet_signs, vertex_rows


# ---------------------------------------------------------------------------
# Columns


def _bits(col) -> int:
    """A {row: coefficient} column as an int bitset (p = 2)."""
    v = 0
    for r in col:
        v |= 1 << r
    return v


def as_dict(col) -> dict:
    """A column of either format as a new {row: residue} dict."""
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


def combine(terms, p: int):
    """The column sum(c * col) over (col, c) pairs of a leaf's columns,
    in the leaf's format."""
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
    """Reduce one column against a table of pairs (R, V) whose columns R
    have distinct lowest rows.

    lookup(row) returns the table entry (R, V) whose R has row as its
    lowest (largest) nonzero row, or None when row is not a table row: a
    dict's .get, or a leaf's table that builds each entry on first lookup.
    Every table column is nonzero, and col and the table's columns are of
    one format, the table's own: a leaf's int bitsets at p = 2, else
    {row: nonzero residue} dicts.  col is not changed: a copy of it is
    reduced by _reduce_column, each row at which lookup gives None being
    set aside; clearing a row touches no larger row.  Returns (remainder,
    w), both of that format: col - remainder = sum(c * R) and w = sum(c *
    V) over the entries used, and no row of the remainder is a table row.
    A table of (R, e_tag) entries so gives the coefficients as w.
    """
    col = col if type(col) is int else dict(col)
    rest, w = type(col)(), type(col)()
    while True:
        col, w, l = _reduce_column(col, w, lookup, p)
        if l < 0:   # w holds -sum(c * V): each step subtracts
            return rest, w if type(w) is int else {r: p - x for r, x in w.items()}
        if type(col) is int:
            bit = 1 << l
            rest |= bit
            col ^= bit
        else:
            rest[l] = col.pop(l)


# ---------------------------------------------------------------------------
# Reduction


class ReducedPair:
    """Result of left-to-right column reduction: R = D*V exactly over Z/p.

    V is invertible upper-triangular; distinct nonzero columns of R have
    distinct lowest nonzero rows, recorded in pivots (low row -> column).
    r and v list the columns of R and V, {row: nonzero residue} dicts at
    every p.
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


def _reduce_column(col, v, source, p: int):
    """Reduce the pair (col, v), a column of R and its column of V, left to
    right: while source(l), at col's lowest row l, gives a pair (R_k, V_k)
    whose lowest row is l, subtract from both the multiple of it that
    cancels row l.  The one pivot step of the package: the pairing, a
    leaf's columns, reduce_columns and eliminate all reduce through it.
    The path follows col's type, not p: an int bitset (p = 2) takes one XOR
    each, a {row: nonzero residue} dict an _axpy each, by the coefficient
    -(col[l] / R_k[l]) mod p, so dict columns serve at p = 2 too.  v and
    the pairs source gives are of col's type; a dict col or v is updated in
    place.  Returns (col, v, l), l the lowest row at which source gave
    None, or -1 once col is zero.
    """
    if type(col) is int:
        while col:
            l = col.bit_length() - 1
            src = source(l)
            if src is None:
                return col, v, l
            col ^= src[0]
            v ^= src[1]
        return col, v, -1
    while col:
        l = max(col)
        src = source(l)
        if src is None:
            return col, v, l
        r, w = src
        c = (-col[l] * pow(r[l], -1, p)) % p
        _axpy(col, r, c, p)
        if w:   # the pairing's sources have an empty V
            _axpy(v, w, c, p)
    return col, v, -1


def reduce_columns(columns, field: PrimeField) -> ReducedPair:
    """Left-to-right column reduction of a sparse matrix over Z/p, with V.

    columns is a list of {row: nonzero residue} dicts, at every p, and the
    columns of R and V are dicts too; the input is not changed.  While a
    column shares its lowest nonzero row with an earlier column, the
    appropriate multiple of that earlier column is subtracted
    (_reduce_column); V records the operations.  Deterministic given the
    column order.
    """
    p, n = field.p, len(columns)
    R, V, pivots = [None] * n, [None] * n, {}
    sources = {}    # pivot row -> its pivot column's (R, V)
    for j, col in enumerate(columns):
        col, v, l = _reduce_column(dict(col), {j: 1}, sources.get, p)
        if col:
            pivots[l] = j
            sources[l] = col, v
        R[j] = col
        V[j] = v
    return ReducedPair(n, field, R, V, pivots)


def cohomology_pairs(cx, q: int, field: PrimeField, clear=None) -> np.ndarray:
    """Pivot pairs of D_q, found by reducing the coboundary columns of the
    (q-1)-simplices instead of the boundary columns of the q-simplices.

    Returns killer, an int64 array over the (q-1)-simplices: killer[l] is
    the q-simplex whose reduced column has lowest row l, or -1 where there
    is none.  These are the pivots of reduce_columns over all of
    boundary_matrix(cx, q, p): homology and cohomology have the same pairs
    (de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
    (co)homology", 2011).  The columns are read from level q's facet table,
    cx.facets[q].  Any q >= 1 is paired this way; _pair_levels pairs D_1
    by union-find instead (_union_find_pairs), which also gives the merge
    forest.

    The coboundary column of a (q-1)-simplex holds its cofaces with their
    boundary coefficients.  An argsort of the flattened facet table groups
    its entries by facet into a sparse (CSR) matrix: entry e is coface
    e // (q+1), with the sign of facet column e % (q+1).  Its rows number
    the cofaces downward, top - coface, so that a column's lowest row is
    its earliest coface, the pivot (Bauer, "Ripser", 2021).  The columns
    are reduced in descending simplex order.  A column that is the latest
    facet of its earliest coface forms an apparent pair with it: no column
    above it holds that coface, so these pairs are written with numpy
    before the loop.  The loop enters only the other columns that have a
    coface, and finds the column of a pivot in an int64 array over level q,
    as Ripser does.  A column whose earliest coface is free is paired by
    reading that one entry; a column that clashes with a pivot is reduced
    by one _reduce_column call, as a {row: residue} dict at every p, with
    no V.  A source's column is the one the loop reduced, which it keeps,
    or else its coboundary rebuilt from the CSR slice on each use and not
    stored, as Ripser recomputes coboundaries.  The simplices of clear, an
    int array of the pivot columns of D_{q-1}, are skipped: their
    coboundary columns reduce to zero.
    """
    facets = cx.facets[q]
    p, k, n = field.p, q + 1, cx.count(q - 1)
    top = len(facets) - 1
    flat = facets.ravel()
    # The order within a column is not used, so the sort need not be stable.
    cofaces = np.argsort(flat)
    coefs = np.array(facet_signs(q, p))[cofaces % k]
    cofaces //= k
    np.subtract(top, cofaces, out=cofaces)  # rows numbered downward
    sizes = np.bincount(flat, minlength=n)
    ends = sizes.cumsum()
    starts = ends - sizes
    first = np.full(n, -1, np.int64)    # each column's lowest row: its earliest coface
    live = sizes > 0
    first[live] = np.maximum.reduceat(cofaces, starts[live])
    if clear is not None:
        first[clear] = -1
    apparent = np.flatnonzero(first >= 0)
    apparent = apparent[reduce(np.maximum, facets.T)[top - first[apparent]] == apparent]
    killer = np.full(n, -1, np.int64)
    killer[apparent] = top - first[apparent]
    pivot = np.full(len(facets), -1, np.int64)     # pivot row -> its column
    pivot[first[apparent]] = apparent
    first[apparent] = -1
    todo = np.flatnonzero(first >= 0)[::-1]

    def column(i):
        s, e = starts[i], ends[i]
        return dict(zip(cofaces[s:e].tolist(), coefs[s:e].tolist()))

    reduced = {}    # column -> its coboundary, where the loop reduced it
    no_v = {}       # the V of every source: the pairing keeps none

    def source(l):
        j = pivot.item(l)
        if j < 0:
            return None
        src = reduced.get(j)
        return column(j) if src is None else src, no_v

    for i, low in zip(todo.tolist(), first[todo].tolist()):
        if pivot.item(low) >= 0:
            col, _, low = _reduce_column(column(i), {}, source, p)
            if not col:
                continue
            reduced[i] = col
        killer[i] = top - low
        pivot[low] = i
    return killer


def _union_find_pairs(edges, n: int):
    """The pairing of D_1 as (killer, parent), int64 arrays over n vertex
    rows, by union-find over the (count(1), 2) vertex rows of the edges in
    level order (Kruskal), each component rooted at its smallest vertex
    row: an edge j that joins roots a < b pairs with b (killer[b] = j) and
    makes a b's parent in the merge forest.  b is the lowest row of the
    edge's reduced column, which has a nonzero coefficient sum on each of
    the two components and no pivot row, so these are the pairs that
    cohomology_pairs(cx, 1) gives.  A vertex that no edge merges has killer
    -1 and is its own parent.  Merge edges rise along every path of the
    forest, from which a leaf labels each vertex with its component's root
    at every scale."""
    root = list(range(n))
    parent = root.copy()
    killer = [-1] * n
    for j, (a, b) in enumerate(edges.tolist()):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            if a > b:
                a, b = b, a
            root[b] = parent[b] = a
            killer[b] = j
    return np.array(killer, np.int64), np.array(parent, np.int64)


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
    """The pairing of cx as (killer, parent): killer[n], for n below
    cx.max_dim, is an int64 array over the n-simplices giving each one's
    killer in D_{n+1} (-1 when none), and parent is D_1's merge forest over
    the vertex rows.  D_1 is paired by union-find, each D_q above by
    cohomology_pairs, cleared by the pivot columns of D_{q-1}."""
    killer, parent = _union_find_pairs(cx.facets[1], cx.count(0))
    killers = [killer]
    for q in range(2, cx.max_dim + 1):
        below = killers[-1]
        killers.append(cohomology_pairs(cx, q, field, below[below >= 0]))
    return killers, parent


class _Columns(dict):
    """The pairs (R_j, V_j) of D_q's left-to-right reduction, by q-simplex
    j, each built on its first read, from the pairs: a leaf's column cache.

    Column k starts as (its boundary, e_k), q >= 1, built from facet-table
    row k in the leaf's format: int bitsets at p = 2, dicts otherwise.
    While its lowest row l is paired with an earlier column i (i =
    killer[l], the row's killer in D_q), the multiple of (R_i, V_i) that
    cancels l is subtracted (_reduce_column), R_i being built first when
    it is missing; the columns waiting on a source are kept on an explicit
    stack, since nothing bounds how deep they nest.  A reduction of all of
    D_q meets the same rows and subtracts the same columns, since the
    earlier column whose pivot is l is its killer, so every column equals
    the full reduction's, and the clearing one's wherever that builds it,
    in any order of reads.

    Every column built checks the pairs as a full reduction would: it ends
    at a row paired with itself, or at zero when it is no pivot column of
    D_q (live[k]).  A row paired with no column or with a later one, where
    the full reduction makes k a pivot, or a zero pivot column, raises
    ConsistencyError.  The cache holds the arrays it reads, never its
    owner.
    """

    __slots__ = ("q", "facets", "killer", "live", "signs", "p")

    def __init__(self, q, facets, killer, live, p: int):
        super().__init__()
        self.q, self.facets, self.killer, self.live, self.p = q, facets, killer, live, p
        self.signs = facet_signs(q, p)

    def _start(self, k):
        """Column k before reduction, as a mutable [k, R, V] stack entry."""
        rows = self.facets[k].tolist()
        return [k, _bits(rows) if self.p == 2 else dict(zip(rows, self.signs)),
                _unit(k, self.p)]

    def _source(self, k, l):
        """The source (R_i, V_i) of column k at row l for _reduce_column:
        None when l is k's own pivot row or its source is not built yet."""
        i = self.killer.item(l)
        if i == k:
            return None
        if not 0 <= i < k:
            raise ConsistencyError(
                f"reduced D_{self.q} column {k} differs from its cohomology pairs: "
                f"its lowest row {l} is paired with "
                f"{'no column' if i < 0 else f'the later column {i}'}")
        return self.get(i)

    def __missing__(self, j):
        if not 0 <= j < len(self.live):
            raise KeyError(j)
        stack = [self._start(j)]
        while stack:
            entry = stack[-1]
            k = entry[0]
            col, v, l = _reduce_column(entry[1], entry[2], partial(self._source, k), self.p)
            if col and self.killer[l] != k:     # waits on its source
                entry[1], entry[2] = col, v
                stack.append(self._start(int(self.killer[l])))
                continue
            if not col and not self.live[k]:
                raise ConsistencyError(
                    f"reduced D_{self.q} column {k} differs from its cohomology pairs: "
                    f"it is zero, and they make it a pivot column")
            self[k] = col, v
            stack.pop()
        return self[j]


def _require_found(simplices, found):
    """A ValueError naming the first simplex (a row of ids) not found."""
    if not found.all():
        s = tuple(simplices[np.argmin(found)].tolist())
        raise ValueError(f"simplex {s} is not in this complex")


class LeafReduction:
    """One reduction of a region's Rips complex that serves every requested scale.

    The complex is enumerated once at the top scale and _order_levels puts
    every level with a diameter above the first scale in (diameter, lex)
    order, so the complex at every requested scale is a prefix of every
    level, prefix[q][b] q-simplices long, and left-to-right reduction of
    each boundary matrix is also a reduction of the complex at every
    requested scale.  Under a single scale nothing is reordered.  Pairs
    come first: _pair_levels pairs D_1, ..., D_{n_max+1} in ascending
    dimension, D_1 by union-find and each level above by cohomology_pairs,
    cleared by the pivot columns of the level below.

    The build ends at the pairing, which is kept once, as the arrays that
    _pair_levels returns: killer[n] gives each n-simplex's killer in D_{n+1}
    (-1 when none), and parent is D_1's merge forest over the vertex rows,
    from which a view labels each vertex with its component's root.  Read
    off killer[q-1], live[q] is false at the pivot columns of D_q, and
    ranks[q][b], a search in those columns, ascending, is the rank of D_q on
    the prefix of scales[b].  No column is reduced then.  cols[q] (_Columns,
    q >= 1; D_0 = 0 needs none) builds the pair (R_j, V_j) of D_q's
    left-to-right reduction at column j on its first read, from the pairs,
    and checks them there; a Betti-only run builds none.  The live
    n-simplices are the rows of the dimension-n eliminate() table for every
    scale (entry reads a row's (column, e_row) from cols), and a view
    (view(scale), a LeafSolver) picks its basis from killer[n] and
    live[n].  The complex is dropped after the build: the leaf keeps its
    level-0 id array ids, sorted, the one form of its point set, prefix
    (the last entry of each level is its count) and the facet tables, which
    give every simplex's vertex rows (rips.vertex_rows) and boundary, as in
    Ripser (Bauer, 2021).  They are also the one simplex lookup: rows_of
    finds a simplex's row by one search per level, a vertex's in ids and a
    q-simplex's in level q's keys, sorted on the first query at level q
    (keys); chain_of_column maps rows back.  chain(n, row) builds a table
    row's cycle chain, or at n = 0 the vertex, once, for every view.
    Entries are built on the thread that queries, during assembly on the
    calling thread.
    """

    def __init__(self, points, cloud: PointCloud, scales, n_max: int,
                 field: PrimeField, budget: int = DEFAULT_BUDGET):
        self.scales = scales    # sorted and distinct (build_leaf)
        self.n_max = n_max
        self.field = field
        top = n_max + 1
        cx = enumerate_complex(points, cloud, self.scales[-1], top, budget)
        self.ids = cx.points    # global id of each vertex row
        _order_levels(cx, self.scales[0])
        self.facets = cx.facets
        # prefix[q][b]: the q-simplices of diameter <= scales[b].  A level
        # left in lex order has every diameter <= scales[0], so each search
        # in it ends at its length as if it were sorted.
        self.prefix = [np.searchsorted(d, self.scales, "right").tolist()
                       for d in cx.diameters]
        self.killer, self.parent = _pair_levels(cx, field)
        self.ranks = {0: [0] * len(self.scales)}
        self.live = [np.ones(cx.count(0), bool)]
        for q, killer in enumerate(self.killer, 1):
            live = np.ones(cx.count(q), bool)
            live[killer[killer >= 0]] = False
            self.live.append(live)
            self.ranks[q] = np.searchsorted(np.flatnonzero(~live), self.prefix[q]).tolist()
        self.cols = {q: _Columns(q, self.facets[q], self.killer[q - 1], self.live[q], field.p)
                     for q in range(1, top + 1)}
        self.keys = {}      # q -> level q's sorted keys and their rows (_level_keys)
        self._chains = {}   # (dimension, row) -> the row's cycle chain

    def view(self, scale: float) -> "LeafSolver":
        return LeafSolver(self, scale)

    def chain(self, n: int, row: int) -> Chain:
        """The cycle chain of row row of dimension n's table, or the vertex
        row itself at n = 0, built once for every scale; callers must not
        mutate it."""
        z = self._chains.get((n, row))
        if z is None:
            if n:
                z = self.chain_of_column(as_dict(self.entry(n, row)[0]), n, self.field.p)
            else:
                z = Chain(0, self.field.p, {(int(self.ids[row]),): 1})
            self._chains[n, row] = z
        return z

    def rows_of(self, simplices) -> np.ndarray:
        """The level-q rows of an (m, q + 1) int array of simplices, global
        ids ascending in each row: one search for the vertices in ids, then
        per level k one in keys[k] for (row of the first k vertices, row of
        vertex k).  A ValueError names the first simplex not in the complex."""
        n = len(self.ids)
        rows, found = search_sorted(self.ids, simplices)
        _require_found(simplices, found.all(axis=1))
        row = rows[:, 0]
        for k in range(1, simplices.shape[1]):
            keys, order = self._level_keys(k)
            pos, found = search_sorted(keys, row * n + rows[:, k])
            _require_found(simplices, found)
            row = order[pos]
        return row

    def _level_keys(self, q: int):
        """Level q's keys, sorted, and the row of each, kept in keys[q].
        Row i's key is F_q[i, 0] * count(0) + its last vertex row, the
        clique expansion's key (rips._cofaces): exact wherever that is."""
        found = self.keys.get(q)
        if found is None:
            facets = self.facets[q]
            last = vertex_rows(self.facets, q, np.arange(len(facets)))[:, -1]
            keys = facets[:, 0] * len(self.ids) + last
            order = np.argsort(keys)
            found = self.keys[q] = keys[order], order
        return found

    def entry(self, n: int, row: int):
        """Row row's entry (column, e_row) of dimension n's eliminate()
        table, from cols: R_k when the row's killer in D_{n+1} is k, else
        V_row at an unkilled zero column of D_n, or e_row at a vertex.  A
        pivot column of D_n (live[n][row] false) is no table row: None."""
        k = self.killer[n].item(row)
        unit = _unit(row, self.field.p)
        if k >= 0:
            return self.cols[n + 1][k][0], unit
        if not n:
            return unit, unit
        if self.live[n][row]:
            return self.cols[n][row][1], unit
        return None

    def chain_of_column(self, col: dict, q: int, p: int) -> Chain:
        """The chain of a {row: coefficient} column over level q."""
        rows = vertex_rows(self.facets, q, np.fromiter(col, np.int64, len(col)))
        return Chain(q, p, dict(zip(map(tuple, self.ids[rows].tolist()), col.values())))


class LeafSolver:
    """Homology of one region at one scale: a view of a LeafReduction.

    A view is the list of its live rows.  The live rows of the reduction's
    dimension-n table below the view's n-limit span the cycle space Z_n of
    the complex at its scale.  A row is a representative unless its killer k
    lies in the view's (n+1)-prefix, where R_k is a boundary with preimage
    V_k.  The view keeps one ascending list of representative rows per
    dimension (_rows), picked from the reduction's killer and live arrays
    with numpy and checked against its ranks, so betti(n) = dim Z_n - rank
    d_{n+1} is the length of that list and no table column is built; a
    row's basis index is its position there, found by bisection.  coords()
    expresses a cycle in the representative basis as a sparse {basis index:
    nonzero residue} dict, the representation of a dict column; bound()
    returns an explicit preimage under the boundary map, from the V_k of
    the killed rows, whenever the class vanishes.  Both build the table
    columns they reach on first use, and representative(n, b) the chain of
    the one class it names (LeafReduction.chain).

    Dimension 0 has a component-root basis: its representative rows are
    the roots that the elder rule leaves at the view's scale, and
    representative(0, b) is the root vertex itself (roots() lists them).
    labels() gives each vertex its root's basis index, from one
    pointer-jumping pass over the merge forest built on the first
    dimension-0 query, and coords(z, 0) sums z's coefficients at its
    vertices' labels (vertex_coords), with no table column.  bound(z, 0)
    eliminates as above: it must return a 1-chain, and whether [z] = 0
    does not depend on the basis.
    """

    def __init__(self, reduction: LeafReduction, scale: float):
        b = bisect_left(reduction.scales, scale)
        if b == len(reduction.scales) or reduction.scales[b] != scale:
            raise ValueError(f"scale {scale} is not one of the leaf's scales")
        self.reduction = reduction
        self.n_max = reduction.n_max
        self.field = reduction.field
        self.ids = reduction.ids
        self._label = None  # vertex row -> dimension-0 basis index, on first read
        # Simplices of the view per dimension: a prefix of every level.
        self._limit = [reduction.prefix[q][b] for q in range(self.n_max + 2)]
        self._rows = []     # per dimension: representative rows, ascending
        for n in range(self.n_max + 1):
            end = self._limit[n]
            killer = reduction.killer[n][:end]
            rows = np.flatnonzero(reduction.live[n][:end]
                                  & ((killer < 0) | (killer >= self._limit[n + 1]))).tolist()
            self._rows.append(rows)

            expected = end - reduction.ranks[n][b] - reduction.ranks[n + 1][b]
            if len(rows) != expected:
                raise ConsistencyError(
                    f"homology basis size mismatch at dimension {n}: "
                    f"{len(rows)} reps vs {expected} expected"
                )

    # -- queries

    def betti(self, n: int) -> int:
        if n < 0 or n > self.n_max:
            return 0
        return len(self._rows[n])

    def representative(self, n: int, b: int) -> Chain:
        """The cycle chain of basis class b at dimension n, shared with every
        view of the reduction; callers must not mutate it."""
        return self.reduction.chain(n, self._rows[n][b])

    def representatives(self, n: int):
        """Cycle chains whose classes form the homology basis at dimension n."""
        return [self.representative(n, b) for b in range(self.betti(n))]

    def roots(self) -> np.ndarray:
        """The global id of each dimension-0 class's root vertex, by basis
        index: the vertex that representative(0, b) is."""
        return self.ids[self._rows[0]]

    def labels(self, vertices) -> np.ndarray:
        """The dimension-0 basis index of each vertex (global ids, an int
        array): the class of its component's root at the view's scale.  A
        vertex outside the region raises ValueError."""
        rows = self.reduction.rows_of(vertices[:, None])
        if self._label is None:
            self._label = self._component_labels()
        return self._label[rows]

    def _component_labels(self) -> np.ndarray:
        """Each vertex row's basis index, by one pointer-jumping pass over
        the merge forest (LeafReduction.parent): a row steps to its parent
        while its merge edge is inside the view's edge prefix.  Merge edges
        rise along every path, so the steps stop at the first edge outside
        it, at the root that the elder rule leaves at this scale."""
        red = self.reduction
        killer = red.killer[0]
        rows = np.arange(len(killer))
        up = np.where((killer >= 0) & (killer < self._limit[1]), red.parent, rows)
        while True:
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            up = nxt
        basis = np.full(len(rows), -1, np.int64)
        basis[self._rows[0]] = np.arange(len(self._rows[0]))
        label = basis[up]
        if (label < 0).any():
            row = int(np.argmin(label))
            raise ConsistencyError(
                f"vertex row {row} is labelled {int(up[row])}, which is not a "
                f"representative row at dimension 0")
        return label

    def _column(self, z: Chain, n: int):
        """z over the view's n-simplices, by row (LeafReduction.rows_of), in
        the leaf's format: an int bitset at p = 2, else a dict.  A simplex
        beyond the view's prefix is not in its complex."""
        simplices = simplex_array(z)
        rows = self.reduction.rows_of(simplices)
        _require_found(simplices, rows < self._limit[n])
        rows = rows.tolist()
        return _bits(rows) if self.field.p == 2 else dict(zip(rows, z.terms.values()))

    def _eliminate(self, z: Chain, n: int):
        """Express a nonzero cycle as (sparse rep coordinates, (killed row,
        coefficient) terms of the rest, a boundary in the view)."""
        red = self.reduction
        rest, w = eliminate(self._column(z, n), partial(red.entry, n), self.field.p)
        if rest:
            raise ValueError(
                f"chain is not a cycle of this region's complex (unmatched row "
                f"{max(as_dict(rest))} at dimension {n})"
            )
        rows = self._rows[n]
        coords = {}
        killed = []
        for row, c in as_dict(w).items():
            b = bisect_left(rows, row)
            if b < len(rows) and rows[b] == row:
                coords[b] = c
            else:
                killed.append((row, c))
        return coords, killed

    def coords(self, z: Chain, n: int) -> dict:
        """A cycle's class in the homology basis as {basis index: nonzero
        residue}: at n = 0 a sum over its vertices' labels, above by
        elimination."""
        require_query(z, n, self.n_max)
        if z.is_zero():
            return {}
        if n == 0:
            return vertex_coords(self, z, self.field.p)
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
        preimage = [(red.cols[n + 1][int(red.killer[n][row])][1], c) for row, c in killed]
        chain = red.chain_of_column(as_dict(combine(preimage, p)), n + 1, p)
        if chain_boundary(chain) != z:
            raise ConsistencyError("bound() produced a chain whose boundary differs from z")
        return chain

    def betti_all(self):
        return [self.betti(n) for n in range(self.n_max + 1)]


def simplex_array(z: Chain) -> np.ndarray:
    """A chain's simplices as an (m, dim + 1) int64 array of global ids, a
    row per term, in the order of its terms."""
    k = z.dim + 1
    return np.fromiter(itertools.chain.from_iterable(z.terms), np.int64,
                       len(z.terms) * k).reshape(-1, k)


def vertex_coords(solver, z: Chain, p: int) -> dict:
    """A 0-chain's class as {basis index: nonzero residue}: the sum of its
    coefficients at its vertices' labels (solver.labels), the one rule of
    dimension 0 on leaves and nodes alike."""
    out = {}
    for b, c in zip(solver.labels(simplex_array(z).ravel()).tolist(), z.terms.values()):
        c = (out.get(b, 0) + c) % p
        if c:
            out[b] = c
        else:
            del out[b]
    return out


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
    order, which is that order) and it is paired as a leaf is, into the same
    killer arrays.  An n-simplex that is no pivot column of D_n is born at
    its diameter and dies at its killer's in D_{n+1}, or gives an open bar;
    zero-length bars are dropped.  The bars of each dimension are read from
    the killer arrays with numpy and ordered by (birth, death), an open bar
    first among equal births.  The oracle shares enumeration, level ordering
    and pairing with run(), nothing else; the tests' brute_force_betti and
    brute_force_barcode, the golden barcode frozen from a global reduction
    and the benchmark's frozen seed-0 Betti numbers keep it independent.
    eps_max is a finite real >= 0 and n_max an int >= 0, or a ValueError
    names the argument.
    """
    field = PrimeField(field)
    eps_max = require_real("eps_max", eps_max)
    n_max = require_int("n_max", n_max, 0)
    cx = enumerate_complex(points, cloud, eps_max, n_max + 1, budget)
    _order_levels(cx, 0.0)
    killer, _ = _pair_levels(cx, field)

    bars = []
    cleared = np.empty(0, np.int64)     # the pivot columns of D_n: no class is born at one
    for n in range(n_max + 1):
        births = cx.diameters[n]
        death = np.full(len(births), np.inf)
        up = killer[n]
        paired = up >= 0
        death[paired] = cx.diameters[n + 1][up[paired]]
        keep = death > births
        keep[cleared] = False
        cleared = up[paired]
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
