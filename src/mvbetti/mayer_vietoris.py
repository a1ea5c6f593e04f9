"""Homology of a union from homology of path-ordered pieces and overlaps.

Given pieces X_0..X_{K-1} covering a region, with X_a and X_b disjoint unless
|a - b| <= 1 and every scale-sized simplex contained in some piece, the chain
map sending an overlap chain c_k to (c_k in X_k, -c_k in X_{k+1}) sits in a
short exact sequence with the inclusion-sum onto the union.  The induced map
on homology

    f_n : (+)_k H_n(X_k intersect X_{k+1})  ->  (+)_k H_n(X_k)

determines the union's homology as coker(f_n) (+) ker(f_{n-1}).  This module
builds the f matrices from child solvers, extracts kernel and cokernel bases
exactly over Z/p, and answers coords()/bound() on the union by the standard
chain-level chase, so a node composes with further nodes exactly like a leaf
solver.  What no scale changes, the union's point set, its piece table and
the path checks, is its NodeRegion's, which every scale's solver shares.

The path hypothesis is checked where each part of it can fail, each
failure a ConsistencyError: covering._disjoint keeps non-adjacent grid
cells disjoint at their float endpoints when a covering is built;
NodeRegion, once per run, checks from its piece table that no point lies
in two pieces more than one apart and that overlap k is exactly the points
of pieces k and k + 1; and _lowest_pieces, per query, finds a piece
holding every vertex of each simplex (the Lebesgue property).

Representatives are read by class, and the explicit union cycle of a
kernel basis vector (the connecting-map lift) is built on the first read of
its class: a Betti-only root builds none, and a chase only those its kernel
correction names.  Class coordinates are sparse {basis index:
nonzero residue} dicts throughout, the representation of a dict column: a
child's coords() shifts straight into an f-matrix column or target vector.

Dimension 0 runs on component labels, with no chase (Edelsbrunner & Harer,
"Computational Topology", 2010: H_0 by union-find).  Every solver's basis
there is one root vertex per component, and labels() gives a vertex's
class.  f_0 is the incidence matrix between the overlaps' and the pieces'
components, filled from the pieces' labels of each overlap root.  A node's
label of a vertex is its label in the lowest piece holding it
(_lowest_pieces, the rule by which _split assigns a simplex too), mapped
to that row's cokernel class (FMatrix.row_classes), so a nested node, and
the dimension-1 chase's coords(., 0) on the overlaps, read labels too.
bound(z, 0) still chases, since it returns a 1-chain.

All chains use global point indices, so inclusions are literal identities.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .core import Chain, ConsistencyError, chain_boundary, require_query
from .reduction import (PrimeField, _unit, as_dict, eliminate, reduce_columns,
                        search_sorted, simplex_array, vertex_coords)


def _combo_chain(solver, n: int, coeffs, p: int) -> Chain:
    """Linear combination of a solver's representatives at dimension n,
    reading only the classes named in coeffs."""
    out = Chain.zero(n, p)
    for b, c in coeffs.items():
        out = out + solver.representative(n, b).scaled(c)
    return out


def _ask_child(what: str, query, *args):
    """query(*args) on a child solver.  A child that rejects a query the
    node derived from its own pieces and overlaps breaks exactness, so its
    ValueError is raised as ConsistencyError, prefixed by what."""
    try:
        return query(*args)
    except ValueError as exc:
        raise ConsistencyError(f"{what}: {exc}") from exc


def _block_coords(solver, z: Chain, n: int, offset: int, what: str) -> dict:
    """solver.coords(z, n), asked by _ask_child, with its keys shifted by
    offset into an f-matrix block."""
    return {offset + i: c for i, c in _ask_child(what, solver.coords, z, n).items()}


class FMatrix:
    """f_n as a block matrix over the flattened piece/overlap homology bases,
    reduced: its image echelon, cokernel rows and kernel basis.

    Rows run over the pieces' bases, block k from row_starts[k]; columns
    over the overlaps' bases, block k from col_starts[k].  Column (k, b) holds
    +coords in piece k and -coords in piece k+1 of overlap k's
    representative b.  The columns are reduced once, on construction,
    and both tables that eliminate() reads give pairs (R, V): the image
    table holds each pivot's (R_j, V_j), by its lowest row, and the kernel
    table each kernel vector's (V_j, e_i), by j.  coker_rows are the
    non-pivot rows, ascending, and kernel_cols the echelon nullspace, the
    native V_j of the zero columns R_j, i their index there.  V is unit
    upper-triangular, so V_j's lowest row is j, the kernel columns have
    distinct lowest rows, and membership in the kernel is a straight
    elimination.  f_0 is an incidence matrix, +1 and -1 in each column
    (build_f), and is reduced all the same: its kernel basis feeds the
    connecting lifts at dimension 1, and row_classes reads its cokernel
    class of each row off the reduced image.
    """

    __slots__ = ("columns", "row_starts", "col_starts", "p", "rank",
                 "_image", "coker_rows", "_coker_pos", "kernel_cols", "_kernel")

    def __init__(self, columns, row_starts, col_starts, field: PrimeField):
        self.columns = columns
        self.row_starts = row_starts
        self.col_starts = col_starts
        p = self.p = field.p
        red = reduce_columns(columns, field)
        self.rank = red.rank
        self._image = {l: (red.r[j], red.v[j]) for l, j in red.pivots.items()}
        self.coker_rows = [r for r in range(self.nrows) if r not in red.pivots]
        self._coker_pos = {r: i for i, r in enumerate(self.coker_rows)}
        kernel = [j for j in range(red.ncols) if not red.r[j]]
        self.kernel_cols = [red.v[j] for j in kernel]
        self._kernel = {j: (red.v[j], _unit(i, p)) for i, j in enumerate(kernel)}

    @property
    def nrows(self) -> int:
        return self.row_starts[-1]

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def project_coker(self, t: dict):
        """Reduce a target vector mod im(f), in one elimination against the
        image's (R_j, V_j): (cokernel coordinates, y), y the native source
        column with f(y) = t minus the cokernel rows left, so f(y) = t when
        the projection is zero.

        Every row left after eliminating the image pivot rows is a cokernel row.
        """
        rest, y = eliminate(t, self._image.get, self.p)
        pos = self._coker_pos
        return {pos[r]: c for r, c in as_dict(rest).items()}, y

    def row_classes(self) -> np.ndarray:
        """The cokernel position of each row's class, for an f whose every
        column sums to zero, as f_0's do (build_f): im(f) is then the
        vectors that sum to zero on each component of the graph whose
        edges are the columns, so each component has one cokernel row, its
        smallest, and every row's class is that row's.  Rows are read in
        ascending order: a pivot row l takes the class of another row of
        its image column, whose rows lie below l in one component.  An
        image column with no other row would put a vertex class in im(f),
        and raises ConsistencyError."""
        out = np.empty(self.nrows, np.int64)
        for r in range(self.nrows):
            pos = self._coker_pos.get(r)
            if pos is None:
                col = self._image[r][0]
                other = (col & -col).bit_length() - 1 if type(col) is int else min(col)
                if other == r:
                    raise ConsistencyError(
                        f"row {r} of f_0 is in its image: a vertex class vanishes")
                pos = out[other]
            out[r] = pos
        return out

    def kernel_coords(self, u: dict) -> dict:
        """Sparse coordinates of a kernel vector in the echelon kernel basis."""
        rest, w = eliminate(u, self._kernel.get, self.p)
        if rest:
            raise ConsistencyError(
                "connecting-map image landed outside ker(f); exactness violated"
            )
        return as_dict(w)


def build_f(pieces, inters, n: int, field) -> FMatrix:
    """Assemble and reduce f_n from child solvers along the path covering.

    Each overlap's representatives are read once; column (k, b) is filled
    from piece k and, negated, from piece k+1 (see FMatrix).  Chains carry
    global indices, so an inclusion is the identity on simplices.  At n = 0
    f_0 is the incidence matrix of components: a class b of overlap k is
    its root vertex r (roots()), and column (k, b) is +1 at r's label in
    piece k and p - 1 at its label in piece k+1, read with one batched
    labels() call per piece and no chain.
    """
    field = PrimeField(field)
    p = field.p
    row_off = list(accumulate((pc.betti(n) for pc in pieces), initial=0))
    col_off = list(accumulate((it.betti(n) for it in inters), initial=0))
    what = "overlap representative is not a cycle of its piece"
    columns = []
    for k, inter in enumerate(inters):
        if n == 0:
            roots = inter.roots()
            plus = (_ask_child(what, pieces[k].labels, roots) + row_off[k]).tolist()
            minus = (_ask_child(what, pieces[k + 1].labels, roots) + row_off[k + 1]).tolist()
            columns += [{a: 1, b: p - 1} for a, b in zip(plus, minus)]
            continue
        for rep in inter.representatives(n):
            col = _block_coords(pieces[k], rep, n, row_off[k], what)
            minus = _block_coords(pieces[k + 1], rep, n, row_off[k + 1], what)
            col.update((r, p - c) for r, c in minus.items())
            columns.append(col)
    return FMatrix(columns, row_off, col_off, field)


class NodeRegion:
    """What a node's solvers share at every scale, as a leaf's views share
    its LeafReduction: n_max, the field, the union's point set as its sorted
    ids, and its piece table: lo[i] and hi[i], the first and last piece
    holding ids[i], in the smallest unsigned dtype that holds the piece
    count.  Built once per node box per run from the child solvers of one
    scale, of which it reads only ids, the same array at every scale.

    The path hypothesis, pieces a and b disjoint unless |a - b| <= 1 with
    overlap k their intersection, and every simplex in some piece, is
    checked in three places, each failure a ConsistencyError.
    covering._disjoint keeps non-adjacent grid cells apart when a covering
    is built.  This table, once per run, puts no point in two pieces more
    than one apart and makes overlap k exactly the points whose (lo, hi)
    is (k, k + 1).  MVNodeSolver._lowest_pieces, per query, finds a piece
    holding every vertex of each simplex."""

    __slots__ = ("n_max", "field", "parts", "ids", "lo", "hi")

    def __init__(self, pieces, inters, n_max: int, field):
        if len(inters) != max(len(pieces) - 1, 0):
            raise ValueError(
                f"expected {max(len(pieces) - 1, 0)} overlap solvers for "
                f"{len(pieces)} pieces, got {len(inters)}"
            )
        self.n_max, self.field = n_max, PrimeField(field)
        self.parts = [pc.ids for pc in pieces], [it.ids for it in inters]
        ids = self.parts[0]
        # No np.unique: its first call imports numpy.ma, a cost in every run.
        union = np.sort(np.concatenate(ids))
        self.ids = union = union[np.diff(union, prepend=-1) != 0]
        K = len(ids)
        lo = self.lo = np.full(len(union), K, np.min_scalar_type(K))
        hi = self.hi = np.zeros_like(lo)
        for k, part in enumerate(ids):
            pos = np.searchsorted(union, part)
            lo[pos] = np.minimum(lo[pos], k)
            hi[pos] = k
        far = np.flatnonzero(hi - lo > 1)
        if len(far):
            i = far[0]
            raise ConsistencyError(
                f"point {union[i]} lies in pieces {lo[i]} and {hi[i]}: pieces "
                f"more than one apart must be disjoint"
            )
        for k, got in enumerate(self.parts[1]):
            expect = union[(lo == k) & (hi == k + 1)]
            if not np.array_equal(got, expect):
                raise ConsistencyError(
                    f"overlap solver {k} covers {got.tolist()} but the "
                    f"pieces intersect in {expect.tolist()}"
                )


class MVNodeSolver:
    """Union solver of a NodeRegion at one scale, from the path-ordered
    piece and overlap solvers of that scale: ConsistencyError unless they
    are over the region's own pieces and overlaps.

    Exposes the same surface as a leaf solver (betti / representatives /
    coords / bound over the union region), so nodes stack across split axes.
    The stored basis lists cokernel classes first (one lifted piece
    representative per non-pivot row of f_n, ascending) and kernel classes
    second (one connecting lift per echelon kernel vector of f_{n-1}), so in
    a coords() dict kernel class i has key len(coker_rows) + i.
    representative(n, b) reads one class; representatives(n) lists them all.
    """

    def __init__(self, region: NodeRegion, pieces, inters):
        for solvers, ids in zip((pieces, inters), region.parts):
            if len(solvers) != len(ids) or any(s.ids is not t for s, t in zip(solvers, ids)):
                raise ConsistencyError("the solvers are not over the region's pieces and overlaps")
        self.region = region
        self.pieces = list(pieces)
        self.inters = list(inters)
        self.n_max = region.n_max
        self.field = region.field
        self.p = region.field.p
        self.ids = region.ids

        self._f = []        # reduced FMatrix per dimension 0..n_max
        self._lifts = {}    # (dimension, kernel basis index) -> connecting lift
        self._label = None  # f_0 row -> cokernel position, on first read
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        field = self.field
        for n in range(self.n_max + 1):
            fs = build_f(self.pieces, self.inters, n, field)
            self._f.append(fs)
            # Splitting-formula bookkeeping must agree with rank-nullity on
            # both sides; a mismatch means the reduction lost columns.
            if len(fs.coker_rows) != fs.nrows - fs.rank:
                raise ConsistencyError(f"cokernel dimension mismatch at n={n}")
            if len(fs.kernel_cols) != fs.ncols - fs.rank:
                raise ConsistencyError(f"kernel dimension mismatch at n={n}")

    def _slice_source(self, n: int, u: dict):
        """Split a flattened f_n source vector into per-overlap coefficient dicts."""
        off = self._f[n].col_starts
        per = [dict() for _ in self.inters]
        for r, c in u.items():
            k = bisect_right(off, r) - 1
            per[k][r - off[k]] = c
        return per

    def _telescope(self, xis, y: dict, n: int, what: str) -> Chain:
        """Sum over pieces k of piece_k.bound(xi_k + r_k - r_{k-1}), where r_k
        is the overlap-k n-chain named by the f_n source vector y (r_{-1} and
        r_{K-1} are zero) and xis is None for xi = 0.  A piece term that does
        not bound raises ConsistencyError naming the piece after what."""
        per = self._slice_source(n, y)
        zero = Chain.zero(n, self.p)
        w = Chain.zero(n + 1, self.p)
        prev = zero
        for k, piece in enumerate(self.pieces):
            r_k = _combo_chain(self.inters[k], n, per[k], self.p) if k < len(per) else zero
            t_k = r_k - prev if xis is None else xis[k] + r_k - prev
            s_k = piece.bound(t_k, n)
            if s_k is None:
                raise ConsistencyError(f"{what} fails to bound in piece {k}")
            w = w + s_k
            prev = r_k
        return w

    def _connecting_lift(self, u: dict, n: int) -> Chain:
        """Union (n+1)-cycle hitting kernel vector u of f_n under the connecting map.

        With r_k the overlap-k cycle named by u, each difference r_k - r_{k-1}
        is null-homologous in piece k precisely because f(u) = 0; summing the
        piece-level bounding chains telescopes into a cycle of the union.
        """
        lift = self._telescope(None, u, n, "kernel difference chain")
        if not chain_boundary(lift).is_zero():
            raise ConsistencyError("connecting lift is not a cycle")
        return lift

    @property
    def rank_f(self) -> dict:
        """{n: rank of f_n} for n = 0..n_max."""
        return {n: fs.rank for n, fs in enumerate(self._f)}

    # -- solver surface ---------------------------------------------------

    def betti(self, n: int) -> int:
        if n < 0 or n > self.n_max:
            return 0
        coker = len(self._f[n].coker_rows)
        kernel = len(self._f[n - 1].kernel_cols) if n >= 1 else 0
        return coker + kernel

    def representative(self, n: int, b: int) -> Chain:
        """The cycle chain of basis class b at dimension n; callers must not
        mutate it.  A cokernel class is the representative of row
        coker_rows[b] in its piece; a kernel class is its connecting lift,
        built on first read, whose guards raise ConsistencyError there."""
        fs = self._f[n]
        m = len(fs.coker_rows)
        if b < m:
            r = fs.coker_rows[b]
            k = bisect_right(fs.row_starts, r) - 1
            return self.pieces[k].representative(n, r - fs.row_starts[k])
        lift = self._lifts.get((n, b - m))
        if lift is None:
            lift = self._lifts[n, b - m] = self._connecting_lift(
                as_dict(self._f[n - 1].kernel_cols[b - m]), n - 1)
        return lift

    def representatives(self, n: int):
        """Cycle chains whose classes form the union's basis at dimension n."""
        return [self.representative(n, b) for b in range(self.betti(n))]

    def roots(self) -> np.ndarray:
        """The global id of each dimension-0 class's root vertex, by basis
        index: the root of the class's row in its piece."""
        fs = self._f[0]
        rows = np.array(fs.coker_rows, np.int64)
        block = np.searchsorted(fs.row_starts, rows, "right") - 1
        out = np.empty(len(rows), np.int64)
        for k, piece in enumerate(self.pieces):
            mine = block == k
            if mine.any():
                out[mine] = piece.roots()[rows[mine] - fs.row_starts[k]]
        return out

    def labels(self, vertices) -> np.ndarray:
        """The dimension-0 basis index of each vertex (global ids, an int
        array): its label in the lowest piece holding it (_lowest_pieces),
        mapped to the cokernel class of that row of f_0
        (FMatrix.row_classes).  A vertex outside the region raises
        ValueError."""
        if self._label is None:
            self._label = self._f[0].row_classes()
        starts = self._f[0].row_starts
        lowest = self._lowest_pieces(vertices[:, None])
        out = np.empty(len(vertices), np.int64)
        for k, piece in enumerate(self.pieces):
            mine = lowest == k
            if mine.any():
                out[mine] = self._label[starts[k] + piece.labels(vertices[mine])]
        return out

    def _lowest_pieces(self, simplices) -> np.ndarray:
        """The lowest piece whose ids hold every vertex of each row of an
        (m, q + 1) int array of global ids, the one assignment rule of a
        node.  A point's pieces run from lo to hi (NodeRegion), so the
        pieces holding a row run from the largest lo of its vertices to the
        smallest hi, and the lowest is that lo.  The first row that fits no
        piece, in order, raises ValueError if a vertex of it lies outside
        the node's ids, else ConsistencyError: the covering lost the
        Lebesgue property."""
        pos, found = search_sorted(self.ids, simplices)
        inside = found.all(axis=1)
        rows = pos[inside]
        low = self.region.lo[rows].max(axis=1)
        fit = inside.copy()
        fit[inside] = low <= self.region.hi[rows].min(axis=1)
        if not fit.all():
            i = np.argmin(fit)
            s = tuple(simplices[i].tolist())
            if not inside[i]:
                raise ValueError(f"simplex {s} lies outside this region")
            raise ConsistencyError(
                f"simplex {s} fits no piece; Lebesgue property violated "
                f"(diameter precondition or covering bug)"
            )
        return low

    def _split(self, z: Chain):
        """Assign each simplex to the lowest piece containing all its
        vertices (_lowest_pieces), in term order."""
        parts = [dict() for _ in self.pieces]
        for k, (s, c) in zip(self._lowest_pieces(simplex_array(z)).tolist(), z.terms.items()):
            parts[k][s] = c
        return [Chain(z.dim, self.p, t) for t in parts]

    def _chase(self, z: Chain, n: int):
        """Run the exact-sequence chase on a nonzero cycle; returns (sparse
        kernel coords, xi chains).  The last partial boundary plus the last
        part's is z's: a ValueError before any child query if it is not 0."""
        zs = self._split(z)
        if n == 0:      # 0-chains have no boundary, so the split needs no correction
            return {}, zs
        omegas = self._partial_boundaries(zs)
        last = chain_boundary(zs[-1])
        if not (omegas[-1] + last if omegas else last).is_zero():
            raise ValueError("chain is not a cycle")
        u = {}
        fs_prev = self._f[n - 1]
        for k, om in enumerate(omegas):
            u.update(_block_coords(self.inters[k], om, n - 1,
                                   fs_prev.col_starts[k],
                                   f"partial boundary escaped overlap {k}"))
        kappa = fs_prev.kernel_coords(u)
        if kappa:   # subtract the kernel classes' lifts: basis keys m + i
            m = len(self._f[n].coker_rows)
            zs = self._split(z - _combo_chain(self, n, {m + i: c for i, c in kappa.items()},
                                              self.p))
            omegas = self._partial_boundaries(zs)
        vs = []
        for k, om in enumerate(omegas):
            v = _ask_child(f"partial boundary escaped overlap {k}", self.inters[k].bound, om, n - 1)
            if v is None:
                raise ConsistencyError(
                    f"partial boundary is non-bounding in overlap {k} after "
                    f"kernel correction; exactness violated"
                )
            vs.append(v)

        K = len(self.pieces)
        xis = []
        for k in range(K):
            xi = zs[k]
            if k >= 1 and not vs[k - 1].is_zero():
                xi = xi + vs[k - 1]
            if k < K - 1 and not vs[k].is_zero():
                xi = xi - vs[k]
            xis.append(xi)
        return kappa, xis

    def _partial_boundaries(self, zs):
        """The boundaries of zs[0] + ... + zs[k] for k below the last part."""
        acc = Chain.zero(zs[0].dim - 1 if zs else -1, self.p)
        out = []
        for k in range(len(zs) - 1):
            acc = acc + chain_boundary(zs[k])
            out.append(acc)
        return out

    def _piece_target_vector(self, xis, n: int) -> dict:
        """The corrected piece chains' classes as one f_n target vector."""
        off = self._f[n].row_starts
        t = {}
        for k, xi in enumerate(xis):
            t.update(_block_coords(self.pieces[k], xi, n, off[k],
                                   f"corrected piece chain is not a cycle in piece {k}"))
        return t

    def coords(self, z: Chain, n: int) -> dict:
        """A union cycle's class as {basis index: nonzero residue}: cokernel
        keys first, kernel keys offset by the cokernel size.  At n = 0 a
        sum over its vertices' labels, above by the chase."""
        require_query(z, n, self.n_max)
        if z.is_zero():
            return {}
        if n == 0:
            return vertex_coords(self, z, self.p)
        kappa, xis = self._chase(z, n)
        fs_n = self._f[n]
        out = fs_n.project_coker(self._piece_target_vector(xis, n))[0]
        m = len(fs_n.coker_rows)
        out.update((m + i, c) for i, c in kappa.items())
        return out

    def bound(self, z: Chain, n: int):
        """A union chain w with boundary exactly z, or None when [z] != 0."""
        require_query(z, n, self.n_max)
        if z.is_zero():
            return Chain.zero(n + 1, self.p)
        kappa, xis = self._chase(z, n)
        if kappa:
            return None
        coker, y = self._f[n].project_coker(self._piece_target_vector(xis, n))
        if coker:
            return None
        # f(y) = t, so with rho_k the overlap chains of y each
        # xi_k - rho_k + rho_{k-1} bounds in piece k: telescope over -y.
        p = self.p
        w = self._telescope(xis, {j: p - c for j, c in as_dict(y).items()}, n,
                            "membership combination")
        if chain_boundary(w) != z:
            raise ConsistencyError("union bound() produced a chain whose boundary differs from z")
        return w

    def betti_all(self):
        return [self.betti(n) for n in range(self.n_max + 1)]


def assemble(region: NodeRegion, pieces, inters) -> MVNodeSolver:
    """The union solver of a node region at the scale of the solvers of its
    path-ordered pieces and overlaps."""
    return MVNodeSolver(region, pieces, inters)
