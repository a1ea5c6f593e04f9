"""Foundational types: point clouds, prime fields, simplices, chains, boundaries.

Everything here is an immutable value after construction, so instances can be
shared freely between worker threads.  What is built from them need not be:
a leaf reduction (reduction.LeafReduction) fills caches on first query.
"""

from __future__ import annotations

import numpy as np

Simplex = tuple
# A simplex is a strictly increasing tuple of global point indices;
# its dimension is len(vertices) - 1.


class ConsistencyError(RuntimeError):
    """An internal invariant failed (covering or exactness bug, not user error)."""


def make_simplex(vertices) -> Simplex:
    """Validate and normalize a vertex tuple into a simplex.

    Vertices must be distinct nonnegative integers; the result is the
    strictly increasing tuple.
    """
    vs = tuple(sorted(int(v) for v in vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"repeated vertex {a} in simplex {vs}")
    if vs[0] < 0:
        raise ValueError(f"negative vertex index in {vs}")
    return vs


def simplex_faces(simplex: Simplex):
    """Yield (sign_exponent, face) for each codimension-1 face.

    The face omitting vertex position i carries sign (-1)**i.
    """
    for i in range(len(simplex)):
        yield i, simplex[:i] + simplex[i + 1:]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """Exact arithmetic in Z/p for a prime modulus p (default 2).

    Every residue is kept in [0, p); every nonzero residue has an inverse.
    """

    __slots__ = ("p", "_inverses")

    def __init__(self, p: int = 2):
        p = int(p)
        if not _is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p}")
        self.p = p
        # Small-p inverse table; Fermat fallback for larger moduli.
        if p <= 4096:
            self._inverses = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        else:
            self._inverses = None

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._inverses is not None:
            return self._inverses[a]
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class PointCloud:
    """A finite list of d-dimensional points with the Euclidean metric.

    Point indices 0..n-1 are stable for the lifetime of a computation:
    regions are index sets, never renumbered copies.
    """

    __slots__ = ("coords", "n", "dim")

    def __init__(self, coords):
        a = np.asarray(coords, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected an (n, d) array of coordinates, got shape {a.shape}")
        if a.shape[1] < 1:
            raise ValueError("points need at least one coordinate")
        if not np.all(np.isfinite(a)):
            raise ValueError("coordinates must be finite reals")
        a.setflags(write=False)
        self.coords = a
        self.n = a.shape[0]
        self.dim = a.shape[1]

    def __len__(self):
        return self.n

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between points i and j."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"point index out of range: ({i}, {j}) with n={self.n}")
        return float(_pairwise_block(self.coords[i:i + 1], self.coords[j:j + 1])[0, 0])

    def pairwise(self, indices, others=None) -> np.ndarray:
        """Distance matrix of the listed points (row/col order preserved),
        computed for those points only; with others, the rectangular block
        from indices (rows) to others (columns)."""
        pts = self.coords[np.asarray(indices, dtype=np.intp)]
        if others is None:
            return _pairwise_block(pts, pts)
        return _pairwise_block(pts, self.coords[np.asarray(others, dtype=np.intp)])

    def close_pairs(self, indices, scale):
        """Every pair of the listed points at distance <= scale, in blocks.

        Yields (lo, hi, dist) arrays per block: global indices lo < hi and
        their distance, each close pair exactly once over all blocks.  The
        points are swept in order along their axis of largest extent, and
        each block of _SWEEP_BLOCK rows meets at most _SWEEP_BLOCK columns at
        a time of the window that can still be close: a column is dropped
        only when sqrt(gap * gap) > scale for its float gap to the block's
        last row along the sweep axis.  That is a lower bound on the
        computed distance of every row in the block, since the other squared
        terms never lower the sum.  So memory is linear in points plus close
        pairs, and every distance has the bits of pairwise(), whose blocks
        are bitwise equal to slices of the full matrix in either operand
        order.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if len(idx) < 2:
            return
        pts = self.coords[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        gid, x = idx[order], pts[order, axis]
        n, step = len(idx), _SWEEP_BLOCK
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            gap = x[r1 - 1:] - x[r1 - 1]
            end = max(r1, r1 - 1 + int(np.searchsorted(np.sqrt(gap * gap), scale, "right")))
            for c0 in range(r0, end, step):
                c1 = min(c0 + step, end)
                dist = self.pairwise(gid[r0:r1], gid[c0:c1])
                keep = dist <= scale
                if c0 < r1:     # each pair once: sweep position of column > row
                    keep &= np.arange(r0, r1)[:, None] < np.arange(c0, c1)
                rows, cols = np.nonzero(keep)
                a, b = gid[r0 + rows], gid[c0 + cols]
                yield np.minimum(a, b), np.maximum(a, b), dist[rows, cols]

    def diameter(self, vertices) -> float:
        """Max pairwise distance over a nonempty vertex-index set (0 for singletons)."""
        idx = list(vertices)
        if not idx:
            raise ValueError("diameter of an empty vertex set is undefined")
        if len(idx) == 1:
            i = idx[0]
            if not 0 <= i < self.n:
                raise IndexError(f"point index out of range: {i}")
            return 0.0
        return float(self.pairwise(idx).max())

    def axis_ranges(self):
        """Per-axis (min, max) coordinate values."""
        return self.coords.min(axis=0), self.coords.max(axis=0)


_SWEEP_BLOCK = 256     # rows, and columns at a time, of one close_pairs block


def _pairwise_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Shared by the scalar and matrix paths so borderline comparisons against
    # a scale never disagree between call sites.
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


class Chain:
    """A sparse formal sum of equal-dimension simplices with coefficients in Z/p.

    Zero coefficients are never stored.  Chains are treated as immutable:
    arithmetic returns new instances.
    """

    __slots__ = ("dim", "p", "terms")

    def __init__(self, dim: int, p: int, terms=None):
        self.dim = dim
        self.p = p
        clean = {}
        if terms:
            for s, c in terms.items():
                c %= p
                if c:
                    if len(s) - 1 != dim:
                        raise ValueError(f"simplex {s} has dimension {len(s) - 1}, chain has {dim}")
                    clean[s] = c
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, p: int) -> "Chain":
        return cls(dim, p, None)

    @classmethod
    def single(cls, simplex: Simplex, p: int, coeff: int = 1) -> "Chain":
        return cls(len(simplex) - 1, p, {tuple(simplex): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def _check_compatible(self, other: "Chain"):
        if self.p != other.p:
            raise ValueError(f"field mismatch: p={self.p} vs p={other.p}")
        if self.dim != other.dim and self.terms and other.terms:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            v = (terms.get(s, 0) + c) % self.p
            if v:
                terms[s] = v
            else:
                terms.pop(s, None)
        out = Chain.__new__(Chain)
        out.dim, out.p, out.terms = self.dim, self.p, terms
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scaled(-1)

    def __neg__(self) -> "Chain":
        return self.scaled(-1)

    def scaled(self, c: int) -> "Chain":
        c %= self.p
        if c == 0:
            return Chain.zero(self.dim, self.p)
        if c == 1:
            return self
        out = Chain.__new__(Chain)
        out.dim, out.p = self.dim, self.p
        out.terms = {s: (v * c) % self.p for s, v in self.terms.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and other.p == self.p
            and other.terms == self.terms
            and (other.dim == self.dim or (not self.terms and not other.terms))
        )

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if self.is_zero():
            return f"Chain(0; dim={self.dim}, p={self.p})"
        body = " + ".join(f"{c}*{s}" for s, c in self.sorted_terms())
        return f"Chain({body}; p={self.p})"


def boundary(simplex: Simplex, p: int = 2) -> Chain:
    """Boundary of one simplex: the alternating-sign sum of its faces mod p.

    A 0-simplex has the zero chain (of dimension -1) as boundary.
    """
    simplex = tuple(simplex)
    dim = len(simplex) - 1
    if dim == 0:
        return Chain.zero(-1, p)
    terms = {}
    for i, face in simplex_faces(simplex):
        terms[face] = 1 if i % 2 == 0 else p - 1
    return Chain(dim - 1, p, terms)


def chain_boundary(chain: Chain) -> Chain:
    """Boundary extended linearly to chains."""
    p = chain.p
    if chain.dim <= 0:
        return Chain.zero(chain.dim - 1, p)
    acc = {}
    for s, c in chain.terms.items():
        for i, face in simplex_faces(s):
            sign = c if i % 2 == 0 else (p - c) % p
            v = (acc.get(face, 0) + sign) % p
            if v:
                acc[face] = v
            else:
                acc.pop(face, None)
    return Chain(chain.dim - 1, p, acc)
