"""Foundational types: point clouds, prime fields, simplices, chains, boundaries,
and the argument rules (require_int, require_prime, require_real,
require_scales, require_query) by which every entry point checks what it is
given.

Everything here is an immutable value after construction, so instances can be
shared freely between worker threads.  What is built from them need not be:
a leaf reduction (reduction.LeafReduction) builds entries on first query.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from itertools import product

import numpy as np

Simplex = tuple
# A simplex is a strictly increasing tuple of global point indices;
# its dimension is len(vertices) - 1.


class ConsistencyError(RuntimeError):
    """An internal invariant failed (covering or exactness bug, not user error)."""


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

    p is a PrimeField, whose modulus is taken, or a prime int checked by
    require_prime under the name field, the one rule by which every entry
    point turns its field argument into a field.

    Every residue is kept in [0, p); every nonzero residue has an inverse.
    """

    __slots__ = ("p",)

    def __init__(self, p=2):
        self.p = p.p if isinstance(p, PrimeField) else require_prime("field", p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# The argument rules take the caller's name for the argument, so every
# message starts with "<name> must".

def require_int(name, value, least: int) -> int:
    """value as an int, or ValueError unless it is an integer >= least; a
    bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, not {value!r}")
    return int(value)


def require_prime(name, value) -> int:
    """value as an int, or ValueError unless it is a prime integer; a bool
    is not an integer."""
    p = require_int(name, value, 2)
    if not _is_prime(p):
        raise ValueError(f"{name} must be prime, not {p}")
    return p


def _real(name, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be real, not {value!r}")
    return float(value)


def require_real(name, value, positive: bool = False) -> float:
    """value as a float, or ValueError unless it is a real number, finite and
    > 0 when positive, else finite and >= 0.  A bool, a string or a complex
    number is not real; numpy reals are."""
    x = _real(name, value)
    if not (0 < x if positive else 0 <= x) or not x < math.inf:
        raise ValueError(f"{name} must be "
                         f"{'positive and finite' if positive else 'finite and >= 0'}")
    return x


def require_scales(name, values, top=None) -> list:
    """values as a sorted list of distinct floats, or ValueError unless they
    are a 1-D sequence (a list, a tuple or a 1-D array; not a string, a set
    or a lone number) of real numbers, not empty, each in (0, top], or
    finite and >= 0 when top is None."""
    if (isinstance(values, str) or not isinstance(values, (Sequence, np.ndarray))
            or getattr(values, "ndim", 1) != 1):
        raise ValueError(f"{name} must be a sequence of real numbers, not {values!r}")
    out = sorted({_real(name, x) for x in values})
    if not out:
        raise ValueError(f"{name} must not be empty")
    if top is None:
        for x in out:
            require_real(name, x)
    elif not all(0 < x <= top for x in out):
        raise ValueError(f"{name} must lie in (0, {top}]")
    return out


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

    def pairwise(self, indices, others=None) -> np.ndarray:
        """Distance matrix of the listed points (row/col order preserved),
        computed for those points only; with others, the rectangular block
        from indices (rows) to others (columns)."""
        pts = self.coords[np.asarray(indices, dtype=np.intp)]
        cols = pts if others is None else self.coords[np.asarray(others, dtype=np.intp)]
        return _distances(pts[:, None, :], cols[None, :, :])

    def close_pairs(self, indices, scale):
        """Every pair of the listed points at distance <= scale, in blocks.

        Yields (lo, hi, dist) arrays per block: positions lo < hi in indices
        and their distance, each close pair exactly once over all blocks.

        The points are bucketed into eps-cells.  On an axis a of float
        extent E_a = max - min the cell width w_a is the largest of
        scale * (1 + 2^-20), E_a * 2^-20 and 2^-500, and a point's cell is
        floor((x_a - min_a) / w_a) in floats, at most floor(E_a / w_a) <=
        2^20, so cell keys stay exact in int64.  Of the axes with a finite
        w_a and at least three cells, the three of largest extent are
        bucketed; on the others every point is in one cell.  Sorted by cell
        key, the cells of one run along the last bucketed axis are
        consecutive positions, so each point meets, as ranges of positions,
        the later points of its own cell and the next cell of its run, and
        the three cells around it in each run ahead of its own: every pair
        in the same or adjacent cells once.  Those candidates go to
        _distances in blocks of at most _PAIR_BLOCK, or of one point's range
        when that is longer, so memory is linear in points plus close pairs.

        A pair two or more cells apart on an axis is never close.  Its cell
        quotients t differ by more than 1, and each t is (x_a - min_a) / w_a
        up to a relative error 2u + u^2 (u = 2^-53; below 2^-1073 absolute
        if subnormal) with x_a - min_a <= E_a (1 + u) and E_a / w_a <= 2^20,
        so the true gap exceeds w_a (1 - 2^-30).  The computed distance is
        at least the rounded sqrt of the rounded square of the rounded gap,
        because rounding is monotone and the other squared terms are >= 0.
        That loses under 4u more, and w_a >= 2^-500 keeps the square normal.
        So the distance exceeds w_a (1 - 2^-29), which is above scale: w_a >=
        2^-500 > scale * (1 + 2^-20) or w_a >= scale * (1 + 2^-20) (1 - u).
        Every distance comes from _distances, as pairwise() does, so its
        bits are those of the full matrix in either operand order.
        """
        idx = np.asarray(indices, dtype=np.intp)
        n = len(idx)
        if n < 2:
            return
        pts = self.coords[idx]
        low = pts.min(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            extent = pts.max(axis=0) - low
            width = np.maximum(np.maximum(scale * (1 + 2.0**-20), extent * 2.0**-20), 2.0**-500)
            cells = np.floor(extent / width) + 1
        axes = np.flatnonzero(np.isfinite(cells) & (cells > 2))
        axes = axes[np.argsort(-extent[axes], kind="stable")[:3]]
        # Cell c on an axis is digit c + 1 of the key, so the cells next to
        # cell 0 and to the last cell are empty keys, not other runs.
        stride = [1] * len(axes)
        for t in range(len(axes) - 2, -1, -1):
            stride[t] = stride[t + 1] * (int(cells[axes[t + 1]]) + 2)
        key = (np.floor((pts[:, axes] - low[axes]) / width[axes]).astype(np.int64) + 1) @ \
            np.array(stride, np.int64)
        order = np.argsort(key, kind="stable")
        key, pts = key[order], pts.take(order, axis=0)
        # Run offsets: the own run, then the runs ahead of it (first nonzero
        # offset +1 on the axes before the last).
        rest = max(len(axes) - 1, 0)
        ahead = list(product((-1, 0, 1), repeat=rest))[3 ** rest // 2:]
        centre = key[:, None] + np.array([0] + [np.dot(o, stride[:-1]) for o in ahead[1:]],
                                         np.int64)
        first = np.searchsorted(key, centre - 1, "left")
        first[:, 0] = np.arange(1, n + 1)
        sizes = (np.searchsorted(key, centre + 1, "right") - first).ravel()
        runs = centre.shape[1]
        for ranges, cols in blocked_ranges(first.ravel(), sizes, _PAIR_BLOCK):
            rows = ranges // runs
            dist = _distances(pts.take(rows, axis=0), pts.take(cols, axis=0))
            keep = np.flatnonzero(dist <= scale)
            i, j = order[rows[keep]], order[cols[keep]]
            yield np.minimum(i, j), np.maximum(i, j), dist[keep]

    def axis_ranges(self):
        """Per-axis (min, max) coordinate values."""
        return self.coords.min(axis=0), self.coords.max(axis=0)


_PAIR_BLOCK = 1 << 15     # candidate pairs of one close_pairs block


def blocked_ranges(first, sizes, limit):
    """Expand the ranges first[r]:first[r] + sizes[r] in order, in blocks:
    yield (range index, position) int arrays, one entry per position, for
    each non-empty block of whole ranges holding at most limit positions,
    or of one longer range on its own."""
    ends = sizes.cumsum()
    a, m = 0, len(sizes)
    while a < m:
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + limit, "right")))
        size = sizes[a:b]
        total = int(ends[b - 1] - done)
        if total:
            # Position c of the block is first[r] + c minus range r's start in it.
            yield (np.repeat(np.arange(a, b), size),
                   np.arange(total) + np.repeat(first[a:b] - (ends[a:b] - size - done), size))
        a = b


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Shared by the scalar, matrix and pair paths so borderline comparisons
    # against a scale never disagree between call sites.
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def _axpy(col: dict, src: dict, c: int, p: int):
    """col += c * src over Z/p, in place, for sparse {key: nonzero residue}
    dicts: a key whose sum is zero is deleted, so col keeps only nonzero
    residues.  The one update rule of dict columns and of chains."""
    for r, x in src.items():
        y = (col.get(r, 0) + c * x) % p
        if y:
            col[r] = y
        else:
            del col[r]


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

    def _plus(self, other: "Chain", c: int) -> "Chain":
        """self + c * other, for c nonzero mod p."""
        self._check_compatible(other)
        terms = dict(self.terms)
        _axpy(terms, other.terms, c, self.p)
        out = Chain.__new__(Chain)
        out.dim, out.p, out.terms = self.dim, self.p, terms
        return out

    def __add__(self, other: "Chain") -> "Chain":
        return self._plus(other, 1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self._plus(other, self.p - 1)

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


def require_query(z: Chain, n: int, n_max: int):
    """ValueError unless n is a dimension in 0..n_max and z an n-chain: the
    rule of every solver's coords() and bound(), checked before the
    zero-chain shortcut."""
    if n < 0 or n > n_max:
        raise ValueError(f"dimension {n} out of range")
    if z.dim != n:
        raise ValueError(f"chain dimension {z.dim} does not match query dimension {n}")
