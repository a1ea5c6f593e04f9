"""Overlapping grid coverings of a point cloud.

Each axis is cut into k closed cells of width R/k + eps whose consecutive
overlaps have width exactly eps.  Because coordinate projections are
1-Lipschitz, any vertex set of diameter <= eps fits inside some cell on every
axis (a Lebesgue-number property).  points_in_box selects a region's points
with the same closed intervals, so every such simplex has all its vertices
in some piece of a split, and mayer_vietoris.MVNodeSolver._split, which
assigns each simplex of a chain to the lowest such piece
(_lowest_pieces, which checks it per query), is total.  Non-adjacent cells
must be disjoint at their float endpoints, which requires R/k > eps and is
enforced at construction from k = 3 on (two cells have no non-adjacent
pair).  mayer_vietoris.NodeRegion checks the same path hypothesis on the
points, once per run: no point in two pieces more than one apart, and each
overlap exactly its two pieces' intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PointCloud, require_int, require_real


class Sel(NamedTuple):
    """Per-axis region selector: the whole axis, one cell, or one overlap."""

    kind: str  # "full" | "cell" | "overlap"
    j: int


FULL = Sel("full", -1)


def cell(j: int) -> Sel:
    return Sel("cell", j)


def overlap(j: int) -> Sel:
    return Sel("overlap", j)


Box = tuple  # tuple[Sel, ...], one selector per axis


def full_box(dim: int) -> Box:
    return tuple(FULL for _ in range(dim))


def choose_k(parallel: int, dim: int, extent: float, eps: float, origins=None):
    """Pick the per-axis cell count from a parallelism budget.

    Returns (k, eps_capped).  k is the largest integer whose dim-th power is
    below the parallelism budget, clamped so that cells stay wider than the
    overlap (extent/k > eps, needed for non-adjacent cells to be disjoint)
    and lowered until the rounded cell endpoints keep non-adjacent cells
    disjoint on every axis (_disjoint, the test _build_axis makes).  origins
    are the axes' minimal coordinates, 0 on every axis when not given;
    eps_capped reports whether the clamp was what limited k.
    """
    if parallel < 1 or dim < 1:
        raise ValueError("parallel and dim must be >= 1")
    if extent <= 0 or eps <= 0:
        raise ValueError("extent and eps must be positive")
    # Largest k with extent/k > eps; integer search around the float quotient
    # so borderline divisions cannot push k over the constraint.
    k_eps = max(0, int(math.floor(extent / eps)))
    while k_eps >= 1 and not extent / k_eps > eps:
        k_eps -= 1
    while extent / (k_eps + 1) > eps:
        k_eps += 1
    # Largest k with k**dim < parallel, counted only up to k_eps + 1.
    k_par = 0
    while k_par <= k_eps and (k_par + 1) ** dim < parallel:
        k_par += 1
    k = max(1, min(k_par, k_eps))
    origins = [0.0] * dim if origins is None else [float(o) for o in origins]
    while not all(_disjoint(_cells(o, extent, k, eps)) for o in origins):
        k -= 1
    return k, min(k_eps, k) < k_par


@dataclass(frozen=True)
class AxisIntervals:
    """Cell and overlap intervals along one coordinate axis."""

    axis: int
    origin: float  # minimal coordinate value on this axis
    extent: float  # shared range length R
    k: int
    eps: float
    cells: tuple       # k closed intervals [origin + j*R/k, origin + (j+1)*R/k + eps]
    overlaps: tuple    # k-1 closed intervals of width exactly eps

    def interval(self, sel: Sel):
        """The coordinate interval selected by sel, or None for the full axis."""
        if sel.kind == "full":
            return None
        if sel.kind == "cell":
            return self.cells[sel.j]
        if sel.kind == "overlap":
            return self.overlaps[sel.j]
        raise ValueError(f"unknown selector kind {sel.kind!r}")


def _cells(a: float, extent: float, k: int, eps: float):
    """The k closed cells of an axis from a, as float (start, end) pairs."""
    w = extent / k
    return tuple((a + j * w, a + (j + 1) * w + eps) for j in range(k))


def _disjoint(cells) -> bool:
    """Whether cell j+2 starts strictly after cell j ends, for every j.

    The path-nerve hypothesis needs non-adjacent cells disjoint at their
    float endpoints, not only extent/k > eps in exact arithmetic: at
    origin 0.1, extent 0.3, k = 3 and eps = 0.1 the quotient is above eps
    but cells 0 and 2 both meet 0.30000000000000004.
    """
    return all(cells[j + 2][0] > cells[j][1] for j in range(len(cells) - 2))


def _build_axis(axis: int, a: float, extent: float, k: int, eps: float) -> AxisIntervals:
    if k == 1:
        return AxisIntervals(axis, a, extent, 1, eps, ((a, a + extent + eps),), ())
    cells = _cells(a, extent, k, eps)
    # With only two cells there are no non-adjacent pairs, so any width
    # works; from three cells on, disjointness needs extent/k > eps.
    if k >= 3 and not (extent / k > eps and _disjoint(cells)):
        raise ValueError(
            f"cell count {k} too large on axis {axis}: cell width {extent / k} "
            f"must exceed eps={eps} at the rounded endpoints for non-adjacent "
            f"cells to stay disjoint"
        )
    w = extent / k
    overlaps = tuple((a + (j + 1) * w, a + (j + 1) * w + eps) for j in range(k - 1))
    return AxisIntervals(axis, a, extent, k, eps, cells, overlaps)


@dataclass(frozen=True)
class GridCovering:
    """Per-axis interval structure for one cloud at one top scale."""

    eps: float
    axes: tuple  # tuple[AxisIntervals, ...]
    extent: float

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def k_per_axis(self):
        return tuple(ax.k for ax in self.axes)

    def points_in_box(self, cloud: PointCloud, box: Box) -> np.ndarray:
        """Sorted global indices of cloud points inside a box (closed intervals)."""
        mask = np.ones(cloud.n, dtype=bool)
        for ax, sel in zip(self.axes, box):
            iv = ax.interval(sel)
            if iv is None:
                continue
            col = cloud.coords[:, ax.axis]
            mask &= (col >= iv[0]) & (col <= iv[1])
        idx = np.nonzero(mask)[0]
        idx.setflags(write=False)
        return idx


def build_covering(cloud: PointCloud, eps: float, k) -> GridCovering:
    """Build the grid covering for a cloud at top scale eps.

    eps is a positive finite real (core.require_real).  k is one cell
    count for every axis (an int or a 1-entry sequence) or a sequence of
    one count per axis; any other length, and a count that is not an int
    >= 1 (core.require_int, a bool is none), is a ValueError.  A cloud with
    zero spread degenerates to k = 1 everywhere.
    """
    if cloud.n == 0:
        raise ValueError("cannot cover an empty cloud")
    eps = require_real("eps", eps, positive=True)
    mins, maxs = cloud.axis_ranges()
    extent = float((maxs - mins).max())  # one shared R across axes
    ks = [require_int("cell counts", v, 1) for v in (k if np.iterable(k) else [k])]
    if len(ks) == 1:
        ks = ks * cloud.dim
    if len(ks) != cloud.dim:
        raise ValueError(f"expected 1 or {cloud.dim} cell counts, got {len(ks)}")
    if extent == 0.0:
        ks = [1] * cloud.dim
    axes = tuple(
        _build_axis(i, float(mins[i]), extent, ks[i], eps) for i in range(cloud.dim)
    )
    return GridCovering(eps=eps, axes=axes, extent=extent)


class AxisSplit(NamedTuple):
    axis: int
    pieces: tuple    # k boxes, cell selectors ascending
    overlaps: tuple  # k-1 boxes, overlap selectors ascending


def split_axis(box: Box, covering: GridCovering):
    """Split a box along its first full axis; None when the box is a leaf.

    The pieces set that axis to each cell in order, the overlap boxes to each
    consecutive overlap; all other selectors are inherited unchanged.
    """
    for i, sel in enumerate(box):
        if sel.kind == "full":
            k = covering.axes[i].k
            pieces = tuple(box[:i] + (cell(j),) + box[i + 1:] for j in range(k))
            inters = tuple(box[:i] + (overlap(j),) + box[i + 1:] for j in range(k - 1))
            return AxisSplit(axis=i, pieces=pieces, overlaps=inters)
    return None
