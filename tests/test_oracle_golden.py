"""The oracle barcode, frozen.

tests/golden/barcodes.json holds the full persistence_barcode output for four
small clouds, with their coordinates: two seeded random clouds of 60 points
(d=2 at p=2, d=3 at p=3) and two clouds with exact distance ties and a
duplicate point (the regular hexagon plus its centre, the regular
octahedron).  Every case uses n_max=2.  The output must match exactly: the
same bars in the same order, with the same floats.

The file was written by the global (diameter, dimension, lex) reduction that
the oracle used before it became a readout of the leaf pairing, so it keeps
that reference.  Regenerate it only for an intended change of the barcode:

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti.core import PointCloud
from mvbetti.reduction import persistence_barcode

from conftest import HEX_POINTS, brute_force_barcode

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "barcodes.json")


def _cases():
    """name -> (coordinates, eps, n_max, p) of the frozen clouds."""
    rng = np.random.default_rng(0)
    plane = rng.random((60, 2)).tolist()
    cube = np.random.default_rng(1).random((60, 3)).tolist()
    hexagon = [list(map(float, p)) for p in HEX_POINTS]
    hexagon += [[0.0, 0.0], hexagon[0]]
    octahedron = [[float(c * (i == axis)) for i in range(3)]
                  for axis in range(3) for c in (1, -1)]
    octahedron += [octahedron[2]]
    return {
        "plane_p2": (plane, 0.3, 2, 2),
        "cube_p3": (cube, 0.45, 2, 3),
        "hexagon_ties_p2": (hexagon, 2.0, 2, 2),
        "octahedron_ties_p3": (octahedron, 2.0, 2, 3),
    }


def _barcode(coords, eps, n_max, p):
    cloud = PointCloud(coords)
    bars = persistence_barcode(range(cloud.n), cloud, eps, n_max, p)
    return [[b.dim, b.birth, b.death] for b in bars]


def _load():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_barcode_matches_golden(name):
    case = _load()[name]
    got = _barcode(case["points"], case["eps"], case["n_max"], case["p"])
    assert got == case["bars"]


def test_bars_carry_python_floats():
    coords, eps, n_max, p = _cases()["plane_p2"]
    cloud = PointCloud(coords)
    bars = persistence_barcode(range(cloud.n), cloud, eps, n_max, p)
    assert any(b.death is not None for b in bars)
    for b in bars:
        assert type(b.birth) is float
        assert b.death is None or type(b.death) is float


@st.composite
def tied_clouds(draw):
    """Up to 12 points in d = 1..3 on a half-integer grid (many equal
    distances), uniform, or a regular polygon (loops, with equal sides and
    chords), with duplicate points, shifted by 0 or 1e6..1e12 (the grid
    stays exact there), at a scale that is one of their distances, with
    n_max 0..2 and p in {2, 3, 5}.  Everything is drawn from a seeded
    generator, so the cases spread evenly instead of leaning towards
    hypothesis's smallest values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n = int(rng.integers(1, 4)), int(rng.integers(1, 13))
    kind = rng.choice(["grid", "uniform", "polygon"])
    if kind == "grid" or (kind == "polygon" and d == 1):
        coords = rng.integers(0, 5, size=(n, d)) * 0.5
    elif kind == "uniform":
        coords = rng.random((n, d))
    else:
        angles = 2 * np.pi * np.arange(n) / n
        coords = np.zeros((n, d))
        coords[:, 0], coords[:, 1] = np.cos(angles), np.sin(angles)
    dups = int(rng.integers(0, min(n, 3)))
    coords[n - dups:] = coords[:dups]
    cloud = PointCloud(coords + rng.choice([0.0, 1e6, 1e9, 1e12]))
    dists = sorted({float(x) for x in cloud.pairwise(range(n)).ravel()})
    return cloud, dists[rng.integers(len(dists))], int(rng.integers(0, 3)), int(rng.choice([2, 3, 5]))


@settings(max_examples=400, deadline=None)
@given(tied_clouds())
def test_barcode_equals_the_textbook_reduction(case):
    """The same bars in the same order with the same floats as the global
    (diameter, dimension, lex) reduction of the whole filtration: Betti
    numbers at each scale do not pin the pairing, this does."""
    cloud, eps, n_max, p = case
    bars = persistence_barcode(range(cloud.n), cloud, eps, n_max, p)
    assert bars == brute_force_barcode(range(cloud.n), cloud, eps, n_max, p)


def test_golden_cases_are_nontrivial():
    for name, case in _load().items():
        assert any(dim > 0 and death is not None for dim, _, death in case["bars"]), name


if __name__ == "__main__":
    out = {}
    for name, (coords, eps, n_max, p) in _cases().items():
        out[name] = {"points": coords, "eps": eps, "n_max": n_max, "p": p,
                     "bars": _barcode(coords, eps, n_max, p)}
    with open(GOLDEN, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
