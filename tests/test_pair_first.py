"""Pairs first: a leaf builds and reduces only the top-dimension pivot columns.

cohomology_pairs must give the pivots of the full boundary reduction at
every dimension, the pivot-only reduction of the top dimension must give the
full reduction's R and V at those columns, and a reduction that does not
reproduce the pairs must fail loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti import reduction
from mvbetti.cli import main
from mvbetti.core import ConsistencyError, PointCloud, PrimeField
from mvbetti.reduction import _order_levels, build_leaf, cohomology_pairs, reduce_columns
from mvbetti.rips import boundary_matrix, enumerate_complex

from test_leaf_views import leaf_cases


@settings(max_examples=60, deadline=None)
@given(leaf_cases(primes=(2, 3, 5)))
def test_pairs_and_pivot_columns_match_the_full_reduction(case):
    cloud, scales, p, n_max, _ = case
    leaf = build_leaf(range(cloud.n), cloud, scales[0], n_max, p, scales=scales)
    cx = leaf.reduction.complex     # levels in the leaf's bucket order
    field = PrimeField(p)
    top = n_max + 1

    clear = ()
    for q in range(1, top + 1):
        pairs = cohomology_pairs(cx, q, field, clear)
        assert pairs == reduce_columns(*boundary_matrix(cx, q, p), field, keep_v=False).pivots
        assert cohomology_pairs(cx, q, field) == pairs      # clearing changes no pair
        clear = set(pairs.values())

    full = reduce_columns(*boundary_matrix(cx, top, p), field)
    mine = leaf.reduction.reduced[top]
    assert mine.pivots == full.pivots
    assert list(mine.r) == list(mine.v) == sorted(full.pivots.values())
    for j in full.pivots.values():
        assert mine.r[j] == full.r[j]
        assert mine.v[j] == full.v[j]


@st.composite
def graph_cases(draw):
    """Clouds that stress the union-find pairing of D_1: a single point,
    clusters too far apart to join, duplicate points (zero-length edges),
    lattice points with many equal edge lengths, and scales that put the
    edges in bucket order, zero-length edges first when 0 is a scale."""
    d = draw(st.integers(1, 3))
    rows = []
    for c in range(draw(st.integers(1, 3))):
        cluster = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                                min_size=1, max_size=7))
        rows += [[x + 100 * c for x in row] for row in cluster]
    rows += rows[:draw(st.integers(0, 2))]
    order = draw(st.permutations(range(len(rows))))
    cloud = PointCloud(np.array([rows[i] for i in order], dtype=np.float64))
    scales = sorted(set(draw(st.lists(st.sampled_from([0.0, 1.0, 2**0.5, 2.0, 3.0]),
                                      min_size=1, max_size=4))))
    return cloud, scales, draw(st.sampled_from([2, 3, 5]))


@settings(max_examples=80, deadline=None)
@given(graph_cases())
def test_union_find_pairs_match_the_full_reduction(case):
    cloud, scales, p = case
    field = PrimeField(p)
    cx = enumerate_complex(range(cloud.n), cloud, scales[-1], 1)
    _order_levels(cx, scales)
    assert cohomology_pairs(cx, 1, field) == \
        reduce_columns(*boundary_matrix(cx, 1, p), field, keep_v=False).pivots


def _cloud(n=40, seed=5):
    return PointCloud(np.random.default_rng(seed).random((n, 2)))


@pytest.mark.parametrize("p", [2, 3])
def test_only_pivot_columns_of_the_top_dimension_are_built(monkeypatch, p):
    built = {}
    original = reduction.boundary_matrix

    def recording(cx, q, p, columns=None, facets=None):
        built[q] = list(columns)
        return original(cx, q, p, columns, facets)

    monkeypatch.setattr(reduction, "boundary_matrix", recording)
    cloud = _cloud()
    red = build_leaf(range(cloud.n), cloud, 0.3, 1, p).reduction
    cx = red.complex
    paired = [j for j, _ in red.pivot_pairs[2]]
    assert 0 < len(paired) < cx.count(2)
    assert built[2] == paired
    assert list(red.reduced[2].r) == list(red.reduced[2].v) == paired
    # D_1 is built without its cleared columns, the pivot rows of D_2.
    cleared = {l for _, l in red.pivot_pairs[2]}
    assert built[1] == [j for j in range(cx.count(1)) if j not in cleared]
    assert list(red.reduced[1].v) == built[1]


def _swap_two_top_pairs(monkeypatch):
    original = reduction.cohomology_pairs

    def swapped(cx, q, field, clear=(), facets=None):
        pairs = original(cx, q, field, clear, facets)
        if q == cx.max_dim and len(pairs) >= 2:
            (l1, j1), (l2, j2) = list(pairs.items())[:2]
            pairs[l1], pairs[l2] = j2, j1
        return pairs

    monkeypatch.setattr(reduction, "cohomology_pairs", swapped)


def test_altered_pair_raises(monkeypatch):
    _swap_two_top_pairs(monkeypatch)
    cloud = _cloud()
    with pytest.raises(ConsistencyError, match="differ from its cohomology pairs"):
        build_leaf(range(cloud.n), cloud, 0.3, 1, 3)


def test_altered_pair_exits_5(monkeypatch, tmp_path, capsys):
    _swap_two_top_pairs(monkeypatch)
    path = tmp_path / "cloud.csv"
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in _cloud().coords.tolist()))
    assert main([str(path), "--epsilon", "0.3", "--no-timings"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cohomology pairs" in err
    assert "Traceback" not in err
