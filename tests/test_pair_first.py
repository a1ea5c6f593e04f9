"""Pairs first: a leaf builds and reduces only the columns its views read.

cohomology_pairs must give the pivots of the full boundary reduction at
every dimension.  The leaf's reduction of every dimension (pivot columns at
the top, uncleared columns below) must give the full reduction's R and V at
those columns, its apparent columns must stay implicit until read, and a
reduction that does not reproduce the pairs must fail loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti import engine, reduction
from mvbetti.cli import main
from mvbetti.core import ConsistencyError, PointCloud, PrimeField
from mvbetti.reduction import _order_levels, build_leaf, cohomology_pairs, reduce_columns
from mvbetti.rips import boundary_matrix, enumerate_complex

from conftest import dense_boundary, dense_rank_mod_p, leaf_complex, leaf_levels
from test_leaf_views import _prefix_simplices, leaf_cases


def _apparent(cx, q):
    """Columns of D_q that are the earliest coface of their lowest row, read
    off the boundary columns in level order."""
    cols = boundary_matrix(cx, q, 3)
    first = {}
    for j, col in enumerate(cols):
        for r in col:
            first.setdefault(r, j)
    return {j for j, col in enumerate(cols) if first[max(col)] == j}


def _pairs(red, q):
    """The pivot pairs of D_q that a leaf keeps, {low row: column}, read
    from its killer array over the (q-1)-simplices."""
    return {l: k for l, k in enumerate(red.killer[q - 1].tolist()) if k >= 0}


def _needed(red, q):
    """The columns of D_q that a leaf reduction keeps: the pivot columns at
    the top dimension, below it every column except the cleared ones, the
    pivot rows of D_{q+1}."""
    if q == red.n_max + 1:
        return set(_pairs(red, q).values())
    return set(range(red.prefix[q][-1])) - set(_pairs(red, q + 1))


@settings(max_examples=60, deadline=None)
@given(leaf_cases(primes=(2, 3, 5)))
def test_pairs_and_pivot_columns_match_the_full_reduction(case):
    cloud, scales, p, n_max, _ = case
    red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    top = n_max + 1
    cx = leaf_complex(range(cloud.n), cloud, scales, top)   # in the leaf's row order
    field = PrimeField(p)

    clear = ()
    for q in range(1, top + 1):
        full = reduce_columns(boundary_matrix(cx, q, p), field)
        pairs = cohomology_pairs(cx, q, field, clear)
        assert pairs == full.pivots
        assert cohomology_pairs(cx, q, field) == pairs      # clearing changes no pair
        clear = set(pairs.values())

        assert _pairs(red, q) == full.pivots
        if q <= n_max:
            assert np.flatnonzero(~red.live[q]).tolist() == sorted(full.pivots.values())
        # Only the needed columns are stored: the reduced ones, and the
        # apparent ones that were read as sources, built on that first read.
        r, v = red.r[q], red.v[q]
        needed = _needed(red, q)
        apparent = _apparent(cx, q)
        assert apparent <= set(full.pivots.values()) & needed
        assert needed - apparent <= set(r) == set(v) <= needed
        for j in needed:
            assert r[j] == full.r[j]
            assert v[j] == full.v[j]
        assert sorted(r) == sorted(v) == sorted(needed)
        for j in set(range(cx.count(q))) - needed:
            with pytest.raises(KeyError):
                r[j]
            with pytest.raises(KeyError):
                v[j]


@st.composite
def graph_cases(draw):
    """Clouds that stress the union-find pairing of D_1: a single point,
    clusters too far apart to join, duplicate points (zero-length edges),
    lattice points with many equal edge lengths, and scales that put the
    edges in diameter order, zero-length edges first when 0 is a scale."""
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
    _order_levels(cx, scales[0])
    assert cohomology_pairs(cx, 1, field) == \
        reduce_columns(boundary_matrix(cx, 1, p), field).pivots


def _cloud(n=40, seed=5):
    return PointCloud(np.random.default_rng(seed).random((n, 2)))


@pytest.mark.parametrize("p", [2, 3])
def test_only_pivot_columns_of_the_top_dimension_are_built(monkeypatch, p):
    built = {}
    original = reduction.boundary_matrix

    def recording(cx, q, p, columns=None):
        built[q] = list(columns)
        return original(cx, q, p, columns)

    monkeypatch.setattr(reduction, "boundary_matrix", recording)
    cloud = _cloud()
    red = build_leaf(range(cloud.n), cloud, [0.3], 1, p)
    cx = enumerate_complex(range(cloud.n), cloud, 0.3, 2)     # the leaf's row order
    paired = sorted(_pairs(red, 2).values())
    assert 0 < len(paired) < cx.count(2)
    apparent = _apparent(cx, 2)
    assert 0 < len(apparent) < len(paired)
    assert sorted(built[2] + list(apparent)) == paired
    assert set(built[2]) <= set(red.r[2]) == set(red.v[2]) <= set(paired)
    # D_1 is built without its cleared columns, the pivot rows of D_2, and
    # without its apparent columns.
    cleared = set(_pairs(red, 2))
    apparent = _apparent(cx, 1)
    assert 0 < len(apparent) and not apparent & cleared
    assert built[1] == [j for j in range(cx.count(1)) if j not in cleared | apparent]
    assert set(built[1]) <= set(red.r[1]) == set(red.v[1])


def _swap_two_pairs(monkeypatch, apparent=None, dim=None):
    """Swap the partners of the first two pairs of D_dim (the top dimension
    when dim is None), or of the first two whose column is (apparent=True)
    or is not (False) apparent."""
    original = reduction.cohomology_pairs

    def swapped(cx, q, field, clear=()):
        pairs = original(cx, q, field, clear)
        if q != (cx.max_dim if dim is None else dim):
            return pairs
        items = list(pairs.items())
        if apparent is not None:
            kind = _apparent(cx, q)
            items = [(l, j) for l, j in items if (j in kind) == apparent]
        if len(items) >= 2:
            (l1, j1), (l2, j2) = items[:2]
            pairs[l1], pairs[l2] = j2, j1
        return pairs

    monkeypatch.setattr(reduction, "cohomology_pairs", swapped)


def test_altered_pair_raises(monkeypatch):
    _swap_two_pairs(monkeypatch)
    cloud = _cloud()
    with pytest.raises(ConsistencyError, match="differ from its cohomology pairs"):
        build_leaf(range(cloud.n), cloud, [0.3], 1, 3)


def test_altered_pair_exits_5(monkeypatch, tmp_path, capsys):
    _swap_two_pairs(monkeypatch)
    path = tmp_path / "cloud.csv"
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in _cloud().coords.tolist()))
    assert main([str(path), "--epsilon", "0.3", "--no-timings"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cohomology pairs" in err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(leaf_cases(primes=(2, 3, 5), n_maxes=(0, 1, 2)))
def test_boundary_columns_are_built_only_for_non_apparent_pivots(case):
    cloud, scales, p, n_max, _ = case
    top = n_max + 1
    built = {}
    original = reduction.boundary_matrix

    def recording(cx, q, p, columns=None):
        built[q] = list(columns)
        return original(cx, q, p, columns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "boundary_matrix", recording)
        red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    cx = leaf_complex(range(cloud.n), cloud, scales, top)
    for q in range(1, top + 1):
        apparent = _apparent(cx, q)
        assert apparent <= set(_pairs(red, q).values())
        assert built[q] == sorted(_needed(red, q) - apparent)


@settings(max_examples=60, deadline=None)
@given(leaf_cases(primes=(2, 3, 5), n_maxes=(0, 1, 2)))
def test_per_scale_ranks_match_dense_ranks(case):
    cloud, scales, p, n_max, _ = case
    red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    levels = leaf_levels(range(cloud.n), cloud, scales, n_max + 1)
    assert red.scales == sorted(set(scales))
    for b, s in enumerate(red.scales):
        red.view(s)     # checks its basis size against the ranks
        assert red.ranks[0][b] == 0
        for q in range(1, n_max + 2):
            M = dense_boundary(_prefix_simplices(levels, q - 1, s),
                               _prefix_simplices(levels, q, s), p)
            assert red.ranks[q][b] == dense_rank_mod_p(M, p)


def test_betti_only_run_on_one_leaf_builds_no_table_column(monkeypatch):
    leaves = []
    original = engine.build_leaf

    def recording(*args, **kwargs):
        leaves.append(original(*args, **kwargs))
        return leaves[-1]

    monkeypatch.setattr(engine, "build_leaf", recording)
    cloud = _cloud(200, seed=2)
    for p in (2, 3):
        leaves.clear()
        engine.run(cloud, 0.2, [0.1, 0.2], n_max=1, field=p, workers=2, grid=[1, 1])
        (red,) = leaves
        assert [len(t) for t in red.tables] == [0, 0]
        # Apparent top columns that no reduction read stay implicit.
        assert len(red.r[2]) == len(red.v[2]) < red.ranks[2][-1]
    # On a grid the assembly queries the leaves, which fill their tables.
    leaves.clear()
    engine.run(cloud, 0.2, [0.2], n_max=1, field=3, workers=1, grid=[2, 2])
    assert any(len(t) for red in leaves for t in red.tables)


# At the top dimension and at D_1, whose pairs come from union-find: the pair
# check covers the apparent pivots that are entered unreduced.
@pytest.mark.parametrize("apparent,dim", [(True, None), (False, None), (True, 1), (False, 1)],
                         ids=["apparent", "reduced", "d1-apparent", "d1-reduced"])
def test_swapped_pairs_of_either_kind_raise_and_exit_5(monkeypatch, tmp_path, capsys,
                                                       apparent, dim):
    _swap_two_pairs(monkeypatch, apparent, dim)
    cloud = _cloud()
    with pytest.raises(ConsistencyError, match="differ from its cohomology pairs"):
        build_leaf(range(cloud.n), cloud, [0.3], 1, 3)
    path = tmp_path / "cloud.csv"
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in cloud.coords.tolist()))
    assert main([str(path), "--epsilon", "0.3", "--no-timings"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cohomology pairs" in err
