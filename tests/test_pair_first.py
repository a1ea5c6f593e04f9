"""Pairs first: a leaf's build ends at its pairing, and builds a column of R
and V only when a query reads it.

The pairing, union-find at D_1 and cohomology_pairs above, must give the
pivots of the full boundary reduction at every dimension.  The leaf's
columns, built one at a time from the pairs in any order of reads, must
equal the full reduction's R and V; a Betti-only run must build none; and a
column built against pairs that are wrong must fail loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti import engine, reduction
from mvbetti.cli import main
from mvbetti.core import ConsistencyError, PointCloud, PrimeField
from mvbetti.reduction import (_order_levels, _union_find_pairs, build_leaf, cohomology_pairs,
                               reduce_columns)
from mvbetti.rips import boundary_matrix, enumerate_complex

from conftest import dense_boundary, dense_rank_mod_p, leaf_complex, leaf_levels
from test_leaf_views import _prefix_simplices, leaf_cases


def _apparent(facets):
    """Columns of D_q that are the earliest coface of their lowest row, read
    off level q's facet table, whose row j lists the rows of boundary
    column j, in level order."""
    cols = facets.tolist()
    first = {}
    for j, col in enumerate(cols):
        for r in col:
            first.setdefault(r, j)
    return {j for j, col in enumerate(cols) if first[max(col)] == j}


def _pairs(killer):
    """Pivot pairs as {low row: column}, read from a killer array over the
    rows."""
    return {l: k for l, k in enumerate(killer.tolist()) if k >= 0}


def _killer(cx, q, field, clear=None):
    """The killer array of D_q over the (q-1)-simplices as a leaf pairs it:
    by union-find at q = 1, else by cohomology_pairs."""
    if q == 1:
        return _union_find_pairs(cx.facets[1], cx.count(0))[0]
    return cohomology_pairs(cx, q, field, clear)


def _assert_columns_equal_the_full_reduction(red, cx, p, rng):
    """Every column of every level above 0 of the leaf, read in shuffled
    order, equals the full reduction's (R_j, V_j); level 0, where D_0 = 0,
    has no column cache."""
    field = PrimeField(p)
    assert sorted(red.cols) == list(range(1, cx.max_dim + 1))
    assert [len(c) for c in red.cols.values()] == [0] * cx.max_dim
    full = [None] + [reduce_columns(boundary_matrix(cx, q, p), field)
                     for q in range(1, cx.max_dim + 1)]
    reads = [(q, j) for q in range(1, cx.max_dim + 1) for j in range(cx.count(q))]
    for i in rng.permutation(len(reads)):
        q, j = reads[i]
        assert red.cols[q][j] == (full[q].r[j], full[q].v[j])
    for q in range(1, cx.max_dim + 1):
        assert sorted(red.cols[q]) == list(range(cx.count(q)))
        with pytest.raises(KeyError):
            red.cols[q][cx.count(q)]
        with pytest.raises(KeyError):
            red.cols[q][-1]


@settings(max_examples=60, deadline=None)
@given(leaf_cases(primes=(2, 3, 5)))
def test_pairs_and_columns_match_the_full_reduction(case):
    cloud, scales, p, n_max, rng = case
    red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    top = n_max + 1
    cx = leaf_complex(range(cloud.n), cloud, scales, top)   # in the leaf's row order
    field = PrimeField(p)

    clear = None
    for q in range(1, top + 1):
        full = reduce_columns(boundary_matrix(cx, q, p), field)
        killer = _killer(cx, q, field, clear)
        assert _pairs(killer) == full.pivots
        # Clearing changes no pair, and neither does union-find at D_1.
        assert np.array_equal(cohomology_pairs(cx, q, field), killer)
        clear = killer[killer >= 0]
        assert np.array_equal(red.killer[q - 1], killer)
        assert np.flatnonzero(~red.live[q]).tolist() == sorted(full.pivots.values())
    _assert_columns_equal_the_full_reduction(red, cx, p, rng)


@st.composite
def lattice_cases(draw):
    """Tie-heavy clouds: points of a small integer lattice in d = 2 or 3,
    with repeats, so many edges, triangles and tetrahedra share a diameter,
    at lattice scales; a field from 2, 3, 5 and n_max 1 or 2."""
    d = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                         min_size=3, max_size=11))
    rows += rows[:draw(st.integers(0, 2))]
    cloud = PointCloud(np.array(rows, dtype=np.float64))
    scales = sorted(set(draw(st.lists(st.sampled_from([1.0, 2**0.5, 3**0.5, 2.0]),
                                      min_size=1, max_size=3))))
    return cloud, scales, draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2])), \
        np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(lattice_cases())
def test_shuffled_reads_on_tie_heavy_lattice_clouds(case):
    cloud, scales, p, n_max, rng = case
    red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    cx = leaf_complex(range(cloud.n), cloud, scales, n_max + 1)
    _assert_columns_equal_the_full_reduction(red, cx, p, rng)


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
    killer, _ = _union_find_pairs(cx.facets[1], cx.count(0))
    assert _pairs(killer) == reduce_columns(boundary_matrix(cx, 1, p), field).pivots
    assert np.array_equal(cohomology_pairs(cx, 1, field), killer)


def _assert_pairing_matches_the_full_reduction(cx, p):
    """Each D_q of cx, paired as a leaf pairs it, each level cleared by the
    pivot columns of the level below, gives the full reduction's pivots."""
    field = PrimeField(p)
    clear = None
    for q in range(1, cx.max_dim + 1):
        killer = _killer(cx, q, field, clear)
        assert len(killer) == cx.count(q - 1)
        assert _pairs(killer) == reduce_columns(boundary_matrix(cx, q, p), field).pivots
        clear = killer[killer >= 0]


@pytest.mark.parametrize("p", [2, 3])
def test_levels_with_no_cofaces_pair_nothing(p):
    # Two far-apart points at n_max = 2: no edge, so every level above 0 is
    # empty and each pairing reads an empty facet table.
    cloud = PointCloud([[0.0, 0.0], [10.0, 0.0]])
    cx = enumerate_complex(range(2), cloud, 1.0, 3)
    assert [cx.count(q) for q in range(4)] == [2, 0, 0, 0]
    _assert_pairing_matches_the_full_reduction(cx, p)
    red = build_leaf(range(2), cloud, [1.0], 2, p)
    assert [k.tolist() for k in red.killer] == [[-1, -1], [], []]
    assert red.view(1.0).betti_all() == [2, 0, 0]
    assert reduction.persistence_barcode(range(2), cloud, 1.0, 2, p) == \
        [reduction.Bar(0, 0.0, None)] * 2


@pytest.mark.parametrize("p", [2, 3])
def test_a_level_of_apparent_and_cleared_columns_enters_no_loop(p):
    # A triangle with three unequal edges: union-find merges along the two
    # shorter edges, which clears them at D_2, and the longest is the latest
    # facet of the one triangle, an apparent pair, so D_2 is paired before
    # the loop, which enters no column.
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.2]])
    cx = enumerate_complex(range(3), cloud, 2.0, 2)
    _order_levels(cx, 0.0)
    merged = _killer(cx, 1, PrimeField(p))
    assert sorted(merged[merged >= 0].tolist()) == [0, 1]
    assert cx.facets[2].max(axis=1).tolist() == [2]
    _assert_pairing_matches_the_full_reduction(cx, p)
    assert cohomology_pairs(cx, 2, PrimeField(p), merged[merged >= 0]).tolist() == [-1, -1, 0]


def _cloud(n=40, seed=5):
    return PointCloud(np.random.default_rng(seed).random((n, 2)))


@pytest.mark.parametrize("p", [2, 3])
def test_a_column_builds_only_itself_and_its_sources(p):
    # The last pivot column of the top dimension: building it builds only
    # earlier pivot columns of that dimension, the sources it meets, and a
    # second read builds nothing.
    cloud = _cloud()
    red = build_leaf(range(cloud.n), cloud, [0.3], 1, p)
    k = int(np.flatnonzero(~red.live[2])[-1])
    assert [len(c) for c in red.cols.values()] == [0, 0]
    col = red.cols[2][k]
    built = sorted(red.cols[2])
    assert 1 < len(built) < len(np.flatnonzero(~red.live[2]))
    assert built[-1] == k and not red.live[2][built].any()
    assert red.cols[2][k] is col and sorted(red.cols[2]) == built
    assert len(red.cols[1]) == 0


def _swap_two_pairs(monkeypatch, apparent=None, dim=None):
    """Swap the partners of the first two pairs of D_dim (the top dimension,
    paired by cohomology_pairs, when dim is None; union-find pairs D_1), or
    of the first two whose column is (apparent=True) or is not (False)
    apparent.  Returns the list to which each call appends the swapped
    columns as (dimension, j1, j2)."""
    cohomology, union_find = reduction.cohomology_pairs, reduction._union_find_pairs
    swaps = []

    def swap(killer, facets, q):
        items = [(l, j) for l, j in enumerate(killer.tolist()) if j >= 0]
        if apparent is not None:
            kind = _apparent(facets)
            items = [(l, j) for l, j in items if (j in kind) == apparent]
        if len(items) >= 2:
            (l1, j1), (l2, j2) = items[:2]
            killer[l1], killer[l2] = j2, j1
            swaps.append((q, j1, j2))

    def swapped_cohomology(cx, q, field, clear=None):
        killer = cohomology(cx, q, field, clear)
        if q == (cx.max_dim if dim is None else dim):
            swap(killer, cx.facets[q], q)
        return killer

    def swapped_union_find(edges, n):
        killer, parent = union_find(edges, n)
        if dim == 1:
            swap(killer, edges, 1)
        return killer, parent

    monkeypatch.setattr(reduction, "cohomology_pairs", swapped_cohomology)
    monkeypatch.setattr(reduction, "_union_find_pairs", swapped_union_find)
    return swaps


def _assert_swapped_columns_raise(swaps, red):
    ((q, j1, j2),) = swaps
    assert [len(c) for c in red.cols.values()] == [0] * len(red.cols)    # the build checks nothing
    for j in (j1, j2, j1):
        with pytest.raises(ConsistencyError, match="differs from its cohomology pairs"):
            red.cols[q][j]
    assert j1 not in red.cols[q] and j2 not in red.cols[q]


def _grid_run_exits_5(tmp_path, capsys):
    """The CLI on a 3-D cloud, at one scale on a 2x2x2 grid over Z/3: the
    ranks agree whatever the swap, and the assembly reads the swapped
    columns of some leaf, at the top dimension and at D_1."""
    cloud = PointCloud(np.random.default_rng(0).random((200, 3)))
    path = tmp_path / "cloud.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in cloud.coords.tolist()))
    assert main([str(path), "--epsilon", "0.25", "--scales", "0.25", "--grid", "2,2,2",
                 "--field", "3", "--no-timings"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cohomology pairs" in err
    assert "Traceback" not in err


def test_altered_pair_raises_when_its_column_is_built(monkeypatch):
    cloud = _cloud()
    betti = build_leaf(range(cloud.n), cloud, [0.3], 1, 3).view(0.3).betti_all()
    swaps = _swap_two_pairs(monkeypatch)
    red = build_leaf(range(cloud.n), cloud, [0.3], 1, 3)
    # A swap keeps the pivot columns, and so the ranks: Betti numbers read
    # no column, and check no pair.
    assert red.view(0.3).betti_all() == betti
    _assert_swapped_columns_raise(swaps, red)


def test_altered_pair_exits_5(monkeypatch, tmp_path, capsys):
    _swap_two_pairs(monkeypatch)
    _grid_run_exits_5(tmp_path, capsys)


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


def test_betti_only_run_on_one_leaf_builds_no_column(monkeypatch):
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
        assert [len(c) for c in red.cols.values()] == [0, 0]
    # On a grid the assembly's dimension-1 queries read the leaves' D_2
    # columns (dimension 0 reads labels, not columns).
    leaves.clear()
    report = engine.run(cloud, 0.2, [0.1, 0.2], n_max=1, field=3, workers=1, grid=[2, 2])
    assert report.diagnostics["ranks_f"]["0.1"]["1"]["1"] > 0
    assert any(len(red.cols[2]) for red in leaves)


# At the top dimension and at D_1, whose pairs come from union-find: an
# apparent column is never reduced, and is checked all the same.
@pytest.mark.parametrize("apparent,dim", [(True, None), (False, None), (True, 1), (False, 1)],
                         ids=["apparent", "reduced", "d1-apparent", "d1-reduced"])
def test_swapped_pairs_of_either_kind_raise_and_exit_5(monkeypatch, tmp_path, capsys,
                                                       apparent, dim):
    swaps = _swap_two_pairs(monkeypatch, apparent, dim)
    cloud = _cloud()
    _assert_swapped_columns_raise(swaps, build_leaf(range(cloud.n), cloud, [0.3], 1, 3))
    _grid_run_exits_5(tmp_path, capsys)
