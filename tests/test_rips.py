import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvbetti.core
from mvbetti import rips
from mvbetti.cli import main
from mvbetti.core import Chain, PointCloud, boundary, chain_boundary
from mvbetti.reduction import _order_levels, as_dict, build_leaf, persistence_barcode
from mvbetti.rips import DEFAULT_BUDGET, BudgetExceededError, boundary_matrix, enumerate_complex

from conftest import (TETRA_POINTS, TETRA_SIDE, UNIT_SQUARE,
                      brute_force_simplices, diameter, looked_up_facets, random_cloud,
                      vertex_levels)


class TestEnumerate:
    def test_full_tetrahedron(self):
        pc = PointCloud(TETRA_POINTS)
        cx = enumerate_complex(range(4), pc, TETRA_SIDE, 3)
        assert [cx.count(q) for q in range(4)] == [4, 6, 4, 1]

    def test_below_scale_only_vertices(self):
        pc = PointCloud(TETRA_POINTS)
        cx = enumerate_complex(range(4), pc, TETRA_SIDE / 2, 3)
        assert [cx.count(q) for q in range(4)] == [4, 0, 0, 0]

    def test_unit_square_sides_only(self):
        pc = PointCloud(UNIT_SQUARE)
        cx = enumerate_complex(range(4), pc, 1.0, 2)
        assert [cx.count(q) for q in range(3)] == [4, 4, 0]
        edges = {tuple(s) for s in vertex_levels(cx)[1].tolist()}
        assert edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(12):
            d = [1, 2, 3][trial % 3]
            n = int(rng.integers(4, 16))
            pc = random_cloud(rng, n, d)
            scale = float(rng.uniform(0.2, 0.9))
            cx = enumerate_complex(range(n), pc, scale, 3)
            expect = brute_force_simplices(range(n), pc, scale, 3)
            for q in range(4):
                assert [tuple(s) for s in vertex_levels(cx)[q].tolist()] == expect[q]

    def test_subset_of_points(self):
        rng = np.random.default_rng(6)
        pc = random_cloud(rng, 12, 2)
        sub = [0, 3, 5, 7, 11]
        cx = enumerate_complex(sub, pc, 0.6, 2)
        expect = brute_force_simplices(sub, pc, 0.6, 2)
        for q in range(3):
            assert [tuple(s) for s in vertex_levels(cx)[q].tolist()] == expect[q]

    def test_face_closure(self):
        rng = np.random.default_rng(5)
        pc = random_cloud(rng, 14, 2)
        cx = enumerate_complex(range(14), pc, 0.5, 3)
        levels = [{tuple(s) for s in level.tolist()} for level in vertex_levels(cx)]
        for q in range(1, 4):
            for s in levels[q]:
                for i in range(len(s)):
                    assert s[:i] + s[i + 1:] in levels[q - 1]

    def test_monotone_in_scale(self):
        rng = np.random.default_rng(7)
        pc = random_cloud(rng, 15, 2)
        counts = []
        for scale in (0.2, 0.4, 0.6, 0.8):
            cx = enumerate_complex(range(15), pc, scale, 2)
            counts.append(cx.total())
        assert counts == sorted(counts)

    def test_only_levels_below_the_top_are_searched(self):
        # A leaf at n_max = 1 enumerates up to level 2 and searches level 1,
        # the one above the vertices that its queries name, sorting its
        # keys on the first query there; a vertex's row is a search in the
        # level-0 ids.  No query keys the top level, not even a bound,
        # whose preimage is read off the columns.
        pc = PointCloud(TETRA_POINTS)
        red = build_leaf(range(4), pc, [TETRA_SIDE], 1, 3)
        levels = [[tuple(s) for s in level.tolist()]
                  for level in vertex_levels(enumerate_complex(range(4), pc, TETRA_SIDE, 2))]
        assert len(levels[2]) == 4
        assert not red.keys
        assert red.rows_of(np.array(levels[0])).tolist() == [0, 1, 2, 3]
        assert not red.keys
        assert red.rows_of(np.array(levels[1])).tolist() == list(range(6))
        assert sorted(red.keys) == [1]
        view = red.view(TETRA_SIDE)
        assert view._column(Chain.single(levels[1][0], 3), 1) == {0: 1}
        assert view._column(Chain.single(levels[0][2], 3), 0) == {2: 1}
        triangle = boundary(levels[2][0], 3)
        assert view.coords(triangle, 1) == {}
        assert chain_boundary(view.bound(triangle, 1)) == triangle
        with pytest.raises(ValueError, match="out of range"):
            view.coords(Chain.single(levels[2][0], 3), 2)
        assert sorted(red.keys) == [1]

    def test_search_keys_are_two_int_arrays_per_level(self):
        # The search holds no Python object per simplex: a level's keys
        # are one sorted int64 array and their rows another, count(q)
        # entries each, whatever the point ids (above 256 here, where
        # every id would be a new int object).
        pc = random_cloud(np.random.default_rng(11), 330, 2)
        red = build_leaf(range(300, 330), pc, [0.5], 1, 2)
        count = red.prefix[1][-1]
        assert count > 0
        edges = vertex_levels(enumerate_complex(range(300, 330), pc, 0.5, 1))[1]
        assert red.rows_of(edges).tolist() == list(range(count))
        keys, rows = red.keys[1]
        for a in (keys, rows):
            assert a.dtype == np.int64 and a.shape == (count,)
        assert (np.diff(keys) > 0).all()
        assert sorted(rows.tolist()) == list(range(count))

    def test_lexicographic_order(self):
        rng = np.random.default_rng(8)
        pc = random_cloud(rng, 12, 2)
        cx = enumerate_complex(range(12), pc, 0.7, 2)
        for q in range(3):
            level = [tuple(s) for s in vertex_levels(cx)[q].tolist()]
            assert level == sorted(level)

    @pytest.mark.parametrize("points,message", [
        ([0, 0, 1], "point index 0 is repeated"),
        ([-1, 0], "point index -1 is out of range for a cloud of 3 points"),
        ([0, 5], "point index 5 is out of range for a cloud of 3 points"),
        (np.array([2, 3], np.uint64), "point index 3 is out of range"),
        (np.array([0, 2**64 - 1], np.uint64), "point index -1 is out of range"),
        ([0.0, 1.0], "point indices must be integers, not float64"),
        ([True, False], "point indices must be integers, not bool"),
        (np.array([[0, 1]]), "point indices must be integers, not int64 of shape"),
    ])
    def test_point_indices_validated(self, points, message):
        # [0, 0, 1] made the edges [0, 0], [0, 1] twice and a triangle
        # [0, 0, 1]; -1 made a vertex -1 at point 2's coordinates; 5 was a
        # bare IndexError.  The leaf and the oracle pass indices through.
        pc = PointCloud([[0.0], [0.5], [1.0]])
        for build in (lambda: enumerate_complex(points, pc, 1.0, 2),
                      lambda: build_leaf(points, pc, [1.0], 1, 2),
                      lambda: persistence_barcode(points, pc, 1.0, 1, 2)):
            with pytest.raises(ValueError, match=message):
                build()
        assert enumerate_complex([2, 0], pc, 1.0, 1).points.tolist() == [0, 2]

    @pytest.mark.parametrize("scale", [float("nan"), -1.0, float("inf"), True, "0.5", None])
    def test_scale_validated(self, scale):
        # NaN and -1.0 gave a complex of every vertex and no edge.
        pc = PointCloud(np.random.default_rng(0).random((30, 2)))
        with pytest.raises(ValueError, match="^scale must be "):
            enumerate_complex(range(30), pc, scale, 2)
        assert enumerate_complex(range(30), pc, 0, 2).count(0) == 30

    def test_empty_points(self):
        pc = PointCloud([[0.0]])
        cx = enumerate_complex([], pc, 1.0, 2)
        assert cx.total() == 0

    def test_budget_guard(self):
        pc = PointCloud(TETRA_POINTS)
        with pytest.raises(BudgetExceededError):
            enumerate_complex(range(4), pc, TETRA_SIDE, 3, budget=5)

    def test_diameters_recorded(self):
        rng = np.random.default_rng(9)
        pc = random_cloud(rng, 10, 2)
        cx = enumerate_complex(range(10), pc, 0.8, 2)
        for q in range(3):
            for s, d in zip(vertex_levels(cx)[q], cx.diameters[q]):
                assert d == diameter(pc, s)


@st.composite
def adversarial_clouds(draw, max_d=3):
    """Grid-snapped clouds in d = 1..max_d: duplicate points, many equal
    distances, a scale exactly equal to some pairwise distance, and
    coordinate offsets up to 1e12."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, 11))
    coords = draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                           min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        coords[-1] = list(coords[0])
    offset = draw(st.sampled_from([0.0, 1e6, 1e9, 1e12]))
    step = draw(st.sampled_from([0.25, 0.3, 1.0]))
    cloud = PointCloud(np.asarray(coords, dtype=np.float64) * step + offset)
    dists = sorted({float(x) for x in cloud.pairwise(range(n)).ravel()} - {0.0})
    scale = draw(st.sampled_from(dists)) if dists and draw(st.booleans()) \
        else draw(st.floats(0.1, 2.5))
    points = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n))
    max_dim = draw(st.integers(0, 3))
    return cloud, sorted(points), scale, max_dim


def assert_equals_brute_force(cx, cloud, points, scale, max_dim):
    """Same simplices in the same order, diameters bit-equal as float64."""
    expect = brute_force_simplices(points, cloud, scale, max_dim)
    for q in range(max_dim + 1):
        assert [tuple(s) for s in vertex_levels(cx)[q].tolist()] == expect[q]
        want = [0.0 if q == 0 else diameter(cloud, s) for s in expect[q]]
        assert [d.hex() for d in cx.diameters[q].tolist()] == [d.hex() for d in want]
        assert cx.diameters[q].dtype == np.float64


class TestEnumerateProperties:
    @settings(max_examples=250, deadline=None)
    @given(adversarial_clouds())
    def test_equals_brute_force_in_order_with_exact_diameters(self, case):
        cloud, points, scale, max_dim = case
        cx = enumerate_complex(points, cloud, scale, max_dim)
        assert_equals_brute_force(cx, cloud, points, scale, max_dim)

    @settings(max_examples=150, deadline=None)
    @given(adversarial_clouds(max_d=4), st.integers(1, 7))
    def test_any_expansion_block_gives_the_same_complex(self, case, block):
        cloud, points, scale, max_dim = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rips, "_EXPAND_BLOCK", block)
            cx = enumerate_complex(points, cloud, scale, max_dim)
        assert_equals_brute_force(cx, cloud, points, scale, max_dim)
        # The facet tables the expansion writes, block by block.
        assert len(cx.facets) == max_dim + 1 and cx.facets[0] is None
        for q in range(1, max_dim + 1):
            assert cx.facets[q].dtype == np.int64
            assert cx.facets[q].shape == (cx.count(q), q + 1)
            assert cx.facets[q].tolist() == looked_up_facets(vertex_levels(cx), q)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 7))
    def test_budget_threshold_is_the_total(self, seed, max_dim, block):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        cloud = random_cloud(rng, n, int(rng.integers(1, 4)))
        scale = float(rng.uniform(0.1, 0.8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rips, "_EXPAND_BLOCK", block)
            total = enumerate_complex(range(n), cloud, scale, max_dim).total()
            assert enumerate_complex(range(n), cloud, scale, max_dim,
                                     budget=total).total() == total
            with pytest.raises(BudgetExceededError) as err:
                enumerate_complex(range(n), cloud, scale, max_dim, budget=total - 1)
        assert (err.value.budget, err.value.region_size) == (total - 1, n)

    def test_budget_stops_the_expansion_at_the_block_that_passes_it(self, monkeypatch):
        # 30 coincident points: 30 vertices and 435 edges fit in 600, the
        # 4,060 triangles do not.  The expansion stops at the first block
        # of triangles that passes the budget, before any tetrahedron.
        monkeypatch.setattr(rips, "_EXPAND_BLOCK", 4)
        blocks = []     # (dimension, simplices) of every expanded block
        cofaces = rips._cofaces

        def recording(last, diams, facets, *args):
            for block in cofaces(last, diams, facets, *args):
                blocks.append((facets.shape[1], len(block[1])))
                yield block

        monkeypatch.setattr(rips, "_cofaces", recording)
        pc = PointCloud(np.zeros((30, 2)))
        with pytest.raises(BudgetExceededError) as err:
            enumerate_complex(range(30), pc, 1.0, 3, budget=600)
        assert (err.value.budget, err.value.region_size) == (600, 30)
        assert {q for q, _ in blocks} == {2}
        made = 30 + 435 + sum(k for _, k in blocks)
        assert made - blocks[-1][1] <= 600 < made
        assert made < 700


def dense_neighbours(points, cloud, scale):
    """{vertex: {higher neighbour: distance}} read off the full distance
    matrix of the points, the enumeration's former neighbour search."""
    D = cloud.pairwise(points)
    return {g: {points[j]: float(D[i, j]) for j in range(i + 1, len(points))
                if D[i, j] <= scale}
            for i, g in enumerate(points)}


@st.composite
def sweep_clouds(draw):
    """Grid-snapped clouds in d = 1..8 with up to 200 points: ties on every
    axis, duplicate points, axes of zero extent, offsets up to 1e12, and a
    pair that differs along one axis only, often exactly scale apart.  The
    scale may be 0, a multiple of the grid step or the float gap of two
    points, so that points lie on cell boundaries, and one axis may hold
    coordinates near +-1e308, whose extent overflows to inf."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 5, 40, 1000]))
    step = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
    coords = rng.integers(0, levels, size=(n, d)) * step
    flat = sorted(draw(st.sets(st.integers(0, d - 1), max_size=d)))
    coords[:, flat] = coords[0, flat]
    coords += draw(st.sampled_from([0.0, 0.3, 1e6, 1e9, 1e12]))
    huge = draw(st.sampled_from([None, 1e308, 1.7e308])) if d > 1 else None
    if huge is not None:
        # The last axis splits the points between huge and -huge (extent
        # inf) or 0 (extent huge); the other axes stay grid-snapped.
        other = draw(st.sampled_from([-huge, 0.0]))
        coords[:, -1] += np.where(rng.random(n) < 0.5, other, huge)
    axis = int(np.argmax(np.ptp(coords[:, :d - 1 if huge else d], axis=0)))
    if n >= 3:
        coords[-1] = coords[0]
        coords[-1, axis] = coords[1, axis]
    cloud = PointCloud(coords)
    along = abs(float(coords[-1, axis] - coords[0, axis]))
    gap = abs(float(coords[rng.integers(n), axis] - coords[rng.integers(n), axis]))
    scale = draw(st.sampled_from([along, gap, float(np.ptp(coords[:, axis])) / levels,
                                  0.0, draw(st.integers(1, 3)) * step,
                                  draw(st.floats(0.0, 3.0))]))
    points = sorted(rng.choice(n, size=draw(st.integers(1, n)), replace=False).tolist())
    return cloud, points, scale, draw(st.integers(1, 3))


class TestNeighbourSweep:
    @settings(max_examples=100, deadline=None)
    @given(sweep_clouds())
    def test_equals_dense_neighbours_bitwise(self, case):
        cloud, points, scale, block = case
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(mvbetti.core, "_PAIR_BLOCK", block)
            lo, hi, dist = rips._edges(np.array(points), cloud, scale, DEFAULT_BUDGET)
            want = dense_neighbours(points, cloud, scale)
        assert dist.dtype == np.float64
        got = {g: {} for g in points}
        for a, b, x in zip(lo.tolist(), hi.tolist(), dist.tolist()):
            got[points[a]][points[b]] = x
        assert list(got) == list(want)
        for g in points:
            assert [(w, x.hex()) for w, x in got[g].items()] == \
                [(w, x.hex()) for w, x in want[g].items()]

    def test_a_gap_equal_to_the_scale_across_cell_boundaries(self):
        # Cells exactly scale wide would put points 6 and 9 two cells
        # apart, though their float gap is the scale: the relative margin
        # on the cell width keeps them adjacent.
        xs = 0.3 + np.arange(11) * 0.3
        scale = float(xs[9] - xs[6])
        assert scale == 0.8999999999999999
        cell = np.floor((xs - xs[0]) / scale)
        assert cell[9] - cell[6] == 2
        lo, hi, dist = rips._edges(np.arange(11), PointCloud(xs[:, None]), scale, DEFAULT_BUDGET)
        assert (6, 9) in set(zip(lo.tolist(), hi.tolist()))

    def test_only_neighbouring_cells_are_compared(self, monkeypatch):
        # Uniform points in the unit square at scale 0.06: the eps-cells
        # compare about 2.8 candidate pairs per edge; the whole triangle
        # would be 93 per edge.
        computed = []
        distances = mvbetti.core._distances
        monkeypatch.setattr(mvbetti.core, "_distances",
                            lambda a, b: computed.append(len(a)) or distances(a, b))
        pc = PointCloud(np.random.default_rng(0).random((2000, 2)))
        lo, hi, dist = rips._edges(np.arange(2000), pc, 0.06, DEFAULT_BUDGET)
        assert len(lo) == 21498
        assert sum(computed) < 3 * len(lo)

    def test_edges_alone_pass_the_budget(self, monkeypatch):
        # 40 points a unit apart on a line at scale 1.5 have 39 edges, so
        # the budget is passed by the edges, not by the 40 vertices.
        monkeypatch.setattr(mvbetti.core, "_PAIR_BLOCK", 4)
        pc = PointCloud([[float(i)] for i in range(40)])
        assert enumerate_complex(range(40), pc, 1.5, 1, budget=79).count(1) == 39
        with pytest.raises(BudgetExceededError) as err:
            enumerate_complex(range(40), pc, 1.5, 1, budget=78)
        assert (err.value.budget, err.value.region_size) == (78, 40)

    def test_budget_stops_the_distance_stage(self, monkeypatch):
        # 100 coincident points share one cell, so each point's range of
        # later points is a block of its own.  The search stops at the
        # first block that passes the budget instead of computing all 99.
        monkeypatch.setattr(mvbetti.core, "_PAIR_BLOCK", 10)
        blocks = []
        distances = mvbetti.core._distances
        monkeypatch.setattr(mvbetti.core, "_distances",
                            lambda a, b: blocks.append(len(a)) or distances(a, b))
        pc = PointCloud(np.zeros((100, 2)))
        with pytest.raises(BudgetExceededError):
            enumerate_complex(range(100), pc, 1.0, 2, budget=200)
        assert blocks == [99, 98]

    def test_cli_exits_3_when_edges_pass_the_budget(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("".join(f"{i}.0,0.0\n" for i in range(40)))
        args = [str(path), "--epsilon", "1.5", "--grid", "1,1", "--max-dim", "0"]
        assert main(args + ["--budget", "79"]) == 0
        assert main(args + ["--budget", "78"]) == 3

    def test_memory_linear_in_points_and_edges(self):
        # The former dense block peaked at about 153 MB here.
        pc = PointCloud(np.random.default_rng(0).random((2000, 2)))
        tracemalloc.start()
        try:
            enumerate_complex(range(2000), pc, 0.02, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestBoundaryMatrix:
    def test_single_edge(self):
        pc = PointCloud([[0.0], [1.0]])
        cx = enumerate_complex(range(2), pc, 1.0, 1)
        assert boundary_matrix(cx, 1, 2) == [{0: 1, 1: 1}]

    def test_consecutive_product_vanishes(self):
        pc = PointCloud(TETRA_POINTS)
        for p in (2, 3, 5):
            cx = enumerate_complex(range(4), pc, TETRA_SIDE, 3)
            for q in (2, 3):
                lower = boundary_matrix(cx, q - 1, p)
                upper = boundary_matrix(cx, q, p)
                # multiply sparsely: (d_{q-1} * d_q) column by column
                for col in upper:
                    acc = {}
                    for mid, c in col.items():
                        for r, v in lower[mid].items():
                            acc[r] = (acc.get(r, 0) + c * v) % p
                    assert all(v == 0 for v in acc.values())

    def test_unit_square_columns(self):
        pc = PointCloud(UNIT_SQUARE)
        cx = enumerate_complex(range(4), pc, 1.0, 2)
        cols = boundary_matrix(cx, 1, 2)
        assert len(cols) == 4
        for col in cols:
            assert len(col) == 2 and all(v == 1 for v in col.values())

    def test_matches_core_boundary(self):
        rng = np.random.default_rng(10)
        pc = random_cloud(rng, 12, 2)
        for p in (2, 5):
            cx = enumerate_complex(range(12), pc, 0.7, 2)
            for q in (1, 2):
                cols = boundary_matrix(cx, q, p)
                assert all(type(c) is dict for c in cols)
                levels = vertex_levels(cx)
                row = {tuple(f): i for i, f in enumerate(levels[q - 1].tolist())}
                for s, col in zip(levels[q], cols):
                    chain = boundary(s, p)
                    want = {row[f]: c for f, c in chain.terms.items()}
                    assert col == want

    def test_selected_columns(self):
        # A leaf starts one column at a time from its facet-table row, in
        # its own format: a bitset at p = 2.  One scale reorders no level.
        rng = np.random.default_rng(12)
        pc = random_cloud(rng, 14, 2)
        cx = enumerate_complex(range(14), pc, 0.6, 3)
        assert cx.count(3) > 0
        for p in (2, 3):
            leaf = build_leaf(range(14), pc, [0.6], 2, p)
            for q in (1, 2, 3):
                assert np.array_equal(leaf.facets[q], cx.facets[q])
                cols = boundary_matrix(cx, q, p)
                for j in range(0, len(cols), 3):
                    start = leaf.cols[q]._start(j)[1]
                    assert type(start) is (int if p == 2 else dict)
                    assert as_dict(start) == cols[j]

    def test_dimension_out_of_range(self):
        pc = PointCloud(UNIT_SQUARE)
        cx = enumerate_complex(range(4), pc, 1.0, 2)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 0, 2)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 3, 2)


@st.composite
def facet_clouds(draw):
    """A leaf-like point subset of 1..10 points in d = 1..4 whose global
    indices lie far above its size: grid-snapped points with ties and
    duplicates, the unit vectors (every distance sqrt(2) or 0) with repeats,
    or one point repeated.  Also n_max up to 3 and scales whose first is the
    floor of a leaf's level order.  Everything is drawn from a seeded
    generator, so n spreads evenly instead of leaning towards hypothesis's
    smallest values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n = int(rng.integers(1, 5)), int(rng.integers(1, 11))
    kind = rng.choice(["grid", "equal", "same"])
    if kind == "grid":
        coords = rng.integers(0, 3, size=(n, d)) * 0.5
        if n > 1:
            coords[-1] = coords[0]
    elif kind == "equal":
        coords = np.eye(d)[rng.integers(0, d, size=n)]
    else:
        coords = np.zeros((n, d))
    offset = int(rng.choice([0, 1000, 100_000]))
    spread = int(rng.choice([1, 3]))
    points = np.sort(offset + rng.choice(n * spread, size=n, replace=False))
    full = np.full((offset + n * spread, d), 50.0)
    full[points] = coords
    cloud = PointCloud(full)
    local = cloud.pairwise(points.tolist())
    dists = sorted({float(x) for x in local.ravel()})
    scales = sorted(set(rng.choice(dists, size=int(rng.integers(1, 4))).tolist()))
    return cloud, points.tolist(), scales, int(rng.integers(0, 4))


class TestFacetTables:
    @settings(max_examples=120, deadline=None)
    @given(facet_clouds())
    def test_equals_a_per_simplex_lookup(self, case):
        # The tables the expansion writes in lex order, after _order_levels
        # has moved and relabelled them, must be those of the reordered
        # levels: at a leaf's floor (its first scale), at the oracle's floor
        # 0, and with level 1 left in lex order below the floor (its
        # diameters zeroed) while level 2 is sorted.
        cloud, points, scales, n_max = case
        top = n_max + 1
        for floor, flat_edges in ((scales[0], False), (0.0, False), (0.0, True)):
            cx = enumerate_complex(points, cloud, scales[-1], top)
            if flat_edges:
                cx.diameters[1][:] = 0.0
            lex = [list(zip(level.tolist(), d.tolist()))
                   for level, d in zip(vertex_levels(cx), cx.diameters)]
            _order_levels(cx, floor)
            levels = vertex_levels(cx)
            assert len(cx.facets) == top + 1 and cx.facets[0] is None
            for q in range(1, top + 1):
                assert cx.facets[q].dtype == np.int64
                assert cx.facets[q].shape == (cx.count(q), q + 1)
                assert cx.facets[q].tolist() == looked_up_facets(levels, q)
                d = cx.diameters[q]
                assert d.max(initial=0.0) <= floor or (np.diff(d) >= 0).all()
                # The rows moved with their diameters: a stable sort of the
                # lex level by diameter, or the lex level itself.
                if d.max(initial=0.0) > floor:
                    lex[q].sort(key=lambda row: row[1])
                assert list(zip(levels[q].tolist(), d.tolist())) == lex[q]

    @settings(max_examples=60, deadline=None)
    @given(facet_clouds(), st.integers(0, 2**32 - 1))
    def test_reorder_keeps_the_tables(self, case, seed):
        # Any permutation of any level, applied in any sequence, moves that
        # level's table rows and relabels the table above.
        cloud, points, scales, n_max = case
        top = n_max + 1
        cx = enumerate_complex(points, cloud, scales[-1], top)
        rng = np.random.default_rng(seed)
        for q in rng.integers(0, top + 1, size=3).tolist():
            before = vertex_levels(cx)
            order = rng.permutation(cx.count(q))
            cx.reorder(q, order)
            after = vertex_levels(cx)
            for k in range(top + 1):
                assert after[k].tolist() == (before[k][order] if k == q else before[k]).tolist()
            for k in range(1, top + 1):
                assert cx.facets[k].tolist() == looked_up_facets(after, k)

    def test_keys_stay_exact_where_radix_keys_wrap(self):
        # Radix keys over the three vertices of a triangle would need
        # n^3 > 2^63 here; the expansion's keys stay below count * n.  The
        # levels are expanded from a synthetic clique on six vertex rows
        # spread over n, each edge with its own distance.
        n = 2**21 + 8
        assert n**3 > 2**63
        verts = [0, 5, n - 4, n - 3, n - 2, n - 1]
        edges = np.array(list(combinations(verts, 2)), dtype=np.int64)
        lo, hi = edges[:, 0], edges[:, 1]
        dist = np.random.default_rng(0).random(len(edges))
        starts = np.searchsorted(lo, np.arange(n + 1))
        levels, diams, tables, last = [None, edges], [None, dist], [None, edges], hi
        for q in range(1, 4):
            blocks = list(rips._cofaces(last, diams[q], tables[q], starts, hi, n))
            last, d, table = (np.concatenate(a) for a in zip(*blocks))
            level = rips.vertex_rows(tables + [table], q + 1, np.arange(len(d)))
            assert level.tolist() == [list(s) for s in combinations(verts, q + 2)]
            assert last.tolist() == level[:, -1].tolist()
            assert table.tolist() == looked_up_facets(levels + [level], q + 1)
            length = {tuple(e): x for e, x in zip(edges.tolist(), dist.tolist())}
            assert d.tolist() == [max(length[e] for e in combinations(s, 2))
                                  for s in map(tuple, level.tolist())]
            levels.append(level)
            diams.append(d)
            tables.append(table)

    def test_a_complex_holds_its_tables_once(self):
        # Enumerated and put in the oracle's order, a complex holds its
        # points, diameters and facet tables and nothing beside them: no
        # vertex levels, before or after a reorder.
        pc = PointCloud(np.random.default_rng(0).random((2000, 2)))
        tracemalloc.start()
        try:
            cx = enumerate_complex(range(2000), pc, 0.06, 2)
            _order_levels(cx, 0.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = cx.points.nbytes + sum(a.nbytes for a in cx.diameters + cx.facets[1:])
        assert held <= 1.1 * size
        assert peak <= 3 * size
