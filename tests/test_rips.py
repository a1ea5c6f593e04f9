import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti.core import PointCloud, boundary
from mvbetti.reduction import as_dict
from mvbetti.rips import BudgetExceededError, boundary_matrix, enumerate_complex

from conftest import (TETRA_POINTS, TETRA_SIDE, UNIT_SQUARE,
                      brute_force_simplices, random_cloud)


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
        assert set(cx.simplices[1]) == {(0, 1), (1, 2), (2, 3), (0, 3)}

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
                assert cx.simplices[q] == expect[q]

    def test_subset_of_points(self):
        rng = np.random.default_rng(6)
        pc = random_cloud(rng, 12, 2)
        sub = [0, 3, 5, 7, 11]
        cx = enumerate_complex(sub, pc, 0.6, 2)
        expect = brute_force_simplices(sub, pc, 0.6, 2)
        for q in range(3):
            assert cx.simplices[q] == expect[q]

    def test_face_closure(self):
        rng = np.random.default_rng(5)
        pc = random_cloud(rng, 14, 2)
        cx = enumerate_complex(range(14), pc, 0.5, 3)
        for q in range(1, 4):
            for s in cx.simplices[q]:
                for i in range(len(s)):
                    assert s[:i] + s[i + 1:] in cx.index[q - 1]

    def test_monotone_in_scale(self):
        rng = np.random.default_rng(7)
        pc = random_cloud(rng, 15, 2)
        counts = []
        for scale in (0.2, 0.4, 0.6, 0.8):
            cx = enumerate_complex(range(15), pc, scale, 2)
            counts.append(cx.total())
        assert counts == sorted(counts)

    def test_lexicographic_order(self):
        rng = np.random.default_rng(8)
        pc = random_cloud(rng, 12, 2)
        cx = enumerate_complex(range(12), pc, 0.7, 2)
        for q in range(3):
            assert cx.simplices[q] == sorted(cx.simplices[q])

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
            for s, d in zip(cx.simplices[q], cx.diameters[q]):
                assert d == pc.diameter(s)


@st.composite
def adversarial_clouds(draw):
    """Grid-snapped clouds in d = 1..3: duplicate points, many equal
    distances, a scale exactly equal to some pairwise distance, and
    coordinate offsets up to 1e12."""
    d = draw(st.integers(1, 3))
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


class TestEnumerateProperties:
    @settings(max_examples=250, deadline=None)
    @given(adversarial_clouds())
    def test_equals_brute_force_in_order_with_exact_diameters(self, case):
        cloud, points, scale, max_dim = case
        cx = enumerate_complex(points, cloud, scale, max_dim)
        expect = brute_force_simplices(points, cloud, scale, max_dim)
        for q in range(max_dim + 1):
            assert cx.simplices[q] == expect[q]
            want = [0.0 if q == 0 else cloud.diameter(s) for s in expect[q]]
            assert [d.hex() for d in cx.diameters[q]] == [d.hex() for d in want]
            assert all(type(d) is float for d in cx.diameters[q])


def dict_columns(cols):
    """Boundary columns as {row: coefficient} dicts; p = 2 columns are bitsets."""
    return [as_dict(c) for c in cols]


class TestBoundaryMatrix:
    def test_single_edge(self):
        pc = PointCloud([[0.0], [1.0]])
        cx = enumerate_complex(range(2), pc, 1.0, 1)
        nrows, cols = boundary_matrix(cx, 1, 2)
        assert nrows == 2
        assert cols == [0b11]
        assert dict_columns(cols) == [{0: 1, 1: 1}]

    def test_consecutive_product_vanishes(self):
        pc = PointCloud(TETRA_POINTS)
        for p in (2, 3, 5):
            cx = enumerate_complex(range(4), pc, TETRA_SIDE, 3)
            for q in (2, 3):
                r1, lower = boundary_matrix(cx, q - 1, p)
                _, upper = boundary_matrix(cx, q, p)
                lower, upper = dict_columns(lower), dict_columns(upper)
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
        nrows, cols = boundary_matrix(cx, 1, 2)
        assert nrows == 4 and len(cols) == 4
        for col in dict_columns(cols):
            assert len(col) == 2 and all(v == 1 for v in col.values())

    def test_matches_core_boundary(self):
        rng = np.random.default_rng(10)
        pc = random_cloud(rng, 12, 2)
        for p in (2, 5):
            cx = enumerate_complex(range(12), pc, 0.7, 2)
            for q in (1, 2):
                _, cols = boundary_matrix(cx, q, p)
                assert all(type(c) is (int if p == 2 else dict) for c in cols)
                for s, col in zip(cx.simplices[q], dict_columns(cols)):
                    chain = boundary(s, p)
                    want = {cx.index[q - 1][f]: c for f, c in chain.terms.items()}
                    assert col == want

    def test_selected_columns(self):
        rng = np.random.default_rng(12)
        pc = random_cloud(rng, 14, 2)
        cx = enumerate_complex(range(14), pc, 0.6, 3)
        assert cx.count(3) > 0
        for p in (2, 3):
            for q in (1, 2, 3):
                nrows, cols = boundary_matrix(cx, q, p)
                picked = list(range(0, len(cols), 3))
                assert boundary_matrix(cx, q, p, picked) == (nrows, [cols[j] for j in picked])
                assert boundary_matrix(cx, q, p, []) == (nrows, [])

    def test_dimension_out_of_range(self):
        pc = PointCloud(UNIT_SQUARE)
        cx = enumerate_complex(range(4), pc, 1.0, 2)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 0, 2)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 3, 2)
