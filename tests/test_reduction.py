import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti.core import Chain, PointCloud, PrimeField, chain_boundary
from mvbetti.reduction import (_bits, _reduce_column, as_dict, betti_at_scale, build_leaf,
                               combine, eliminate, persistence_barcode, reduce_columns)
from mvbetti.rips import boundary_matrix, enumerate_complex

from conftest import (HEX_POINTS, TETRA_POINTS, TETRA_SIDE, UNIT_SQUARE,
                      brute_force_betti, dense_rank_mod_p, distance, distance_quantile,
                      random_cloud, vertex_levels)


def dense_of_columns(nrows, cols, p):
    M = np.zeros((nrows, len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, v in col.items():
            M[r, j] = v % p
    return M


def random_sparse_columns(rng, nrows, ncols, p, density=0.3):
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            if rng.random() < density:
                v = int(rng.integers(1, p))
                col[r] = v
        cols.append(col)
    return cols


class TestReduce:
    def test_zero_matrix(self):
        f = PrimeField(3)
        red = reduce_columns([{}, {}, {}], f)
        assert red.rank == 0
        for j in range(3):
            assert as_dict(red.r[j]) == {}
            assert as_dict(red.v[j]) == {j: 1}

    def test_single_edge_already_reduced(self):
        f = PrimeField(2)
        red = reduce_columns([{0: 1, 1: 1}], f)
        assert red.rank == 1
        assert as_dict(red.r[0]) == {0: 1, 1: 1}

    def test_unit_square_rank(self):
        pc = PointCloud(UNIT_SQUARE)
        cx = enumerate_complex(range(4), pc, 1.0, 2)
        red = reduce_columns(boundary_matrix(cx, 1, 2), PrimeField(2))
        assert red.rank == 3  # beta_0 = 4 - 3 = 1, beta_1 = (4 - 3) - 0 = 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_r_equals_dv_exactly(self, p):
        rng = np.random.default_rng(p * 11)
        f = PrimeField(p)
        for _ in range(10):
            nrows = int(rng.integers(3, 12))
            ncols = int(rng.integers(3, 12))
            cols = random_sparse_columns(rng, nrows, ncols, p)
            red = reduce_columns(cols, f)
            D = dense_of_columns(nrows, cols, p)
            V = dense_of_columns(ncols, [as_dict(red.v[j]) for j in range(ncols)], p)
            R = dense_of_columns(nrows, [as_dict(red.r[j]) for j in range(ncols)], p)
            assert np.array_equal((D @ V) % p, R)

    @pytest.mark.parametrize("p", [2, 5])
    def test_v_unit_upper_triangular(self, p):
        rng = np.random.default_rng(p * 13)
        f = PrimeField(p)
        cols = random_sparse_columns(rng, 8, 10, p)
        red = reduce_columns(cols, f)
        for j in range(10):
            v = as_dict(red.v[j])
            assert v.get(j) == 1
            assert all(r <= j for r in v)

    @pytest.mark.parametrize("p", [2, 3])
    def test_pivots_distinct_and_rank_matches_dense(self, p):
        rng = np.random.default_rng(p * 17)
        f = PrimeField(p)
        for _ in range(10):
            cols = random_sparse_columns(rng, 9, 7, p)
            red = reduce_columns(cols, f)
            lows = list(red.pivots.keys())
            assert len(lows) == len(set(lows))
            assert red.rank == dense_rank_mod_p(dense_of_columns(9, cols, p), p)


def naive_reduce(columns, p):
    """Textbook left-to-right reduction with explicit modular arithmetic:
    (pivots, R, V) as lists of {row: residue} dicts."""
    def axpy(dst, src, c):
        out = {}
        for r in sorted(set(dst) | set(src)):
            v = (dst.get(r, 0) + c * src.get(r, 0)) % p
            if v:
                out[r] = v
        return out

    R = [dict(c) for c in columns]
    V = [{j: 1} for j in range(len(columns))]
    pivots = {}
    for j in range(len(R)):
        while R[j]:
            low = max(R[j])
            if low not in pivots:
                pivots[low] = j
                break
            k = pivots[low]
            c = (-R[j][low] * pow(R[k][low], p - 2, p)) % p
            R[j] = axpy(R[j], R[k], c)
            V[j] = axpy(V[j], V[k], c)
    return pivots, R, V


@st.composite
def sparse_matrices(draw):
    """(p, nrows, columns) with empty columns and repeated columns mixed in."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows = draw(st.integers(0, 14))
    entry = st.dictionaries(st.integers(0, max(nrows - 1, 0)), st.integers(1, p - 1),
                            max_size=nrows)
    base = draw(st.lists(entry, min_size=1, max_size=12))
    base.append({})
    picks = draw(st.lists(st.integers(0, len(base) - 1), max_size=16))
    return p, nrows, [dict(base[i]) for i in picks]


class TestReduceAgainstNaive:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_same_pivots_r_and_v(self, case):
        p, nrows, cols = case
        red = reduce_columns(cols, PrimeField(p))
        pivots, R, V = naive_reduce(cols, p)
        assert red.pivots == pivots
        assert [as_dict(red.r[j]) for j in range(len(cols))] == R
        assert [as_dict(red.v[j]) for j in range(len(cols))] == V
        D = dense_of_columns(nrows, cols, p)
        Vd = dense_of_columns(len(cols), V, p)
        assert np.array_equal((D @ Vd) % p, dense_of_columns(nrows, R, p))

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_bitset_columns_match_dict_columns(self, case):
        _, _, cols = case
        bits = [sum(1 << r for r in c) for c in cols]
        a = reduce_columns(cols, PrimeField(2))
        b = reduce_columns(bits, PrimeField(2))
        assert a.pivots == b.pivots and a.r == b.r and a.v == b.v


_V_ROWS = 14    # the rows of an elimination case's V columns


@st.composite
def elimination_cases(draw, primes):
    """(p, nrows, table columns keyed by their lowest row, a V column for
    each, column) as dicts, p drawn from primes.  A V column is any column
    over _V_ROWS rows: a unit column only by chance."""
    p = draw(st.sampled_from(primes))
    nrows = draw(st.integers(1, 14))
    residue = st.integers(1, p - 1)
    table, vs = {}, {}
    for low in sorted(draw(st.sets(st.integers(0, nrows - 1)))):
        col = draw(st.dictionaries(st.integers(0, low - 1), residue)) if low else {}
        col[low] = draw(residue)
        table[low] = col
        vs[low] = draw(st.dictionaries(st.integers(0, _V_ROWS - 1), residue))
    col = draw(st.dictionaries(st.integers(0, nrows - 1), residue))
    return p, nrows, table, vs, col


def _native(p):
    return (lambda c: sum(1 << r for r in c)) if p == 2 else dict


class TestEliminate:
    @settings(max_examples=300, deadline=None)
    @given(elimination_cases(primes=(2, 3, 5)))
    def test_input_is_remainder_plus_used_columns(self, case):
        p, nrows, cols, vs, col = case
        native = _native(p)
        # With V = e_low, w is the coefficient of each table column used.
        units = {low: (native(c), native({low: 1})) for low, c in cols.items()}
        before = dict(col)
        rest, coeffs = eliminate(col, units.get, p)
        assert col == before
        rest, coeffs = as_dict(rest), as_dict(coeffs)
        assert not set(rest) & set(cols)
        assert set(coeffs) <= set(cols)

        def dense(c, size=nrows):
            return dense_of_columns(size, [c], p)[:, 0]

        # col - remainder = sum(c * R)
        total = dense(rest)
        for low, c in coeffs.items():
            assert 0 < c < p
            total = total + c * dense(cols[low])
        assert np.array_equal(total % p, dense(col))
        spent = combine([(units[low][0], c) for low, c in coeffs.items()], p)
        assert np.array_equal(dense(as_dict(spent)), (dense(col) - dense(rest)) % p)
        # w = sum(c * V), the same steps taken against the drawn V columns.
        table = {low: (native(c), native(vs[low])) for low, c in cols.items()}
        rest2, w = eliminate(col, table.get, p)
        assert as_dict(rest2) == rest
        want = sum((c * dense(vs[low], _V_ROWS) for low, c in coeffs.items()),
                   np.zeros(_V_ROWS, np.int64))
        assert np.array_equal(dense(as_dict(w), _V_ROWS), want % p)
        if p == 2:      # a dict input and its bitset give one result
            assert eliminate(native(col), table.get, p) == eliminate(col, table.get, p)


class TestReduceColumn:
    @settings(max_examples=200, deadline=None)
    @given(elimination_cases(primes=(2,)), st.integers(0, _V_ROWS - 1))
    def test_the_step_follows_the_column_type(self, case, j):
        # At p = 2 a dict column, against dict pairs, takes the _axpy path
        # and ends where the same column as a bitset ends on the XOR path.
        p, _, cols, vs, col = case
        pairs = {low: (cols[low], vs[low]) for low in cols}
        bits = {low: (_bits(r), _bits(v)) for low, (r, v) in pairs.items()}
        r1, v1, l1 = _reduce_column(_bits(col), 1 << j, bits.get, p)
        r2, v2, l2 = _reduce_column(dict(col), {j: 1}, pairs.get, p)
        assert type(r1) is int and type(r2) is dict and type(v2) is dict
        assert (as_dict(r1), as_dict(v1), l1) == (r2, v2, l2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 7919])
    def test_the_step_divides_by_the_pivot_entry(self, p):
        # For every nonzero residue a at col's lowest row and a drawn one b
        # at the pair's, one dict step subtracts (a / b) R_k: row 3 cancels,
        # row 1 takes the multiple c of R_k's entry there, and V takes c
        # times V_k.  c is the field's own quotient, whatever the residue.
        # The pair is given once, so a step that fails to cancel row 3
        # returns it rather than spinning.
        rng = np.random.default_rng(p)
        for a in range(1, p):
            b, e = (int(x) for x in rng.integers(1, p, size=2))
            once = iter([({3: b, 1: e}, {5: 1})])
            source = lambda l: next(once, None) if l == 3 else None
            col, v, l = _reduce_column({0: 1, 3: a}, {2: 1}, source, p)
            c = v[5]
            assert 0 < c < p and (a + c * b) % p == 0
            assert (col, v, l) == ({0: 1, 1: c * e % p}, {2: 1, 5: c}, 1)


class TestLeafSolver:
    def test_empty_region(self):
        pc = PointCloud([[0.0]])
        leaf = build_leaf([], pc, [1.0], 2, 2).view(1.0)
        assert leaf.betti_all() == [0, 0, 0]

    def test_triangle_contractible(self):
        pc = PointCloud([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        leaf = build_leaf(range(3), pc, [1.0], 1, 2).view(1.0)
        assert leaf.betti_all() == [1, 0]

    def test_unit_square_circle(self):
        pc = PointCloud(UNIT_SQUARE)
        leaf = build_leaf(range(4), pc, [1.0], 1, 2).view(1.0)
        assert leaf.betti_all() == [1, 1]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_betti_matches_independent_oracle(self, p):
        rng = np.random.default_rng(100 + p)
        for trial in range(8):
            d = [1, 2, 3][trial % 3]
            n = int(rng.integers(4, 13))
            pc = random_cloud(rng, n, d)
            scale = float(rng.uniform(0.25, 0.8))
            leaf = build_leaf(range(n), pc, [scale], 2, p).view(scale)
            assert leaf.betti_all() == brute_force_betti(range(n), pc, scale, 2, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_coords_of_representatives_are_unit(self, p):
        rng = np.random.default_rng(200 + p)
        pc = random_cloud(rng, 12, 2)
        leaf = build_leaf(range(12), pc, [0.5], 1, p).view(0.5)
        for n in (0, 1):
            reps = leaf.representatives(n)
            assert len(reps) == leaf.betti(n)
            for i, rep in enumerate(reps):
                assert chain_boundary(rep).is_zero()
                assert leaf.coords(rep, n) == {i: 1}

    @pytest.mark.parametrize("p", [2, 5])
    def test_coords_of_boundary_is_zero(self, p):
        rng = np.random.default_rng(300 + p)
        pc = random_cloud(rng, 12, 2)
        leaf = build_leaf(range(12), pc, [0.6], 1, p).view(0.6)
        cx = enumerate_complex(range(12), pc, 0.6, 2)    # the leaf's row order
        for _ in range(10):
            if cx.count(2) == 0:
                break
            idx = rng.integers(0, cx.count(2), size=min(3, cx.count(2)))
            w = Chain(2, p, {tuple(vertex_levels(cx)[2][int(i)].tolist()): int(rng.integers(1, p))
                             for i in set(map(int, idx))})
            z = chain_boundary(w)
            assert leaf.coords(z, 1) == {}

    def test_square_cycle_coordinates(self):
        pc = PointCloud(UNIT_SQUARE)
        leaf = build_leaf(range(4), pc, [1.0], 1, 2).view(1.0)
        z = Chain(1, 2, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
        assert leaf.betti(1) == 1 and leaf.coords(z, 1) == {0: 1}
        assert leaf.bound(z, 1) is None

    def test_bound_zero_chain(self):
        pc = PointCloud(UNIT_SQUARE)
        leaf = build_leaf(range(4), pc, [1.0], 1, 2).view(1.0)
        w = leaf.bound(Chain.zero(1, 2), 1)
        assert w is not None and w.is_zero()

    @pytest.mark.parametrize("p", [2, 3])
    def test_bound_of_triangle_boundary(self, p):
        pc = PointCloud(TETRA_POINTS)
        leaf = build_leaf(range(4), pc, [TETRA_SIDE], 2, p).view(TETRA_SIDE)
        from mvbetti.core import boundary
        z = boundary((0, 1, 2), p)
        w = leaf.bound(z, 1)
        assert w is not None
        assert chain_boundary(w) == z

    @pytest.mark.parametrize("p", [2, 3])
    def test_bound_results_verified(self, p):
        rng = np.random.default_rng(400 + p)
        pc = random_cloud(rng, 14, 2)
        leaf = build_leaf(range(14), pc, [0.6], 1, p).view(0.6)
        cx = enumerate_complex(range(14), pc, 0.6, 2)    # the leaf's row order
        for _ in range(15):
            if cx.count(2) == 0:
                break
            i = int(rng.integers(0, cx.count(2)))
            w0 = Chain(2, p, {tuple(vertex_levels(cx)[2][i].tolist()): int(rng.integers(1, p))})
            z = chain_boundary(w0)
            w = leaf.bound(z, 1)
            assert w is not None
            assert chain_boundary(w) == z

    def test_rejects_foreign_simplices(self):
        pc = PointCloud([[0.0], [1.0], [5.0]])
        leaf = build_leaf([0, 1], pc, [1.0], 1, 2).view(1.0)
        with pytest.raises(ValueError):
            leaf.coords(Chain(0, 2, {(2,): 1}), 0)

    def test_rejects_non_cycle(self):
        pc = PointCloud([[0.0], [1.0]])
        leaf = build_leaf([0, 1], pc, [1.0], 1, 2).view(1.0)
        with pytest.raises(ValueError):
            # A bare vertex is a 0-cycle, but an edge chain is not a 1-cycle.
            leaf.coords(Chain(1, 2, {(0, 1): 1}), 1)


class TestBarcode:
    def test_two_points(self):
        pc = PointCloud([[0.0], [1.0]])
        bars = persistence_barcode(range(2), pc, 2.0, 1, 2)
        h0 = {(b.birth, b.death) for b in bars if b.dim == 0}
        assert h0 == {(0.0, None), (0.0, 1.0)}

    def test_triangle_deaths_at_common_distance(self):
        pc = PointCloud([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        bars = persistence_barcode(range(3), pc, 1.5, 1, 2)
        h0 = sorted(((b.birth, b.death) for b in bars if b.dim == 0),
                    key=lambda t: (t[1] is not None, t[1] or 0.0))
        d01 = distance(pc, 0, 1)
        assert len(h0) == 3 and h0[0] == (0.0, None)
        for birth, death in h0[1:]:
            assert birth == 0.0 and death == pytest.approx(d01)

    def test_hexagon_single_loop(self):
        pc = PointCloud(HEX_POINTS)
        bars = persistence_barcode(range(6), pc, 1.2, 1, 2)
        h1 = [b for b in bars if b.dim == 1]
        assert len(h1) == 1
        assert h1[0].birth == 1.0 and h1[0].death is None

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_barcode_matches_leaf_betti(self, p):
        rng = np.random.default_rng(500 + p)
        checked = 0
        for trial in range(50):
            d = [1, 2, 3][trial % 3]
            n = int(rng.integers(5, 41))
            pc = random_cloud(rng, n, d)
            eps = distance_quantile(pc, float(rng.uniform(0.1, 0.35)))
            if eps <= 0:
                continue
            bars = persistence_barcode(range(n), pc, eps, 1, p)
            s = eps * float(rng.uniform(0.3, 1.0))
            leaf = build_leaf(range(n), pc, [s], 1, p).view(s)
            for nn in (0, 1):
                assert betti_at_scale(bars, nn, s) == leaf.betti(nn)
            if n > 16:
                continue
            # The oracle pairs as the leaves do; the dense ranks share
            # nothing with either.  Check every distinct diameter <= eps,
            # on the small clouds only, where dense ranks are cheap.
            dists = pc.pairwise(range(n))[np.triu_indices(n, 1)]
            for s in sorted({0.0, *dists[dists <= eps].tolist()}):
                expect = brute_force_betti(range(n), pc, s, 1, p)
                assert [betti_at_scale(bars, nn, s) for nn in (0, 1)] == expect
                checked += 1
        assert checked >= 200
