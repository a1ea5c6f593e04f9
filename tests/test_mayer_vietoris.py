import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti.core import Chain, ConsistencyError, PointCloud, PrimeField, chain_boundary
from mvbetti.covering import build_covering, full_box, split_axis
from mvbetti.engine import execute_scale, plan_jobs
from mvbetti.mayer_vietoris import FMatrix, MVNodeSolver, NodeRegion, assemble, build_f
from mvbetti.reduction import (LeafSolver, betti_at_scale, build_leaf, persistence_barcode,
                               reduce_columns)
from mvbetti.rips import DEFAULT_BUDGET, enumerate_complex

from conftest import (HEX_POINTS, dense, dense_rank_mod_p, distance_quantile,
                      hexagon_cycle, node_of, random_cloud, vertex_levels)
from test_reduction import dense_of_columns, sparse_matrices


def collinear_pair(p):
    """Pieces {0,1} / {1,2} of three collinear unit-spaced points."""
    pc = PointCloud([[0.0], [1.0], [2.0]])
    f = PrimeField(p)
    a = build_leaf([0, 1], pc, [1.0], 1, f).view(1.0)
    b = build_leaf([1, 2], pc, [1.0], 1, f).view(1.0)
    i = build_leaf([1], pc, [1.0], 1, f).view(1.0)
    return pc, f, a, b, i


def hexagon_two_pieces(p, n_max=1):
    """Manual covering of the hexagon: the overlap has two far-apart points."""
    pc = PointCloud(HEX_POINTS)
    f = PrimeField(p)
    a = build_leaf([0, 1, 2, 5], pc, [1.0], n_max, f).view(1.0)
    b = build_leaf([2, 3, 4, 5], pc, [1.0], n_max, f).view(1.0)
    i = build_leaf([2, 5], pc, [1.0], n_max, f).view(1.0)
    return pc, f, a, b, i


class TestInducedMap:
    def test_collinear_point_class(self):
        # The inclusions' induced maps are the pieces' coords() of the
        # overlap's representative: +1 into the left piece, -1 into the
        # right, and build_f lays exactly these images out as its column.
        _, f, a, b, i = collinear_pair(3)
        rep = i.representatives(0)[0]
        assert a.coords(rep, 0) == {0: 1}
        assert b.coords(rep.scaled(f.p - 1), 0) == {0: 2}
        fm = build_f([a, b], [i], 0, f)
        assert fm.columns == [{0: 1, fm.row_starts[1]: 2}]


class TestBuildF:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_self_overlap_gives_signed_identity_blocks(self, p):
        # Column i is +e_i in the first piece and -e_i in the second: the
        # overlap's representatives are the pieces' own basis.
        rng = np.random.default_rng(1)
        pc = random_cloud(rng, 10, 2)
        f = PrimeField(p)
        s = build_leaf(range(10), pc, [0.5], 1, f).view(0.5)
        for n in (0, 1):
            b = s.betti(n)
            fm = build_f([s, s], [s], n, f)
            assert fm.row_starts == [0, b, 2 * b] and fm.col_starts == [0, b]
            assert fm.columns == [{i: 1, b + i: p - 1} for i in range(b)]

    def test_empty_overlap_gives_no_columns(self):
        pc = PointCloud([[0.0], [1.0], [5.0], [6.0]])
        f = PrimeField(2)
        a = build_leaf([0, 1], pc, [1.0], 1, f).view(1.0)
        c = build_leaf([2, 3], pc, [1.0], 1, f).view(1.0)
        empty = build_leaf([], pc, [1.0], 1, f).view(1.0)
        fm = build_f([a, c], [empty], 0, f)
        assert fm.columns == [] and fm.nrows == 2 and fm.coker_rows == [0, 1]

    @pytest.mark.parametrize("p,expect", [(2, {0: 1, 1: 1}), (3, {0: 1, 1: 2})])
    def test_collinear_column(self, p, expect):
        # The overlap's point class is +1 in the left piece, -1 in the right.
        _, f, a, b, i = collinear_pair(p)
        fm = build_f([a, b], [i], 0, f)
        assert fm.nrows == 2 and fm.columns == [expect]
        assert reduce_columns(fm.columns, f).rank == 1

    def test_single_piece_empty_matrix(self):
        pc = PointCloud([[0.0], [1.0]])
        f = PrimeField(2)
        a = build_leaf([0, 1], pc, [1.0], 1, f).view(1.0)
        fm = build_f([a], [], 0, f)
        assert fm.ncols == 0 and fm.nrows == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hexagon_two_by_two_rank_one(self, p):
        _, f, a, b, i = hexagon_two_pieces(p)
        fm = build_f([a, b], [i], 0, f)
        assert fm.nrows == 2 and fm.ncols == 2
        assert reduce_columns(fm.columns, f).rank == 1


class TestFStructure:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices().filter(lambda case: case[0] in (2, 3, 5)), st.data())
    def test_kernel_basis_and_cokernel_membership(self, case, data):
        p, nrows, cols = case
        field, ncols = PrimeField(p), len(cols)
        fs = FMatrix(cols, [0, nrows], [0, ncols], field)

        def apply(y):
            """f y for a sparse source vector y, as a sparse target vector."""
            out = {}
            for j, c in y.items():
                for r, x in cols[j].items():
                    out[r] = (out.get(r, 0) + c * x) % p
            return {r: x for r, x in out.items() if x}

        kernel = fs.kernel_cols
        assert fs.rank == dense_rank_mod_p(dense_of_columns(nrows, cols, p), p)
        assert len(kernel) == ncols - fs.rank
        assert all(apply(k) == {} for k in kernel)
        assert len({max(k) for k in kernel}) == len(kernel)

        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(kernel),
                                    max_size=len(kernel)))
        u = {}
        for k, c in zip(kernel, coeffs):
            for r, x in k.items():
                u[r] = (u.get(r, 0) + c * x) % p
        u = {r: x for r, x in u.items() if x}
        assert fs.kernel_coords(u) == {i: c for i, c in enumerate(coeffs) if c}

        y = data.draw(st.dictionaries(st.integers(0, ncols - 1), st.integers(1, p - 1))
                      if ncols else st.just({}))
        coker, y2 = fs.project_coker(apply(y), want_membership=True)
        assert coker == {}
        assert apply(y2) == apply(y)


class TestAssemble:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_collinear(self, p):
        _, f, a, b, i = collinear_pair(p)
        node = node_of([a, b], [i], 1, f)
        assert node.betti_all() == [1, 0]

    def test_two_separated_clusters(self):
        pc = PointCloud([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
        f = PrimeField(2)
        cov = build_covering(pc, 0.5, 2)
        sp = split_axis(full_box(2), cov)
        node = execute_scale(pc, cov, plan_jobs(cov), 0.5, 1, f, DEFAULT_BUDGET, 1, [0.5], {})[0]
        assert node.betti_all() == [2, 0]
        assert sp is not None

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hexagon_circle(self, p):
        _, f, a, b, i = hexagon_two_pieces(p)
        node = node_of([a, b], [i], 1, f)
        assert node.betti_all() == [1, 1]
        assert node.rank_f == {0: 1, 1: 0}

    def test_empty_pieces_contribute_zero(self):
        pc = PointCloud([[0.0], [0.2], [9.8], [10.0]])
        f = PrimeField(2)
        # Middle cells of a 5-cell covering are empty at this scale.
        cov = build_covering(pc, 0.5, 5)
        node = execute_scale(pc, cov, plan_jobs(cov), 0.5, 1, f, DEFAULT_BUDGET, 1, [0.5], {})[0]
        assert node.betti_all() == [2, 0]
        sizes = [len(s.point_set) for s in node.pieces]
        assert 0 in sizes

    def test_mismatched_overlap_rejected(self):
        # Once, when the region is built from an overlap that is not its
        # pieces' intersection, and at every scale, when assemble() is
        # given a piece or overlap solver other than the region's, even
        # one over the same points.
        pc = PointCloud([[0.0], [1.0], [2.0]])
        f = PrimeField(2)
        a = build_leaf([0, 1], pc, [1.0], 1, f).view(1.0)
        b = build_leaf([1, 2], pc, [1.0], 1, f).view(1.0)
        i = build_leaf([1], pc, [1.0], 1, f).view(1.0)
        bad = build_leaf([0], pc, [1.0], 1, f).view(1.0)  # not the intersection
        with pytest.raises(ConsistencyError, match="pieces intersect in"):
            NodeRegion([a, b], [bad], 1, f)
        region = NodeRegion([a, b], [i], 1, f)
        assert assemble(region, [a, b], [i]).betti_all() == [1, 0]
        for inters in ([bad], [build_leaf([1], pc, [1.0], 1, f).view(1.0)], []):
            with pytest.raises(ConsistencyError, match="not over the region's"):
                assemble(region, [a, b], inters)
        with pytest.raises(ConsistencyError, match="not over the region's"):
            assemble(region, [b, a], [i])

    def test_wrong_overlap_count_rejected(self):
        pc = PointCloud([[0.0], [1.0], [2.0]])
        f = PrimeField(2)
        a = build_leaf([0, 1], pc, [1.0], 1, f).view(1.0)
        b = build_leaf([1, 2], pc, [1.0], 1, f).view(1.0)
        with pytest.raises(ValueError):
            node_of([a, b], [], 1, f)


class TestUnionQueries:
    @pytest.mark.parametrize("p", [2, 3])
    def test_a_chain_that_is_no_cycle_is_rejected_before_any_child_query(self, p, monkeypatch):
        # The chase checks that z is a cycle from the boundaries of its
        # parts, which it needs anyway: a boundary left in the first part,
        # or only in the last one, raises before a piece or overlap is
        # asked anything.
        _, f, a, b, i = hexagon_two_pieces(p)
        node = node_of([a, b], [i], 1, f)
        asked = []
        for name in ("coords", "bound"):
            query = getattr(LeafSolver, name)
            monkeypatch.setattr(LeafSolver, name,
                                lambda self, *args, _q=query: asked.append(args) or _q(self, *args))
        for edges in ([(0, 1)], [(3, 4)], [(0, 1), (1, 2), (2, 3)]):
            z = Chain(1, p, {e: 1 for e in edges})
            for query in (node.coords, node.bound):
                with pytest.raises(ValueError, match="^chain is not a cycle$"):
                    query(z, 1)
        assert asked == []
        assert node.coords(hexagon_cycle(p), 1) and asked

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_representatives_map_to_unit_vectors(self, p):
        _, f, a, b, i = hexagon_two_pieces(p)
        node = node_of([a, b], [i], 1, f)
        for n in (0, 1):
            reps = node.representatives(n)
            assert len(reps) == node.betti(n)
            for idx, rep in enumerate(reps):
                assert chain_boundary(rep).is_zero()
                assert node.coords(rep, n) == {idx: 1}

    @pytest.mark.parametrize("p", [2, 3])
    def test_hexagon_cycle_detected_through_kernel(self, p):
        _, f, a, b, i = hexagon_two_pieces(p)
        node = node_of([a, b], [i], 1, f)
        z = hexagon_cycle(p)
        co = node.coords(z, 1)
        # beta_1 comes entirely from ker(f_0) here: coker block is empty.
        assert node.betti(1) == 1 and list(co) == [0] and 0 < co[0] < p
        assert node.bound(z, 1) is None

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_direct_leaf_up_to_basis(self, p):
        pc = PointCloud(HEX_POINTS)
        f = PrimeField(p)
        _, _, a, b, i = hexagon_two_pieces(p)
        node = node_of([a, b], [i], 1, f)
        direct = build_leaf(range(6), pc, [1.0], 1, f).view(1.0)
        for n in (0, 1):
            assert node.betti(n) == direct.betti(n)
            # Change of basis: node coordinates of the direct basis.
            M = [dense(node.coords(rep, n), node.betti(n))
                 for rep in direct.representatives(n)]
            z = hexagon_cycle(p) if n == 1 else Chain(0, p, {(3,): 1})
            want = [0] * node.betti(n)
            dc = dense(direct.coords(z, n), direct.betti(n))
            for j, c in enumerate(dc):
                for r in range(node.betti(n)):
                    want[r] = (want[r] + c * M[j][r]) % p
            assert dense(node.coords(z, n), node.betti(n)) == want

    @pytest.mark.parametrize("p", [2, 3])
    def test_boundaries_have_zero_coords_and_bound(self, p):
        pc = PointCloud(HEX_POINTS)
        f = PrimeField(p)
        a = build_leaf([0, 1, 2, 5], pc, [1.2], 1, f).view(1.2)
        b = build_leaf([2, 3, 4, 5], pc, [1.2], 1, f).view(1.2)
        i = build_leaf([2, 5], pc, [1.2], 1, f).view(1.2)
        node = node_of([a, b], [i], 1, f)
        rng = np.random.default_rng(p)
        # random 1-chains w in the union made of piece simplices: z = dw
        pool = [tuple(s) for pts in ([0, 1, 2, 5], [2, 3, 4, 5])
                for s in vertex_levels(enumerate_complex(pts, pc, 1.2, 1))[1].tolist()]
        for _ in range(10):
            take = rng.integers(0, len(pool), size=3)
            w = Chain(1, p, {pool[int(t)]: int(rng.integers(1, p)) for t in set(map(int, take))})
            z = chain_boundary(w)
            assert node.coords(z, 0) == {}
            w2 = node.bound(z, 0)
            assert w2 is not None and chain_boundary(w2) == z

    @pytest.mark.parametrize("piece_bound,message", [
        (lambda real, z, n: None, "kernel difference chain fails to bound in piece 0"),
        (lambda real, z, n: real(z, n) + Chain.single((0, 1), 3),
         "connecting lift is not a cycle"),
    ], ids=["not-bounding", "not-a-cycle"])
    def test_broken_lift_raises_where_it_is_read(self, monkeypatch, piece_bound, message):
        # The hexagon's beta_1 is a kernel class of f_0, so its only
        # representative is a connecting lift, built from the pieces' bound().
        _, f, a, b, i = hexagon_two_pieces(3)
        real = type(a).bound
        monkeypatch.setattr(type(a), "bound",
                            lambda self, z, n: piece_bound(real.__get__(self), z, n))
        # Betti numbers read ranks only: no lift is built, so none is checked.
        assert node_of([a, b], [i], 1, f).betti_all() == [1, 1]
        with pytest.raises(ConsistencyError, match=message):
            node_of([a, b], [i], 1, f).representatives(1)
        # The chase corrects the hexagon's kernel class with the lift.
        with pytest.raises(ConsistencyError, match=message):
            node_of([a, b], [i], 1, f).coords(hexagon_cycle(3), 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_chase_builds_only_the_lift_it_names(self, monkeypatch, p):
        # A 5x5 unit lattice at scale 1 without (2, 1) and (2, 3), cut at
        # x = 2: each piece has four square holes, the overlap three points,
        # so ker f_0 gives two kernel classes.  A loop through the overlap
        # points at y = 0 and y = 2 names one of them in its kernel
        # correction; the chase builds that lift and no other, and reads
        # no cokernel representative of the node.
        pts = [(x, y) for x in range(5) for y in range(5) if (x, y) not in ((2, 1), (2, 3))]
        pc = PointCloud(np.array(pts, float))
        at = {xy: i for i, xy in enumerate(pts)}
        f = PrimeField(p)

        def node():
            leaf = lambda keep: build_leaf([at[xy] for xy in pts if keep(xy[0])], pc,
                                           [1.0], 1, f).view(1.0)
            return node_of([leaf(lambda x: x <= 2), leaf(lambda x: x >= 2)],
                           [leaf(lambda x: x == 2)], 1, f)

        loop = [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2), (1, 2), (1, 1), (1, 0)]
        terms = {}
        for u, v in zip(loop, loop[1:]):
            a, b = at[u], at[v]
            terms[(min(a, b), max(a, b))] = 1 if a < b else p - 1
        z = Chain(1, p, terms)
        assert chain_boundary(z).is_zero()
        ref = node()
        ref.representatives(1)
        lifts = []
        real = MVNodeSolver._connecting_lift
        monkeypatch.setattr(MVNodeSolver, "_connecting_lift",
                            lambda self, u, n: lifts.append(n) or real(self, u, n))
        lazy = node()
        assert lazy.betti(1) == 10 and len(lazy._f[0].kernel_cols) == 2
        co = lazy.coords(z, 1)
        m = len(lazy._f[1].coker_rows)
        assert co == ref.coords(z, 1)
        assert lifts == [0]
        assert [b - m for b in co if b >= m] == [i for _, i in lazy._lifts]
        assert not any(n == 1 for piece in lazy.pieces for n, _ in piece.reduction._chains)

    def test_bound_zero_chain(self):
        _, f, a, b, i = hexagon_two_pieces(2)
        node = node_of([a, b], [i], 1, f)
        w = node.bound(Chain.zero(1, 2), 1)
        assert w is not None and w.is_zero()

    def test_rejects_chain_outside_region(self):
        pc = PointCloud([[0.0], [1.0], [2.0], [9.0]])
        f = PrimeField(2)
        a = build_leaf([0, 1], pc, [1.0], 1, f).view(1.0)
        b = build_leaf([1, 2], pc, [1.0], 1, f).view(1.0)
        i = build_leaf([1], pc, [1.0], 1, f).view(1.0)
        node = node_of([a, b], [i], 1, f)
        with pytest.raises(ValueError):
            node.coords(Chain(0, 2, {(3,): 1}), 0)

    def test_rejects_non_cycle(self):
        _, f, a, b, i = collinear_pair(2)
        node = node_of([a, b], [i], 1, f)
        with pytest.raises(ValueError):
            node.coords(Chain(1, 2, {(0, 1): 1}), 1)

    @pytest.mark.parametrize("solver", ["leaf", "node"])
    @pytest.mark.parametrize("query,z,n,message", [
        ("coords", Chain.zero(3, 2), 3, "dimension 3 out of range"),
        ("bound", Chain.zero(0, 2), 7, "dimension 7 out of range"),
        ("coords", Chain.zero(-1, 2), -1, "dimension -1 out of range"),
        ("bound", Chain.zero(0, 2), 1, "chain dimension 0 does not match query dimension 1"),
    ])
    def test_query_rule_comes_before_the_zero_chain_shortcut(self, solver, query, z, n,
                                                            message):
        # Unchecked, a zero chain gives {} or a zero (n+1)-chain at any n.
        _, f, a, b, i = hexagon_two_pieces(2)
        s = a if solver == "leaf" else node_of([a, b], [i], 1, f)
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(s, query)(z, n)


class TestExactnessProperties:
    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_identity_against_oracle(self, p):
        # beta_n(union) = sum beta_n(pieces) - rank f_n
        #                 + sum beta_{n-1}(overlaps) - rank f_{n-1}
        rng = np.random.default_rng(600 + p)
        f = PrimeField(p)
        checked = 0
        for trial in range(25):
            n = int(rng.integers(8, 30))
            pc = random_cloud(rng, n, 1)
            eps = distance_quantile(pc, 0.3)
            if eps <= 0:
                continue
            cov = build_covering(pc, eps, 3 if cov_fits(pc, eps, 3) else 2)
            node = execute_scale(pc, cov, plan_jobs(cov), eps, 1, f, DEFAULT_BUDGET, 1,
                                 [eps], {})[0]
            bars = persistence_barcode(range(n), pc, eps, 1, f)
            for dim in (0, 1):
                assert node.betti(dim) == betti_at_scale(bars, dim, eps)
                pieces_b = sum(s.betti(dim) for s in node.pieces)
                inters_b = sum(s.betti(dim - 1) for s in node.inters) if dim else 0
                rank_n = node.rank_f[dim]
                rank_prev = node.rank_f.get(dim - 1, 0) if dim else 0
                assert node.betti(dim) == pieces_b - rank_n + inters_b - rank_prev
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("p", [2, 3])
    def test_nested_node_matches_leaf(self, p):
        rng = np.random.default_rng(700 + p)
        f = PrimeField(p)
        for _ in range(6):
            pc = random_cloud(rng, 25, 2)
            eps = distance_quantile(pc, 0.25)
            cov = build_covering(pc, eps, 2)
            node = execute_scale(pc, cov, plan_jobs(cov), eps, 1, f, DEFAULT_BUDGET, 1,
                                 [eps], {})[0]
            assert isinstance(node, MVNodeSolver)
            assert all(isinstance(c, MVNodeSolver) for c in node.pieces)
            leaf = build_leaf(range(25), pc, [eps], 1, f).view(eps)
            assert node.betti_all() == leaf.betti_all()

    @pytest.mark.parametrize("p", [2, 3])
    def test_g_after_f_vanishes(self, p):
        # Chains carry global indices, so both inclusions of an overlap
        # representative are the same chain and their difference is literally
        # zero; the exactness statement degenerates to coords(0) = 0.
        _, f, a, b, i = hexagon_two_pieces(p)
        node = node_of([a, b], [i], 1, f)
        for n in (0, 1):
            for rep in i.representatives(n):
                diff = rep - rep
                assert diff.is_zero()
                assert node.coords(diff, n) == {}

    @pytest.mark.parametrize("p", [2, 3])
    def test_node_agrees_with_leaf_exhaustively(self, p):
        # Unit square under a 2-cell x-split: enumerate every 1-chain over the
        # edge set, keep the cycles, and compare node coords with leaf coords
        # through the change-of-basis matrix.
        from itertools import product
        pc = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        f = PrimeField(p)
        cov = build_covering(pc, 1.0, [2, 1])
        node = execute_scale(pc, cov, plan_jobs(cov), 1.0, 1, f, DEFAULT_BUDGET, 1, [1.0], {})[0]
        leaf = build_leaf(range(4), pc, [1.0], 1, f).view(1.0)
        assert node.betti_all() == leaf.betti_all() == [1, 1]
        edges = [tuple(s) for s in
                 vertex_levels(enumerate_complex(range(4), pc, 1.0, 1))[1].tolist()]
        M = [dense(node.coords(rep, 1), node.betti(1)) for rep in leaf.representatives(1)]
        cycles = 0
        for coeffs in product(range(p), repeat=len(edges)):
            z = Chain(1, p, dict(zip(edges, coeffs)))
            if z.is_zero() or not chain_boundary(z).is_zero():
                continue
            cycles += 1
            dc = dense(leaf.coords(z, 1), leaf.betti(1))
            want = [0] * node.betti(1)
            for j, c in enumerate(dc):
                for r in range(node.betti(1)):
                    want[r] = (want[r] + c * M[j][r]) % p
            assert dense(node.coords(z, 1), node.betti(1)) == want
        assert cycles == p - 1  # the square cycle and its nonzero multiples

    @pytest.mark.parametrize("p", [2, 3])
    def test_determinism(self, p):
        _, f, a, b, i = hexagon_two_pieces(p)
        n1 = node_of([a, b], [i], 1, f)
        n2 = node_of([a, b], [i], 1, f)
        for n in (0, 1):
            assert [r.terms for r in n1.representatives(n)] == \
                   [r.terms for r in n2.representatives(n)]
        assert n1.rank_f == n2.rank_f


def cov_fits(pc, eps, k):
    mins, maxs = pc.axis_ranges()
    extent = float((maxs - mins).max())
    return extent / k > eps
