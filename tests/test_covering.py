import time

import numpy as np
import pytest

from mvbetti.core import Chain, ConsistencyError, PointCloud
from mvbetti.covering import (FULL, _cells, _disjoint, build_covering, cell, choose_k,
                              full_box, overlap, split_axis)
from mvbetti.engine import run
from mvbetti.mayer_vietoris import MVNodeSolver
from mvbetti.reduction import build_leaf

from conftest import HEX_POINTS, leaf_count, node_of
from test_dimension_zero import _solvers
from test_leaf_views import _lattice


def line_cloud():
    # Spread [0, 10] on one axis; k=5 with eps=1 gives the reference cells.
    return PointCloud([[x] for x in [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]])


class TestChooseK:
    def test_parallel_nine_d2(self):
        k, capped = choose_k(9, 2, 100.0, 1.0)
        assert k == 2 and not capped  # largest integer below sqrt(9)

    def test_parallel_ten_d1(self):
        k, capped = choose_k(10, 1, 100.0, 1.0)
        assert k == 9 and not capped

    def test_cube_boundary_exact(self):
        # 64^(1/3) must not round up: largest k with k^3 < 64 is 3, and the
        # scale cap also gives 3 (4/3 > 1), so no warning flag.
        k, capped = choose_k(64, 3, 4.0, 1.0)
        assert k == 3 and not capped

    def test_eps_cap_flagged(self):
        k, capped = choose_k(100, 1, 10.0, 2.0)
        assert k == 4 and capped  # 10/5 = 2 is not > 2

    def test_no_parallelism(self):
        k, capped = choose_k(1, 2, 10.0, 1.0)
        assert k == 1 and not capped

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_k(0, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            choose_k(4, 1, 0.0, 0.5)

    def test_a_huge_parallelism_hint_returns_at_once(self):
        # Counting k_par up to 10**18 would never end; it stops past k_eps.
        start = time.perf_counter()
        assert choose_k(10**18, 1, 1.0, 0.1) == (9, True)
        assert choose_k(10**18, 2, 1.0, 0.1) == (9, True)
        assert time.perf_counter() - start < 1.0

    def test_matches_a_brute_force_reference(self):
        def reference(parallel, dim, extent, eps):
            k_par = max(k for k in range(parallel + 1) if k ** dim < parallel)
            k_eps = max(k for k in range(int(extent / eps) + 3) if k == 0 or extent / k > eps)
            k = max(1, min(k_par, k_eps))
            while not _disjoint(_cells(0.0, extent, k, eps)):
                k -= 1
            return k, min(k_eps, k) < k_par

        for parallel in range(1, 70):
            for dim in (1, 2, 3):
                for extent in (0.3, 1.0, 2.5, 10.0):
                    for eps in (0.1, 0.3, 0.7, 1.0):
                        assert choose_k(parallel, dim, extent, eps) == \
                            reference(parallel, dim, extent, eps)

    def test_lowered_until_rounded_cells_stay_disjoint(self):
        # extent/3 = 0.10000000000000002 > eps, but from origin 0.1 cells 0
        # and 2 both meet 0.30000000000000004: k drops to 2, flagged.
        assert choose_k(4, 1, 0.30000000000000004, 0.1) == (3, False)
        assert choose_k(4, 1, 0.30000000000000004, 0.1, origins=[0.1]) == (2, True)
        # At offset 1e12 the rounded endpoints touch on axes 1..3 only.
        extent = (1e12 + 0.9) - 1e12
        assert extent / 3 > 0.3
        assert choose_k(82, 4, extent, 0.3, origins=[0.0] + [1e12] * 3) == (2, True)


class TestBuildCovering:
    def test_reference_cells_and_overlaps(self):
        cov = build_covering(line_cloud(), 1.0, 5)
        ax = cov.axes[0]
        assert ax.cells == ((0, 3), (2, 5), (4, 7), (6, 9), (8, 11))
        assert ax.overlaps == ((2, 3), (4, 5), (6, 7), (8, 9))

    def test_single_cell(self):
        cov = build_covering(line_cloud(), 1.0, 1)
        ax = cov.axes[0]
        assert ax.cells == ((0.0, 11.0),)
        assert ax.overlaps == ()

    def test_overlap_widths_equal_eps(self):
        for eps in (0.5, 1.0, 1.7):
            cov = build_covering(line_cloud(), eps, 5 if eps < 2 else 4)
            for lo, hi in cov.axes[0].overlaps:
                assert hi - lo == pytest.approx(eps, abs=1e-12)

    def test_cells_cover_range(self):
        cov = build_covering(line_cloud(), 1.0, 5)
        ax = cov.axes[0]
        assert ax.cells[0][0] == ax.origin
        assert ax.cells[-1][1] >= ax.origin + ax.extent

    def test_k_three_needs_strict_width(self):
        # extent 10, k=3 has non-adjacent pairs; eps above 10/3 must fail.
        with pytest.raises(ValueError):
            build_covering(line_cloud(), 3.5, 3)

    def test_k_two_allows_wide_overlap(self):
        # Only two cells exist, so no disjointness constraint applies.
        cov = build_covering(PointCloud(HEX_POINTS), 1.0, 2)
        assert cov.k_per_axis == (2, 2)

    def test_degenerate_zero_spread(self):
        pc = PointCloud([[1.0, 1.0], [1.0, 1.0]])
        cov = build_covering(pc, 0.5, 4)
        assert cov.k_per_axis == (1, 1)

    def test_per_axis_counts(self):
        rng = np.random.default_rng(5)
        pc = PointCloud(rng.random((30, 2)) * [10.0, 10.0])
        cov = build_covering(pc, 0.9, [5, 3])
        assert cov.k_per_axis == (5, 3)
        # One entry is one count for every axis; any other length is rejected.
        assert build_covering(pc, 0.9, [4]).k_per_axis == (4, 4)
        for bad in ([], [5, 3, 2]):
            with pytest.raises(ValueError, match="expected 1 or 2 cell counts"):
                build_covering(pc, 0.9, bad)

    @pytest.mark.parametrize("k", [2.5, [2.7, 2], [2, 2.0], True, [True, 2], "22", 0, [0, 2],
                                   [2, -1]])
    def test_cell_counts_must_be_ints(self, k):
        # [2.7, 2] ran a 2x2 grid, True a 1x1 grid, and 2.5 raised TypeError;
        # run() named no argument for [0, 2].  Each count has the int rule,
        # under run()'s name for it.
        pc = PointCloud(np.random.default_rng(5).random((30, 2)) * 10.0)
        with pytest.raises(ValueError, match="^cell counts must be an int >= 1, not "):
            build_covering(pc, 0.9, k)
        with pytest.raises(ValueError, match="^grid must be an int >= 1, not "):
            run(pc, 0.9, [0.9], workers=1, grid=k)
        assert build_covering(pc, 0.9, np.array([5, 3])).k_per_axis == (5, 3)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), True, 0, 0.0, -1, -1.0])
    def test_eps_must_be_a_positive_finite_real(self, eps):
        # nan, inf and True gave a covering with that eps; 0 and -1 were
        # refused by a second copy of the rule.
        pc = PointCloud(np.random.default_rng(5).random((30, 2)))
        with pytest.raises(ValueError, match="^eps must be "):
            build_covering(pc, eps, 2)


def two_piece_node(p=3):
    """The covering of six points on a line at eps 2 with two cells, [0, 7]
    and [5, 12], and the node over its pieces: points 0-3 and 2-5, overlap
    points 2 and 3 (x = 5.5 and 7, cell 0's end)."""
    pc = PointCloud([[0.0], [2.0], [5.5], [7.0], [9.0], [10.0]])
    cov = build_covering(pc, 2.0, 2)
    sp = split_axis(full_box(1), cov)

    def leaf(box):
        return build_leaf(cov.points_in_box(pc, box), pc, [2.0], 1, p).view(2.0)

    node = node_of([leaf(b) for b in sp.pieces], [leaf(b) for b in sp.overlaps])
    return cov, node


class TestAssign:
    """MVNodeSolver._split assigns each simplex of a chain to the lowest
    piece holding all its vertices, the assignment that run() uses, by the
    rule that labels() reads too (_lowest_pieces)."""

    def test_lowest_cell_tiebreak(self):
        cov, node = two_piece_node()
        assert cov.axes[0].cells == ((0.0, 7.0), (5.0, 12.0))
        z = Chain(1, 3, {(2, 3): 1})    # [5.5, 7] lies in both cells
        zs = node._split(z)
        assert zs[0] == z and zs[1].is_zero()

    def test_single_coordinate(self):
        _, node = two_piece_node()
        z = Chain(0, 3, {(3,): 2})      # x = 7, the end of cell 0
        zs = node._split(z)
        assert zs[0] == z and zs[1].is_zero()

    def test_span_in_second_cell(self):
        _, node = two_piece_node()
        z = Chain(1, 3, {(3, 4): 1})    # [7, 9] lies in cell 1 only
        zs = node._split(z)
        assert zs[0].is_zero() and zs[1] == z

    def test_vertex_outside_region_rejected(self):
        _, node = two_piece_node()
        with pytest.raises(ValueError, match="outside this region"):
            node._split(Chain(1, 3, {(3, 6): 1}))

    def test_oversized_span_rejected(self):
        # [2, 9] is wider than eps and fits neither cell.
        _, node = two_piece_node()
        with pytest.raises(ConsistencyError, match="fits no piece"):
            node._split(Chain(1, 3, {(1, 4): 1}))

    def test_lebesgue_property_sampled(self):
        rng = np.random.default_rng(11)
        cov = build_covering(line_cloud(), 1.0, 5)
        cells = cov.axes[0].cells
        for _ in range(20_000):
            lo = rng.uniform(0.0, 10.0)
            hi = min(lo + rng.uniform(0.0, 1.0), 10.0)
            assert any(a <= lo and hi <= b for a, b in cells), (lo, hi)

    @pytest.mark.parametrize("case", ["lattice40-4x4", "two-piece"])
    def test_lowest_pieces_by_brute_force(self, case):
        # On every node, nested ones included, of the tie-heavy 40x40
        # lattice cut 4x4 (the CI cloud) and on two_piece_node: each vertex
        # and random edge goes to the lowest piece whose ids hold all its
        # vertices, found over Python sets; an edge that fits no piece
        # raises, named, even behind edges that fit.  A node's ids are its
        # pieces' sorted union, and its region's lo and hi the first and
        # last piece holding each id.
        if case == "two-piece":
            nodes = [two_piece_node()[1]]
        else:
            solvers = _solvers(_lattice(2, 40), 0.06, 0.06, [4, 4], 2, n_max=0)
            nodes = [s for s in solvers if isinstance(s, MVNodeSolver)]
            assert any(isinstance(pc, MVNodeSolver) for x in nodes for pc in x.pieces)
        rng = np.random.default_rng(12)
        for node in nodes:
            sets = [set(pc.ids.tolist()) for pc in node.pieces]
            assert node.ids.tolist() == sorted(set().union(*sets))
            holding = [[k for k, s in enumerate(sets) if i in s] for i in node.ids.tolist()]
            assert node.region.lo.tolist() == [ks[0] for ks in holding]
            assert node.region.hi.tolist() == [ks[-1] for ks in holding]
            edges = np.sort(rng.choice(node.ids, (300, 2)), axis=1)
            edges = edges[edges[:, 0] < edges[:, 1]]
            for simplices in (node.ids[:, None], edges):
                lowest = [next((k for k, s in enumerate(sets) if s.issuperset(row)), None)
                          for row in simplices.tolist()]
                fit = np.array([k is not None for k in lowest], bool)
                assert fit.any()
                assert node._lowest_pieces(simplices[fit]).tolist() == [
                    k for k in lowest if k is not None]
                for bad in simplices[~fit][:3]:
                    with pytest.raises(ConsistencyError,
                                       match=rf"^simplex \({bad[0]}, {bad[1]}\) fits no piece"):
                        node._lowest_pieces(np.vstack([simplices[fit][:5], bad]))

    def test_deterministic_and_order_free(self):
        _, node = two_piece_node()
        terms = {(0, 1): 1, (2, 3): 2, (3, 4): 1, (4, 5): 2}
        z = Chain(1, 3, terms)
        zs = node._split(z)
        assert zs == node._split(Chain(1, 3, dict(reversed(terms.items()))))
        assert [sorted(part.terms) for part in zs] == [[(0, 1), (2, 3)], [(3, 4), (4, 5)]]
        assert zs[0] + zs[1] == z


class TestBoxesAndSplits:
    def test_d1_split_counts(self):
        cov = build_covering(line_cloud(), 1.0, 3)
        sp = split_axis(full_box(1), cov)
        assert sp.axis == 0
        assert len(sp.pieces) == 3 and len(sp.overlaps) == 2

    def test_all_cell_box_is_leaf(self):
        cov = build_covering(line_cloud(), 1.0, 3)
        assert split_axis((cell(0),), cov) is None
        assert split_axis((cell(1),), cov) is None
        assert split_axis((FULL,), cov) is not None

    def test_d2_partial_split_inherits_selectors(self):
        pc = PointCloud(np.random.default_rng(0).random((20, 2)) * 10)
        cov = build_covering(pc, 0.9, 2)
        box = (FULL, overlap(0))
        sp = split_axis(box, cov)
        assert sp.axis == 0
        assert sp.pieces == ((cell(0), overlap(0)), (cell(1), overlap(0)))
        assert sp.overlaps == ((overlap(0), overlap(0)),)

    def test_first_full_axis_selected(self):
        pc = PointCloud(np.random.default_rng(0).random((20, 3)) * 10)
        cov = build_covering(pc, 0.9, 2)
        sp = split_axis((cell(0), FULL, FULL), cov)
        assert sp.axis == 1

    def test_non_adjacent_pieces_disjoint(self):
        rng = np.random.default_rng(7)
        pc = PointCloud(rng.random((60, 1)) * 10)
        cov = build_covering(pc, 0.9, 5)
        sp = split_axis(full_box(1), cov)
        sets = [set(cov.points_in_box(pc, b)) for b in sp.pieces]
        for j in range(5):
            for l in range(j + 2, 5):
                assert not sets[j] & sets[l]

    def test_every_point_in_some_cube(self):
        rng = np.random.default_rng(8)
        pc = PointCloud(rng.random((40, 2)) * 10)
        cov = build_covering(pc, 0.9, 3)
        cubes = [(cell(i), cell(j)) for i in range(3) for j in range(3)]
        covered = set()
        for b in cubes:
            covered.update(cov.points_in_box(pc, b))
        assert covered == set(range(40))

    def test_points_in_box_matches_manual_filter(self):
        rng = np.random.default_rng(9)
        pc = PointCloud(rng.random((50, 2)) * 10)
        cov = build_covering(pc, 0.9, 3)
        box = (cell(1), overlap(0))
        got = list(cov.points_in_box(pc, box))
        c = cov.axes[0].cells[1]
        o = cov.axes[1].overlaps[0]
        want = [
            i for i in range(50)
            if c[0] <= pc.coords[i, 0] <= c[1] and o[0] <= pc.coords[i, 1] <= o[1]
        ]
        assert got == want

    def test_overlap_box_equals_piece_intersection(self):
        rng = np.random.default_rng(10)
        pc = PointCloud(rng.random((80, 1)) * 10)
        cov = build_covering(pc, 0.9, 4)
        for j in range(3):
            a = set(cov.points_in_box(pc, (cell(j),)))
            b = set(cov.points_in_box(pc, (cell(j + 1),)))
            o = set(cov.points_in_box(pc, (overlap(j),)))
            assert o == a & b

    def test_leaf_count_formula(self):
        pc = PointCloud(np.random.default_rng(1).random((30, 2)) * 10)
        cov = build_covering(pc, 0.4, [3, 2])
        assert leaf_count(cov) == (2 * 3 - 1) * (2 * 2 - 1)
