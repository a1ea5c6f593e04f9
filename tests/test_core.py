import math

import numpy as np
import pytest

from mvbetti.core import Chain, PointCloud, PrimeField, boundary, chain_boundary, require_prime

from conftest import diameter, distance


class TestDistance:
    def test_three_four_five(self):
        pc = PointCloud([[0, 0], [3, 4]])
        assert distance(pc, 0, 1) == 5.0
        assert distance(pc, 1, 0) == 5.0

    def test_self_distance_zero(self):
        pc = PointCloud([[2.5, -1.0]])
        assert distance(pc, 0, 0) == 0.0

    def test_equilateral_triangle(self):
        pc = PointCloud([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        for i in range(3):
            for j in range(i + 1, 3):
                assert distance(pc, i, j) == pytest.approx(1.0)
                assert distance(pc, i, j) <= 1.0

    def test_index_out_of_range(self):
        pc = PointCloud([[0.0], [1.0]])
        with pytest.raises(IndexError):
            distance(pc, 0, 2)

    def test_uncached_distance_equals_pairwise(self):
        # A 1x1 block and a 2x2 block of the same points must agree bitwise.
        rng = np.random.default_rng(11)
        pc = PointCloud(rng.random((3001, 3)) * 1e3 + 1e6)
        for i, j in rng.integers(0, 3001, size=(500, 2)):
            i, j = int(i), int(j)
            assert distance(pc, i, j) == pc.pairwise([i, j])[0, 1]

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 17])
    def test_block_equals_slice_of_full_matrix(self, d):
        # Regions and the oracle compute blocks of different point sets; a
        # shared pair must get the same bits in every block.
        rng = np.random.default_rng(d)
        pc = PointCloud(rng.random((200, d)) + 1e11 * rng.random())
        full = pc.pairwise(range(pc.n))
        for _ in range(20):
            idx = rng.choice(pc.n, size=int(rng.integers(2, 60)), replace=False)
            assert np.array_equal(pc.pairwise(idx), full[np.ix_(idx, idx)])

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 17])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e11])
    def test_rectangular_blocks_equal_slices_either_way_round(self, d, offset):
        # The Rips neighbour sweep computes rectangular blocks whose rows may
        # come after their columns in index order; every entry must still
        # have the bits of the symmetric full matrix.
        rng = np.random.default_rng(d)
        pc = PointCloud(rng.random((120, d)) * rng.choice([1e-3, 1.0, 1e3]) + offset)
        full = pc.pairwise(range(pc.n))
        for _ in range(20):
            a = rng.choice(pc.n, size=int(rng.integers(1, 40)), replace=False)
            b = rng.choice(pc.n, size=int(rng.integers(1, 40)), replace=False)
            block, swapped = pc.pairwise(a, b), pc.pairwise(b, a)
            assert np.array_equal(block, full[np.ix_(a, b)])
            assert np.array_equal(swapped, full[np.ix_(b, a)])
            assert np.array_equal(block, swapped.T)


class TestDiameter:
    def test_singleton(self):
        pc = PointCloud([[0, 0], [1, 1], [2, 2], [3, 3]])
        assert diameter(pc, [3]) == 0.0

    def test_unit_square_diagonal(self):
        pc = PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert diameter(pc, range(4)) == math.sqrt(2)

    def test_pair_equals_distance(self):
        rng = np.random.default_rng(0)
        pc = PointCloud(rng.random((10, 2)))
        for i in range(10):
            for j in range(10):
                assert diameter(pc, [i, j]) == distance(pc, i, j)

    def test_empty_rejected(self):
        pc = PointCloud([[0.0]])
        with pytest.raises(ValueError):
            diameter(pc, [])

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(1)
        pc = PointCloud(rng.random((12, 3)))
        for _ in range(50):
            size = int(rng.integers(2, 12))
            sub = list(rng.choice(12, size=size, replace=False))
            smaller = sub[: int(rng.integers(1, size))]
            assert diameter(pc, smaller) <= diameter(pc, sub)


class TestPointCloudValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, float("nan")]])
        with pytest.raises(ValueError):
            PointCloud([[float("inf"), 0.0]])

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([1.0, 2.0])


class TestBoundary:
    def test_triangle_mod2(self):
        b = boundary((0, 1, 2), 2)
        assert b.terms == {(1, 2): 1, (0, 2): 1, (0, 1): 1}

    def test_edge_mod3(self):
        b = boundary((0, 1), 3)
        assert b.terms == {(1,): 1, (0,): 2}

    def test_boundary_squared_tetrahedron(self):
        for p in (2, 3, 5):
            assert chain_boundary(boundary((0, 1, 2, 3), p)).is_zero()

    def test_vertex_boundary_is_zero(self):
        assert boundary((7,), 5).is_zero()

    def test_boundary_squared_random(self):
        rng = np.random.default_rng(2)
        for p in (2, 3, 5, 7):
            for _ in range(25):
                size = int(rng.integers(2, 7))
                verts = tuple(sorted(rng.choice(40, size=size, replace=False)))
                assert chain_boundary(boundary(verts, p)).is_zero()

    def test_linear_on_chains(self):
        p = 5
        a = boundary((0, 1, 2), p)
        z = Chain(2, p, {(0, 1, 2): 2, (1, 2, 3): 3})
        lhs = chain_boundary(z)
        rhs = boundary((0, 1, 2), p).scaled(2) + boundary((1, 2, 3), p).scaled(3)
        assert lhs == rhs
        assert not a.is_zero()


class TestChainArithmetic:
    def test_add_zero_identity(self):
        a = Chain(1, 3, {(0, 1): 2, (1, 2): 1})
        assert a + Chain.zero(1, 3) == a
        assert Chain.zero(1, 3) + a == a

    def test_self_cancel_mod2(self):
        a = Chain(1, 2, {(0, 1): 1, (2, 3): 1})
        assert (a + a).is_zero()

    def test_scale_mod5(self):
        a = Chain(1, 5, {(0, 1): 2})
        assert a.scaled(3).terms == {(0, 1): 1}  # 6 mod 5
        assert a.scaled(5).is_zero()

    def test_zero_coefficients_pruned(self):
        a = Chain(0, 3, {(0,): 1, (1,): 2})
        b = Chain(0, 3, {(0,): 2, (1,): 1})
        assert (a + b).is_zero()

    def test_dimension_mismatch(self):
        a = Chain(1, 2, {(0, 1): 1})
        b = Chain(0, 2, {(0,): 1})
        with pytest.raises(ValueError):
            a + b

    def test_field_mismatch(self):
        a = Chain(1, 2, {(0, 1): 1})
        b = Chain(1, 3, {(0, 1): 1})
        with pytest.raises(ValueError):
            a + b

    def test_stored_dimension_checked(self):
        with pytest.raises(ValueError):
            Chain(2, 2, {(0, 1): 1})


class TestPrimeField:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 7919])
    def test_distributivity(self, p):
        # Chain arithmetic over Z/p: (a + b).scaled(c) == a.scaled(c) +
        # b.scaled(c) on random 1-chains sharing some edges, with c = 0, 1,
        # p - 1, a random residue and a random integer in [-p, 2p).
        rng = np.random.default_rng(p)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]

        def chain():
            pick = rng.choice(len(edges), rng.integers(0, len(edges) + 1), replace=False)
            return Chain(1, p, {edges[e]: int(rng.integers(0, p)) for e in pick})

        for _ in range(50):
            a, b = chain(), chain()
            for c in {0, 1, p - 1, int(rng.integers(0, p)), int(rng.integers(-p, 2 * p))}:
                assert (a + b).scaled(c) == a.scaled(c) + b.scaled(c)

    def test_non_prime_rejected(self):
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                PrimeField(bad)

    @pytest.mark.parametrize("p", [3.7, 5.0, "5", True, np.True_, None, [3]])
    def test_only_integral_moduli_accepted(self, p):
        # 3.7 became Z/3 and "5" Z/5; a bool is not a modulus.
        with pytest.raises(ValueError, match="^field must be an int >= 2, not "):
            PrimeField(p)

    @pytest.mark.parametrize("p,message", [(4, "must be prime, not 4"), (1, "must be an int >= 2"),
                                           (2.0, "must be an int >= 2")])
    def test_require_prime_names_its_argument(self, p, message):
        with pytest.raises(ValueError, match=f"^--field {message}"):
            require_prime("--field", p)
        with pytest.raises(ValueError, match=f"^field {message}"):
            PrimeField(p)
        assert require_prime("--field", np.int64(5)) == 5

    def test_accepts_a_field_or_an_integral_value(self):
        assert PrimeField(PrimeField(3)) == PrimeField(np.int64(3)) == PrimeField(3)
        assert PrimeField(np.uint8(5)).p == 5 and type(PrimeField(np.int32(7)).p) is int

