"""One leaf reduction serves every requested scale through prefix views.

Each view must agree with a fresh single-scale solve and with the
independent brute-force oracle, answer coords()/bound() exactly, and reject
simplices that only enter at a larger scale.
"""

import gc
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvbetti import reduction
from mvbetti.core import Chain, ConsistencyError, PointCloud, PrimeField, chain_boundary
from mvbetti.engine import run
from mvbetti.reduction import betti_at_scale, build_leaf, persistence_barcode, reduce_columns
from mvbetti.rips import RipsComplex, enumerate_complex

from conftest import (brute_force_betti, dense, dense_rank_mod_p, leaf_levels,
                      vertex_levels)


@st.composite
def leaf_cases(draw, primes=(2, 3), n_maxes=(1, 2)):
    """A small cloud, a field from primes, n_max from n_maxes and a sorted
    scale list with duplicates and at least one scale exactly equal to a
    pairwise distance."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(4, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((n, d)))
    dists = sorted({float(x) for x in cloud.pairwise(range(n))[np.triu_indices(n, 1)]})
    ties = draw(st.lists(st.sampled_from(dists), min_size=1, max_size=3))
    extra = draw(st.lists(st.floats(0.05, 1.0), max_size=2))
    scales = sorted(ties + extra + ties[:1])
    p = draw(st.sampled_from(primes))
    n_max = draw(st.sampled_from(n_maxes))
    return cloud, scales, p, n_max, rng


def _prefix_simplices(levels, q, scale):
    simplices, diams = levels[q]
    return [s for s, diam in zip(simplices, diams) if diam <= scale]


@settings(max_examples=40, deadline=None)
@given(leaf_cases())
def test_views_match_fresh_solves_and_the_oracle(case):
    cloud, scales, p, n_max, rng = case
    pts = range(cloud.n)
    red = build_leaf(pts, cloud, scales, n_max, p)
    levels = leaf_levels(pts, cloud, scales, n_max + 1)
    for s in scales:
        view = red.view(s)
        fresh = build_leaf(pts, cloud, [s], n_max, p).view(s)
        assert view.betti_all() == fresh.betti_all() == brute_force_betti(pts, cloud, s, n_max, p)
        for n in range(n_max + 1):
            # The view's own representatives: cycles of its complex, each
            # its own basis vector, although the shared table may hold R_k
            # for a killer k that only enters at a larger scale.
            present = set(_prefix_simplices(levels, n, s))
            for b, z in enumerate(view.representatives(n)):
                assert chain_boundary(z).is_zero()
                assert set(z.terms) <= present
                assert view.coords(z, n) == {b: 1}
            reps = fresh.representatives(n)
            if reps:
                M = np.array([dense(view.coords(z, n), view.betti(n)) for z in reps]).T
                assert dense_rank_mod_p(M, p) == len(reps)
            uppers = _prefix_simplices(levels, n + 1, s)
            if uppers:
                picks = rng.choice(len(uppers), size=min(3, len(uppers)), replace=False)
                w0 = Chain(n + 1, p, {uppers[int(i)]: int(rng.integers(1, p)) for i in picks})
                z = chain_boundary(w0)
                w = view.bound(z, n)
                assert w is not None and chain_boundary(w) == z


@pytest.mark.parametrize("p", [2, 3])
def test_views_guard_their_basis_size_and_bounds(p):
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    top = 2.0 ** 0.5
    red = build_leaf(range(4), cloud, [1.0, top], 1, p)
    # A boundary at the top scale whose preimage is then tampered with: V_k
    # of every pivot column, apparent or reduced, read as zero.
    z = chain_boundary(Chain.single((0, 1, 2), p))
    for k in red.killer[1][red.killer[1] >= 0].tolist():
        red.cols[2][k] = (red.cols[2][k][0], 0 if p == 2 else {})
    with pytest.raises(ConsistencyError, match="boundary differs from z"):
        red.view(top).bound(z, 1)
    # The square's loop is the one 1-cycle row at scale 1, killed at the top
    # scale.  Marked dead, or unkilled, it no longer gives the basis that
    # the ranks, taken from the pivot columns, expect.
    (row,) = red.view(1.0)._rows[1]
    red.live[1][row] = False
    with pytest.raises(ConsistencyError, match="basis size mismatch"):
        red.view(1.0)
    red.live[1][row] = True
    assert red.view(top).betti(1) == 0
    red.killer[1][row] = -1
    with pytest.raises(ConsistencyError, match="basis size mismatch"):
        red.view(top)


@pytest.mark.parametrize("p", [2, 3])
def test_a_pickled_reduction_answers_as_the_original(p):
    # A freshly built multi-scale leaf, sent through pickle as to a worker
    # process: every view must give the same Betti numbers and
    # representatives, and each representative of a scale the same coords
    # and bound at that scale and every larger one, where some of them die.
    cloud = PointCloud(np.random.default_rng(7).random((40, 2)))
    scales = [0.15, 0.2, 0.25, 0.3]
    red = build_leaf(range(cloud.n), cloud, scales, 1, p)
    copy = pickle.loads(pickle.dumps(red))
    bounded = 0
    for i, s in enumerate(scales):
        view, twin = red.view(s), copy.view(s)
        assert view.betti_all() == twin.betti_all()
        for n in range(2):
            reps = view.representatives(n)
            assert reps == twin.representatives(n)
            for t in scales[i:]:
                later, later_twin = red.view(t), copy.view(t)
                for z in reps:
                    assert later.coords(z, n) == later_twin.coords(z, n)
                    w = later.bound(z, n)
                    assert w == later_twin.bound(z, n)
                    bounded += w is not None
    assert bounded > 0


@pytest.mark.parametrize("p", [2, 3])
def test_bound_reads_the_columns_that_coords_built(p):
    # Boundaries of triangles reduce against killed rows of the dimension-1
    # table: coords() finds them zero, building (R_k, V_k) of their killers,
    # and bound() reads the same V_k, building no further column.
    cloud = PointCloud(np.random.default_rng(7).random((40, 2)))
    red = build_leaf(range(cloud.n), cloud, [0.3], 1, p)
    view = red.view(0.3)
    triangles = vertex_levels(enumerate_complex(range(cloud.n), cloud, 0.3, 2))[2]
    zs = [chain_boundary(Chain.single(tuple(t), p)) for t in triangles[:50].tolist()]
    assert [len(c) for c in red.cols] == [0, 0, 0]
    assert all(view.coords(z, 1) == {} for z in zs)
    built = [sorted(c) for c in red.cols]
    assert built[2] and not built[0] and not built[1]
    assert all(view.bound(z, 1) is not None for z in zs)
    assert [sorted(c) for c in red.cols] == built


def _eager_tables(levels, n_max, p):
    """The per-dimension eliminate tables as they were built eagerly, from
    full reductions of every D_q over the levels' vertex tuples (at a zero
    column of D_q, the V_j of a full reduction equals that of one with
    clearing: a cleared column reduces to zero and is never added to
    another)."""
    field = PrimeField(p)
    full = {}
    for q in range(1, n_max + 2):
        row = {s: i for i, s in enumerate(levels[q - 1][0])}
        full[q] = reduce_columns([{row[s[:i] + s[i + 1:]]: 1 if i % 2 == 0 else p - 1
                                   for i in range(q + 1)} for s in levels[q][0]], field)
    tables = []
    for n in range(n_max + 1):
        up, red = full[n + 1], full.get(n)
        table = {}
        for j in range(len(levels[n][0])):
            k = up.pivots.get(j)
            if k is not None:
                table[j] = (up.r[k], j)
            elif n == 0:
                table[j] = (1 << j if p == 2 else {j: 1}, j)
            elif not red.r[j]:
                table[j] = (red.v[j], j)
        tables.append((table, up.pivots))
    return tables


@settings(max_examples=60, deadline=None)
@given(leaf_cases(primes=(2, 3, 5), n_maxes=(0, 1, 2)))
def test_lazy_table_columns_equal_the_eager_tables(case):
    cloud, scales, p, n_max, _ = case
    red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    assert [len(c) for c in red.cols] == [0] * (n_max + 2)
    levels = leaf_levels(range(cloud.n), cloud, scales, n_max + 1)
    for n, (table, killers) in enumerate(_eager_tables(levels, n_max, p)):
        rows = sorted(table)
        count = len(levels[n][0])
        assert np.flatnonzero(red.live[n]).tolist() == rows
        assert red.killer[n].tolist() == [killers.get(j, -1) for j in range(count)]
        for j in range(count):
            assert red.entry(n, j) == table.get(j)


def test_view_rejects_simplices_beyond_its_scale():
    # Unit square: the sides enter at 1, the diagonals at sqrt(2).
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    top = 2.0 ** 0.5
    red = build_leaf(range(4), cloud, [1.0, top], 1, 3)
    leaf = red.view(1.0)
    z = chain_boundary(Chain.single((0, 1, 2), 3))   # uses the diagonal (0, 2)
    top_view = red.view(top)
    assert top_view.betti(1) == 0 and top_view.coords(z, 1) == {}
    with pytest.raises(ValueError, match="is not in this complex"):
        leaf.coords(z, 1)
    with pytest.raises(ValueError, match="is not in this complex"):
        leaf.bound(z, 1)
    with pytest.raises(ValueError):
        red.view(1.2)


@settings(max_examples=15, deadline=None)
@given(leaf_cases())
def test_run_on_a_grid_matches_the_oracle_at_every_scale(case):
    cloud, scales, p, n_max, _ = case
    eps = scales[-1]
    # Two cells per axis are valid at any eps, so the grid never collapses.
    report = run(cloud, eps, scales, n_max=n_max, field=p, workers=1,
                 grid=[2] * cloud.dim)
    bars = persistence_barcode(range(cloud.n), cloud, eps, n_max, p)
    for sr in report.scales:
        assert sr.betti == [betti_at_scale(bars, n, sr.scale) for n in range(n_max + 1)]


def test_run_enumerates_each_leaf_once(monkeypatch):
    calls = []
    original = reduction.enumerate_complex

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "enumerate_complex", counting)
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.random((80, 2)))
    scales = [0.05, 0.1, 0.15, 0.2]
    report = run(cloud, 0.2, scales, n_max=1, field=2, workers=2, grid=[3, 3])
    leaf_count = report.diagnostics["leaf_count"]
    assert leaf_count == 25
    assert len(calls) == leaf_count
    assert set(calls) == {0.2}


def _reachable(obj):
    """Every object reachable from obj through gc referents, classes,
    modules and functions excluded."""
    seen, stack, out = set(), [obj], []
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        out.append(o)
        stack.extend(gc.get_referents(o))
    return out


@pytest.mark.parametrize("p,n_max,scales", [(2, 1, [0.3]), (3, 1, [0.1, 0.2, 0.3]),
                                            (2, 2, [0.15, 0.3]), (3, 2, [0.3])])
def test_chain_of_column_gives_each_row_its_enumerated_simplex(p, n_max, scales):
    # Every row of every level, the top one included, against the levels of
    # enumerate_complex in the leaf's row order; below the top rows_of maps
    # each simplex back to its row, keying only the levels it searches.
    cloud = PointCloud(np.random.default_rng(13).random((30, 2)))
    pts = range(5, 30)
    red = build_leaf(pts, cloud, scales, n_max, p)
    levels = leaf_levels(pts, cloud, scales, n_max + 1)
    assert len(levels[n_max + 1][0]) > 0
    for q, (simplices, _) in enumerate(levels):
        assert red.prefix[q][-1] == len(simplices)
        for row, s in enumerate(simplices):
            assert red.chain_of_column({row: 1}, q, p) == Chain.single(s, p)
        if q <= n_max:
            assert red.rows_of(_array(simplices, q)).tolist() == list(range(len(simplices)))
    assert sorted(red.keys) == list(range(1, n_max + 1))


def _array(simplices, q):
    """Vertex tuples of level q as an (m, q + 1) int64 array."""
    return np.array(simplices, np.int64).reshape(-1, q + 1)


def _lattice(d, k):
    """The k^d points of a lattice with k points np.arange(k) / k per axis:
    float ties everywhere, and many equal diameters."""
    axis = np.arange(k) / k
    return PointCloud(np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d))


@pytest.mark.parametrize("d,k", [(2, 6), (3, 4)])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n_max", [1, 2])
def test_every_simplex_below_the_top_is_found_at_its_row(d, k, p, n_max):
    # On a tie-heavy lattice the levels above the first scale are sorted by
    # (diameter, lex) with long runs of equal diameters; a search in a
    # level's keys still gives every simplex its row, from level 0 to the
    # one below the top.
    cloud = _lattice(d, k)
    scales = [1.01 / k, 1.5 / k]
    red = build_leaf(range(cloud.n), cloud, scales, n_max, p)
    levels = leaf_levels(range(cloud.n), cloud, scales, n_max + 1)
    for q in range(n_max + 1):
        simplices, diams = levels[q]
        assert len(set(diams)) < len(diams)
        assert red.rows_of(_array(simplices, q)).tolist() == list(range(len(simplices)))
        if q:
            assert red.prefix[q][0] < len(simplices)    # the level was sorted
    assert sorted(red.keys) == list(range(1, n_max + 1))


@pytest.mark.parametrize("p", [2, 3])
def test_a_simplex_absent_or_beyond_the_view_is_not_in_its_complex(p):
    # A leaf over all but the last lattice column: a simplex with a vertex
    # outside the region, one whose vertices are in it but do not span a
    # simplex, one not in ascending order and one that enters only above
    # the view's scale all raise the same ValueError.
    k = 6
    cloud = _lattice(2, k)
    pts = range(cloud.n - k)
    scales = [1.01 / k, 1.5 / k]
    red = build_leaf(pts, cloud, scales, 2, p)
    small, large = red.view(scales[0]), red.view(scales[1])
    levels = leaf_levels(pts, cloud, scales, 3)
    outside = cloud.n - 1
    for q in (1, 2):
        simplices, diams = levels[q]
        late = next(s for s, dm in zip(simplices, diams) if dm > scales[0])
        row = simplices.index(late)
        assert large._column(Chain.single(late, p), q) == {row: 1}
        assert red.rows_of(_array([late], q)).tolist() == [row]
        absent = [late[:-1] + (outside,), tuple(range(q)) + (pts[-1],), late[::-1]]
        for view, s in [(small, late)] + [(v, s) for v in (small, large) for s in absent]:
            with pytest.raises(ValueError, match=rf"^simplex \({s[0]}, .* is not in this complex"):
                view.coords(Chain.single(s, p), q)
        for s in absent:
            with pytest.raises(ValueError, match=rf"^simplex \({s[0]}, .* is not in this complex"):
                red.rows_of(_array([simplices[0], s], q))
    with pytest.raises(ValueError, match=rf"^simplex \({outside},\) is not in this complex"):
        small.labels(np.array([0, outside]))


@pytest.mark.parametrize("p", [2, 3])
def test_a_leaf_queried_at_dimension_0_keys_no_level(p):
    # A level's keys are sorted on the first query at that level; a
    # dimension-0 query searches the level-0 ids and builds no key array.
    cloud = PointCloud(np.random.default_rng(7).random((40, 2)))
    red = build_leaf(range(cloud.n), cloud, [0.15, 0.3], 1, p)
    view, small = red.view(0.3), red.view(0.15)
    assert view.betti(1) > 0 and small.betti(0) > 1 and not red.keys
    for v in (view, small):
        reps = v.representatives(0)
        assert [v.coords(z, 0) for z in reps] == [{b: 1} for b in range(len(reps))]
    assert small.bound(reps[0] - reps[1], 0) is None
    assert not red.keys
    view.coords(view.representatives(1)[0], 1)
    assert sorted(red.keys) == [1]


@pytest.mark.parametrize("p", [2, 3])
def test_views_at_two_scales_share_the_chain_of_a_row(p):
    # A row that is a representative at two scales has one chain, built
    # once for the reduction, not once per view.
    cloud = PointCloud(np.random.default_rng(7).random((40, 2)))
    red = build_leaf(range(cloud.n), cloud, [0.15, 0.2, 0.3], 1, p)
    small, large = red.view(0.15), red.view(0.3)
    shared = 0
    for n in range(2):
        reps_small, reps_large = small.representatives(n), large.representatives(n)
        for b, row in enumerate(small._rows[n]):
            if row in large._rows[n]:
                assert reps_small[b] is reps_large[large._rows[n].index(row)]
                shared += 1
    assert shared > 0


@pytest.mark.parametrize("p", [2, 3])
def test_a_built_leaf_holds_no_complex_and_no_float_array(p):
    cloud = PointCloud(np.random.default_rng(7).random((40, 2)))
    red = build_leaf(range(cloud.n), cloud, [0.15, 0.3], 2, p)
    view = red.view(0.3)
    assert not hasattr(red, "complex") and not hasattr(view, "complex")
    for n in range(3):
        for z in view.representatives(n):
            view.coords(z, n)
    held = _reachable(view)
    assert any(o is red for o in held)
    assert not any(isinstance(o, RipsComplex) for o in held)
    assert not any(isinstance(o, np.ndarray) and o.dtype.kind == "f" for o in held)
