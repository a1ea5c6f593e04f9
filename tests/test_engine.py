import gc
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from mvbetti import engine
from mvbetti.cli import report_to_dict
from mvbetti.core import ConsistencyError, PointCloud
from mvbetti.covering import build_covering, cell, full_box
from mvbetti.engine import (JobError, attach_verification, execute_scale, plan_jobs,
                            run)
from mvbetti.mayer_vietoris import MVNodeSolver, NodeRegion
from mvbetti.reduction import LeafSolver, build_leaf, persistence_barcode
from mvbetti.rips import DEFAULT_BUDGET, BudgetExceededError

from conftest import (HEX_POINTS, betti_at, brute_force_betti, distance_quantile, leaf_count,
                      random_cloud)


class TestBuildSolver:
    def test_single_cell_is_leaf(self):
        pc = PointCloud([[0.0], [0.5], [1.0]])
        cov = build_covering(pc, 0.6, 1)
        s = execute_scale(pc, cov, plan_jobs(cov), 0.6, 1, 2, DEFAULT_BUDGET, 1, [0.6], {})[0]
        assert isinstance(s, LeafSolver)
        assert s.betti_all() == [1, 0]

    def test_collinear_two_cells(self):
        pc = PointCloud([[0.0], [1.0], [2.0]])
        cov = build_covering(pc, 1.0, 2)
        s = execute_scale(pc, cov, plan_jobs(cov), 1.0, 1, 2, DEFAULT_BUDGET, 1, [1.0], {})[0]
        assert isinstance(s, MVNodeSolver)
        assert all(isinstance(c, LeafSolver) for c in s.pieces + s.inters)
        assert s.betti_all() == [1, 0]

    def test_two_axis_recursion_shape(self):
        rng = np.random.default_rng(0)
        pc = PointCloud(rng.random((30, 2)) * 10)
        cov = build_covering(pc, 0.8, 2)
        s = execute_scale(pc, cov, plan_jobs(cov), 0.8, 1, 2, DEFAULT_BUDGET, 1, [0.8], {})[0]
        # Root node over 2 strip nodes and 1 overlap-strip node; every child
        # node sits over leaves.
        assert isinstance(s, MVNodeSolver)
        assert len(s.pieces) == 2 and len(s.inters) == 1
        for child in s.pieces + s.inters:
            assert isinstance(child, MVNodeSolver)
            assert all(isinstance(g, LeafSolver) for g in child.pieces + child.inters)

    def test_job_plan_counts(self):
        rng = np.random.default_rng(1)
        pc = PointCloud(rng.random((30, 2)) * 10)
        cov = build_covering(pc, 0.8, [3, 2])
        jobs, root = plan_jobs(cov)
        leaves = [j for j in jobs.values() if j.kind == "leaf"]
        assert len(leaves) == (2 * 3 - 1) * (2 * 2 - 1) == leaf_count(cov)
        assert root == full_box(2) and jobs[root].kind == "node"

    def test_a_run_builds_each_node_region_once(self, monkeypatch):
        # No point set depends on the scale: over four scales each node
        # box's region (its point set, ids and overlap check) is built once,
        # on the first scale's walk, and assembled at every scale.
        built, assembled = [], {}
        init, join = NodeRegion.__init__, engine.assemble

        def building(self, *args):
            built.append(self)
            init(self, *args)

        def assembling(region, pieces, inters):
            node = join(region, pieces, inters)
            assembled.setdefault(id(region), []).append(node)
            return node

        monkeypatch.setattr(NodeRegion, "__init__", building)
        monkeypatch.setattr(engine, "assemble", assembling)
        cloud = PointCloud(np.random.default_rng(1).random((200, 2)))
        scales = [0.05, 0.1, 0.15, 0.2]
        run(cloud, 0.2, scales, n_max=1, field=2, workers=1, grid=[3, 3])
        jobs, _ = plan_jobs(build_covering(cloud, 0.2, [3, 3]))
        nodes = sum(j.kind == "node" for j in jobs.values())
        assert len(built) == nodes == 6
        assert sorted(assembled) == sorted(map(id, built))
        for region in built:
            solvers = assembled[id(region)]
            assert len(solvers) == len(scales)
            assert all(s.region is region and s.ids is region.ids
                       for s in solvers)

    def test_job_plan_collapses_unit_axes(self):
        rng = np.random.default_rng(2)
        pc = PointCloud(rng.random((20, 2)) * 10)
        cov = build_covering(pc, 0.8, [1, 2])
        jobs, root = plan_jobs(cov)
        assert jobs[root].kind == "node"
        assert len(jobs[root].pieces) == 2
        leaves = [j for j in jobs.values() if j.kind == "leaf"]
        assert len(leaves) == 3 == leaf_count(cov)


class TestFailures:
    """A failed job surfaces as JobError naming its box, whatever the worker count."""

    @staticmethod
    def _grid_cloud():
        # 20x20 unit grid, 3 cells per axis: 25 leaves, every one with its own
        # nonempty point set, so a patched build_leaf can tell them apart.
        pc = PointCloud(np.array([[x, y] for x in range(20) for y in range(20)],
                                 dtype=float))
        cov = build_covering(pc, 1.0, 3)
        jobs, _ = plan_jobs(cov)
        boxes = sorted(b for b, j in jobs.items() if j.kind == "leaf")
        keys = [tuple(cov.points_in_box(pc, b)) for b in boxes]
        assert len(boxes) == leaf_count(cov) == 25
        assert len(set(keys)) == len(keys) and all(keys)
        return pc, cov, boxes, keys

    @staticmethod
    def _failing_build(monkeypatch, delays):
        """Patch build_leaf to raise, after the given delay in seconds, for
        the point sets keyed in `delays`; returns the list of point sets it
        was entered with."""
        real = engine.build_leaf
        entered = []

        def flaky(points, *args, **kwargs):
            key = tuple(points)
            entered.append(key)
            if key in delays:
                time.sleep(delays[key])
                raise RuntimeError(f"injected failure for {len(key)} points")
            time.sleep(0.01)  # gives the caller time to cancel queued builds
            return real(points, *args, **kwargs)

        monkeypatch.setattr(engine, "build_leaf", flaky)
        return entered

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_first_failing_leaf_in_sorted_order_is_reported(self, monkeypatch, workers):
        # The earlier box fails last in time whenever builds overlap.
        pc, cov, boxes, keys = self._grid_cloud()
        self._failing_build(monkeypatch, {keys[6]: 0.2, keys[17]: 0.0})
        for _ in range(3):
            with pytest.raises(JobError) as ei:
                execute_scale(pc, cov, plan_jobs(cov), 1.0, 1, 2, DEFAULT_BUDGET, workers,
                              [1.0], {})
            assert ei.value.box == boxes[6]
            assert isinstance(ei.value.__cause__, RuntimeError)

    def test_failed_leaf_cancels_queued_builds(self, monkeypatch):
        pc, cov, boxes, keys = self._grid_cloud()
        entered = self._failing_build(monkeypatch, {keys[0]: 0.0})
        leaves = {}
        with pytest.raises(JobError) as ei:
            execute_scale(pc, cov, plan_jobs(cov), 1.0, 1, 2, DEFAULT_BUDGET, 1, [1.0], leaves)
        assert ei.value.box == boxes[0]
        assert entered[0] == keys[0]
        assert len(entered) < leaf_count(cov)
        assert not leaves

    def test_assembly_failure_names_the_first_node_box(self, monkeypatch):
        def broken_assemble(*args, **kwargs):
            raise ConsistencyError("injected assembly failure")

        monkeypatch.setattr(engine, "assemble", broken_assemble)
        pc = PointCloud(HEX_POINTS)
        cov = build_covering(pc, 1.0, 2)
        jobs, _ = plan_jobs(cov)
        first_node = next(b for b, j in jobs.items() if j.kind == "node")
        for workers in (1, 2):
            with pytest.raises(JobError) as ei:
                execute_scale(pc, cov, plan_jobs(cov), 1.0, 1, 2, DEFAULT_BUDGET, workers,
                              [1.0], {})
            assert ei.value.box == first_node
            assert isinstance(ei.value.__cause__, ConsistencyError)


class TestRun:
    def test_hexagon_regression(self):
        rep = run(PointCloud(HEX_POINTS), 1.0, [0.5, 1.0], n_max=1, field=2,
                  workers=4, grid=[2, 2])
        assert betti_at(rep, 0.5) == [6, 0]
        assert betti_at(rep, 1.0) == [1, 1]
        assert rep.grid == [2, 2]
        assert rep.diagnostics["leaf_count"] == 9

    def test_a_run_imports_no_numpy_ma(self):
        # The first call of np.unique, np.union1d or np.intersect1d without
        # assume_unique imports numpy.ma, 9-12 ms and 1.8 MB that every run
        # would pay.  In a fresh interpreter, run() on a nested multi-scale
        # grid at p = 2 and p = 3 and the oracle must not import it.
        code = """if True:
            import sys
            import numpy as np
            from mvbetti.core import PointCloud
            from mvbetti.engine import run
            from mvbetti.reduction import persistence_barcode
            cloud = PointCloud(np.random.default_rng(0).random((300, 2)))
            for p in (2, 3):
                rep = run(cloud, 0.15, [0.05, 0.1, 0.15], n_max=1, field=p, workers=1,
                          grid=[3, 3])
                assert rep.diagnostics["leaf_count"] == 25
            persistence_barcode(range(cloud.n), cloud, 0.15, 1, 2)
            sys.exit("numpy.ma" in sys.modules)
        """
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr or "numpy.ma was imported"

    def test_single_cell_equals_direct(self):
        rng = np.random.default_rng(2)
        pc = random_cloud(rng, 25, 2)
        eps = distance_quantile(pc, 0.3)
        rep = run(pc, eps, [eps / 2, eps], n_max=1, field=2, workers=2, grid=[1, 1])
        direct = build_leaf(range(25), pc, [eps], 1, 2).view(eps)
        assert betti_at(rep, eps) == direct.betti_all()

    def test_leaf_pool_is_capped_at_the_core_count(self, monkeypatch):
        # The pool would start one thread per leaf while none is idle, so
        # its size must not follow a large worker count.  The stand-in
        # records the size asked for and starts one thread whatever it is.
        from mvbetti.cli import emit_report
        sizes = []
        real = engine.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers=1)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", recording)
        pc = PointCloud(HEX_POINTS)
        texts = [emit_report(run(pc, 1.0, [0.5, 1.0], n_max=1, field=2, workers=w,
                                 grid=[2, 2]), timings=False)
                 for w in (10**6, 1)]
        assert sizes == [min(10**6, os.cpu_count() or 1), 1]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("p", [2, 3])
    def test_worker_count_invariance(self, p):
        # 20x20 unit grid: at scale 1.0 only axis-aligned edges exist.
        from mvbetti.cli import emit_report
        xs = np.arange(20.0)
        pts = np.array([[x, y] for x in xs for y in xs])
        pc = PointCloud(pts)
        texts = []
        for workers in (1, 2, 8):
            rep = run(pc, 1.0, [0.5, 1.0], n_max=1, field=p, workers=workers,
                      grid=[3, 3])
            texts.append(emit_report(rep, timings=False))
        assert texts[0] == texts[1] == texts[2]
        assert report_to_dict(rep)["scales"][1]["betti"] == [1, 19 * 19]

    def test_scales_validated(self):
        pc = PointCloud(HEX_POINTS)
        with pytest.raises(ValueError):
            run(pc, 1.0, [])
        with pytest.raises(ValueError):
            run(pc, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            run(pc, 1.0, [1.5])

    @pytest.mark.parametrize("eps,scales,slack", [
        (float("inf"), [0.5], 0.0),
        (float("nan"), [0.5], 0.0),
        (1.0, [float("nan")], 0.0),
        (1.0, [0.5, float("nan")], 0.0),
        (1.0, [0.5], float("nan")),
        (1.0, [0.5], float("inf")),
        # Bools, strings and complex numbers are not real numbers, and a
        # lone scale is not a sequence: True ran at scale 1.0, "0.5" at 0.5.
        (True, [True], 0.0),
        (1.0, [True], 0.0),
        (1.0, ["0.5"], 0.0),
        (1.0, "0.5", 0.0),
        (1.0, 0.5, 0.0),
        (1.0, {0.5}, 0.0),
        (1.0, np.array(0.5), 0.0),
        (1.0, [0.5 + 0j], 0.0),
        ("1", [0.5], 0.0),
        (1.0, [0.5], True),
        (1.0, [0.5], "0"),
        (1.0, [0.5], 1j),
    ])
    def test_non_finite_numbers_rejected(self, monkeypatch, eps, scales, slack):
        monkeypatch.setattr(engine, "build_covering", None)
        with pytest.raises(ValueError, match="^(eps|scales|slack) must"):
            run(PointCloud(HEX_POINTS), eps, scales, workers=1, slack=slack)

    def test_numpy_reals_accepted(self):
        pc = PointCloud(HEX_POINTS)
        ref = report_to_dict(run(pc, 1.0, [0.5, 1.0], workers=1), timings=False)
        for eps, scales, slack in [(np.float64(1.0), [np.float32(0.5), np.int64(1)], 0.0),
                                   (1.0, np.array([0.5, 1.0]), np.int64(0))]:
            rep = run(pc, eps, scales, workers=1, slack=slack)
            assert report_to_dict(rep, timings=False)["scales"] == ref["scales"]
            assert attach_verification(rep, pc).verify["pass"] is True

    @pytest.mark.parametrize("grid", [None, [2, 2]])
    @pytest.mark.parametrize("name,value", [
        ("workers", 0), ("workers", -1), ("workers", 2.5), ("workers", True),
        ("n_max", -1), ("n_max", 1.5), ("budget", 0), ("budget", -3), ("budget", 1e6),
        ("field", 2.0), ("field", 3.7), ("field", "5"), ("field", True),
    ])
    def test_integer_arguments_validated_before_any_work(self, monkeypatch, grid, name, value):
        # Each is refused by name before the covering is built: a negative
        # n_max gave empty Betti lists, workers=0 ran on a grid, a negative
        # budget, a float n_max or a float field failed only inside a leaf
        # job, and field 3.7 ran over Z/3.
        monkeypatch.setattr(engine, "build_covering", None)
        with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
            run(PointCloud(HEX_POINTS), 1.0, [0.5], grid=grid, **{name: value})

    @pytest.mark.parametrize("grid", [[0, 2], [2, 0], 0, [2, 2.5], [True, 2], np.array([0, 2])])
    def test_grid_counts_validated_before_any_work(self, monkeypatch, grid):
        # [0, 2] failed inside the covering with a message naming no argument.
        monkeypatch.setattr(engine, "build_covering", None)
        with pytest.raises(ValueError, match="^grid must be an int >= 1, not "):
            run(PointCloud(HEX_POINTS), 1.0, [0.5], grid=grid)

    def test_no_leaf_or_node_outlives_run(self, monkeypatch):
        # Without the cycle collector, a reference cycle through a leaf
        # reduction or a node solver would keep it alive after run()
        # returns.  The 3x3x3 nested grid reads connecting lifts.
        refs, lifts = [], []
        build, join, lift = engine.build_leaf, engine.assemble, MVNodeSolver._connecting_lift

        def building(*args):
            red = build(*args)
            refs.append(weakref.ref(red))
            return red

        def assembling(*args):
            node = join(*args)
            refs.append(weakref.ref(node))
            return node

        monkeypatch.setattr(engine, "build_leaf", building)
        monkeypatch.setattr(engine, "assemble", assembling)
        monkeypatch.setattr(MVNodeSolver, "_connecting_lift",
                            lambda self, u, n: lifts.append(n) or lift(self, u, n))
        cloud = PointCloud(np.random.default_rng(0).random((300, 3)))
        gc.collect()
        gc.disable()
        try:
            run(cloud, 0.2, [0.1, 0.2], n_max=2, field=3, workers=2, grid=[3, 3, 3])
            alive = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert len(refs) > 27 and lifts
        assert alive == 0

    @pytest.mark.parametrize("grid", [None, [2, 2]])
    def test_empty_cloud_rejected(self, grid):
        with pytest.raises(ValueError, match="cannot cover an empty cloud"):
            run(PointCloud(np.zeros((0, 2))), 1.0, [0.5], grid=grid)

    def test_duplicate_scales_assembled_once(self):
        pc = PointCloud(HEX_POINTS)
        rep = run(pc, 0.3, [0.2, 0.2, 0.3], n_max=1, field=2, workers=1)
        once = run(pc, 0.3, [0.2, 0.3], n_max=1, field=2, workers=1)
        assert [sr.scale for sr in rep.scales] == [0.2, 0.3]
        assert report_to_dict(rep, timings=False) == report_to_dict(once, timings=False)
        assert len(rep.diagnostics["timings_ms"]["per_scale"]) == 2

    def test_eps_cap_warning(self):
        pc = PointCloud([[0.0], [0.4], [0.8], [1.2], [1.6], [2.0]])
        rep = run(pc, 0.9, [0.9], n_max=1, field=2, workers=64)
        assert rep.grid == [2]
        assert any("capped" in w for w in rep.diagnostics["warnings"])

    def test_budget_error_carries_box(self):
        pc = PointCloud(HEX_POINTS)
        with pytest.raises(JobError) as ei:
            run(pc, 1.0, [1.0], n_max=1, field=2, workers=2, grid=[2, 2], budget=3)
        assert isinstance(ei.value.__cause__, BudgetExceededError)
        assert hasattr(ei.value, "box")

    def test_slack_widens_comparisons(self):
        pc = PointCloud([[0.0], [1.05]])
        strict = run(pc, 1.0, [1.0], n_max=0, field=2, workers=1)
        assert betti_at(strict, 1.0) == [2]
        slackened = run(pc, 1.0, [1.0], n_max=0, field=2, workers=1, slack=0.1)
        assert betti_at(slackened, 1.0) == [1]

    def test_ranks_f_diagnostics_present(self):
        pc = PointCloud(HEX_POINTS)
        rep = run(pc, 1.0, [1.0], n_max=1, field=2, workers=2, grid=[2, 2])
        ranks = rep.diagnostics["ranks_f"][repr(1.0)]
        assert "0" in ranks  # root level
        assert set(ranks["0"]) == {"0", "1"}


class TestVerify:
    def test_trivial_single_cell_pass(self):
        rng = np.random.default_rng(3)
        pc = random_cloud(rng, 20, 2)
        eps = distance_quantile(pc, 0.3)
        rep = engine.verify(pc, eps, [eps], n_max=1, field=2, workers=1, grid=[1, 1])
        assert rep.verify["pass"] is True
        assert rep.verify["mismatches"] == []
        # On one cell run() and the oracle share their pairing; the dense
        # ranks share nothing with either.
        assert betti_at(rep, eps) == brute_force_betti(range(20), pc, eps, 1, 2)

    def test_acceptance_style_instance(self):
        rng = np.random.default_rng(4)
        pc = random_cloud(rng, 60, 2)
        rep = engine.verify(pc, 0.35, [0.175, 0.35], n_max=1, field=2, workers=9)
        assert rep.grid == [2, 2]
        assert rep.verify["pass"] is True

    def test_corrupted_assembly_detected(self, monkeypatch):
        # Negative control: misreport one Betti number and verify must FAIL
        # with the offending scale identified.
        pc = PointCloud(HEX_POINTS)
        real = MVNodeSolver.betti_all

        def corrupt(self):
            v = real(self)
            return [v[0] + 1] + v[1:]

        monkeypatch.setattr(MVNodeSolver, "betti_all", corrupt)
        rep = run(pc, 1.0, [0.5, 1.0], n_max=1, field=2, workers=1, grid=[2, 2])
        attach_verification(rep, pc)
        assert rep.verify["pass"] is False
        assert [m["scale"] for m in rep.verify["mismatches"]] == [0.5, 1.0]
        m = rep.verify["mismatches"][0]
        assert m["assembled"][0] == m["oracle"][0] + 1

    def test_infeasible_oracle_reported(self):
        rng = np.random.default_rng(5)
        pc = random_cloud(rng, 25, 2)
        eps = distance_quantile(pc, 0.4)
        rep = run(pc, eps, [eps], n_max=1, field=2, workers=1, grid=[1, 1], budget=10**6)
        # Tiny budget only for the oracle comparison pass.
        attach_verification(rep, pc, budget=10)
        assert rep.verify["pass"] is None
        assert "oracle_infeasible" in rep.verify

    def test_verified_at_the_runs_own_n_max_and_slack(self):
        # No n_max or slack is passed: the oracle reads them off the report.
        pc = PointCloud(np.random.default_rng(0).random((60, 2)))
        rep = run(pc, 0.2, [0.1, 0.2], n_max=2, workers=1, grid=[2, 2], slack=0.05)
        assert attach_verification(rep, pc).verify == {"pass": True, "mismatches": []}
        # Two points 1.05 apart join only under the slack.
        pc = PointCloud([[0.0], [1.05]])
        rep = run(pc, 1.0, [1.0], n_max=0, workers=1, slack=0.1)
        assert betti_at(rep, 1.0) == [1]
        assert attach_verification(rep, pc).verify["pass"] is True


class TestArgumentRules:
    # Unchecked, each row gives a wrong answer or an error that does not
    # name the argument: n_max -1 gives Betti [] and no bars, n_max 1.5 a
    # bare TypeError, scales [] an IndexError, scales [-1.0] Betti [0, 0],
    # an eps_max of nan or -1 every point as a bar, and budget True a
    # "simplex budget True exceeded" verdict.
    @pytest.mark.parametrize("call,name,value", [
        ("build_leaf", "n_max", -1), ("build_leaf", "n_max", 1.5),
        ("build_leaf", "scales", []), ("build_leaf", "scales", [-1.0]),
        ("persistence_barcode", "eps_max", float("nan")),
        ("persistence_barcode", "eps_max", -1.0),
        ("persistence_barcode", "n_max", -1), ("persistence_barcode", "n_max", 1.5),
        ("attach_verification", "budget", True),
    ])
    def test_library_entry_points_refuse_bad_arguments(self, call, name, value):
        cloud = PointCloud(np.random.default_rng(0).random((30, 2)))
        calls = {
            "build_leaf": lambda a: build_leaf(range(30), cloud, a.get("scales", [0.2]),
                                               a.get("n_max", 1), 2),
            "persistence_barcode": lambda a: persistence_barcode(
                range(30), cloud, a.get("eps_max", 0.2), a.get("n_max", 1), 2),
            "attach_verification": lambda a: attach_verification(
                run(cloud, 0.2, [0.1, 0.2], workers=1, grid=[2, 2]), cloud, **a),
        }
        with pytest.raises(ValueError, match=f"^{name} must "):
            calls[call]({name: value})


class TestOracleSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_clouds_match_oracle(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(4):
            n = int(rng.integers(20, 45))
            pc = random_cloud(rng, n, d)
            eps = distance_quantile(pc, 0.3)
            scales = [eps * (i / 6) for i in range(1, 7)]
            n_max = 2 if d >= 2 else 1
            # The hint gives d <= 2 at least two cells per axis; a 3-D cloud
            # this small would stay one cell, so it gets two per axis.
            grid = [2] * 3 if d == 3 else None
            rep = engine.verify(pc, eps, scales, n_max=n_max, field=2, workers=9,
                                grid=grid)
            assert min(rep.grid) >= 2, rep.grid
            assert rep.verify["pass"] is True, rep.verify["mismatches"]


class TestSpeedupInfo:
    def test_parallel_wall_time_logged(self):
        # Informational only: with pure-Python reduction under the GIL,
        # thread-level speedup is machine- and workload-dependent.
        rng = np.random.default_rng(6)
        side = 71  # 5041 points, spacing 1
        pts = np.array([[x, y] for x in range(side) for y in range(side)], dtype=float)
        pts += rng.random(pts.shape) * 0.01
        pc = PointCloud(pts)
        import time
        times = {}
        for workers in (1, 4):
            t0 = time.perf_counter()
            rep = run(pc, 1.1, [1.1], n_max=1, field=2, workers=workers, grid=[3, 3])
            times[workers] = time.perf_counter() - t0
        print(f"\n[info] 5041-point grid wall time: 1 worker {times[1]:.2f}s, "
              f"4 workers {times[4]:.2f}s (soft target: 4 workers faster)")
        assert betti_at(rep, 1.1)[0] == 1
