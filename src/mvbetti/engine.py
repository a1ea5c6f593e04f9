"""Full workflow: recursive grid decomposition, concurrent leaf builds, assembly.

A box with a full axis splits along its first full axis into cell pieces and
overlap boxes; boxes with no full axis are leaves solved by direct reduction.
Each leaf is enumerated and paired once per run, for every requested scale,
by a bounded thread pool (build_leaf returns the reduction, whose build
ends at its pairing); the builds share only the cloud, the field and the
covering, which are immutable.  The box tree is planned once per run
(plan_jobs), and per scale it is then walked on the calling thread,
children before parents: leaves take their view at that scale, nodes
assemble, and Betti numbers are read off the root solver.  Later scales
start no threads; a node's region, which no scale changes, is built on the
first walk.  A leaf reduction is not immutable: its levels' search keys, R
and V columns and row chains are built one entry at a time, on the first
query that reads them, and queries run only in that walk, so they are built
on the calling thread.  A view's and a node's dimension-0 labels, from
which each node builds f_0 as an incidence matrix of components, are built
the same way, on the first dimension-0 query; a Betti-only run on one leaf
builds none.  A node's connecting lift is built the same way, on the first
read of its class: by the assembly of an enclosing node, so a failed lift
check names that node's box, and never for the root, whose Betti numbers
read only ranks.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import PointCloud, PrimeField, require_int, require_real, require_scales
from .covering import GridCovering, build_covering, choose_k, full_box, split_axis
from .mayer_vietoris import MVNodeSolver, NodeRegion, assemble
from .reduction import (DEFAULT_BUDGET, LeafReduction, betti_at_scale, build_leaf,
                        persistence_barcode)
from .rips import BudgetExceededError


class JobError(RuntimeError):
    """A leaf or assembly job failed; carries the offending box."""

    def __init__(self, box, cause):
        super().__init__(f"job for box {box} failed: {cause}")
        self.box = box


@dataclass
class Job:
    """One box of the recursion: a leaf region or a node over its children."""

    box: tuple
    kind: str                 # "leaf" | "node"
    pieces: tuple = ()
    overlaps: tuple = ()


def _resolve(box, covering):
    """Skip trivial splits: a one-cell axis selects everything, so descend."""
    sp = split_axis(box, covering)
    while sp is not None and len(sp.pieces) == 1:
        box = sp.pieces[0]
        sp = split_axis(box, covering)
    return box, sp


def plan_jobs(covering: GridCovering):
    """(box -> Job map, root box) for the whole recursion.

    Boxes are resolved through trivial one-cell splits, so the recursion tree
    contains no single-piece nodes.  Every box is inserted after its children.
    """
    jobs = {}

    def visit(box):
        box, sp = _resolve(box, covering)
        if box in jobs:
            return box
        if sp is None:
            jobs[box] = Job(box=box, kind="leaf")
            return box
        pieces = tuple(visit(b) for b in sp.pieces)
        overlaps = tuple(visit(b) for b in sp.overlaps)
        jobs[box] = Job(box=box, kind="node", pieces=pieces, overlaps=overlaps)
        return box

    root = visit(full_box(covering.dim))
    return jobs, root


def execute_scale(cloud, covering, plan, scale, n_max, field, budget, workers, scales,
                  regions):
    """(root solver, {"leaf"|"node": summed step seconds}) of one scale.

    `plan` is plan_jobs(covering), the box tree, made once per run.  Leaves
    missing from `regions` (box -> a leaf's reduction or a node's
    NodeRegion, shared by the calls of one run) are built in sorted box
    order by at most min(`workers`, cores) threads (the pool starts one per
    submission while none is idle), each enumerated and paired once for
    every scale in `scales`, and added to it; the first of them to fail in
    that order cancels the rest.  The box tree is then walked on the calling
    thread: every leaf takes its view at `scale` from its reduction, and
    every node is assembled on its region, added on the run's first walk.
    Results are independent of worker count: assembly consumes children in
    a fixed order and all arithmetic is exact.
    """
    jobs, root = plan
    missing = sorted(box for box, j in jobs.items()
                     if j.kind == "leaf" and box not in regions)
    if missing:
        # Point sets first: computed between submissions, they would wait on
        # the interpreter lock behind running builds.
        points = [covering.points_in_box(cloud, box) for box in missing]
        pool = ThreadPoolExecutor(max_workers=max(1, min(workers, os.cpu_count() or 1)))
        try:
            futures = [pool.submit(build_leaf, pts, cloud, scales, n_max, field,
                                   budget) for pts in points]
            for box, fut in zip(missing, futures):
                try:
                    regions[box] = fut.result()
                except Exception as exc:
                    raise JobError(box, exc) from exc
        finally:
            pool.shutdown(cancel_futures=True)

    solvers = {}
    seconds = {"leaf": 0.0, "node": 0.0}
    for box, job in jobs.items():  # children before parents
        start = time.perf_counter()
        try:
            if job.kind == "node":
                pieces = [solvers[b] for b in job.pieces]
                inters = [solvers[b] for b in job.overlaps]
                region = regions.get(box)
                if region is None:
                    region = regions[box] = NodeRegion(pieces, inters, n_max, field)
                solvers[box] = assemble(region, pieces, inters)
            else:
                solvers[box] = regions[box].view(scale)
        except Exception as exc:
            raise JobError(box, exc) from exc
        seconds[job.kind] += time.perf_counter() - start
    return solvers[root], seconds


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ScaleResult:
    scale: float
    betti: list


@dataclass
class BettiReport:
    """Per-scale Betti numbers plus assembly diagnostics for one run."""

    epsilon: float
    field: int
    grid: list
    scales: list                      # list[ScaleResult], ascending scale
    diagnostics: dict
    slack: float = 0.0                # the run's slack; not in the JSON report
    verify: dict = None


def _collect_ranks(root) -> dict:
    """Sum of f-matrix ranks per recursion level per dimension, root = level 0."""
    out = {}

    def visit(node, level):
        if not isinstance(node, MVNodeSolver):
            return
        bucket = out.setdefault(str(level), {})
        for n, r in sorted(node.rank_f.items()):
            key = str(n)
            bucket[key] = bucket.get(key, 0) + r
        for child in node.pieces + node.inters:
            visit(child, level + 1)

    visit(root, 0)
    return out


def run(cloud, eps, scales, n_max=1, field=2, workers=None, grid=None,
        budget=DEFAULT_BUDGET, slack=0.0) -> BettiReport:
    """Betti numbers of the cloud at each requested scale up to eps.

    The covering is built once for eps (+ optional slack) and reused for all
    scales, which stay valid because smaller scales only shrink simplices.
    `grid` overrides the parallelism-derived cell counts: one count for
    every axis or one per axis (see covering.build_covering).

    Before any work each argument is checked by its rule in core, under its
    own name: workers (default: the cpu count) an int >= 1, n_max an int
    >= 0, budget an int >= 1, eps a positive finite real, scales a
    non-empty 1-D sequence of reals in (0, eps] (taken sorted and
    distinct), slack a finite real >= 0, field a prime (PrimeField) and
    each count of grid an int >= 1; a ValueError names the one at fault.
    The report keeps slack, so attach_verification checks it at the run's
    own n_max and slack.
    """
    workers = require_int("workers", (os.cpu_count() or 1) if workers is None else workers, 1)
    n_max = require_int("n_max", n_max, 0)
    budget = require_int("budget", budget, 1)
    eps = require_real("eps", eps, positive=True)
    scales = require_scales("scales", scales, eps)
    slack = require_real("slack", slack)
    field = PrimeField(field)
    if grid is not None:
        for v in grid if np.iterable(grid) else [grid]:
            require_int("grid", v, 1)
    if isinstance(cloud, PointCloud) is False:
        cloud = PointCloud(cloud)
    if cloud.n == 0:
        raise ValueError("cannot cover an empty cloud")

    warnings = []
    eps_eff = eps + slack
    t0 = time.perf_counter()
    k = grid
    if k is None:
        mins, maxs = cloud.axis_ranges()
        extent = float((maxs - mins).max())
        if extent > 0:
            k, capped = choose_k(workers, cloud.dim, extent, eps_eff, origins=mins)
            if capped:
                warnings.append(
                    f"cell count capped at {k} per axis so cells stay wider "
                    f"than the scale; parallelism hint {workers} not fully used"
                )
        else:
            k = 1
    covering = build_covering(cloud, eps_eff, k)
    covering_seconds = time.perf_counter() - t0

    per_scale = []
    diag_ranks = {}
    timings_scales = {}
    regions = {}
    plan = plan_jobs(covering)
    scales_eff = [s + slack for s in scales]
    for s in scales:
        root, seconds = execute_scale(cloud, covering, plan, s + slack, n_max, field,
                                      budget, workers, scales_eff, regions)
        per_scale.append(ScaleResult(scale=s, betti=root.betti_all()))
        diag_ranks[_scale_key(s)] = _collect_ranks(root)
        timings_scales[_scale_key(s)] = {
            "leaves_ms": seconds["leaf"] * 1000.0,
            "assembly_ms": seconds["node"] * 1000.0,
        }
    leaves = [r for r in regions.values() if isinstance(r, LeafReduction)]
    max_complex = max(sum(level[-1] for level in red.prefix) for red in leaves)

    if max_complex > 0.8 * budget:
        warnings.append(
            f"simplex budget nearly exhausted: largest leaf complex {max_complex} "
            f"of budget {budget}"
        )

    diagnostics = {
        "leaf_count": len(leaves),
        "max_leaf_points": max(len(red.ids) for red in leaves),
        "max_complex_size": max_complex,
        "ranks_f": diag_ranks,
        "timings_ms": {
            "covering_ms": covering_seconds * 1000.0,
            "per_scale": timings_scales,
            "total_ms": (time.perf_counter() - t0) * 1000.0,
        },
        "warnings": warnings,
    }
    return BettiReport(
        epsilon=eps,
        field=field.p,
        grid=list(covering.k_per_axis),
        scales=per_scale,
        diagnostics=diagnostics,
        slack=slack,
    )


def _scale_key(s: float) -> str:
    return repr(float(s))


def attach_verification(report: BettiReport, cloud,
                        budget=DEFAULT_BUDGET) -> BettiReport:
    """Compare a report against the direct global barcode; fills report.verify.

    The report is checked at its own run's n_max (one less than the length
    of its Betti lists) and slack, so the two cannot disagree.  The oracle
    shares enumeration and pairing with run(), not the grid or the assembly
    (see reduction.persistence_barcode).  An infeasible oracle (budget
    exceeded) is reported explicitly rather than passing silently; a budget
    that is not an int >= 0 (enumerate_complex's rule) is a ValueError.
    """
    if isinstance(cloud, PointCloud) is False:
        cloud = PointCloud(cloud)
    n_max = len(report.scales[0].betti) - 1
    slack = report.slack
    try:
        bars = persistence_barcode(range(cloud.n), cloud, report.epsilon + slack, n_max,
                                   report.field, budget)
    except BudgetExceededError as exc:
        report.verify = {
            "pass": None,
            "mismatches": [],
            "oracle_infeasible": str(exc),
        }
        return report
    mismatches = []
    for sr in report.scales:
        expected = [betti_at_scale(bars, n, sr.scale + slack)
                    for n in range(n_max + 1)]
        if expected != list(sr.betti):
            mismatches.append({
                "scale": sr.scale,
                "assembled": list(sr.betti),
                "oracle": expected,
            })
    report.verify = {"pass": not mismatches, "mismatches": mismatches}
    return report


def verify(cloud, eps, scales, n_max=1, field=2, workers=None, grid=None,
           budget=DEFAULT_BUDGET, slack=0.0) -> BettiReport:
    """run() plus an oracle comparison at every (scale, dimension), under the
    same budget."""
    report = run(cloud, eps, scales, n_max=n_max, field=field, workers=workers,
                 grid=grid, budget=budget, slack=slack)
    return attach_verification(report, cloud, budget=budget)
