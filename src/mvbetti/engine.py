"""Full workflow: recursive grid decomposition, concurrent leaf jobs, assembly.

A box with a full axis splits along its first full axis into cell pieces and
overlap boxes; boxes with no full axis are leaves solved by direct reduction.
The box tree is executed as a job DAG by a bounded thread pool (all shared
state is immutable; the only synchronization point is job completion), one
pass per scale, and Betti numbers are read off each pass's root solver.  The
first pass enumerates and reduces every leaf once for all scales; later
passes take per-scale views of those reductions.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dc_field

from .core import PointCloud, PrimeField
from .covering import GridCovering, build_covering, choose_k, full_box, split_axis
from .mayer_vietoris import MVNodeSolver, assemble
from .reduction import (DEFAULT_BUDGET, betti_at_scale, build_leaf,
                        persistence_barcode)
from .rips import BudgetExceededError


class JobError(RuntimeError):
    """A leaf or assembly job failed; carries the offending box."""

    def __init__(self, box, cause):
        super().__init__(f"job for box {box} failed: {cause}")
        self.box = box


@dataclass
class Job:
    """One unit of work in the per-scale DAG (a forest mirroring the boxes)."""

    box: tuple
    kind: str                 # "leaf" | "node"
    deps: tuple               # child boxes; empty for leaves
    axis: int = -1            # split axis for nodes
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
    contains no single-piece nodes.
    """
    jobs = {}

    def visit(box):
        box, sp = _resolve(box, covering)
        if box in jobs:
            return box
        if sp is None:
            jobs[box] = Job(box=box, kind="leaf", deps=())
            return box
        pieces = tuple(visit(b) for b in sp.pieces)
        overlaps = tuple(visit(b) for b in sp.overlaps)
        jobs[box] = Job(box=box, kind="node", deps=pieces + overlaps,
                        axis=sp.axis, pieces=pieces, overlaps=overlaps)
        return box

    root = visit(full_box(covering.dim))
    return jobs, root


def _run_job(job: Job, inputs, cloud, covering, scale, scales, n_max, field, budget):
    """(solver, seconds) for one job.  inputs is (pieces, overlaps) for a node;
    for a leaf, its reduction from an earlier scale of the run, or None to
    build it, in which case the one-off build is left out of the seconds."""
    start = time.perf_counter()
    if job.kind == "node":
        pieces, overlaps = inputs
        solver = assemble(pieces, overlaps, n_max, field, scale)
        return solver, time.perf_counter() - start
    if inputs is not None:
        return inputs.view(scale), time.perf_counter() - start
    pts = covering.points_in_box(cloud, job.box)
    solver = build_leaf(pts, cloud, scale, n_max, field, budget, scales=scales)
    return solver, time.perf_counter() - start - solver.reduction.seconds


def execute_scale(cloud, covering, scale, n_max, field, budget, workers, scales, leaves):
    """Run one scale's DAG with at most `workers` concurrent jobs.

    A leaf missing from `leaves` (box -> reduction, shared by the calls of
    one run) is enumerated and reduced once for every scale in `scales` and
    added to it; a leaf found there only takes its view at `scale`.
    Returns (root solver, per-box solver map, stats dict).  Results are
    independent of worker count: assembly consumes children in a fixed order
    and all arithmetic is exact.
    """
    jobs, root = plan_jobs(covering)
    for box, j in jobs.items():
        if j.kind == "leaf" and box not in leaves:
            covering.points_in_box(cloud, box)  # warm the cache on this thread
    blocked = {box: set(j.deps) for box, j in jobs.items()}
    dependents = {}
    for box, j in jobs.items():
        for d in j.deps:
            dependents.setdefault(d, []).append(box)
    results = {}
    stats = {"leaf_seconds": 0.0, "assembly_seconds": 0.0,
             "leaf_count": 0, "max_leaf_points": 0, "max_complex_size": 0}

    ready = sorted(box for box, deps in blocked.items() if not deps)

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        in_flight = {}
        while ready or in_flight:
            while ready:
                box = ready.pop(0)
                job = jobs[box]
                if job.kind == "node":
                    inputs = ([results[b] for b in job.pieces],
                              [results[b] for b in job.overlaps])
                else:
                    inputs = leaves.get(box)
                fut = pool.submit(_run_job, job, inputs, cloud, covering,
                                  scale, scales, n_max, field, budget)
                in_flight[fut] = box
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for fut in sorted(done, key=lambda f: in_flight[f]):
                box = in_flight.pop(fut)
                try:
                    solver, elapsed = fut.result()
                except Exception as exc:
                    for other in in_flight:
                        other.cancel()
                    raise JobError(box, exc) from exc
                results[box] = solver
                job = jobs[box]
                if job.kind == "leaf":
                    leaves[box] = solver.reduction
                    stats["leaf_seconds"] += elapsed
                    stats["leaf_count"] += 1
                    stats["max_leaf_points"] = max(stats["max_leaf_points"],
                                                   len(solver.points))
                    stats["max_complex_size"] = max(stats["max_complex_size"],
                                                    solver.complex.total())
                else:
                    stats["assembly_seconds"] += elapsed
                for parent in dependents.get(box, ()):
                    blocked[parent].discard(box)
                    if not blocked[parent]:
                        ready.append(parent)
                ready.sort()
    return results[root], results, stats


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
    verify: dict = None
    root_solvers: dict = dc_field(default=None, repr=False, compare=False)

    def betti_at(self, scale: float):
        for sr in self.scales:
            if sr.scale == scale:
                return sr.betti
        raise KeyError(f"scale {scale} not in report")


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
        budget=DEFAULT_BUDGET, slack=0.0, keep_solvers=False) -> BettiReport:
    """Betti numbers of the cloud at each requested scale up to eps.

    The covering is built once for eps (+ optional slack) and reused for all
    scales, which stay valid because smaller scales only shrink simplices.
    `grid` overrides the parallelism-derived cell counts per axis.
    """
    if isinstance(field, int):
        field = PrimeField(field)
    if isinstance(cloud, PointCloud) is False:
        cloud = PointCloud(cloud)
    if eps <= 0:
        raise ValueError("eps must be positive")
    scales = sorted(float(s) for s in scales)
    if not scales:
        raise ValueError("at least one scale is required")
    if scales[0] <= 0 or scales[-1] > eps:
        raise ValueError(f"scales must lie in (0, {eps}]")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    if workers is None:
        workers = os.cpu_count() or 1

    warnings = []
    eps_eff = eps + slack
    t0 = time.perf_counter()
    if grid is not None:
        ks = list(grid) if not isinstance(grid, int) else [grid] * cloud.dim
    else:
        mins, maxs = cloud.axis_ranges()
        extent = float((maxs - mins).max())
        if extent > 0:
            k, capped = choose_k(workers, cloud.dim, extent, eps_eff)
            if capped:
                warnings.append(
                    f"cell count capped at {k} per axis so cells stay wider "
                    f"than the scale; parallelism hint {workers} not fully used"
                )
        else:
            k = 1
        ks = [k] * cloud.dim
    covering = build_covering(cloud, eps_eff, ks)
    covering_seconds = time.perf_counter() - t0

    per_scale = []
    roots = {}
    diag_ranks = {}
    timings_scales = {}
    leaf_count = 0
    max_leaf_points = 0
    max_complex = 0
    leaves = {}
    scales_eff = [s + slack for s in scales]
    for s in scales:
        root, _, stats = execute_scale(cloud, covering, s + slack, n_max, field,
                                       budget, workers, scales_eff, leaves)
        per_scale.append(ScaleResult(scale=s, betti=root.betti_all()))
        if keep_solvers:
            roots[s] = root
        diag_ranks[_scale_key(s)] = _collect_ranks(root)
        timings_scales[_scale_key(s)] = {
            "leaves_ms": stats["leaf_seconds"] * 1000.0,
            "assembly_ms": stats["assembly_seconds"] * 1000.0,
        }
        leaf_count = stats["leaf_count"]
        max_leaf_points = max(max_leaf_points, stats["max_leaf_points"])
        max_complex = max(max_complex, stats["max_complex_size"])

    if budget and max_complex > 0.8 * budget:
        warnings.append(
            f"simplex budget nearly exhausted: largest leaf complex {max_complex} "
            f"of budget {budget}"
        )

    diagnostics = {
        "leaf_count": leaf_count,
        "max_leaf_points": max_leaf_points,
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
        verify=None,
        root_solvers=roots if keep_solvers else None,
    )


def _scale_key(s: float) -> str:
    return repr(float(s))


def attach_verification(report: BettiReport, cloud, n_max, budget=DEFAULT_BUDGET,
                        slack=0.0) -> BettiReport:
    """Compare a report against the direct global barcode; fills report.verify.

    An infeasible oracle (budget exceeded) is reported explicitly rather than
    passing silently.
    """
    if isinstance(cloud, PointCloud) is False:
        cloud = PointCloud(cloud)
    field = PrimeField(report.field)
    try:
        pts = range(cloud.n)
        bars = persistence_barcode(pts, cloud, report.epsilon + slack, n_max,
                                   field, budget)
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
    """run() plus an oracle comparison at every (scale, dimension)."""
    report = run(cloud, eps, scales, n_max=n_max, field=field, workers=workers,
                 grid=grid, budget=budget, slack=slack)
    return attach_verification(report, cloud, n_max, budget=budget, slack=slack)
