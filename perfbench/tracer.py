"""Outside-in span tracer for mvbetti and the per-layer metrics derived from it.

The tracer replaces public names at the place their callers look them up
(module globals and class attributes) with wrappers that record one span per
call: name, start, end, parent span, thread id, thread CPU time and a few
counts computed from the returned object.  Nothing under src/ is changed and
uninstall() puts every original object back.

Jobs run on pool threads, even with one worker, so a per-thread stack alone
would leave them parentless.  While an execute_scale span is open, spans that
start on a thread with an empty stack take it as their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import mvbetti.cli
import mvbetti.core
import mvbetti.covering
import mvbetti.engine
import mvbetti.mayer_vietoris
import mvbetti.reduction
from mvbetti.mayer_vietoris import MVNodeSolver
from mvbetti.reduction import LeafSolver
from mvbetti.rips import DEFAULT_BUDGET


def _column_bytes(red):
    """Computed payload bytes of reduced columns: bit length at p=2, else
    16 bytes (row index and coefficient) per stored entry."""
    if red.field.p == 2:
        return sum((c.bit_length() + 7) // 8 for c in red.r)
    return 16 * sum(len(c) for c in red.r)


def _reduce_info(args, red, open_names):
    """Column bytes only for the oracle, the one place they are reported:
    walking every leaf's columns would charge the tracer's work to the
    leaf's parent span."""
    info = {"cols": red.ncols, "rank": red.rank}
    if "persistence_barcode" in open_names:
        info["bytes"] = _column_bytes(red)
    return info


# (owner, attribute, span name, counts from (args, result, names of the
# spans still open on the calling thread) or None)
TARGETS = (
    (mvbetti.core.PointCloud, "pairwise", "pairwise", None),
    (mvbetti.reduction, "chain_boundary", "chain_boundary", None),
    (mvbetti.mayer_vietoris, "chain_boundary", "chain_boundary", None),
    (mvbetti.engine, "build_covering", "build_covering", None),
    (mvbetti.covering.GridCovering, "points_in_box", "points_in_box",
     lambda a, r, _: {"box": repr(a[2]), "points": len(r)}),
    (mvbetti.reduction, "enumerate_complex", "enumerate_complex",
     lambda a, r, _: {"simplices": r.total()}),
    (mvbetti.reduction, "boundary_matrix", "boundary_matrix", None),
    (mvbetti.reduction, "reduce_columns", "reduce_columns", _reduce_info),
    (mvbetti.reduction, "persistence_barcode", "persistence_barcode", None),
    (mvbetti.engine, "build_leaf", "build_leaf", None),
    (LeafSolver, "representatives", "LeafSolver.representatives", None),
    (LeafSolver, "coords", "LeafSolver.coords", None),
    (LeafSolver, "bound", "LeafSolver.bound", None),
    (mvbetti.mayer_vietoris, "build_f", "build_f", lambda a, r, _: {"cols": r.ncols}),
    (mvbetti.mayer_vietoris, "reduce_columns", "reduce_columns", _reduce_info),
    (MVNodeSolver, "representatives", "MVNodeSolver.representatives", None),
    (MVNodeSolver, "coords", "MVNodeSolver.coords", None),
    (MVNodeSolver, "bound", "MVNodeSolver.bound", None),
    (mvbetti.engine, "assemble", "assemble",
     lambda a, r, _: {"rank": sum(r.rank_f.values())}),
    (mvbetti.engine, "execute_scale", "execute_scale", None),
    (mvbetti.cli, "parse_input", "parse_input", None),
    (mvbetti.cli, "emit_report", "emit_report", None),
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    cpu: float          # thread CPU seconds
    info: dict | None   # counts computed from the returned object

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_parent = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, info, fn, args, kwargs):
        stack = self._stack()   # (span id, name) of the spans open on this thread
        parent = stack[-1][0] if stack else self._job_parent
        sid = next(self._ids)
        stack.append((sid, name))
        links_jobs = name == "execute_scale"
        if links_jobs:
            outer_job_parent, self._job_parent = self._job_parent, sid
        result = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            if links_jobs:
                self._job_parent = outer_job_parent
            extra = None
            if info and result is not None:
                extra = info(args, result, [n for _, n in stack])
            self.spans.append(Span(sid, name, parent, threading.get_ident(),
                                   t0, t1, c1 - c0, extra))

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span opened by the benchmark itself."""
        return self._call(name, None, fn, args, kwargs)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, info in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, info))

    def _wrapper(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, info, fn, args, kwargs)

        return traced

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        saved, self._saved = self._saved, []
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in saved
                if o.__dict__[a] is not orig]
        if left:
            raise RuntimeError(f"wrappers left in place: {left}")

    def write_jsonl(self, path):
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "thread": s.thread, "start": s.start - t0, "end": s.end - t0,
                    "thread_cpu": s.cpu, "info": s.info,
                }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children of execute_scale run concurrently on pool threads, so the
    covered part is the union of the child intervals, not their sum.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.dur - covered
    return out


_OWNERS = ("build_leaf", "assemble", "persistence_barcode")


def _ancestry(spans):
    """Span id -> (benchmark-level root name, nearest owner in _OWNERS or None).

    reduce_columns and enumerate_complex belong to the leaf under build_leaf,
    to the f-matrix under assemble and to the oracle under persistence_barcode.
    """
    by_id = {s.id: s for s in spans}
    out = {}
    for span in spans:
        chain = []
        sid = span.id
        while sid in by_id and sid not in out:
            chain.append(sid)
            sid = by_id[sid].parent
        root = owner = None
        if sid in out:
            root, owner = out[sid]
            if by_id[sid].name in _OWNERS:
                owner = by_id[sid].name
        for cid in reversed(chain):
            s = by_id[cid]
            if s.parent not in by_id:
                root = s.name
            out[cid] = (root, owner)
            if s.name in _OWNERS:
                owner = s.name
    return out


def self_time_breakdown(spans):
    """Self seconds per span name inside the benchmark's "bench.run" span.

    reduce_columns and enumerate_complex are keyed as name@owner.
    """
    selfs = self_times(spans)
    anc = _ancestry(spans)
    out = defaultdict(float)
    for s in spans:
        if anc[s.id][0] == "bench.run" and s.name != "bench.run":
            key = s.name
            if key in ("reduce_columns", "enumerate_complex"):
                key = f"{key}@{anc[s.id][1]}"
            out[key] += selfs[s.id]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans, n_points, workers):
    """The per-layer metrics of one traced run; see perfbench/catalog.json.

    Spans under "bench.run" describe run(), spans under "bench.oracle" the
    direct persistence_barcode() call.
    """
    selfs = self_times(spans)
    anc = _ancestry(spans)
    by_id = {s.id: s for s in spans}
    in_run = [s for s in spans if anc[s.id][0] == "bench.run"]
    in_oracle = [s for s in spans if anc[s.id][0] == "bench.oracle"]

    def pick(group, names, owner=None):
        return [s for s in group if s.name in names
                and (owner is None or anc[s.id][1] == owner)]

    def self_sum(group):
        return sum(selfs[s.id] for s in group)

    run_span = next(s for s in spans if s.name == "bench.run")
    pairwise = pick(in_run, ("pairwise",))
    boundary_cb = pick(in_run, ("chain_boundary",))
    covering = pick(in_run, ("build_covering",))
    pib = pick(in_run, ("points_in_box",))
    leaf_points = {s.info["box"]: s.info["points"] for s in pib if s.info}
    enum = pick(in_run, ("enumerate_complex",), "build_leaf")
    simplices = [s.info["simplices"] for s in enum]
    bmat = pick(in_run, ("boundary_matrix",), "build_leaf")
    leaf_red = pick(in_run, ("reduce_columns",), "build_leaf")
    reduce_cols = sum(s.info["cols"] for s in leaf_red)
    leaves = pick(in_run, ("build_leaf",))
    reps = pick(in_run, ("LeafSolver.representatives",))
    queries = pick(in_run, ("LeafSolver.coords", "LeafSolver.bound"))
    o_enum = pick(in_oracle, ("enumerate_complex",), "persistence_barcode")
    o_red = pick(in_oracle, ("reduce_columns",), "persistence_barcode")
    o_top = pick(in_oracle, ("persistence_barcode",))
    assembles = pick(in_run, ("assemble",))
    build_f = pick(in_run, ("build_f",))
    f_red = pick(in_run, ("reduce_columns",), "assemble")
    chase = pick(in_run, ("MVNodeSolver.coords", "MVNodeSolver.bound"))
    lift_bounds = [s for s in pick(in_run, ("LeafSolver.bound", "MVNodeSolver.bound"))
                   if s.parent in by_id and by_id[s.parent].name == "assemble"]
    execs = pick(in_run, ("execute_scale",))
    exec_ids = {s.id: s.thread for s in execs}
    jobs = [s for s in in_run if s.parent in exec_ids and s.thread != exec_ids[s.parent]]
    job_cpu = sum(s.cpu for s in jobs)
    execute_s = sum(s.dur for s in execs)
    covering_s = sum(s.dur for s in covering)

    def only(name):
        return sum(s.dur for s in spans if s.name == name)

    return {
        "core.pairwise_s": self_sum(pairwise),
        "core.pairwise_calls": len(pairwise),
        "core.chain_boundary_s": self_sum(boundary_cb),
        "core.chain_boundary_calls": len(boundary_cb),
        "covering.build_s": covering_s,
        "covering.points_in_box_s": self_sum(pib),
        "covering.leaf_points": sum(leaf_points.values()) / n_points,
        "rips.enumerate_s": self_sum(enum),
        "rips.enumerate_calls": len(enum),
        "rips.simplices": sum(simplices),
        "rips.simplices_max": max(simplices, default=0),
        "rips.budget_headroom": 1.0 - max(simplices, default=0) / DEFAULT_BUDGET,
        "rips.boundary_s": self_sum(bmat),
        "rips.boundary_calls": len(bmat),
        "reduction.reduce_s": self_sum(leaf_red),
        "reduction.reduce_cols": reduce_cols,
        "reduction.pivot_frac": (sum(s.info["rank"] for s in leaf_red) / reduce_cols
                                 if reduce_cols else 0.0),
        "reduction.echelon_s": self_sum(leaves),
        "reduction.reps_s": self_sum(reps),
        "reduction.reps_calls": len(reps),
        "reduction.query_s": self_sum(queries),
        "reduction.query_calls": len(queries),
        "reduction.oracle_enumerate_s": self_sum(o_enum),
        "reduction.oracle_reduce_s": self_sum(o_red),
        "reduction.oracle_sort_s": self_sum(o_top),
        "reduction.oracle_column_bytes": sum(s.info["bytes"] for s in o_red),
        "mayer_vietoris.assemble_s": sum(s.dur for s in assembles),
        "mayer_vietoris.assemble_self_s": self_sum(assembles),
        "mayer_vietoris.build_f_s": self_sum(build_f),
        "mayer_vietoris.f_reduce_s": self_sum(f_red),
        "mayer_vietoris.f_cols": sum(s.info["cols"] for s in build_f),
        "mayer_vietoris.f_rank": sum(s.info["rank"] for s in assembles),
        "mayer_vietoris.node_reps_calls": len(pick(in_run, ("MVNodeSolver.representatives",))),
        "mayer_vietoris.chase_s": self_sum(chase),
        "mayer_vietoris.chase_calls": len(chase),
        "mayer_vietoris.lift_bound_calls": len(lift_bounds),
        "engine.leaf_jobs": sum(1 for s in jobs if s.name == "build_leaf"),
        "engine.node_jobs": sum(1 for s in jobs if s.name == "assemble"),
        "engine.execute_s": execute_s,
        "engine.job_cpu_s": job_cpu,
        "engine.parallel_eff": job_cpu / (execute_s * workers) if execute_s else 0.0,
        "engine.readout_s": run_span.dur - covering_s - execute_s,
        "cli.parse_s": only("parse_input"),
        "cli.emit_s": only("emit_report"),
    }
