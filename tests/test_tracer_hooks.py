"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracer.py patches module globals and class attributes by name, so
renaming or inlining one of them in src/ would silently drop its spans.  A
small run() on a 2x2 grid under the tracer must record the leaf-query and
f-matrix spans, give the same report as an untraced run, and leave every
original object in place after uninstall().  Its nested nodes chase
dimension-1 cycles, so the leaves are queried: dimension 0 alone reads
component labels, which no span covers.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from mvbetti.cli import emit_report
from mvbetti.core import PointCloud
from mvbetti.engine import run

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    name = "perfbench_tracer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _run():
    rep = run(PointCloud(np.random.default_rng(2).random((200, 2))), 0.2, [0.1, 0.2],
              n_max=1, field=3, workers=1, grid=[2, 2])
    assert rep.grid == [2, 2]
    return rep


def _report():
    return emit_report(_run(), timings=False)


def test_tracer_wraps_live_names_and_keeps_the_report():
    tracer_mod = _load_tracer()
    targets = tracer_mod.TARGETS
    originals = [owner.__dict__.get(attr) for owner, attr, _, _ in targets]
    assert all(o is not None for o in originals), [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr, _, _), o in zip(targets, originals) if o is None]

    untraced = _report()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = _report()
    finally:
        tracer.uninstall()

    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == originals
    names = {s.name for s in tracer.spans}
    assert {"LeafSolver.coords", "build_f", "assemble", "execute_scale"} <= names
    assert traced == untraced


def test_leaf_builds_and_assemblies_are_children_of_execute_scale():
    # The tracer counts engine.leaf_jobs and engine.job_cpu_s only from
    # spans whose parent is an execute_scale span on another thread: every
    # leaf is built on a pool thread under the execute_scale call that
    # builds the region tree, and every assembly runs under execute_scale.
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        rep = _run()
    finally:
        tracer.uninstall()
    by_id = {s.id: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s.name == "build_leaf"]
    assert len(leaves) == rep.diagnostics["leaf_count"] == 9
    for s in leaves:
        parent = by_id[s.parent]
        assert parent.name == "execute_scale" and s.thread != parent.thread
    assembles = [s for s in tracer.spans if s.name == "assemble"]
    assert len(assembles) == 2 * 4      # two scales, four nodes on a 2x2 grid
    assert all(by_id[s.parent].name == "execute_scale" for s in assembles)
