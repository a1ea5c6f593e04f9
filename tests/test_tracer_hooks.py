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


def _report():
    rep = run(PointCloud(np.random.default_rng(2).random((200, 2))), 0.2, [0.1, 0.2],
              n_max=1, field=3, workers=1, grid=[2, 2])
    assert rep.grid == [2, 2]
    return emit_report(rep, timings=False)


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
