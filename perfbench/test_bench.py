"""Self-test of the benchmark: python3 -m pytest -q perfbench/test_bench.py

Tracing must not change what run() computes, must leave no wrapper behind,
and must attribute pool-thread jobs to their execute_scale span.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import mvbetti  # noqa: E402
from mvbetti.cli import report_to_dict  # noqa: E402

import run as bench  # noqa: E402
from tracer import TARGETS, Span, Tracer, layer_metrics, self_times  # noqa: E402

# Small versions of the three workloads: same shapes, fields and grids.
SMALL = {
    "plane-multiscale": dict(dim=2, n=300, eps=0.12, scales=[0.04, 0.08, 0.12],
                             n_max=1, field=2, grid=[3, 3], workers=1),
    "plane-top-p3": dict(dim=2, n=300, eps=0.12, scales=[0.12], n_max=1,
                         field=3, grid=None, workers=2),
    "cube-assembly": dict(dim=3, n=200, eps=0.3, scales=[0.15, 0.3], n_max=2,
                          field=2, grid=[2, 2, 2], workers=1),
}


def _run(w, cloud):
    return mvbetti.run(cloud, w["eps"], w["scales"], n_max=w["n_max"],
                       field=w["field"], workers=w["workers"], grid=w["grid"])


def _cloud(w, seed=7):
    return mvbetti.PointCloud(np.random.default_rng(seed).random((w["n"], w["dim"])))


def _traced(w):
    tracer = Tracer()
    tracer.install()
    try:
        report = tracer.call("bench.run", _run, w, _cloud(w))
    finally:
        tracer.uninstall()
    return tracer, report


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_report_is_byte_identical(name):
    w = SMALL[name]
    plain = json.dumps(report_to_dict(_run(w, _cloud(w)), timings=False))
    _, report = _traced(w)
    assert json.dumps(report_to_dict(report, timings=False)) == plain


def test_no_wrapper_remains():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
    _traced(SMALL["cube-assembly"])
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
        assert not hasattr(original, "__wrapped__"), attr


def test_wrappers_removed_when_run_raises():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    with pytest.raises(ValueError):
        try:
            tracer.call("bench.run", mvbetti.run, _cloud(SMALL["plane-top-p3"]), 0.1, [0.2])
        finally:
            tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_jobs_link_to_execute_scale():
    w = SMALL["plane-multiscale"]
    tracer, _ = _traced(w)
    by_id = {s.id: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s.name == "build_leaf"]
    assert leaves and all(by_id[s.parent].name == "execute_scale" for s in leaves)
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        if s.name == "execute_scale":
            assert selfs[s.id] < 0.5 * s.dur

    m = layer_metrics(tracer.spans, w["n"], w["workers"])
    leaf_count = 5 * 5  # (2k - 1) leaves per axis for k = 3
    assert m["engine.leaf_jobs"] == m["rips.enumerate_calls"] == leaf_count * len(w["scales"])
    assert m["engine.node_jobs"] > 0


def test_self_time_subtracts_union_of_concurrent_children():
    spans = [Span(1, "execute_scale", None, 1, 0.0, 10.0, 0.0, None),
             Span(2, "build_leaf", 1, 2, 1.0, 4.0, 3.0, None),
             Span(3, "build_leaf", 1, 3, 3.0, 6.0, 3.0, None),
             Span(4, "pairwise", 2, 2, 1.5, 2.0, 0.5, None)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.5)


def test_exception_fails_every_entry():
    w = SMALL["cube-assembly"]
    good = [[1, 0, 0], [1, 2, 0]]
    assert bench.count_failures(w, good, [good, good], None) == 0
    assert bench.count_failures(w, None, [good], None) == 6
    assert bench.count_failures(w, good, [good, None], None) == 6
    assert bench.count_failures(w, good, [], None) == 6
    assert bench.count_failures(w, good, [good, [[1, 0, 0], [2, 2, 0]]], None) == 1
    assert bench.count_failures(w, good, [good], [[1, 0, 0], [1, 2, 1]]) == 1



def test_column_bytes_counted_only_for_the_oracle():
    w = SMALL["plane-multiscale"]
    cloud = _cloud(w)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("bench.run", _run, w, cloud)
        tracer.call("bench.oracle", mvbetti.reduction.persistence_barcode,
                    range(cloud.n), cloud, w["eps"], w["n_max"], w["field"])
    finally:
        tracer.uninstall()
    by_id = {s.id: s for s in tracer.spans}
    reduces = [s for s in tracer.spans if s.name == "reduce_columns"]
    under_oracle = [by_id[s.parent].name == "persistence_barcode" for s in reduces]
    assert any(under_oracle) and not all(under_oracle)
    for s, oracle in zip(reduces, under_oracle):
        assert ("bytes" in s.info) == oracle
    m = layer_metrics(tracer.spans, w["n"], w["workers"])
    assert m["reduction.oracle_column_bytes"] > 0
