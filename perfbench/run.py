"""Benchmark of mvbetti.run() against the direct persistence oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from src/ next to this
directory.  The cloud is drawn from numpy.random.default_rng(seed), written
to .bench_work/ as CSV and loaded only through mvbetti.cli.parse_input.

--trace 0 measures the end-to-end metrics in fresh interpreters, taking
turns: one that calls run() (run_s, run_cpu_s, run_rss_mb), preceded by three
that only import mvbetti and load the cloud (setup_s), then one that calls
persistence_barcode() (oracle_s, oracle_rss_mb).  Turns continue while the
next one still fits in S seconds (at least one of each runs); every metric is
the median over its samples.

--trace 1 makes, in this process, a discarded warm-up run(), then untraced
and traced run() calls in turn (three traced, each between two untraced), then
a traced oracle, and prints the per-layer metrics of perfbench/tracer.py from
the first traced run; --seconds is unused.  The spans are written to .bench_work/trace-NAME-seedN.jsonl.

Every (scale, dimension) Betti number of every run() is compared with every
oracle of the same benchmark run and, at seed 0, with the frozen values in
perfbench/catalog.json.  A run or oracle that raises fails entries.  The last
line of stdout is one JSON object: correct, attempted and failed count Betti
entries, and metrics maps each metric that BENCHMARK.json lists to its value
and the unit given there.
"""

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"
SETUPS_PER_TURN = 3
TIME_LIMIT_S = 170.0   # whole benchmark run; children are killed past it
OVERHEAD_TRIALS = 3    # traced runs of --trace 1, each between two untraced ones


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_cloud(w, seed, path):
    """Uniform cloud in the unit cube from the seed: a header, then one point per line."""
    import numpy as np
    pts = np.random.default_rng(seed).random((w["n"], w["dim"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x" + "".join(f",x{i}" for i in range(1, w["dim"])) + "\n")
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def run_params(w):
    return {k: w[k] for k in ("eps", "scales", "n_max", "field", "grid", "workers")}


def count_failures(w, betti, oracles, frozen):
    """Betti entries of one run() that disagree with an oracle or frozen values.

    A run or oracle that raised (None) fails every entry.
    """
    entries = [(i, d) for i in range(len(w["scales"])) for d in range(w["n_max"] + 1)]
    if betti is None or not oracles or any(o is None for o in oracles):
        return len(entries)
    return sum(1 for i, d in entries
               if any(o[i][d] != betti[i][d] for o in oracles)
               or (frozen is not None and betti[i][d] != frozen[i][d]))


class Children:
    """Fresh-interpreter measurements, all inside one overall deadline."""

    def __init__(self, csv, params, deadline):
        self.csv = str(csv)
        self.params = json.dumps(params)
        self.deadline = deadline

    def _run(self, *args):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return None, 0.0
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), *args],
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"child {args[0]} timed out", file=sys.stderr)
            return None, 0.0
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"child {args[0]} failed ({proc.returncode}):\n{proc.stderr}",
                  file=sys.stderr)
            return None, wall
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def setup(self):
        out, wall = self._run("setup", self.csv)
        return wall if out is not None else None

    def measure(self, mode):
        out, _ = self._run(mode, self.csv, self.params)
        return out


def untraced(w, csv, seconds, frozen, deadline):
    kids = Children(csv, run_params(w), deadline)
    kids.setup()  # first import may compile bytecode; users pay that once
    setups = []
    results = {"run": [], "oracle": []}   # child outputs; None where it raised
    took = {"run": 0.0, "oracle": 0.0}
    start = time.perf_counter()
    for kind in itertools.cycle(("run", "oracle")):
        now = time.perf_counter()
        if now >= deadline or (results["oracle"] and now - start + took[kind] > seconds):
            break  # another child would overrun --seconds
        if kind == "run":
            setups += [s for s in (kids.setup() for _ in range(SETUPS_PER_TURN)) if s]
        results[kind].append(kids.measure(kind))
        took[kind] = time.perf_counter() - now

    oracle_betti = [o and o["betti"] for o in results["oracle"]]
    attempted = len(results["run"]) * len(w["scales"]) * (w["n_max"] + 1)
    failed = sum(count_failures(w, r and r["betti"], oracle_betti, frozen)
                 for r in results["run"])
    runs = [r for r in results["run"] if r]
    oracles = [o for o in results["oracle"] if o]
    if not (setups and runs and oracles):
        return attempted, failed, None
    med = statistics.median
    metrics = {
        "run_s": med(r["wall_s"] for r in runs),
        "run_cpu_s": med(r["cpu_s"] for r in runs),
        "run_rss_mb": med(r["rss_mb"] for r in runs),
        "oracle_s": med(o["wall_s"] for o in oracles),
        "oracle_rss_mb": med(o["rss_mb"] for o in oracles),
        "setup_s": med(setups),
    }
    print(f"samples: {len(runs)} run, {len(oracles)} oracle, {len(setups)} setup")
    print("  run_s samples: " + " ".join(f"{r['wall_s']:.4f}" for r in runs))
    print("  oracle_s samples: " + " ".join(f"{o['wall_s']:.4f}" for o in oracles))
    print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    return attempted, failed, metrics


def under_trace(tracer, fn, *args):
    """fn(*args) with the tracer's wrappers in place; they are removed even if it raises."""
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()  # raises if any wrapper is left in place


def traced(w, csv, frozen, trace_path):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import mvbetti
    import mvbetti.cli
    from tracer import Tracer, layer_metrics, self_time_breakdown

    args = (w["eps"], w["scales"])
    kwargs = dict(n_max=w["n_max"], field=w["field"], workers=w["workers"],
                  grid=w["grid"])

    def untraced_run():
        cloud = mvbetti.cli.parse_input(csv)
        t0 = time.perf_counter()
        report = mvbetti.run(cloud, *args, **kwargs)
        return report, time.perf_counter() - t0

    def traced_run(tracer):
        cloud = mvbetti.cli.parse_input(csv)
        t0 = time.perf_counter()
        report = tracer.call("bench.run", mvbetti.run, cloud, *args, **kwargs)
        took = time.perf_counter() - t0
        mvbetti.cli.emit_report(report, timings=False)
        return cloud, report, took

    # The first run() of a process also pays heap growth and first-use costs,
    # so it is discarded.  Each traced run sits between two untraced ones and
    # is compared with their mean, so a drift in machine speed cancels to
    # first order.  Single runs on a shared machine still differ by tens of
    # percent, so the overhead is the median over several such trials.
    untraced_run()
    plain, before_s = untraced_run()
    tracer = Tracer()   # the first trial's spans give the per-layer metrics
    reports, ratios = [], []
    for trial in range(OVERHEAD_TRIALS):
        t = tracer if trial == 0 else Tracer()
        cloud, report, traced_s = under_trace(t, traced_run, t)
        _, after_s = untraced_run()
        reports.append(report)
        ratios.append(traced_s / ((before_s + after_s) / 2))
        before_s = after_s

    fresh = mvbetti.PointCloud(cloud.coords)
    bars = under_trace(tracer, tracer.call, "bench.oracle",
                       mvbetti.reduction.persistence_barcode,
                       range(fresh.n), fresh, w["eps"], w["n_max"], w["field"])

    oracle = [[mvbetti.betti_at_scale(bars, d, s) for d in range(w["n_max"] + 1)]
              for s in w["scales"]]
    attempted = 2 * len(w["scales"]) * (w["n_max"] + 1)
    failed = (count_failures(w, [list(sr.betti) for sr in reports[0].scales], [oracle], frozen)
              + count_failures(w, [list(sr.betti) for sr in plain.scales], [oracle], frozen))
    plain_bytes = json.dumps(mvbetti.cli.report_to_dict(plain, timings=False))
    same_bytes = all(json.dumps(mvbetti.cli.report_to_dict(r, timings=False)) == plain_bytes
                     for r in reports)
    if not same_bytes:
        print("traced and untraced reports differ", file=sys.stderr)

    tracer.write_jsonl(trace_path)
    print(f"{len(tracer.spans)} spans written to {trace_path}")
    breakdown = self_time_breakdown(tracer.spans)
    print("self-time breakdown of run(), s: " + json.dumps(breakdown))
    metrics = layer_metrics(tracer.spans, cloud.n, w["workers"])
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    print("traced over untraced run() per trial: " + " ".join(f"{x:.3f}" for x in ratios))
    return attempted, failed, metrics, same_bytes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (SRC / "mvbetti" / "__init__.py").is_file():
        print(f"error: no mvbetti sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    catalog = load_json(BENCH / "catalog.json")
    w = catalog["workloads"].get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(catalog['workloads'])}", file=sys.stderr)
        return 2
    frozen = w["frozen_seed0"] if args.seed == 0 else None

    WORK.mkdir(exist_ok=True)
    csv = WORK / f"{args.workload}-seed{args.seed}.csv"
    write_cloud(w, args.seed, csv)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        attempted, failed, values, ok = traced(w, csv, frozen, trace_path)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        attempted, failed, values = untraced(w, csv, args.seconds, frozen, deadline)
        if values is None:
            print(f"error: no setup, run and oracle child completed; {failed} of "
                  f"{attempted} Betti entries failed", file=sys.stderr)
            return 1
        ok = True
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ratio ({failed} of {attempted} "
          f"Betti entries)")
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
