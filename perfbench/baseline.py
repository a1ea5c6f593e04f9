"""Measure the baseline that perfbench/baseline.json records.

    python3 perfbench/baseline.py [--out FILE]

Makes two rounds, one after the other.  In each round every workload of
perfbench/catalog.json runs perfbench/run.py untraced once per seed 0..9 with
BENCHMARK.json's run_seconds.  Per end-to-end metric and round it records the
median, the quartiles of statistics.quantiles(n=4) and their distance as a
share of the median; per later round, how much worse its median is than the
first round's, as a share of the first.  Both are compared with the metric's
bound in BENCHMARK.json.  Then each workload runs traced once at seed 0, for
the per-layer metrics and the self-time breakdown of run().  "gated" marks the
workloads BENCHMARK.json lists.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(10))
ROUNDS = 2   # two rounds of the same code must agree within the bounds


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    breakdown = None
    for line in lines:
        if line.startswith("self-time breakdown of run(), s: "):
            breakdown = json.loads(line.split(": ", 1)[1])
    return json.loads(lines[-1]), breakdown


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((BENCH / "catalog.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write the baseline JSON here")
    args = ap.parse_args(argv)
    names = list(catalog["workloads"])
    gated = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    out = {"measured": time.strftime("%Y-%m-%d"),
           "machine": {"python": platform.python_version(),
                       "cpus": os.cpu_count(),
                       "platform": platform.platform(),
                       "numpy": numpy.__version__},
           "run_seconds": spec["run_seconds"], "seeds": SEEDS,
           "rounds": ROUNDS, "workloads": {}}
    rows = {name: [] for name in names}   # one list of run.py results per round
    for r in range(ROUNDS):
        for name in names:
            rows[name].append([])
            for seed in SEEDS:
                res = bench_run(name, seed, spec["run_seconds"], 0)[0]
                rows[name][r].append(res)
                print(f"round {r} {name} seed {seed}: correct {res['correct']} "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                      flush=True)

    for name in names:
        flat = [res for rnd in rows[name] for res in rnd]
        entry = {"gated": name in gated,
                 "correct": all(res["correct"] for res in flat),
                 "failed": sum(res["failed"] for res in flat),
                 "attempted": sum(res["attempted"] for res in flat),
                 "end_to_end": {}}
        for metric, m in metrics.items():
            rounds = [summarize([res["metrics"][metric]["value"] for res in rnd])
                      for rnd in rows[name]]
            sign = 1 if m["better"] == "lower" else -1
            worse = [sign * (rd["median"] - rounds[0]["median"]) / rounds[0]["median"]
                     for rd in rounds[1:]]
            spread_ok = metric == "setup_s" or all(rd["spread"] <= m["bound"] for rd in rounds)
            entry["end_to_end"][metric] = {
                "unit": m["unit"], "bound": m["bound"], "rounds": rounds,
                "median_worse_than_first": worse,
                "within_bound": spread_ok and all(x <= m["bound"] for x in worse)}
            print(f"{name:18s} {metric:14s} medians "
                  + " ".join(f"{rd['median']:10.4f}" for rd in rounds)
                  + "  spreads " + " ".join(f"{rd['spread']:.3f}" for rd in rounds)
                  + "  worse " + " ".join(f"{x:+.3f}" for x in worse)
                  + f"  (bound {m['bound']})", flush=True)
        traced, breakdown = bench_run(name, 0, spec["run_seconds"], 1)
        entry["traced_seed0"] = {
            "correct": traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_time_breakdown_s": breakdown}
        out["workloads"][name] = entry
        print(f"{name:18s} traced: correct {traced['correct']}, top self times "
              f"{list(breakdown.items())[:3]}", flush=True)
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
