"""One measurement in a fresh interpreter; prints one JSON line on stdout.

    python3 perfbench/child.py setup  CSV
    python3 perfbench/child.py run    CSV PARAMS_JSON
    python3 perfbench/child.py oracle CSV PARAMS_JSON

`setup` only imports mvbetti and loads the cloud, so the parent can time a
whole interpreter from start to a loaded cloud.  `run` times mvbetti.run() and
`oracle` times the direct persistence_barcode(); each reports its Betti
numbers and the peak RSS of its own process, which holds nothing else.
Any exception ends the process with a non-zero code and no JSON line.
"""

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import mvbetti  # noqa: E402
from mvbetti.cli import parse_input  # noqa: E402


def _cpu():
    import time
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    mode, csv_path = argv[0], argv[1]
    cloud = parse_input(csv_path)
    if mode == "setup":
        print(json.dumps({"n": cloud.n}))
        return
    import time
    w = json.loads(argv[2])
    scales = w["scales"]
    if mode == "run":
        c0 = _cpu()
        t0 = time.perf_counter()
        report = mvbetti.run(cloud, w["eps"], scales, n_max=w["n_max"],
                             field=w["field"], workers=w["workers"], grid=w["grid"])
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        betti = [list(sr.betti) for sr in report.scales]
    elif mode == "oracle":
        t0 = time.perf_counter()
        bars = mvbetti.persistence_barcode(range(cloud.n), cloud, w["eps"],
                                           w["n_max"], w["field"])
        wall = time.perf_counter() - t0
        cpu = None
        betti = [[mvbetti.betti_at_scale(bars, n, s) for n in range(w["n_max"] + 1)]
                 for s in scales]
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "rss_mb": _peak_rss_mb(),
                      "betti": betti}))


if __name__ == "__main__":
    main(sys.argv[1:])
