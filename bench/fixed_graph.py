"""Cold and warm solve_dp timings of one or more p3ap checkouts on a fixed grid.

    python bench/fixed_graph.py --side parent=../parent/src --side change=src \
        --out BENCH_fixed_graph.json

Each grid point runs in fresh interpreter processes, one per repeat.  A
process solves one instance with an empty cache ("cold"), then further
instances of the same (n, p) ("warm"), and reports CPU seconds per solve and
its own peak RSS.  Instances come from gen_random_layered_monge with seeds
that do not depend on the side, and every side must return the same optima.
Sides alternate which runs first at each grid point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# (p, n, processes, warm solves per process)
GRID = [(3, 7, 3, 5), (3, 20, 1, 2), (3, 60, 1, 3), (2, 500, 3, 5), (2, 2000, 3, 5)]

CHILD = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from p3ap import solve_dp
from p3ap.instances import gen_random_layered_monge
n, p, warm, seed = map(int, sys.argv[2:6])
times, optima = [], []
for k in range(1 + warm):
    C = gen_random_layered_monge(n, p, seed=seed + k)
    t0 = time.process_time()
    r = solve_dp(C)
    times.append(time.process_time() - t0)
    optima.append(r.optimum)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"times": times, "optima": optima, "peak_rss_mb": rss}))
"""


def run_point(src, n, p, procs, warm):
    cold, warm_times, rss, optima = [], [], [], []
    for r in range(procs):
        out = subprocess.run(
            [sys.executable, "-c", CHILD, src, str(n), str(p), str(warm), str(1000 * r)],
            check=True, capture_output=True, text=True,
            env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        cold.append(doc["times"][0])
        warm_times.extend(doc["times"][1:])
        rss.append(doc["peak_rss_mb"])
        optima.extend(doc["optima"])
    return {
        "cold_s": round(statistics.median(cold), 4),
        "warm_s": round(statistics.median(warm_times), 4),
        "solves": {"cold": len(cold), "warm": len(warm_times)},
        "peak_rss_mb": round(max(rss), 1),
        "optima": optima,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="label=path to the src directory of a checkout")
    parser.add_argument("--out", help="JSON output file (default: stdout)")
    args = parser.parse_args()
    sides = [s.split("=", 1) for s in args.side]
    results = []
    for idx, (p, n, procs, warm) in enumerate(GRID):
        order = sides if idx % 2 == 0 else sides[::-1]
        point = {"p": p, "n": n}
        for label, src in order:
            point[label] = run_point(os.path.abspath(src), n, p, procs, warm)
            print(f"p={p} n={n} {label}: {point[label]['cold_s']} s cold, "
                  f"{point[label]['warm_s']} s warm", file=sys.stderr)
        optima = {json.dumps(point[label].pop("optima")) for label, _ in sides}
        if len(optima) != 1:
            sys.exit(f"sides disagree on the optima at p={p}, n={n}")
        results.append(point)
    doc = {
        "what": "solve_dp CPU seconds per solve: cold (first solve in a fresh "
                "process) and warm (later solves of the same n and p)",
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "grid": results,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
