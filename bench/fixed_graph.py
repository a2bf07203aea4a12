"""Cold and warm timings of one or more p3ap checkouts on a fixed grid.

    python bench/fixed_graph.py --side parent=../parent/src --side change=src \
        --out BENCH_one_engine.json

Each grid point runs in fresh interpreter processes, one per repeat and
side.  A process makes one call with an empty cache ("cold"), then further
calls on instances of the same kind and (n, p) ("warm"), and reports CPU
seconds per call and its own peak RSS.  A point reports the median cold and
warm times, the range of its cold times and the largest peak RSS over its
processes.  The kinds of call are:

- dp: solve_dp on gen_random_layered_monge, whose answer is the optimum and
  states_explored or, when the DP refuses the instance, the refusal message;
  each side also reports, for its first solve, the states and the in-edges
  that its row sweeps read, summed over the rows (read from the row graphs
  that the solve cached: a graph's counts, one per swept target), and the
  MiB that the graph cache holds after it;
- ties: solve_dp with all_optima_in_band on the zero array, where every
  in-band rectangle is optimal, with a seeded decomposable shift at p = 2,
  whose answer is the optimum, the count and the listed optima or, when
  there are too many to list, the refusal message;
- normalize: band_normalize of a cyclically shifted random permutation on
  gen_random_layered_monge, as in perfbench's normalize-p2;
- brute: solve_bruteforce on gen_random_layered_monge;
- io: format_instance, written to a file, then load_instance of that file
  on gen_random_layered_monge, the text I/O of the CLI's gen, solve and
  check; the write is not timed.

Seeds do not depend on the side, and every side must return the same
answers: optima, digests of the listed optima in order, or of the normalized
rows, for brute also the witness and states_explored, and for io digests of
the text and of the parsed array.  A point's processes run side by side,
repeat by repeat, and the side that leads alternates from one repeat to the
next (parent, change, change, parent, ...): on a shared host the first of
two back-to-back processes can run slower.  Points with one process per side
alternate the leading side by grid index instead.  A point with no warm calls
reports warm_s as null.  states_explored, swept_states, swept_edges and
graph_cache_mib are reported for dp points that solve.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# (kind, p, n, processes, warm calls per process).  The warm p = 3 solves at
# n = 7 and 8 take a few ms each, so they run 40 a process to tell the
# sides apart on a shared host.  The cold p = 3 solve at n = 1000 records
# the peak RSS of a long solve, whose kept rows grow with n.
GRID = [
    ("dp", 3, 7, 3, 40), ("dp", 3, 8, 3, 40), ("dp", 3, 20, 3, 2), ("dp", 3, 60, 1, 3),
    ("dp", 3, 200, 1, 1), ("dp", 3, 1000, 1, 0),
    ("dp", 2, 500, 3, 5), ("dp", 2, 2000, 3, 5),
    ("dp", 5, 5, 3, 2), ("dp", 5, 7, 1, 0),
    ("ties", 2, 8, 3, 5), ("ties", 4, 5, 3, 2), ("ties", 3, 20, 1, 0),
    ("normalize", 2, 70, 3, 5), ("normalize", 2, 80, 3, 5),
    ("normalize", 2, 200, 3, 2), ("normalize", 2, 400, 1, 1),
    ("normalize", 3, 70, 3, 5), ("normalize", 4, 70, 3, 5),
    ("brute", 2, 6, 3, 2), ("brute", 3, 6, 1, 1), ("brute", 2, 7, 1, 0),
    ("io", 2, 500, 3, 5), ("io", 2, 2000, 3, 2),
]

CHILD = r"""
import hashlib, json, os, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from p3ap import CostArray, LatinRectangle, band_normalize, solve_bruteforce, solve_dp
from p3ap.instances import gen_random_layered_monge
from p3ap.io import format_instance, load_instance
from p3ap.monge import DecompositionTerms, apply_decomposable_shift
from p3ap.solvers import OptimaLimitError, OracleSizeLimitError
kind = sys.argv[2]
n, p, warm, seed = map(int, sys.argv[3:7])

def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]

def digest(rects):
    return sha(repr([r.rows for r in rects]).encode())

def tied(seed):
    zeros = CostArray(np.zeros((n, n, p), dtype=np.int64))
    if p != 2:
        return zeros
    rng = np.random.default_rng(seed)
    terms = DecompositionTerms(
        A=np.zeros((n, n), dtype=np.int64),
        B=rng.integers(-50, 51, size=(n, p)),
        D=rng.integers(-50, 51, size=(n, p)),
    )
    return apply_decomposable_shift(zeros, terms)[0]

def call(seed):
    if kind == "ties":
        C = tied(seed)
        t0 = time.process_time()
        try:
            r = solve_dp(C, all_optima_in_band=True)
        except OptimaLimitError as e:
            return time.process_time() - t0, str(e)
        return time.process_time() - t0, [r.optimum, r.optima_count, digest(r.all_optima)]
    C = gen_random_layered_monge(n, p, seed=seed)
    if kind == "normalize":
        perm = np.random.default_rng(seed).permutation(n) + 1
        rect = LatinRectangle(rows=[np.roll(perm, -r) for r in range(p)])
        t0 = time.process_time()
        out = band_normalize(rect, C)
        return time.process_time() - t0, digest([out])
    if kind == "io":
        t0 = time.process_time()
        text = format_instance(C)
        t = time.process_time() - t0
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.txt")
            with open(path, "w") as f:
                f.write(text)
            t0 = time.process_time()
            parsed = load_instance(path)
            t += time.process_time() - t0
        assert parsed == C
        return t, [sha(text.encode()), sha(parsed.entries.tobytes())]
    if kind == "brute":
        t0 = time.process_time()
        r = solve_bruteforce(C)
        return time.process_time() - t0, [r.optimum, r.solution.rows, r.states_explored]
    t0 = time.process_time()
    try:
        r = solve_dp(C)
        answer = [r.optimum, r.states_explored]
    except OracleSizeLimitError as e:
        answer = str(e)
    return time.process_time() - t0, answer

def swept():
    # The graphs of the last solve, found again row by row through
    # _next_graph, which returns the cached ones, and the cache's size.
    from p3ap import solvers
    g, states, edges = None, 0, 0
    sigs = solvers._words([solvers._pack_sig(solvers._init_sig(n, p), p)], p, 4 * p - 4)
    for i in range(1, n + 1):
        g = solvers._next_graph(g, p, solvers._row_clip(i, n, p), sigs)
        states, edges = states + g.counts.size, edges + int(g.counts.sum())
    cache = sum(h.nbytes for h in solvers._GRAPHS.values()) / 2 ** 20
    return {"swept_states": states, "swept_edges": edges, "graph_cache_mib": round(cache, 2)}

times, answers, graph = [], [], None
for k in range(1 + warm):
    t, answer = call(seed + k)
    times.append(t)
    answers.append(answer)
    if kind == "dp" and k == 0 and not isinstance(answer, str):
        graph = {"states_explored": answer[1], **swept()}
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"times": times, "answers": answers, "peak_rss_mb": rss, "graph": graph}))
"""


def run_process(src, kind, n, p, warm, r):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, kind, str(n), str(p), str(warm), str(1000 * r)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(docs):
    cold = [doc["times"][0] for doc in docs]
    warm_times = [t for doc in docs for t in doc["times"][1:]]
    point = {
        "cold_s": round(statistics.median(cold), 4),
        "cold_range": [round(min(cold), 4), round(max(cold), 4)],
        "warm_s": round(statistics.median(warm_times), 4) if warm_times else None,
        "solves": {"cold": len(cold), "warm": len(warm_times)},
        "peak_rss_mb": round(max(doc["peak_rss_mb"] for doc in docs), 1),
        "answers": [a for doc in docs for a in doc["answers"]],
    }
    if docs[0]["graph"]:
        point.update(docs[0]["graph"])
    return point


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="label=path to the src directory of a checkout")
    parser.add_argument("--out", help="JSON output file (default: stdout)")
    args = parser.parse_args()
    sides = [s.split("=", 1) for s in args.side]
    results = []
    for idx, (kind, p, n, procs, warm) in enumerate(GRID):
        docs = {label: [] for label, _ in sides}
        for r in range(procs):
            lead = (idx if procs == 1 else r) % 2
            for label, src in sides[::-1] if lead else sides:
                docs[label].append(run_process(os.path.abspath(src), kind, n, p, warm, r))
        point = {"kind": kind, "p": p, "n": n}
        for label, _ in sides:
            point[label] = summarize(docs[label])
            print(f"{kind} p={p} n={n} {label}: {point[label]['cold_s']} s cold, "
                  f"{point[label]['warm_s']} s warm", file=sys.stderr)
        answers = {json.dumps(point[label].pop("answers")) for label, _ in sides}
        if len(answers) != 1:
            sys.exit(f"sides disagree on the answers of {kind} at p={p}, n={n}")
        results.append(point)
    doc = {
        "what": "CPU seconds per call of solve_dp (dp), solve_dp with "
                "all_optima_in_band (ties), band_normalize (normalize), "
                "solve_bruteforce (brute) or format_instance then "
                "load_instance of the written file (io): cold "
                "(first call in a fresh process) and warm (later calls of the "
                "same kind, n and p)",
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
