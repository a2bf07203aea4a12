"""Cold and warm timings of one or more p3ap checkouts on a fixed grid.

    python bench/fixed_graph.py --side parent=../parent/src --side change=src \
        --out BENCH_one_engine.json

Each grid point runs in PROCESSES fresh interpreter processes per side.  A
process makes one call with an empty cache ("cold"), then further calls on
instances of the same kind and (n, p) ("warm"), and reports CPU seconds per
call and its own peak RSS.  A point reports the median cold and warm times,
the range of the cold times and of the processes' median warm times, and
the largest peak RSS over its processes.  The kinds of call are:

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
- io: the text of gen_random_layered_monge written to a file as `p3ap gen`
  writes it, then load_instance of that file, the text I/O of the CLI's gen,
  solve and check.  Each side also reports, for its first process, how
  much the first write raised the process's peak RSS (0 when generation
  had peaked higher), and the traced peaks (tracemalloc) of one more write
  and load after the timed calls;
- cli: `p3ap gen random-monge`, `solve --solver dp` and `check`, each a
  `python -m p3ap.cli` process that this script starts itself, since it
  has not imported numpy: a child's ru_maxrss starts at the RSS of the
  process that starts it.  For each command the point reports the median
  and range of its user + sys CPU seconds and its largest peak RSS, both
  from os.wait4.  A process is one gen -> solve -> check run, with no warm
  calls.

Seeds do not depend on the side, and every side must return the same
answers: optima, digests of the listed optima in order, or of the normalized
rows, for brute also the witness and states_explored, for io digests of the
text and of the parsed array, and for cli digests of the instance file and
of the solve (wall_ms masked) and check reports.  A point's processes run
side by side, repeat by repeat, and the side that leads alternates from one
repeat to the next (parent, change, change, parent, ...): on a shared host
the first of two back-to-back processes can run slower.  A point with no
warm calls reports warm_s and warm_range as null.  states_explored,
swept_states, swept_edges and graph_cache_mib are reported for dp points
that solve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

# Fresh processes per point and side.  One process per side could not
# resolve a 5 % difference on a shared 2-core host: cold (1000, 3) read
# 4.46 s against 6.25 s in one run and 5.21 s against 4.65 s in the next.
PROCESSES = 3

# (kind, p, n, warm calls per process).  The warm p = 3 solves at n = 7 and
# 8 take a few ms each, so they run 40 a process to tell the sides apart on
# a shared host.  The cold p = 3 solve at n = 1000 records the peak RSS of a
# long solve, whose kept rows grow with n.
GRID = [
    ("dp", 3, 7, 40), ("dp", 3, 8, 40), ("dp", 3, 20, 2), ("dp", 3, 60, 3),
    ("dp", 3, 200, 1), ("dp", 3, 1000, 0),
    ("dp", 2, 500, 5), ("dp", 2, 2000, 5),
    ("dp", 5, 5, 2), ("dp", 5, 7, 0),
    ("ties", 2, 8, 5), ("ties", 4, 5, 2), ("ties", 3, 20, 0),
    ("normalize", 2, 70, 5), ("normalize", 2, 80, 5),
    ("normalize", 2, 200, 2), ("normalize", 2, 400, 1),
    ("normalize", 3, 70, 5), ("normalize", 4, 70, 5),
    ("brute", 2, 6, 2), ("brute", 3, 6, 1), ("brute", 2, 7, 0),
    ("io", 2, 500, 5), ("io", 2, 2000, 2),
    ("cli", 2, 500, 0), ("cli", 3, 20, 0),
]

CHILD = r"""
import hashlib, json, os, resource, sys, tempfile, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from p3ap import CostArray, LatinRectangle, band_normalize, solve_bruteforce, solve_dp
from p3ap import cli, io
from p3ap.instances import gen_random_layered_monge
from p3ap.io import load_instance
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
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.txt")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            t0 = time.process_time()
            write(C, path)
            t = time.process_time() - t0
            if seed == first_seed:
                rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak
                extra["write_peak_rise_mb"] = round(rise / 1024, 1)
            t0 = time.process_time()
            parsed = load_instance(path)
            t += time.process_time() - t0
            with open(path, "rb") as f:
                text = f.read()
        assert parsed == C
        return t, [sha(text), sha(parsed.entries.tobytes())]
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

def write(C, path):
    # The chunks that `p3ap gen` writes, or at a checkout without them the
    # whole text, written as gen writes them.
    cli._write(getattr(io, "instance_text_chunks", io.format_instance)(C), path)

def traced_io():
    # Traced peaks of one more write and load, after the timed calls.
    C = gen_random_layered_monge(n, p, seed=first_seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.txt")
        for name, call in (("write", lambda: write(C, path)), ("load", lambda: load_instance(path))):
            tracemalloc.start()
            call()
            extra[f"{name}_traced_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
            tracemalloc.stop()

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

times, answers, extra, first_seed = [], [], {}, seed
for k in range(1 + warm):
    t, answer = call(seed + k)
    times.append(t)
    answers.append(answer)
    if kind == "dp" and k == 0 and not isinstance(answer, str):
        extra = {"states_explored": answer[1], **swept()}
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
if kind == "io":
    traced_io()
print(json.dumps({"times": times, "answers": answers, "peak_rss_mb": rss, "extra": extra}))
"""

CLI_STEPS = [
    ("gen", ["gen", "random-monge", "--n", "{n}", "--p", "{p}", "--seed", "{seed}",
             "--output", "{dir}/inst.txt"]),
    ("solve", ["solve", "--input", "{dir}/inst.txt", "--solver", "dp", "--format", "json",
               "--output", "{dir}/solve.json"]),
    ("check", ["check", "--input", "{dir}/inst.txt", "--solution", "{dir}/solve.json",
               "--format", "json", "--output", "{dir}/check.json"]),
]
WALL_MS = re.compile(rb'"wall_ms": [-+0-9.e]+')


def run_cli(src, n, p, seed):
    """One gen -> solve -> check run: each command's CPU seconds and peak RSS
    from os.wait4, and digests of its three output files."""
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    doc = {"cpu_s": {}, "peak_rss_mb": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CLI_STEPS:
            argv = [a.format(n=n, p=p, seed=seed, dir=tmp) for a in args]
            pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "p3ap.cli", *argv], env)
            _, status, usage = os.wait4(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit(f"{name} at n={n}, p={p} under {src} exited with status {status}")
            doc["cpu_s"][name] = usage.ru_utime + usage.ru_stime
            doc["peak_rss_mb"][name] = usage.ru_maxrss / 1024
        answers = []
        for out in ("inst.txt", "solve.json", "check.json"):
            with open(os.path.join(tmp, out), "rb") as f:
                answers.append(hashlib.sha256(WALL_MS.sub(b"", f.read())).hexdigest()[:16])
    doc["answers"] = [answers]
    return doc


def run_process(src, kind, n, p, warm, r):
    if kind == "cli":
        return run_cli(src, n, p, 1000 * r)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, kind, str(n), str(p), str(warm), str(1000 * r)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def span(values):
    return [round(min(values), 4), round(max(values), 4)]


def summarize_cli(docs):
    point = {name: {
        "cpu_s": round(statistics.median(doc["cpu_s"][name] for doc in docs), 4),
        "cpu_range": span([doc["cpu_s"][name] for doc in docs]),
        "peak_rss_mb": round(max(doc["peak_rss_mb"][name] for doc in docs), 1),
    } for name, _ in CLI_STEPS}
    point["processes"] = len(docs)
    point["answers"] = [a for doc in docs for a in doc["answers"]]
    return point


def summarize(docs):
    if "cpu_s" in docs[0]:
        return summarize_cli(docs)
    cold = [doc["times"][0] for doc in docs]
    warm_times = [t for doc in docs for t in doc["times"][1:]]
    warm_medians = [statistics.median(doc["times"][1:]) for doc in docs if doc["times"][1:]]
    point = {
        "cold_s": round(statistics.median(cold), 4),
        "cold_range": span(cold),
        "warm_s": round(statistics.median(warm_times), 4) if warm_times else None,
        "warm_range": span(warm_medians) if warm_medians else None,
        "solves": {"cold": len(cold), "warm": len(warm_times)},
        "peak_rss_mb": round(max(doc["peak_rss_mb"] for doc in docs), 1),
        "answers": [a for doc in docs for a in doc["answers"]],
    }
    point.update(docs[0]["extra"])
    return point


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="label=path to the src directory of a checkout")
    parser.add_argument("--out", help="JSON output file (default: stdout)")
    args = parser.parse_args()
    sides = [s.split("=", 1) for s in args.side]
    results = []
    for kind, p, n, warm in GRID:
        docs = {label: [] for label, _ in sides}
        for r in range(PROCESSES):
            for label, src in sides[::-1] if r % 2 else sides:
                docs[label].append(run_process(os.path.abspath(src), kind, n, p, warm, r))
        point = {"kind": kind, "p": p, "n": n}
        for label, _ in sides:
            point[label] = summarize(docs[label])
            times = (f"{point[label]['cold_s']} s cold, {point[label]['warm_s']} s warm"
                     if kind != "cli" else
                     ", ".join(f"{c} {point[label][c]['cpu_s']} s" for c, _ in CLI_STEPS))
            print(f"{kind} p={p} n={n} {label}: {times}", file=sys.stderr)
        answers = {json.dumps(point[label].pop("answers")) for label, _ in sides}
        if len(answers) != 1:
            sys.exit(f"sides disagree on the answers of {kind} at p={p}, n={n}")
        results.append(point)
    doc = {
        "what": "CPU seconds per call of solve_dp (dp), solve_dp with "
                "all_optima_in_band (ties), band_normalize (normalize), "
                "solve_bruteforce (brute) or the text written as p3ap gen "
                "writes it then load_instance of the written file (io): cold "
                "(first call in a fresh process) and warm (later calls of the "
                "same kind, n and p); user + sys CPU seconds and peak RSS of "
                "each p3ap gen, solve and check process (cli)",
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
