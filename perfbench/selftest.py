"""Self-test of the benchmark: its checks are live and its metrics complete.

Usage, from the repository root:

    python3 perfbench/selftest.py

For each workload it builds one small instance, records the answer with the
workload's own reference function, and runs ops through run.py's loop:
first with the recorded answer, which must pass, then once per tampered
field, which must count as a failed op.  It also makes one traced run per
workload and checks that every per-layer metric comes out.  Exit code 0
means every case behaved; it takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import run
from spans import Tracer

run.import_package()
import workloads  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SMALL = {"dp-p3": (5, 3), "cli-p2": (20, 2), "ties-p2": (5, 2), "normalize-p2": (12, 2)}


def _bump(*path):
    """Tamper: add 1 to the integer at `path` of the expected answer."""
    def tamper(expected):
        *parents, key = path
        node = expected
        for p in parents:
            node = node[p]
        node[key] += 1
    return tamper


def _set(key, value):
    def tamper(expected):
        expected[key] = value
    return tamper


def _reverse_witness(expected):
    expected["witness"].reverse()


def _drop_block(expected):
    expected["check"]["blocks"].pop()


TAMPERS = {
    "dp-p3": [("optimum", _bump("optimum")), ("witness", _reverse_witness)],
    "ties-p2": [
        ("optimum", _bump("optimum")),
        ("optima_count", _bump("optima_count")),
        ("all_optima_digest", _set("all_optima_digest", "0" * 64)),
    ],
    "normalize-p2": [("digest", _set("digest", "0" * 64))],
    "cli-p2": [
        ("solve.optimum", _bump("solve", "optimum")),
        ("solve.states_explored", _bump("solve", "states_explored")),
        ("check.blocks", _drop_block),
    ],
}


def failed_ops(wl, inp, expected) -> int:
    return len(run.run_ops(wl, [inp], [expected], 0, None).failures)


def main() -> int:
    problems = []
    names = [w["name"] for w in SPEC["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS) or sorted(run.WORKLOAD_NAMES) != sorted(names):
        problems.append(f"workload names differ: {names}, {sorted(workloads.WORKLOADS)}")
    for name, wl in workloads.WORKLOADS.items():
        n, p = SMALL[name]
        inp = wl.inputs(seed=1, tr=run.NullTracer(), n=n, p=p)[0]
        expected = wl.make_reference(inp)
        cases = [("recorded answer", expected, 0)]
        for field, tamper in TAMPERS[name]:
            bad = copy.deepcopy(expected)
            tamper(bad)
            if bad == expected:
                problems.append(f"{name}: tampering {field} changed nothing")
            cases.append((f"tampered {field}", bad, 1))
        for label, exp, want in cases:
            got = failed_ops(wl, inp, exp)
            verdict = "ok" if got == want else "WRONG"
            print(f"{name:13s} {label:32s} failed ops {got} (want {want}) {verdict}")
            if got != want:
                problems.append(f"{name}: {label} gave {got} failed ops, want {want}")
        if name == "ties-p2":
            # The invariant check that runs for seeds without recorded answers.
            wrong = copy.copy(inp)
            wrong.extra = dict(inp.extra, constant=inp.extra["constant"] + 1)
            got = failed_ops(wl, wrong, None)
            print(f"{name:13s} {'wrong shift constant':32s} failed ops {got} (want 1)")
            if got != 1:
                problems.append(f"{name}: wrong shift constant not caught")

        tracer = Tracer()
        loop = run.run_ops(wl, [inp], [expected], 0, tracer)
        metrics = run.per_layer_metrics(tracer, loop)
        metrics.update(run.end_to_end_metrics(wl, [0.0], loop))
        missing = {m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]} - set(metrics)
        if loop.failures or missing or not loop.infos:
            problems.append(f"{name}: traced run failures {loop.failures}, missing {missing}")
        print(f"{name:13s} traced run: {len(metrics)} metrics, missing {sorted(missing)}")

    for problem in problems:
        print("PROBLEM:", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
