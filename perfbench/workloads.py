"""The four benchmark workloads: inputs from a seed, one op, and its checks.

An op takes one instance through a workload's pipeline of public p3ap calls
and then checks the answer.  Every call into the package goes through
``tr.call(name, fn, ...)`` so that the traced run records one span per call;
the untraced run passes a tracer whose ``call`` only calls the function.

Each op returns ``(failures, info)``: ``failures`` lists the checks that did
not hold (empty when the answer is right) and ``info`` holds the counts the
traced run reports per layer.  Checks come in two kinds.  Invariant checks
hold for every seed.  Reference checks compare with the answers recorded in
``reference/seed-<seed>.json`` and run only when that file holds answers for
the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from p3ap import core, instances, io, monge, solvers, structure

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"


@dataclass
class Input:
    k: int  # index in the run's pool of instances
    seed: int  # seed the instance was generated from
    n: int
    p: int
    C: Optional[core.CostArray] = None
    extra: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    n: int
    p: int
    pool: int  # distinct instances per run; op i uses instance i % pool
    make_input: Callable  # (k, seed, n, p, tr) -> Input
    op: Callable  # (inp, expected, tr) -> (failures, info)
    make_reference: Callable  # inp -> expected answer
    reference_engine: str
    kernels: tuple  # hostspeed kernels of the same kind of work as the op
    probe: Optional[Callable] = None  # (inp, tr) -> info, after traced ops only

    def inputs(self, seed: int, tr, n: Optional[int] = None, p: Optional[int] = None):
        n, p = n or self.n, p or self.p
        return [self.make_input(k, seed * 1000 + k, n, p, tr) for k in range(self.pool)]


def rows_digest(rectangles) -> str:
    """sha256 over the rows of an ordered list of rectangles."""
    h = hashlib.sha256()
    for rect in rectangles:
        h.update(np.asarray(rect.rows, dtype=np.int32).tobytes())
    return h.hexdigest()


def _check(failures: List[str], ok: bool, what: str):
    if not ok:
        failures.append(what)


def _peak_alloc_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _random_monge(k, seed, n, p, tr):
    C = tr.call("instances.gen", instances.gen_random_layered_monge, n, p, seed)
    return Input(k=k, seed=seed, n=n, p=p, C=C)


# ---------------------------------------------------------------------------
# Solve and verify (dp-p3, ties-p2)


def _verify_solution(C, report, tr, failures, info):
    """Invariant checks on a returned witness, each through the public API."""
    rows = report.solution.rows
    band = 2 * C.p - 2
    feasible = tr.call("core.check_rows", core.check_rows, rows)
    rect = tr.call("core.LatinRectangle", core.LatinRectangle, rows=rows)
    value = tr.call("core.cost", core.cost, C, rect)
    square = tr.call("core.to_partial_latin_square", core.to_partial_latin_square, rect)
    width = tr.call("structure.bandwidth", structure.bandwidth, square)
    tr.call("structure.block_decompose", structure.block_decompose, rect)
    with tr.span("bench.verify"):
        _check(failures, bool(feasible), "witness fails check_rows")
        _check(failures, value == report.optimum, "cost(C, witness) != optimum")
        _check(failures, width <= band, f"witness bandwidth {width} > {band}")
    # wall_ms is timed inside solve_dp after its Monge pre-check and before
    # any all-optima enumeration.
    info["solvers.solve_dp.report_ms"] = report.wall_ms
    info["solvers.states_explored"] = report.states_explored
    info["solvers.states_per_row.max"] = max(report.state_counts)


def _solve_op(inp, expected, tr, all_optima: bool):
    C = inp.C
    failures: List[str] = []
    info: dict = {}
    layered = tr.call("monge.is_layered_monge", monge.is_layered_monge, C)
    report = tr.call("solvers.solve_dp", solvers.solve_dp, C, all_optima_in_band=all_optima)
    _check(failures, layered, "instance is not layered Monge")
    _verify_solution(C, report, tr, failures, info)
    if all_optima:
        optima = report.all_optima
        tr.call("core.LatinRectangle", lambda: [core.LatinRectangle(rows=r.rows) for r in optima])
        with tr.span("bench.verify"):
            count = report.optima_count
            info["solvers.optima_count"] = count
            _check(failures, count == len(optima), "optima_count != len(all_optima)")
            _check(failures, len({r.rows for r in optima}) == count, "all_optima holds duplicates")
            # Every feasible rectangle of a shifted zero array costs the constant.
            _check(failures, report.optimum == inp.extra["constant"], "optimum != shift constant")
            if expected is not None:
                _check(failures, count == expected["optima_count"], "optima_count != reference")
                _check(
                    failures,
                    rows_digest(optima) == expected["all_optima_digest"],
                    "all_optima digest != reference",
                )
    if expected is not None:
        with tr.span("bench.verify"):
            _check(failures, report.optimum == expected["optimum"], "optimum != reference")
            if "witness" in expected:
                witness = [list(r) for r in report.solution.rows]
                _check(failures, witness == expected["witness"], "witness != reference")
    return failures, info


def _solve_probe(all_optima: bool):
    def probe(inp, tr):
        if all_optima:
            tr.call("solvers.solve_dp.plain", solvers.solve_dp, inp.C)
        peak = _peak_alloc_mb(solvers.solve_dp, inp.C, all_optima_in_band=all_optima)
        return {"solvers.solve_dp.peak_alloc_mb": peak}

    return probe


def _dp_reference(inp):
    report = solvers.solve_dp(inp.C, method="reference")
    return {"optimum": report.optimum, "witness": [list(r) for r in report.solution.rows]}


def _ties_input(k, seed, n, p, tr):
    def build():
        rng = np.random.default_rng(seed)
        zeros = core.CostArray(np.zeros((n, n, p), dtype=np.int64))
        terms = monge.DecompositionTerms(
            A=np.zeros((n, n), dtype=np.int64),
            B=rng.integers(-50, 51, size=(n, p)),
            D=rng.integers(-50, 51, size=(n, p)),
        )
        return monge.apply_decomposable_shift(zeros, terms)

    C, constant = tr.call("instances.gen", build)
    return Input(k=k, seed=seed, n=n, p=p, C=C, extra={"constant": constant})


def _ties_reference(inp):
    report = solvers.solve_dp(inp.C, all_optima_in_band=True, method="reference")
    return {
        "optimum": report.optimum,
        "optima_count": report.optima_count,
        "all_optima_digest": rows_digest(report.all_optima),
    }


# ---------------------------------------------------------------------------
# normalize-p2


def _norm_input(k, seed, n, p, tr):
    inp = _random_monge(k, seed, n, p, tr)
    perm = np.random.default_rng(seed).permutation(n) + 1
    # Layer r holds the permutation shifted cyclically by r, so columns stay distinct.
    rows = tuple(tuple(int(v) for v in np.roll(perm, -r)) for r in range(p))
    inp.extra["rect"] = tr.call("core.LatinRectangle", core.LatinRectangle, rows=rows)
    return inp


def _norm_op(inp, expected, tr):
    C, rect = inp.C, inp.extra["rect"]
    failures: List[str] = []
    layered = tr.call("monge.is_layered_monge", monge.is_layered_monge, C)
    before = tr.call("structure.bandwidth", structure.bandwidth, rect)
    out = tr.call("structure.band_normalize", structure.band_normalize, rect, C)
    after = tr.call("structure.bandwidth", structure.bandwidth, out)
    feasible = tr.call("core.check_rows", core.check_rows, out.rows)
    cost_before = tr.call("core.cost", core.cost, C, rect)
    cost_after = tr.call("core.cost", core.cost, C, out)
    tr.call("structure.block_decompose", structure.block_decompose, out)
    with tr.span("bench.verify"):
        band = 2 * C.p - 2
        _check(failures, layered, "instance is not layered Monge")
        _check(failures, before > band, f"input bandwidth {before} already in band")
        _check(failures, after <= band, f"output bandwidth {after} > {band}")
        _check(failures, bool(feasible), "output fails check_rows")
        _check(failures, cost_after <= cost_before, "normalization raised the cost")
        if expected is not None:
            _check(failures, rows_digest([out]) == expected["digest"], "output digest != reference")
        moved = sum(a != b for r0, r1 in zip(rect.rows, out.rows) for a, b in zip(r0, r1))
    return failures, {"structure.band_normalize.cells_moved": moved}


def _norm_reference(inp):
    out = structure.band_normalize(inp.extra["rect"], inp.C)
    return {"digest": rows_digest([out])}


# ---------------------------------------------------------------------------
# cli-p2: gen -> solve -> check through `python -m p3ap.cli` subprocesses


CLI_TIMEOUT_S = 120


def run_cli(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)  # carries the thread pinning run.py sets
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "p3ap.cli", *args],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S, cwd=ROOT,
    )


def cli_work_dir() -> Path:
    return OUT_DIR / f"cli-{os.getpid()}"


def remove_work_dir():
    shutil.rmtree(cli_work_dir(), ignore_errors=True)


def _cli_input(k, seed, n, p, tr):
    work = cli_work_dir()
    paths = {
        name: work / f"{name}-{k}.{ext}"
        for name, ext in (("instance", "txt"), ("solve", "json"), ("rows", "json"), ("check", "json"))
    }
    return Input(k=k, seed=seed, n=n, p=p, extra=paths)


def _cli_step(tr, name, failures, args) -> bool:
    proc = tr.call(name, run_cli, args)
    if proc.returncode != 0:
        failures.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc.returncode == 0


def _cli_op(inp, expected, tr):
    paths = inp.extra
    paths["instance"].parent.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    steps = [
        ("cli.gen", ["gen", "random-monge", "--n", str(inp.n), "--p", str(inp.p),
                     "--seed", str(inp.seed), "--output", str(paths["instance"])]),
        ("cli.solve", ["solve", "--input", str(paths["instance"]), "--solver", "dp",
                       "--format", "json", "--output", str(paths["solve"])]),
        ("cli.check", ["check", "--input", str(paths["instance"]), "--solution",
                       str(paths["rows"]), "--format", "json", "--output", str(paths["check"])]),
    ]
    for name, args in steps:
        if not _cli_step(tr, name, failures, args):
            return failures, {}
        if name == "cli.solve":
            with tr.span("bench.io"):
                solved = json.loads(paths["solve"].read_text())
                paths["rows"].write_text(json.dumps({"rows": solved["solution_rows"]}))
    rows = tuple(tuple(r) for r in solved["solution_rows"])
    feasible = tr.call("core.check_rows", core.check_rows, rows)
    with tr.span("bench.verify"):
        checked = json.loads(paths["check"].read_text())
        band = 2 * inp.p - 2
        _check(failures, bool(feasible), "solve rows fail check_rows")
        _check(failures, solved.get("solver") == "dp", "solve reports another solver")
        _check(failures, checked.get("feasible") is True, "check says infeasible")
        _check(failures, checked.get("cost") == solved.get("optimum"), "check cost != solve optimum")
        _check(failures, checked.get("bandwidth", band + 1) <= band, "check bandwidth out of band")
        if expected is not None:
            got_solve = {key: v for key, v in solved.items() if key != "wall_ms"}
            _check(failures, got_solve == expected["solve"], "solve JSON != reference")
            _check(failures, checked == expected["check"], "check JSON != reference")
    return failures, {}


def _cli_probe(inp, tr):
    """In-process breakdown of the work the three commands do, plus start-up."""
    info = {}
    tr.call("cli.startup", run_cli, ["--help"])
    C = tr.call("instances.gen", instances.gen_random_layered_monge, inp.n, inp.p, inp.seed)
    tr.call("io.format_instance", io.format_instance, C)
    C = tr.call("io.load_instance", io.load_instance, inp.extra["instance"])
    info["io.instance_mb"] = inp.extra["instance"].stat().st_size / 1e6
    tr.call("monge.is_layered_monge", monge.is_layered_monge, C)
    report = tr.call("solvers.solve_dp", solvers.solve_dp, C)
    _verify_solution(C, report, tr, [], info)
    info["solvers.solve_dp.peak_alloc_mb"] = _peak_alloc_mb(solvers.solve_dp, C)
    return info


def _cli_reference(inp):
    C = instances.gen_random_layered_monge(inp.n, inp.p, inp.seed)
    report = solvers.solve_dp(C, method="reference")
    solve = report.to_dict()
    del solve["wall_ms"]
    rect = report.solution
    check = {
        "feasible": True,
        "cost": core.cost(C, rect),
        "bandwidth": structure.bandwidth(core.to_partial_latin_square(rect)),
        "blocks": structure.block_decompose(rect).to_list(),
    }
    return {"solve": solve, "check": check}


# ---------------------------------------------------------------------------


# BENCHMARK.json and README.md give the reason for each workload.
WORKLOADS = {
    w.name: w
    for w in [
        # The packed DP's row sweep at p = 3.
        Workload(
            name="dp-p3",
            n=7, p=3, pool=4,
            make_input=_random_monge,
            op=lambda inp, exp, tr: _solve_op(inp, exp, tr, all_optima=False),
            probe=_solve_probe(all_optima=False),
            make_reference=_dp_reference,
            reference_engine="solve_dp(method='reference'), the dict-based engine",
            kernels=("numpy",),
        ),
        # The path from files to answer through the CLI.
        Workload(
            name="cli-p2",
            n=500, p=2, pool=4,
            make_input=_cli_input,
            op=_cli_op,
            probe=_cli_probe,
            make_reference=_cli_reference,
            reference_engine="solve_dp(method='reference') on the same generated instance",
            kernels=("numpy", "loops", "objects"),
        ),
        # All-optima enumeration, where every in-band rectangle is optimal.
        Workload(
            name="ties-p2",
            n=8, p=2, pool=4,
            make_input=_ties_input,
            op=lambda inp, exp, tr: _solve_op(inp, exp, tr, all_optima=True),
            probe=_solve_probe(all_optima=True),
            make_reference=_ties_reference,
            reference_engine="solve_dp(all_optima_in_band=True, method='reference')",
            kernels=("objects",),
        ),
        # The exchange loop of band_normalize.
        Workload(
            name="normalize-p2",
            n=70, p=2, pool=32,
            make_input=_norm_input,
            op=_norm_op,
            make_reference=_norm_reference,
            reference_engine="band_normalize output at the commit that recorded it",
            kernels=("loops",),
        ),
    ]
}
