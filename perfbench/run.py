"""Benchmark runner for p3ap: one workload, one seed, a closed loop of ops.

Usage, from the repository root:

    python3 perfbench/run.py --workload dp-p3 --seed 1 --seconds 28 --trace 0

One client on one process runs ops back to back for about --seconds of wall
time and checks every answer; op times are CPU seconds (spans.cpu_now).
Before each op it times the workload's host-speed kernels (hostspeed.py).
The last line of stdout is a JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
whose op times are calibrated to the host speed of hostspeed.NOMINAL_S.
With --trace 1 the run alternates untraced and traced ops, reports the
per-layer metrics from spans recorded around each call into p3ap, in CPU
seconds as measured, and writes the spans to perfbench/out/.  The package
is imported from src/ next to this directory; without it the runner exits
with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer, cpu_now

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# The names of workloads.WORKLOADS, known before set-up imports that module.
WORKLOAD_NAMES = ("dp-p3", "cli-p2", "ties-p2", "normalize-p2")
SETUP_REPEATS = 7  # set-up samples per run: this process plus fresh subprocesses
SUBPROCESS_TIMEOUT_S = 120

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metric -> span whose self time, summed over one op, it reports.
SPAN_METRICS = {
    "solvers.solve_dp.s": "solvers.solve_dp",
    "monge.is_layered_monge.s": "monge.is_layered_monge",
    "core.check_rows.s": "core.check_rows",
    "core.cost.s": "core.cost",
    "core.to_partial_latin_square.s": "core.to_partial_latin_square",
    "core.LatinRectangle.s": "core.LatinRectangle",
    "io.load_instance.s": "io.load_instance",
    "io.format_instance.s": "io.format_instance",
    "structure.bandwidth.s": "structure.bandwidth",
    "structure.block_decompose.s": "structure.block_decompose",
    "structure.band_normalize.s": "structure.band_normalize",
    "cli.startup_s": "cli.startup",
    "cli.gen.s": "cli.gen",
    "cli.solve.s": "cli.solve",
    "cli.check.s": "cli.check",
}
# Per-layer metric -> unit, for metrics an op or probe returns in its info.
INFO_METRICS = {
    "solvers.solve_dp.report_ms": "ms",
    "solvers.states_explored": "count",
    "solvers.states_per_row.max": "count",
    "solvers.optima_count": "count",
    "solvers.solve_dp.peak_alloc_mb": "MB",
    "structure.band_normalize.cells_moved": "count",
}


def die(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_package():
    if not (SRC / "p3ap" / "__init__.py").is_file():
        die(f"no p3ap package under {SRC}; run from the root of a p3ap checkout")
    sys.path.insert(0, str(SRC))
    import p3ap

    if Path(p3ap.__file__).resolve().parent != (SRC / "p3ap").resolve():
        die(f"imported p3ap from {p3ap.__file__}, not from {SRC}")


def setup(name: str, seed: int, tracer):
    """Import, instance generation and loading of reference answers, timed."""
    t0 = cpu_now()
    import_package()
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed, tracer)
    ref_path = workloads.REFERENCE_DIR / f"seed-{seed}.json"
    expected = None
    if ref_path.is_file():
        expected = json.loads(ref_path.read_text()).get(name, {}).get("answers")
        if expected is not None and len(expected) != len(inputs):
            die(f"{ref_path} holds {len(expected)} {name} answers for {len(inputs)} inputs")
    return wl, inputs, expected, cpu_now() - t0


def setup_in_subprocess(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        die(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Loop:
    """Op times in CPU seconds (spans.cpu_now), in op order and split by traced or not."""

    times: list = field(default_factory=list)
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    untraced_wall: list = field(default_factory=list)
    kernel: list = field(default_factory=list)  # host-speed kernels before each op and after the last
    infos: dict = field(default_factory=dict)  # op -> info, traced ops that passed
    failures: dict = field(default_factory=dict)  # op -> failed checks


def run_ops(wl, inputs, expected, seconds: float, tracer) -> Loop:
    """Closed loop of ops for about `seconds` of wall time.

    With a tracer, odd-numbered ops are traced and followed by the
    workload's probe.
    """
    import workloads

    try:
        return _loop(wl, inputs, expected, seconds, tracer)
    finally:
        workloads.remove_work_dir()


def _loop(wl, inputs, expected, seconds, tracer) -> Loop:
    import hostspeed  # after set-up, whose time includes the import of numpy

    null = NullTracer()
    loop = Loop()
    wall_start = perf_counter()
    i = 0
    while True:
        k = i % len(inputs)
        tr = tracer if tracer is not None and i % 2 == 1 else null
        if tr is tracer:
            tracer.op = i
        loop.kernel.append(hostspeed.time_kernels(wl.kernels))
        # Every op starts from the same collector state, so the collections
        # an op triggers do not depend on the garbage of the ops before it.
        gc.collect()
        wall0, cpu0 = perf_counter(), cpu_now()
        try:
            with tr.span("op"):
                failures, info = wl.op(inputs[k], expected[k] if expected else None, tr)
        except Exception:
            failures, info = [traceback.format_exc(limit=3).strip()], {}
        cpu, wall = cpu_now() - cpu0, perf_counter() - wall0
        loop.times.append(cpu)
        if tr is tracer:
            loop.traced.append(cpu)
        else:
            loop.untraced.append(cpu)
            loop.untraced_wall.append(wall)
        if tr is tracer and not failures and wl.probe is not None:
            try:
                with tracer.span("probe"):
                    info.update(wl.probe(inputs[k], tracer))
            except Exception:
                failures = ["probe: " + traceback.format_exc(limit=3).strip()]
        if failures:
            loop.failures[i] = failures
        elif tr is tracer:
            loop.infos[i] = info
        i += 1
        # The run's length is wall time: stop before an op of typical
        # length would overrun it.
        elapsed = perf_counter() - wall_start
        both_kinds = tracer is None or (loop.untraced and loop.traced)
        if both_kinds and elapsed * (1 + 1 / i) > seconds:
            loop.kernel.append(hostspeed.time_kernels(wl.kernels))
            return loop


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def host_scales(wl, loop: Loop):
    """Per op, the factor that takes its CPU time to the nominal host speed.

    It is the kernels' nominal time over the mean of the kernel times just
    before and just after the op, so it follows the host as it drifts.
    """
    import hostspeed

    nominal, k = hostspeed.nominal_s(wl.kernels), loop.kernel
    return [2 * nominal / (k[i] + k[i + 1]) for i in range(len(loop.times))]


def end_to_end_metrics(wl, setup_times, loop: Loop):
    times = [t * scale for t, scale in zip(loop.times, host_scales(wl, loop))]
    verified = len(times) - len(loop.failures)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (verified / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb(children=wl.name == "cli-p2"), "MB"),
        "verified_share": (verified / len(times), "share"),
    }


def per_layer_metrics(tracer, loop: Loop):
    by_op, infos = tracer.by_op(), loop.infos
    ops = sorted(infos)  # traced ops that passed their checks

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    out = {}
    for metric, span in SPAN_METRICS.items():
        out[metric] = (med(by_op[op].get(span, 0.0) for op in ops), "s")
    for metric, unit in INFO_METRICS.items():
        out[metric] = (med(infos[op].get(metric, 0) for op in ops), unit)
    out["solvers.all_optima.extra_s"] = (med(
        by_op[op]["solvers.solve_dp"] - by_op[op]["solvers.solve_dp.plain"]
        for op in ops if "solvers.solve_dp.plain" in by_op[op]
    ), "s")
    out["io.load_instance.mb_per_s"] = (med(
        infos[op]["io.instance_mb"] / by_op[op]["io.load_instance"]
        for op in ops if "io.instance_mb" in infos[op]
    ), "MB/s")
    out["instances.gen.s"] = (med(tracer.durations("instances.gen")), "s")
    # The op span's children are the layer calls and the benchmark's own checks;
    # whatever of the op they do not cover is glue code between calls.
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == "op" and s[4] in infos]
    out["trace.spans_s"] = (med(tracer.children_time(i) for i in roots), "s")
    out["trace.op_s"] = (med(loop.traced), "s")
    out["trace.untraced_op_s"] = (med(loop.untraced), "s")
    out["trace.overhead_s"] = (med(loop.traced) - med(loop.untraced), "s")
    out["trace.untraced_op_wall_s"] = (med(loop.untraced_wall), "s")
    out["host.kernel_s"] = (med(loop.kernel), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="p3ap benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Pinned before numpy is imported; subprocesses inherit the environment.
    os.environ.update({var: "1" for var in THREAD_VARS})

    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, NullTracer())[3]}))
        return 0

    tracer = Tracer() if args.trace else None
    wl, inputs, expected, setup_s = setup(args.workload, args.seed, tracer or NullTracer())
    if not args.trace:
        setup_times = [setup_s] + [
            setup_in_subprocess(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
    import workloads

    loop = run_ops(wl, inputs, expected, args.seconds, tracer)
    attempted, failed = len(loop.times), len(loop.failures)
    checks = "invariant checks" + (
        f" and reference answers from reference/seed-{args.seed}.json"
        if expected else f" only (no reference answers recorded for seed {args.seed})"
    )
    print(f"{wl.name} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(fail_share {failed / attempted:.4f}); checks run: {checks}")
    print(f"raw CPU op time median {statistics.median(loop.times):.4f} s; "
          f"host kernels {'+'.join(wl.kernels)} median {statistics.median(loop.kernel):.4f} s, "
          f"median scale to nominal {statistics.median(host_scales(wl, loop)):.4f}")
    for op, failures in sorted(loop.failures.items())[:5]:
        print(f"  op {op} failed: " + "; ".join(failures))
    if args.trace:
        metrics = per_layer_metrics(tracer, loop)
        trace_path = workloads.OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path}")
    else:
        metrics = end_to_end_metrics(wl, setup_times, loop)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
