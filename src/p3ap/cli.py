"""Command-line front end: generate, solve, check, normalize, blocks.

Exit codes: 0 success, 2 input or feasibility error, 3 resource limit.
Only gen random-monge is random, and all its randomness flows through its
--seed; identical commands give identical output.

Each command imports instances, solvers or structure itself, so a process
loads only the modules its command runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .core import (
    CostArray,
    CostRangeError,
    LatinRectangle,
    cost,
    InfeasibleSolutionError,
    DimensionError,
    OracleSizeLimitError,
)
from .monge import NotLayeredMongeError

DEFAULT_SEED = 20140501

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _write(text, path=None):
    """Writes text, a string or an iterable of strings, to path or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path:
        try:
            # Bytes that came in through argv go back out as they came, as on stdout.
            with open(path, "w", encoding="utf-8", errors="surrogateescape") as f:
                f.writelines(chunks)
        except OSError as e:
            raise CliError(f"cannot write {path}: {e}")
    else:
        sys.stdout.writelines(chunks)


def _load_instance(path) -> CostArray:
    if not path:
        raise CliError("an --input instance file is required")
    try:
        return io.load_instance(path)
    except (OSError, UnicodeDecodeError, io.FormatError, DimensionError, CostRangeError) as e:
        raise CliError(f"cannot read instance {path}: {e}")


def _load_rectangle(path, C: CostArray = None) -> LatinRectangle:
    """The solution at path; raises InfeasibleSolutionError if it is not a
    Latin rectangle and CliError if it does not fit the instance C."""
    if not path:
        raise CliError("a --solution file is required")
    try:
        rows = io.load_solution_rows(path)
    except (OSError, UnicodeDecodeError, io.FormatError) as e:
        raise CliError(f"cannot read solution {path}: {e}")
    sol = LatinRectangle(rows=rows)
    if C is not None and (sol.n != C.n or sol.p != C.p):
        raise CliError(
            f"dimension mismatch: solution {sol.p}x{sol.n}, instance {C.p}x{C.n}"
        )
    return sol


def cmd_gen(args) -> int:
    from . import instances

    name = args.generator
    # DimensionError is a ValueError, and a negative seed raises one in numpy.
    try:
        if name == "random-monge":
            if args.n is None or args.p is None:
                raise CliError("random-monge needs --n and --p")
            C = instances.gen_random_layered_monge(args.n, args.p, args.seed)
            provenance = f"gen random-monge --n {args.n} --p {args.p} --seed {args.seed}"
        elif name == "embed-p3ap":
            C01 = _load_instance(args.input)
            C, offset = instances.gen_p3ap_embedding(C01, nonneg=args.nonneg_variant)
            provenance = f"gen embed-p3ap --input {args.input} (offset {offset})"
        elif name == "embed-pp3ap":
            C01 = _load_instance(args.input)
            C, p = instances.gen_pp3ap_embedding(C01)
            provenance = f"gen embed-pp3ap --input {args.input} (solve with p {p})"
        elif name == "counterexample":
            C = instances.gen_counterexample(args.a_scale)
            provenance = f"gen counterexample --a-scale {args.a_scale}"
        else:  # counterexample-ext
            C = instances.gen_counterexample_extended(args.extra_blocks, args.a_scale)
            provenance = (
                f"gen counterexample-ext --extra-blocks {args.extra_blocks} "
                f"--a-scale {args.a_scale}"
            )
    except (ValueError, OverflowError) as e:
        raise CliError(str(e))
    if args.format == "json":
        _write(io.instance_to_json(C) + "\n", args.output)
    else:
        _write(io.instance_text_chunks(C, header_comment=provenance), args.output)
    return EXIT_OK


def _solve(C: CostArray, solver: str, all_optima: bool):
    from . import solvers

    if solver == "dp":
        return solvers.solve_dp(C, all_optima_in_band=all_optima)
    if solver == "brute":
        return solvers.solve_bruteforce(C, all_optima=all_optima)
    return solvers.solve_auto(C, all_optima_in_band=all_optima)


def cmd_solve(args) -> int:
    C = _load_instance(args.input)
    report = _solve(C, args.solver, args.all_optima)
    if args.format == "json":
        _write(json.dumps(report.to_dict()) + "\n", args.output)
    else:
        lines = [
            f"optimum {report.optimum}",
            "solution:",
            io.format_solution(report.solution).rstrip("\n"),
            f"solver {report.solver}",
            f"states_explored {report.states_explored}",
        ]
        if report.optima_count is not None:
            lines.append(f"optima_count {report.optima_count}")
        if report.unique_in_band is not None:
            lines.append(f"unique_in_band {report.unique_in_band}")
        lines.append(f"wall_ms {report.wall_ms:.1f}")
        _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    from . import structure

    C = _load_instance(args.input)
    try:
        sol = _load_rectangle(args.solution, C)
    except InfeasibleSolutionError as e:
        _write(f"infeasible: {e}\n", args.output)
        return EXIT_INPUT
    value = cost(C, sol)
    band = structure.bandwidth(sol)
    partition = structure.block_decompose(sol)
    if args.format == "json":
        payload = {
            "feasible": True,
            "cost": value,
            "bandwidth": band,
            "blocks": partition.to_list(),
        }
        _write(json.dumps(payload) + "\n", args.output)
    else:
        lines = [
            "feasible",
            f"cost {value}",
            f"bandwidth {band}",
            "blocks " + json.dumps(partition.to_list()),
        ]
        _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_normalize(args) -> int:
    from . import structure

    C = _load_instance(args.input)
    sol = _load_rectangle(args.solution, C)
    before_cost = cost(C, sol)
    before_band = structure.bandwidth(sol)
    try:
        normalized = structure.band_normalize(sol, C)
    except NotLayeredMongeError:
        raise CliError("normalize requires a layered Monge instance")
    after_cost = cost(C, normalized)
    after_band = structure.bandwidth(normalized)
    sys.stderr.write(
        f"cost {before_cost} -> {after_cost}, bandwidth {before_band} -> {after_band}\n"
    )
    if args.format == "json":
        _write(io.solution_to_json(normalized) + "\n", args.output)
    else:
        _write(io.format_solution(normalized), args.output)
    return EXIT_OK


def cmd_blocks(args) -> int:
    from . import structure

    sol = _load_rectangle(args.solution)
    partition = structure.block_decompose(sol)
    _write(json.dumps(partition.to_list()) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3ap",
        description="Exact solvers for planar 3-dimensional assignment "
        "problems on Monge-like cost arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, instance=True):
        if instance:
            sp.add_argument("--input", help="instance file (text or JSON)")
        sp.add_argument("--output", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("gen", help="generate an instance")
    sp.set_defaults(func=cmd_gen)
    gens = sp.add_subparsers(dest="generator", required=True)
    g = gens.add_parser("random-monge")
    common(g, instance=False)
    g.add_argument("--n", type=int)
    g.add_argument("--p", type=int)
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    g = gens.add_parser("embed-p3ap")
    common(g)
    g.add_argument("--nonneg-variant", action="store_true")
    common(gens.add_parser("embed-pp3ap"))
    g = gens.add_parser("counterexample")
    common(g, instance=False)
    g.add_argument("--a-scale", type=int, default=10)
    g = gens.add_parser("counterexample-ext")
    common(g, instance=False)
    g.add_argument("--extra-blocks", type=int, default=0)
    g.add_argument("--a-scale", type=int, default=10)

    sp = sub.add_parser("solve", help="solve an instance exactly")
    common(sp)
    sp.add_argument("--solver", choices=("auto", "dp", "brute"), default="auto")
    sp.add_argument("--all-optima", action="store_true")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check", help="verify a solution against an instance")
    common(sp)
    sp.add_argument("--solution", help="solution file (text or JSON)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("normalize", help="band-normalize a feasible solution")
    common(sp)
    sp.add_argument("--solution", help="solution file (text or JSON)")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("blocks", help="block decomposition of a solution")
    sp.add_argument("--solution", help="solution file (text or JSON)")
    sp.add_argument("--output", help="output file (default: stdout)")
    sp.set_defaults(func=cmd_blocks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.code
    except InfeasibleSolutionError as e:
        sys.stderr.write(f"error: infeasible solution: {e}\n")
        return EXIT_INPUT
    except (DimensionError, NotLayeredMongeError, OracleSizeLimitError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_LIMIT if isinstance(e, OracleSizeLimitError) else EXIT_INPUT
    except MemoryError as e:
        sys.stderr.write(f"error: out of memory{f': {e}' if str(e) else ''}\n")
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
