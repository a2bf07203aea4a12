"""Differential run of the p3ap CLI on two checkouts.

    python bench/cli_diff.py --side parent=../parent/src --side change=src \
        --out cli_diff.json

Both sides run the same fixed list of commands, each as a fresh
`python -m p3ap.cli` subprocess: gen (every generator, its refusals
included), solve (dp, brute and auto, with and without --all-optima),
check, normalize and blocks, in text and JSON, half to stdout and half to
an --output file.  The inputs are written here with numpy alone, so they do
not depend on either side: random layered Monge arrays, zero arrays, 0-1
arrays that are not Monge, feasible and infeasible solutions, solve-style
JSON reports, malformed files, an instance with a UTF-8 comment and one
whose file name is not UTF-8.  Some commands pass a flag that their command
does not read.  The commands reach exits 0, 2 and 3.  bench/cli_golden.py
runs the same commands in-process against committed digests.

Each side runs in its own directory holding the same relative paths, so
that paths in messages agree.  A command differs when its stdout, stderr,
exit code or output file differs after every `wall_ms` value is masked.
The report lists the exit codes per side and every differing command with
both sides' values.  The script exits 1 if any command differs.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

WALL_MS = re.compile(r'(wall_ms"?:? )[-+0-9.e]+')


def instance_text(entries: np.ndarray) -> str:
    n, _, p = entries.shape
    lines = [f"{n} {p}"]
    for k in range(p):
        lines.append("")
        lines += [" ".join(map(str, row)) for row in entries[:, :, k].tolist()]
    return "\n".join(lines) + "\n"


def layered_monge(n: int, p: int, seed: int) -> np.ndarray:
    """Negated 2-d prefix sums of a nonnegative density, plus row and column
    constants, per layer: Monge in every layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(p):
        base = -rng.integers(0, 10, size=(n, n)).cumsum(axis=0).cumsum(axis=1)
        u, v = rng.integers(-20, 21, size=(2, n))
        layers.append(base + u[:, None] + v[None, :])
    return np.stack(layers, axis=2)


def shifted_rows(n: int, p: int, seed: int) -> list:
    """A feasible p x n Latin rectangle: cyclic shifts of one permutation."""
    perm = np.random.default_rng(seed).permutation(n) + 1
    return [[int(perm[(j + k) % n]) for j in range(n)] for k in range(p)]


def solution_text(rows) -> str:
    return "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


def write_inputs(root: str):
    """Write every input file under root/in."""

    def put(name, text, mode="w"):
        with open(os.path.join(root, "in", name), mode) as f:
            f.write(text)

    os.makedirs(os.path.join(root, "in"))
    for n, p in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (4, 3), (5, 2), (5, 3),
                 (6, 2), (6, 3), (7, 2), (7, 3), (12, 2), (40, 2), (8, 4)):
        put(f"monge_{n}_{p}.txt", instance_text(layered_monge(n, p, 100 * n + p)))
    for n, p in ((4, 2), (5, 3), (6, 3), (30, 2)):
        put(f"zeros_{n}_{p}.txt", instance_text(np.zeros((n, n, p), dtype=np.int64)))
    for n, p in ((2, 2), (3, 3), (3, 2), (4, 3), (5, 2), (8, 2)):
        entries = np.random.default_rng(7 * n + p).integers(0, 2, size=(n, n, p))
        # c11 + c22 > c12 + c21 breaks the Monge property of layer 1.
        entries[0, 0, 0], entries[1, 1, 0], entries[0, 1, 0], entries[1, 0, 0] = 1, 1, 0, 0
        put(f"01_{n}_{p}.txt", instance_text(entries))
    e = layered_monge(4, 2, 9)
    put("monge_4_2.json", json.dumps({"n": 4, "p": 2, "layers": [
        e[:, :, k].tolist() for k in range(2)]}))
    huge = np.full((3, 3, 1), 2**62, dtype=np.int64)
    put("huge_3_1.txt", instance_text(huge))
    put("empty.txt", "")
    put("bad_header.txt", "3\n1 2 3\n")
    put("truncated.txt", "3 2\n\n1 2 3\n4 5 6\n")
    put("bad_token.txt", "2 1\n\n1 x\n3 4\n")
    put("not_utf8.txt", b"2 1\n\n1 2\n3 \xff\n", mode="wb")
    put("bad.json", '{"n": 2, "p": 1}')
    put("density.txt", "2 1\ndensity\n\n1 2\n3 4\n")
    # A UTF-8 comment, and a file name that is not UTF-8 (the byte 0xff, which
    # os.fsdecode turns into the lone surrogate that argv would carry).
    put("cafe.txt", ("# café\n" + instance_text(layered_monge(3, 2, 302))).encode(), mode="wb")
    shutil.copyfile(os.path.join(root, "in", "01_2_2.txt"),
                    os.path.join(root, "in", os.fsdecode(b"x\xff.txt")))

    for n, p in ((3, 2), (4, 3), (5, 2), (6, 2), (6, 3), (7, 2), (12, 2), (40, 2)):
        rows = shifted_rows(n, p, n + p)
        put(f"sol_{n}_{p}.txt", solution_text(rows))
        put(f"sol_{n}_{p}.json", json.dumps({"n": n, "p": p, "rows": rows}))
        put(f"report_{n}_{p}.json", json.dumps({
            "optimum": 0, "solution_rows": rows, "solver": "dp",
            "states_explored": 0, "unique_in_band": None, "wall_ms": 1.0}))
        bad = [list(r) for r in rows]
        bad[-1][0] = bad[0][0]  # two layers put the same row in column 1
        put(f"infeasible_{n}_{p}.txt", solution_text(bad))
    put("sol_bad_line.txt", "1 2 x\n2 1 3\n")
    put("sol_empty.txt", "# nothing\n")
    put("sol_bad.json", '{"rows": [[1, 2.5]]}')


def commands() -> list:
    """The fixed command list; '{out}' marks where an --output path goes."""
    cmds = []
    dest = 0

    def add(*args, fmt=None):
        nonlocal dest
        args = list(args)
        if fmt:
            args += ["--format", fmt]
        # Pairs of commands that differ only in --format alternate which
        # of the two goes to a file.
        if dest % 4 in (1, 2):
            args += ["--output", "{out}"]
        dest += 1
        cmds.append(args)

    # gen
    for n, p in ((1, 1), (3, 2), (5, 3), (8, 4), (30, 2), (500, 2)):
        for seed in (0, 5):
            for fmt in ("text", "json"):
                add("gen", "random-monge", "--n", str(n), "--p", str(p), "--seed", str(seed),
                    fmt=fmt)
    add("gen", "random-monge", "--n", "4", "--p", "2")
    add("gen", "random-monge")
    add("gen", "random-monge", "--n", "3", "--p", "4")
    add("gen", "random-monge", "--n", "5", "--p", "2", "--seed", "-1")
    for name in ("01_2_2.txt", "01_3_3.txt", "monge_2_2.txt", "01_3_2.txt", "missing.txt"):
        for fmt in ("text", "json"):
            add("gen", "embed-p3ap", "--input", f"in/{name}", fmt=fmt)
            add("gen", "embed-pp3ap", "--input", f"in/{name}", fmt=fmt)
        add("gen", "embed-p3ap", "--input", f"in/{name}", "--nonneg-variant")
    add("gen", "embed-p3ap")
    for a in (9, 10, 11, 13, 14, 15, 16, 19, 100, 972000, 1000000, 3000000):
        for fmt in ("text", "json"):
            add("gen", "counterexample", "--a-scale", str(a), fmt=fmt)
    for extra in range(4):
        for a in (10, 12, 14, 15, 20):
            add("gen", "counterexample-ext", "--extra-blocks", str(extra),
                "--a-scale", str(a), fmt=("text", "json")[(extra + a) % 2])
    for extra in (-1, 13, 14, 15, 16, 100000):
        add("gen", "counterexample-ext", "--extra-blocks", str(extra))

    # solve
    instances = (
        [f"monge_{n}_{p}.txt" for n, p in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (4, 3),
                                         (5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3),
                                         (12, 2), (40, 2), (8, 4))]
        + [f"zeros_{n}_{p}.txt" for n, p in ((4, 2), (5, 3), (6, 3), (30, 2))]
        + [f"01_{n}_{p}.txt" for n, p in ((3, 2), (4, 3), (5, 2), (8, 2))]
        + ["monge_4_2.json"]
    )
    for name in instances:
        for solver in ("dp", "brute", "auto"):
            for all_optima in (False, True):
                for fmt in ("text", "json"):
                    add("solve", "--input", f"in/{name}", "--solver", solver,
                        *(["--all-optima"] if all_optima else []), fmt=fmt)
    for name in ("huge_3_1.txt", "empty.txt", "bad_header.txt", "truncated.txt",
                 "bad_token.txt", "not_utf8.txt", "bad.json", "missing.txt", "density.txt"):
        add("solve", "--input", f"in/{name}")
    add("solve")

    # check, normalize, blocks
    for n, p in ((3, 2), (4, 3), (5, 2), (6, 2), (6, 3), (7, 2), (12, 2), (40, 2)):
        inst = f"in/monge_{n}_{p}.txt"
        for sol in (f"sol_{n}_{p}.txt", f"sol_{n}_{p}.json", f"report_{n}_{p}.json",
                    f"infeasible_{n}_{p}.txt"):
            for fmt in ("text", "json"):
                add("check", "--input", inst, "--solution", f"in/{sol}", fmt=fmt)
                add("normalize", "--input", inst, "--solution", f"in/{sol}", fmt=fmt)
            add("blocks", "--solution", f"in/{sol}")
    for n, p in ((3, 2), (5, 2)):
        for fmt in ("text", "json"):
            add("normalize", "--input", f"in/01_{n}_{p}.txt", "--solution",
                f"in/sol_{n}_{p}.txt", fmt=fmt)
            add("check", "--input", f"in/01_{n}_{p}.txt", "--solution",
                f"in/sol_{n}_{p}.json", fmt=fmt)
    for sol in ("sol_bad_line.txt", "sol_empty.txt", "sol_bad.json", "sol_4_3.txt",
                "missing.txt"):
        add("check", "--input", "in/monge_3_2.txt", "--solution", f"in/{sol}")
        add("normalize", "--input", "in/monge_3_2.txt", "--solution", f"in/{sol}")
        add("blocks", "--solution", f"in/{sol}")
    add("check", "--input", "in/monge_3_2.txt")
    add("normalize", "--solution", "in/sol_3_2.txt")
    add("blocks")
    add("blocks", "--input", "in/sol_5_2.txt", fmt="json")

    # Flags that their command does not read.
    add("gen", "counterexample", "--seed", "3")
    add("gen", "random-monge", "--n", "4", "--p", "2", "--a-scale", "12")
    add("gen", "embed-pp3ap", "--input", "in/01_2_2.txt", "--nonneg-variant")
    add("blocks", "--solution", "in/sol_5_2.txt", fmt="json")
    add("blocks", "--input", "in/sol_5_2.txt")

    # Files are read and written as UTF-8 whatever the locale; argv's bytes go
    # back out as they came in.  The first of the two writes to --output.
    add("gen", "embed-p3ap", "--input", os.fsdecode(b"in/x\xff.txt"))
    add("solve", "--input", "in/cafe.txt")
    return cmds


def mask(text: str) -> str:
    return WALL_MS.sub(r"\1<masked>", text)


def run(src: str, root: str, cid: str, args: list) -> dict:
    out = f"out/{cid}"
    argv = [a.replace("{out}", out) for a in args]
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "p3ap.cli", *argv], cwd=root, env=env,
                          capture_output=True, timeout=600)
    return record(proc.returncode, proc.stdout, proc.stderr, os.path.join(root, out))


def record(code: int, stdout: bytes, stderr: bytes, path: str) -> dict:
    """A command's exit code, stdout, stderr and the output file at path,
    which is removed, as text with every wall_ms value masked."""
    result = {
        "exit": code,
        "stdout": mask(stdout.decode(errors="backslashreplace")),
        "stderr": mask(stderr.decode(errors="backslashreplace")),
    }
    if os.path.exists(path):
        with open(path, "rb") as f:
            result["output_file"] = mask(f.read().decode(errors="backslashreplace"))
        os.remove(path)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="label=path to the src directory of a checkout (twice)")
    parser.add_argument("--out", help="JSON report file (default: stdout)")
    args = parser.parse_args()
    sides = [s.split("=", 1) for s in args.side]
    if len(sides) != 2:
        parser.error("give exactly two --side label=src")
    cmds = commands()
    exits = {label: collections.Counter() for label, _ in sides}
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {}
        for label, _ in sides:
            roots[label] = os.path.join(tmp, label)
            write_inputs(roots[label])
            os.makedirs(os.path.join(roots[label], "out"))
        for idx, cmd in enumerate(cmds):
            cid = f"c{idx:03d}"
            order = sides if idx % 2 == 0 else sides[::-1]
            results = {label: run(os.path.abspath(src), roots[label], cid, cmd)
                       for label, src in order}
            for label, _ in sides:
                exits[label][results[label]["exit"]] += 1
            a, b = (results[label] for label, _ in sides)
            fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            if fields:
                differ.append({"id": cid, "args": " ".join(cmd), "fields": {
                    k: {label: results[label].get(k) for label, _ in sides} for k in fields}})
                print(f"{cid} differs in {', '.join(fields)}: {' '.join(cmd)}", file=sys.stderr)
    doc = {
        "commands": len(cmds),
        "exit_codes": {label: {str(k): v for k, v in sorted(c.items())}
                       for label, c in exits.items()},
        "identical": len(cmds) - len(differ),
        "differ": differ,
    }
    print(f"{len(cmds)} commands, {doc['identical']} identical, {len(differ)} differ; "
          f"exit codes {doc['exit_codes']}", file=sys.stderr)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
