"""Golden digests of the p3ap CLI's bytes, one per command of bench/cli_diff.py.

    python bench/cli_golden.py --src src --out tests/cli_golden.json

Every command of `cli_diff.commands()` runs in-process through
`p3ap.cli.main(argv)`, in a directory that holds `cli_diff.write_inputs()`,
with the p3ap under --src imported.  Its stdout and stderr are captured as
a UTF-8 subprocess writes them: stdout with surrogateescape, stderr with
backslashreplace.  A SystemExit gives the exit code; any other exception,
which a subprocess would end in a traceback, gives exit 1 and its type and
message on stderr.  A command's digest is the sha256 of its exit code,
stdout, stderr and output file, with every `wall_ms` value masked as
`cli_diff` masks it.  tests/test_cli_golden.py runs `run_all` and compares
its digests with the committed file.  A change that alters the CLI's bytes
on purpose regenerates the file and names every changed command.

`cli_diff.py` stays: only a subprocess sees import-time and interpreter
differences.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from cli_diff import commands, record, write_inputs  # noqa: E402


def _run(main, cid: str, args: list) -> dict:
    out = f"out/{cid}"
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="surrogateescape")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([a.replace("{out}", out) for a in args])
        except SystemExit as e:
            code = e.code
        except Exception as e:  # the run goes on to name every command that differs
            stderr.write(f"Traceback: {type(e).__name__}: {e}\n")
            code = 1
    stdout.flush()
    stderr.flush()
    return record(code, stdout.buffer.getvalue(), stderr.buffer.getvalue(), out)


def run_all(root: str) -> list:
    """Each command's id, arguments, exit code and digest, run in root."""
    from p3ap.cli import main  # the p3ap first on sys.path

    write_inputs(root)
    os.makedirs(os.path.join(root, "out"))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        digests = []
        for idx, args in enumerate(commands()):
            cid = f"c{idx:03d}"
            result = _run(main, cid, args)
            digests.append({
                "id": cid,
                "args": " ".join(args),
                "exit": result["exit"],
                "sha256": hashlib.sha256(
                    json.dumps(result, sort_keys=True).encode()).hexdigest(),
            })
        return digests
    finally:
        os.chdir(cwd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    parser.add_argument("--out", help="golden JSON file (default: stdout)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(tmp)
    # One command a line, so that a regenerated file diffs command by command.
    text = ('{"commands": %d, "digests": [\n%s\n]}\n'
            % (len(digests), ",\n".join(map(json.dumps, digests))))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
