"""Text and JSON serialization of instances and solutions.

Instance text format: a line "n p", then p blocks separated by blank lines,
each block n lines of n space-separated integers (the k-plane, row by row).
Solution text format: p lines of n space-separated integers (rectangle rows).
A JSON solution holds its rows under "rows", or under "solution_rows" as in
the report of `p3ap solve --format json`.
Lines starting with '#' are comments and are ignored everywhere.
"""

from __future__ import annotations

import json

import numpy as np

from .core import CostArray, LatinRectangle


class FormatError(ValueError):
    """Malformed instance or solution file."""


def _tokens(text: str):
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield stripped


def _parse_rows(rows: list, n: int) -> np.ndarray:
    """The rows one at a time with int(), naming the first bad row.

    Each row's storage is allocated only after its token count checks, so a
    header cannot make this allocate more than the rows themselves hold.
    """
    parsed = []
    for r, row in enumerate(rows):
        k, i = divmod(r, n)
        values = row.split()
        if len(values) != n:
            raise FormatError(
                f"layer {k + 1}, row {i + 1}: expected {n} values, got {len(values)}"
            )
        try:
            parsed.append(np.array([int(v) for v in values], dtype=np.int64))
        except (ValueError, OverflowError) as e:
            raise FormatError(f"layer {k + 1}, row {i + 1}: {e}")
    return np.array(parsed)


def _parse_tensor(rows: list, n: int, p: int) -> np.ndarray:
    if len(rows) < n * p:
        # Before allocating what the header announces: "200000 1" is 320 GB.
        k, i = divmod(len(rows), n)
        raise FormatError(f"truncated file: missing row {i + 1} of layer {k + 1}")
    rows = rows[: n * p]
    flat = None
    # On ASCII rows numpy's integer reader accepts a subset of what int()
    # does, with the same values, and comments=None keeps "0 0 # 1" a bad
    # row.  Past ASCII it is unsafe: numpy 2.4 read "1\U0009c6ca2" as
    # 6406762 and crashed on "\U0009c6ca".  The loop gives int()'s answer.
    if all(map(str.isascii, rows)):
        try:
            flat = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    if flat is None or flat.shape != (n * p, n):
        flat = _parse_rows(rows, n)
    return flat.reshape(p, n, n).transpose(1, 2, 0)  # CostArray copies to C order


def parse_instance(text: str) -> CostArray:
    """Parse instance text into a CostArray."""
    lines = _tokens(text)
    try:
        header = next(lines)
    except StopIteration:
        raise FormatError("empty file")
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"header must be 'n p', got {header!r}")
    try:
        n, p = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"header must be 'n p', got {header!r}")
    if n < 1 or p < 1:
        raise FormatError(f"header must have n, p >= 1, got n={n}, p={p}")
    rest = list(lines)
    entries = _parse_tensor(rest, n, p)
    if len(rest) > n * p:
        raise FormatError(f"header '{n} {p}' announces {n * p} rows, got {len(rest)}")
    return CostArray(entries)


def _read(path) -> tuple:
    """The file's text, read as UTF-8 whatever the locale, and whether it is JSON."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return text, text.lstrip().startswith("{")


def load_instance(path) -> CostArray:
    text, is_json = _read(path)
    return instance_from_json(text) if is_json else parse_instance(text)


def _rows_text(plane: np.ndarray) -> list:
    """The rows of a 2-d array, each as its entries' int() joined by spaces.

    "%d" formats exactly as str(int(v)) does.  One row goes through tolist()
    at a time: a whole plane's list of lists would cost several MB of peak
    memory.
    """
    fmt = " ".join(["%d"] * plane.shape[1])
    return [fmt % tuple(row.tolist()) for row in plane]


def format_instance(C: CostArray, header_comment: str = "") -> str:
    out = [f"# {header_comment}"] if header_comment else []
    out.append(f"{C.n} {C.p}")
    for k in range(C.p):
        out.append("")
        out.extend(_rows_text(C.entries[:, :, k]))
    return "\n".join(out) + "\n"


def instance_to_json(C: CostArray) -> str:
    layers = [C.layer(k).tolist() for k in range(1, C.p + 1)]
    return json.dumps({"n": C.n, "p": C.p, "layers": layers})


def instance_from_json(text: str) -> CostArray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON: {e}")
    try:
        n, p, layers = obj["n"], obj["p"], obj["layers"]
    except (KeyError, TypeError):
        raise FormatError("JSON instance needs fields n, p, layers")
    if type(n) is not int or type(p) is not int or n < 1 or p < 1:
        raise FormatError(f"JSON instance needs integers n, p >= 1, got n={n!r}, p={p!r}")
    if not isinstance(layers, list) or len(layers) != p:
        raise FormatError(f"expected a list of {p} layers")
    for k, plane in enumerate(layers):
        if (
            not isinstance(plane, list)
            or len(plane) != n
            or any(not isinstance(row, list) or len(row) != n for row in plane)
        ):
            raise FormatError(f"layer {k + 1} must be a list of {n} rows of {n} entries")
        if any(type(v) is not int for row in plane for v in row):
            raise FormatError(f"layer {k + 1} holds a non-integer entry")
    try:
        entries = np.array(layers, dtype=np.int64)
    except OverflowError as e:
        raise FormatError(f"entry out of int64 range: {e}")
    return CostArray(entries.transpose(1, 2, 0))


def parse_solution_rows(text: str):
    """Raw rectangle rows from solution text (feasibility checked separately)."""
    rows = []
    for line in _tokens(text):
        try:
            rows.append(tuple(int(v) for v in line.split()))
        except ValueError as e:
            raise FormatError(f"bad solution line {line!r}: {e}")
    if not rows:
        raise FormatError("empty solution file")
    return tuple(rows)


def load_solution_rows(path):
    text, is_json = _read(path)
    if is_json:
        try:
            obj = json.loads(text)
            # `solve --format json` reports its witness as solution_rows.
            key = "rows"
            if isinstance(obj, dict) and key not in obj and "solution_rows" in obj:
                key = "solution_rows"
            rows = tuple(tuple(row) for row in obj[key])
        except (ValueError, KeyError, TypeError) as e:
            raise FormatError(f"bad JSON solution: {e}")
        if any(type(v) is not int for row in rows for v in row):
            raise FormatError("bad JSON solution: a row holds a non-integer entry")
        return rows
    return parse_solution_rows(text)


def format_solution(sol: LatinRectangle) -> str:
    return "\n".join(_rows_text(np.array(sol.rows))) + "\n"


def solution_to_json(sol: LatinRectangle) -> str:
    return json.dumps({"n": sol.n, "p": sol.p, "rows": [list(r) for r in sol.rows]})
