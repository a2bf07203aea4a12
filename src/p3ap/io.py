"""Text and JSON serialization of instances, densities and solutions.

Instance text format: a line "n p", then p blocks separated by blank lines,
each block n lines of n space-separated integers (the k-plane, row by row).
Density files carry an extra "density" marker line after the header.
Solution text format: p lines of n space-separated integers (rectangle rows).
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


def _parse_tensor(rows: list, n: int, p: int) -> np.ndarray:
    if len(rows) < n * p:
        # Before allocating what the header announces: "200000 1" is 320 GB.
        k, i = divmod(len(rows), n)
        raise FormatError(f"truncated file: missing row {i + 1} of layer {k + 1}")
    entries = np.empty((n, n, p), dtype=np.int64)
    for k in range(p):
        for i in range(n):
            values = rows[k * n + i].split()
            if len(values) != n:
                raise FormatError(
                    f"layer {k + 1}, row {i + 1}: expected {n} values, got {len(values)}"
                )
            try:
                entries[i, :, k] = [int(v) for v in values]
            except (ValueError, OverflowError) as e:
                raise FormatError(f"layer {k + 1}, row {i + 1}: {e}")
    return entries


def parse_instance(text: str):
    """Parse instance text; returns (CostArray-or-ndarray, is_density).

    A "density" marker after the header flags a density file; its entries are
    returned as a raw (n, n, p) array because densities need not satisfy the
    p <= n instance constraint checks.
    """
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
    is_density = bool(rest) and rest[0] == "density"
    if is_density:
        rest = rest[1:]
    entries = _parse_tensor(rest, n, p)
    if len(rest) > n * p:
        raise FormatError(f"header '{n} {p}' announces {n * p} rows, got {len(rest)}")
    if is_density:
        return entries, True
    return CostArray(entries), False


def load_instance(path) -> CostArray:
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        return instance_from_json(text)
    parsed, is_density = parse_instance(text)
    if is_density:
        raise FormatError(f"{path} is a density file, not a cost instance")
    return parsed


def format_instance(C: CostArray, header_comment: str = "") -> str:
    out = []
    if header_comment:
        out.append(f"# {header_comment}")
    out.append(f"{C.n} {C.p}")
    for k in range(1, C.p + 1):
        out.append("")
        plane = C.layer(k)
        for i in range(C.n):
            out.append(" ".join(str(int(v)) for v in plane[i]))
    return "\n".join(out) + "\n"


def format_density(density: np.ndarray, header_comment: str = "") -> str:
    d = np.asarray(density)
    n, _, p = d.shape
    out = []
    if header_comment:
        out.append(f"# {header_comment}")
    out.append(f"{n} {p}")
    out.append("density")
    for k in range(p):
        out.append("")
        for i in range(n):
            out.append(" ".join(str(int(v)) for v in d[i, :, k]))
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
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
            rows = tuple(tuple(row) for row in obj["rows"])
        except (ValueError, KeyError, TypeError) as e:
            raise FormatError(f"bad JSON solution: {e}")
        if any(type(v) is not int for row in rows for v in row):
            raise FormatError("bad JSON solution: a row holds a non-integer entry")
        return rows
    return parse_solution_rows(text)


def format_solution(sol: LatinRectangle) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in sol.rows) + "\n"


def solution_to_json(sol: LatinRectangle) -> str:
    return json.dumps({"n": sol.n, "p": sol.p, "rows": [list(r) for r in sol.rows]})
