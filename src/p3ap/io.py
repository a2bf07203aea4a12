"""Text and JSON serialization of instances and solutions.

Instance text format: a line "n p", then p blocks separated by blank lines,
each block n lines of n space-separated integers (the k-plane, row by row).
Solution text format: p lines of n space-separated integers (rectangle rows).
A JSON solution holds its rows under "rows", or under "solution_rows" as in
the report of `p3ap solve --format json`.
Lines starting with '#' are comments and are ignored everywhere.

Instance text moves through bounded memory.  `instance_text_chunks` formats
an instance a few rows at a time, for writing as it goes, and
`format_instance` joins those chunks.  `load_instance` reads a text file a
chunk at a time and parses each chunk's rows into one array of all the
rows, with the same messages and the same errors, in the same order, as
`parse_instance` on the whole text.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .core import CostArray, LatinRectangle

# Characters of instance text that load_instance decodes and splits at a
# time, and entries that instance_text_chunks formats into one chunk.
_READ_CHARS = 1 << 20
_WRITE_ENTRIES = 1 << 16


class FormatError(ValueError):
    """Malformed instance or solution file."""


def _data(lines) -> list:
    """The lines that are neither blank nor comments, stripped."""
    return [s for s in map(str.strip, lines) if s and s[0] != "#"]


def _header(line: str) -> tuple:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"header must be 'n p', got {line!r}")
    try:
        n, p = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"header must be 'n p', got {line!r}")
    if n < 1 or p < 1:
        raise FormatError(f"header must have n, p >= 1, got n={n}, p={p}")
    return n, p


def _truncated(rows: int, n: int) -> FormatError:
    k, i = divmod(rows, n)
    return FormatError(f"truncated file: missing row {i + 1} of layer {k + 1}")


def _too_long(rows: int, n: int, p: int) -> FormatError:
    return FormatError(f"header '{n} {p}' announces {n * p} rows, got {rows}")


def _parse_rows(rows: list, n: int, first: int) -> np.ndarray:
    """The rows one at a time with int(), naming the first bad row; rows[0]
    is data row `first` of the file.

    Each row's storage is allocated only after its token count checks, so a
    header cannot make this allocate more than the rows themselves hold.
    """
    parsed = []
    for r, row in enumerate(rows, first):
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


def _parse_block(rows: list, n: int, first: int = 0) -> np.ndarray:
    """The (len(rows), n) int64 array of rows, data rows first, first + 1, ...
    of the file, or FormatError naming the first bad one."""
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
    if flat is None or flat.shape != (len(rows), n):
        flat = _parse_rows(rows, n, first)
    return flat


def _parse_tensor(rows: list, n: int, p: int) -> np.ndarray:
    if len(rows) < n * p:
        # Before allocating what the header announces: "200000 1" is 320 GB.
        raise _truncated(len(rows), n)
    flat = _parse_block(rows[: n * p], n)
    return flat.reshape(p, n, n).transpose(1, 2, 0)  # CostArray copies to C order


def parse_instance(text: str) -> CostArray:
    """Parse instance text into a CostArray."""
    lines = _data(text.splitlines())
    if not lines:
        raise FormatError("empty file")
    n, p = _header(lines[0])
    rest = lines[1:]
    entries = _parse_tensor(rest, n, p)
    if len(rest) > n * p:
        raise _too_long(len(rest), n, p)
    return CostArray(entries)


def _read(path) -> tuple:
    """The file's text, read as UTF-8 whatever the locale, and whether it is JSON."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return text, text.lstrip().startswith("{")


def _text_chunks(path):
    """The file's text, read as UTF-8 whatever the locale, _READ_CHARS
    characters at a time."""
    with open(path, encoding="utf-8") as f:
        try:
            while chunk := f.read(_READ_CHARS):
                yield chunk
            return
        except UnicodeDecodeError as e:
            error = e
    # The decoder counts the bad byte's position from the start of its own
    # buffer.  Decoding the whole file raises the error at its offset in the
    # file, as a whole read does.
    with open(path, "rb") as f:
        f.read().decode("utf-8")
    raise error


def _data_chunks(chunks):
    """The data lines of the text that chunks make up, as _data gives them,
    in one list per chunk.

    Lines end where str.splitlines ends them in the whole text.  A line that
    runs past its chunk goes in the list of the chunk that ends it; a "\r\n"
    cut between two chunks only adds a blank line.
    """
    head = []  # the pieces of a line that no chunk has ended yet
    for chunk in chunks:
        lines = chunk.splitlines()
        tail = None if chunk[-1:].splitlines() == [""] else lines.pop()
        if head and lines:
            lines[0] = "".join(head) + lines[0]
            head = []
        if tail is not None:
            head.append(tail)
        yield _data(lines)
    yield _data(["".join(head)])


def _fill(chunks) -> CostArray:
    """The instance in the data lines of chunks (lists as _data_chunks gives
    them), parsed a chunk at a time into one array of all its rows.

    The array is allocated once half its rows have parsed, so a header
    cannot make this allocate more than twice what the text holds; the
    blocks parsed before that wait in `held`.
    """
    header = next(filter(None, chunks), None)
    if header is None:
        raise FormatError("empty file")
    n, p = _header(header[0])
    total = n * p
    count = 0  # data rows after the header
    flat, held = None, []  # the (n * p, n) rows, and blocks parsed before it
    for rows in itertools.chain([header[1:]], chunks):
        block = rows[: max(total - count, 0)]
        if block:
            try:
                held.append((count, _parse_block(block, n, count)))
            except FormatError:
                # A file that is too short says so first, as parse_instance does.
                count += len(rows) + sum(map(len, chunks))
                if count < total:
                    raise _truncated(count, n)
                raise
            if flat is None and 2 * (count + len(block)) >= total:
                flat = np.empty((total, n), dtype=np.int64)
            if flat is not None:
                for first, part in held:
                    flat[first : first + len(part)] = part
                held = []
        count += len(rows)
    if count < total:
        raise _truncated(count, n)
    if count > total:
        raise _too_long(count, n, p)
    return CostArray(flat.reshape(p, n, n).transpose(1, 2, 0))


def load_instance(path) -> CostArray:
    """The instance in a text or JSON file, read as UTF-8.

    A text file is read and parsed a chunk at a time.  Whatever its errors,
    the first byte that is not UTF-8 is reported first, as when the file is
    decoded whole.
    """
    chunks = _text_chunks(path)
    head = []  # the chunks up to the first that is not all whitespace
    for chunk in chunks:
        head.append(chunk)
        if not chunk.isspace():
            break
    if head and head[-1].lstrip().startswith("{"):
        return instance_from_json("".join(itertools.chain(head, chunks)))
    data = _data_chunks(itertools.chain(head, chunks))
    try:
        return _fill(data)
    except FormatError:
        for _ in data:  # reads the rest, so that a byte that is not UTF-8 comes first
            pass
        raise


def _rows_text(a: np.ndarray) -> str:
    """The rows of a 2-d array, each as its entries' int() joined by spaces
    and ended by a newline.

    "%d" formats exactly as str(int(v)) does.  One row goes through tolist()
    at a time: a whole plane's list of lists would cost several MB of peak
    memory.
    """
    fmt = " ".join(["%d"] * a.shape[1]) + "\n"
    return "".join([fmt % tuple(row.tolist()) for row in a])


def instance_text_chunks(C: CostArray, header_comment: str = ""):
    """The text of format_instance in chunks of about _WRITE_ENTRIES entries
    or one row, made as they are read."""
    yield (f"# {header_comment}\n" if header_comment else "") + f"{C.n} {C.p}\n"
    step = max(1, _WRITE_ENTRIES // C.n)
    for k in range(C.p):
        plane = C.entries[:, :, k]
        yield "\n"
        for i in range(0, C.n, step):
            yield _rows_text(plane[i : i + step])


def format_instance(C: CostArray, header_comment: str = "") -> str:
    return "".join(instance_text_chunks(C, header_comment))


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
    for line in _data(text.splitlines()):
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
    return _rows_text(np.array(sol.rows))


def solution_to_json(sol: LatinRectangle) -> str:
    return json.dumps({"n": sol.n, "p": sol.p, "rows": [list(r) for r in sol.rows]})
